//! The pre-compiled bitstream library.
//!
//! §V-B: "we start from a bitstream consisting of a single large UPE (and
//! SCR), and iteratively halve the width and double the instance count …
//! On our board, this yields ten UPE variants and ten SCR variants, thus
//! twenty kernel bitstreams in total. … At boot, all twenty bitstreams
//! (50 MB each, 1 GB total) are staged in the internal DRAM."

use agnn_hw::floorplan::Floorplan;
use agnn_hw::{ScrConfig, UpeConfig};

/// Number of ladder steps per kernel on the VPK180.
pub const VARIANTS_PER_KERNEL: usize = 10;

/// The pre-compiled UPE and SCR bitstream ladders for a floorplan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitstreamLibrary {
    upe_variants: Vec<UpeConfig>,
    scr_variants: Vec<ScrConfig>,
}

impl BitstreamLibrary {
    /// Builds the halve-width/double-count ladders that fit `plan`, up to
    /// ten (`VARIANTS_PER_KERNEL`) variants per kernel.
    ///
    /// # Panics
    ///
    /// Panics if the floorplan cannot fit even the smallest kernels.
    pub fn for_floorplan(plan: &Floorplan) -> Self {
        // Largest single-instance UPE width that fits the UPE region.
        let mut width = 2usize;
        while agnn_hw::floorplan::upe_luts(width * 2) <= plan.upe_region_luts() {
            width *= 2;
        }
        assert!(
            agnn_hw::floorplan::upe_luts(width) <= plan.upe_region_luts(),
            "floorplan too small for any UPE"
        );
        // Strict halve-width/double-count ladder (§V-B). Keeping
        // `count × width` constant is what gives the Table I cost model its
        // interior optimum: ordering favours wide UPEs (fewer merge rounds,
        // faster cascade root), selection favours many UPEs (draws per
        // cycle). The region capacity at width 64 is 240 instances (§V-A);
        // the ladder's power-of-two rung uses 64 of them.
        let mut upe_variants = Vec::with_capacity(VARIANTS_PER_KERNEL);
        let mut count = 1usize;
        while upe_variants.len() < VARIANTS_PER_KERNEL && width >= 2 {
            let candidate = UpeConfig::new(count, width);
            if candidate.luts() <= plan.upe_region_luts() {
                upe_variants.push(candidate);
            }
            width /= 2;
            count *= 2;
        }

        let mut scr_width = plan.max_scr_width(1);
        let mut scr_variants = Vec::with_capacity(VARIANTS_PER_KERNEL);
        let mut slots = 1usize;
        while scr_variants.len() < VARIANTS_PER_KERNEL && scr_width >= 2 {
            let candidate = ScrConfig::new(slots, scr_width);
            if candidate.luts() <= plan.scr_region_luts() {
                scr_variants.push(candidate);
            }
            scr_width /= 2;
            slots *= 2;
        }

        assert!(
            !upe_variants.is_empty() && !scr_variants.is_empty(),
            "floorplan produced an empty bitstream library"
        );
        BitstreamLibrary {
            upe_variants,
            scr_variants,
        }
    }

    /// The UPE ladder, largest width first.
    pub fn upe_variants(&self) -> &[UpeConfig] {
        &self.upe_variants
    }

    /// The SCR ladder, largest width first.
    pub fn scr_variants(&self) -> &[ScrConfig] {
        &self.scr_variants
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vpk180_yields_ten_plus_ten_variants() {
        let lib = BitstreamLibrary::for_floorplan(&Floorplan::vpk180());
        assert_eq!(lib.upe_variants().len(), 10, "§V-B: ten UPE variants");
        assert_eq!(lib.scr_variants().len(), 10, "§V-B: ten SCR variants");
    }

    #[test]
    fn ladder_halves_width_and_doubles_count() {
        let lib = BitstreamLibrary::for_floorplan(&Floorplan::vpk180());
        for pair in lib.upe_variants().windows(2) {
            assert_eq!(pair[1].width * 2, pair[0].width);
            assert_eq!(pair[1].count, pair[0].count * 2);
        }
        assert_eq!(lib.upe_variants()[0].count, 1, "single large UPE first");
        assert_eq!(lib.upe_variants()[0].width, 4096);
        // Constant aggregate throughput across the ladder.
        for upe in lib.upe_variants() {
            assert_eq!(upe.count * upe.width, 4096);
        }
        for pair in lib.scr_variants().windows(2) {
            assert_eq!(pair[1].width * 2, pair[0].width);
            assert_eq!(pair[1].slots, pair[0].slots * 2);
        }
        assert_eq!(lib.scr_variants()[0].slots, 1);
        assert_eq!(lib.scr_variants()[0].width, 8192);
    }

    #[test]
    fn every_variant_fits_its_region() {
        let plan = Floorplan::vpk180();
        let lib = BitstreamLibrary::for_floorplan(&plan);
        for upe in lib.upe_variants() {
            assert!(upe.luts() <= plan.upe_region_luts(), "{upe:?}");
        }
        for scr in lib.scr_variants() {
            assert!(scr.luts() <= plan.scr_region_luts(), "{scr:?}");
        }
    }

    #[test]
    fn small_boards_get_smaller_ladders() {
        let small = Floorplan::vpk180().with_total_luts(400_000);
        let lib = BitstreamLibrary::for_floorplan(&small);
        assert!(!lib.upe_variants().is_empty());
        assert!(
            lib.upe_variants()[0].width < 4096,
            "largest UPE shrinks with the board"
        );
    }
}
