//! Hardware configuration: UPE/SCR instance counts and widths.

use crate::floorplan::{self, Floorplan};

/// Configuration of the UPE kernel: instance count and per-instance width.
///
/// "UPEs can be configured up to 240 instances, each with a width of 64
/// elements" on the VPK180 (§V-A); both parameters are reconfigurable
/// (§V-B "Bitstream generation").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct UpeConfig {
    /// Number of UPE instances.
    pub count: usize,
    /// Elements processed per UPE pass; must be a power of two ("both
    /// hardware are most efficient when configured with widths that are a
    /// power of two", §V-B).
    pub width: usize,
}

impl UpeConfig {
    /// Creates a configuration, validating the width.
    ///
    /// # Panics
    ///
    /// Panics if `count == 0`, `width < 2`, or `width` is not a power of two.
    pub fn new(count: usize, width: usize) -> Self {
        assert!(count > 0, "UPE count must be positive");
        assert!(
            width >= 2 && width.is_power_of_two(),
            "UPE width must be a power of two >= 2, got {width}"
        );
        UpeConfig { count, width }
    }

    /// LUTs this configuration occupies.
    pub fn luts(&self) -> u64 {
        floorplan::upe_luts(self.width) * self.count as u64
    }
}

/// Configuration of the SCR kernel: slot count and per-slot width.
///
/// A *slot* is one SCR instance (one comparator array + reducer tree); the
/// width is the number of comparators, i.e. elements examined per cycle
/// (Fig. 13b, Fig. 23a).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ScrConfig {
    /// Number of SCR slots.
    pub slots: usize,
    /// Comparators per slot; must be a power of two.
    pub width: usize,
}

impl ScrConfig {
    /// Creates a configuration, validating the width.
    ///
    /// # Panics
    ///
    /// Panics if `slots == 0`, `width < 2`, or `width` is not a power of two.
    pub fn new(slots: usize, width: usize) -> Self {
        assert!(slots > 0, "SCR slot count must be positive");
        assert!(
            width >= 2 && width.is_power_of_two(),
            "SCR width must be a power of two >= 2, got {width}"
        );
        ScrConfig { slots, width }
    }

    /// LUTs this configuration occupies.
    pub fn luts(&self) -> u64 {
        floorplan::scr_luts(self.width) * self.slots as u64
    }
}

/// Full HW-kernel configuration: the two reconfigurable regions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct HwConfig {
    /// UPE region contents.
    pub upe: UpeConfig,
    /// SCR region contents.
    pub scr: ScrConfig,
}

impl HwConfig {
    /// The Table III default on the VPK180: the width-64 rung of the
    /// halve-width/double-count bitstream ladder (64 instances; the region
    /// could fit up to 240 — §V-A — but ladder rungs keep power-of-two
    /// counts so a single pre-compiled bitstream per width suffices), and
    /// one SCR slot filling the 30 % region.
    pub fn vpk180_default() -> Self {
        let plan = Floorplan::vpk180();
        let scr_width = plan.max_scr_width(1);
        HwConfig {
            upe: UpeConfig::new(64, 64),
            scr: ScrConfig::new(1, scr_width),
        }
    }

    /// Whether this configuration fits the given floorplan.
    pub fn fits(&self, plan: &Floorplan) -> bool {
        self.upe.luts() <= plan.upe_region_luts() && self.scr.luts() <= plan.scr_region_luts()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vpk180_default_matches_paper_constants() {
        let cfg = HwConfig::vpk180_default();
        assert_eq!(cfg.upe.width, 64, "Table III: UPE width 64");
        assert_eq!(cfg.scr.slots, 1, "Table III: SCR slots 1");
        assert!(cfg.fits(&Floorplan::vpk180()));
        // The region has headroom up to 240 instances of width 64 (§V-A).
        assert_eq!(Floorplan::vpk180().max_upe_count(64), 240);
        assert!(cfg.upe.count <= 240);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two_width() {
        UpeConfig::new(1, 48);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_zero_count() {
        ScrConfig::new(0, 64);
    }

    #[test]
    fn oversized_config_does_not_fit() {
        let plan = Floorplan::vpk180();
        let cfg = HwConfig {
            upe: UpeConfig::new(10_000, 64),
            scr: ScrConfig::new(1, 64),
        };
        assert!(!cfg.fits(&plan));
    }
}
