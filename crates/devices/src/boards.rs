//! FPGA board catalog for the LUT and price sweeps (Fig. 26).
//!
//! The paper anchors prices to "the 3090 GPU has similar costs to a Xilinx
//! FPGA with 400K LUTs" (§VI-B) and sweeps boards across a wide price
//! range; the catalog below spans the same range with representative
//! device classes (prices are list-price approximations — see
//! `docs/FIDELITY.md`).

use agnn_hw::floorplan::Floorplan;

/// Reference GPU (RTX 3090) street price in USD.
pub const GPU_PRICE_USD: f64 = 1_500.0;

/// One FPGA evaluation board.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Board {
    /// Marketing name.
    pub name: &'static str,
    /// Usable LUT count.
    pub luts: u64,
    /// Approximate board price, USD.
    pub price_usd: f64,
}

impl Board {
    /// The board's floorplan at the fixed 70:30 UPE:SCR split.
    pub fn floorplan(&self) -> Floorplan {
        Floorplan::new(self.luts, 0.70)
    }

    /// Price normalized to the reference GPU (the Fig. 26b x-axis).
    pub fn normalized_price(&self) -> f64 {
        self.price_usd / GPU_PRICE_USD
    }
}

/// The evaluation catalog, ascending LUT count. The 400 K-LUT entry is the
/// GPU-price-parity anchor; the VPK180 is the paper's prototype board.
pub fn catalog() -> [Board; 6] {
    [
        Board {
            name: "Artix-7 100T",
            luts: 100_000,
            price_usd: 180.0,
        },
        Board {
            name: "Kintex-7 325T",
            luts: 325_000,
            price_usd: 900.0,
        },
        Board {
            name: "Kintex UltraScale KU060",
            luts: 400_000,
            price_usd: 1_500.0,
        },
        Board {
            name: "Virtex UltraScale+ VU9P",
            luts: 1_200_000,
            price_usd: 6_500.0,
        },
        Board {
            name: "Versal VPK120",
            luts: 2_400_000,
            price_usd: 14_000.0,
        },
        Board {
            name: "Versal VPK180",
            luts: 4_100_000,
            price_usd: 28_000.0,
        },
    ]
}

/// Looks up the prototype board (VPK180).
pub fn vpk180() -> Board {
    catalog()[5]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_is_sorted_and_spans_the_price_range() {
        let boards = catalog();
        for pair in boards.windows(2) {
            assert!(pair[0].luts < pair[1].luts);
            assert!(pair[0].price_usd < pair[1].price_usd);
        }
        // Fig. 26b spans normalized prices ~0.1 to ~10+.
        assert!(boards[0].normalized_price() < 0.2);
        assert!(boards[5].normalized_price() > 10.0);
    }

    #[test]
    fn anchor_board_is_gpu_price_parity() {
        let anchor = catalog()[2];
        assert_eq!(anchor.luts, 400_000);
        assert!((anchor.normalized_price() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn vpk180_matches_table_iii() {
        let board = vpk180();
        assert_eq!(board.luts, 4_100_000);
        assert_eq!(board.floorplan().max_upe_count(64), 240);
    }
}
