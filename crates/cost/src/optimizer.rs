//! Configuration search and the reconfiguration policy.
//!
//! The user-level framework profiles the graph and picks a bitstream with
//! one cost function (§V-B). [`search`] is that one search: the caller
//! passes the score — Table I ([`CostModel::estimate`]) or a timing model
//! — and the space. `DynPre` searches the full bitstream cross-product;
//! the Fig. 22 ablations restrict it: `DynArea` only rebalances the
//! UPE/SCR area split, `DynSCR` additionally tunes the SCR ladder,
//! `DynUPE` (= full `DynPre`) tunes everything. AGNN-lib then reconfigures
//! "only when the model determines it is necessary" (§I) — when the
//! predicted gain clears a threshold (§V-B "if the latency exceeds the
//! threshold").

use agnn_hw::floorplan::Floorplan;
use agnn_hw::HwConfig;

use crate::{BitstreamLibrary, CostModel, Workload};

/// Which configuration dimensions the optimizer may change (Fig. 22).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SearchSpace {
    /// Rebalance the UPE:SCR area split only, keeping each kernel at its
    /// region-filling default shape (`DynArea`).
    AreaOnly,
    /// Fixed 70:30 split; tune the SCR ladder only (`DynSCR`).
    ScrOnly,
    /// Fixed 70:30 split; tune both ladders (`DynUPE`, the full `DynPre`).
    Full,
}

/// Searches `space` on `plan` for the configuration with the lowest
/// `score` (the first one on ties). The score is generic, not `dyn`, so a
/// per-request search inlines it.
pub fn search(plan: &Floorplan, space: SearchSpace, score: impl Fn(HwConfig) -> f64) -> HwConfig {
    match space {
        // Candidate splits around the fixed 70:30 (§VI-B shows the balance
        // brings "negligible performance benefits").
        SearchSpace::AreaOnly => lowest(
            [0.5, 0.6, 0.7, 0.8, 0.9]
                .map(|upe_fraction| region_filling_default(&plan.with_upe_fraction(upe_fraction))),
            score,
        ),
        SearchSpace::ScrOnly => {
            let library = BitstreamLibrary::for_floorplan(plan);
            let upe = region_filling_default(plan).upe;
            lowest(
                library
                    .scr_variants()
                    .iter()
                    .map(|&scr| HwConfig { upe, scr }),
                score,
            )
        }
        SearchSpace::Full => full(&BitstreamLibrary::for_floorplan(plan), score),
    }
}

/// The lowest-`score` configuration of `library`'s full cross-product.
pub(crate) fn full(library: &BitstreamLibrary, score: impl Fn(HwConfig) -> f64) -> HwConfig {
    lowest(
        library.upe_variants().iter().flat_map(|&upe| {
            library
                .scr_variants()
                .iter()
                .map(move |&scr| HwConfig { upe, scr })
        }),
        score,
    )
}

/// The first candidate with the lowest score. A fold, so a flattened
/// cross-product runs as two plain nested loops.
fn lowest(
    candidates: impl IntoIterator<Item = HwConfig>,
    score: impl Fn(HwConfig) -> f64,
) -> HwConfig {
    candidates
        .into_iter()
        .fold(None, |best: Option<(f64, HwConfig)>, config| {
            let total = score(config);
            if best.is_none_or(|(cost, _)| total < cost) {
                Some((total, config))
            } else {
                best
            }
        })
        .expect("non-empty search space")
        .1
}

/// The default bitstream shape used when a kernel is not being tuned: the
/// width-64 rung of the UPE ladder (Table III's default width) and one
/// region-filling SCR slot.
fn region_filling_default(plan: &Floorplan) -> HwConfig {
    let library = BitstreamLibrary::for_floorplan(plan);
    let upe = library
        .upe_variants()
        .iter()
        .copied()
        .find(|u| u.width == 64)
        .unwrap_or_else(|| {
            let mid = library.upe_variants().len() / 2;
            library.upe_variants()[mid]
        });
    HwConfig {
        upe,
        scr: agnn_hw::ScrConfig::new(1, plan.max_scr_width(1)),
    }
}

/// Decides whether a reconfiguration is worth its ~230 ms cost.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReconfigPolicy {
    /// Minimum predicted relative latency improvement (e.g. `0.1` = 10 %).
    pub min_gain: f64,
}

impl Default for ReconfigPolicy {
    fn default() -> Self {
        ReconfigPolicy { min_gain: 0.10 }
    }
}

impl ReconfigPolicy {
    /// Returns whether to switch from `current` to `candidate` for
    /// `workload`: the predicted cycle saving must exceed `min_gain` of the
    /// current cost.
    pub fn should_reconfigure(
        &self,
        workload: &Workload,
        current: HwConfig,
        candidate: HwConfig,
    ) -> bool {
        if current == candidate {
            return false;
        }
        let model = CostModel;
        let now = model.estimate(workload, current).total();
        let then = model.estimate(workload, candidate).total();
        now > 0.0 && (now - then) / now >= self.min_gain
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The Table I search of `space` for `w` on the VPK180.
    fn table_i(w: &Workload, space: SearchSpace) -> HwConfig {
        search(&Floorplan::vpk180(), space, |c| {
            CostModel.estimate(w, c).total()
        })
    }

    /// AX-like: many nodes, modest degree — reshaping is target-bound, so
    /// the optimizer should buy SCR slots (Fig. 23a: "for AX, which has a
    /// small degree, it is more beneficial to increase the number of slots").
    fn ax_like() -> Workload {
        Workload::new(169_000, 1_160_000, 3_000, 10, 2)
    }

    /// TB-like: few nodes, enormous degree — reshaping is window-bound, so
    /// wide SCRs win.
    fn tb_like() -> Workload {
        Workload::new(230_000, 400_000_000, 3_000, 10, 2)
    }

    #[test]
    fn full_search_prefers_slots_for_low_degree_and_width_for_high_degree() {
        let ax = table_i(&ax_like(), SearchSpace::Full);
        let tb = table_i(&tb_like(), SearchSpace::Full);
        assert!(
            ax.scr.slots > tb.scr.slots,
            "AX {ax:?} should use more slots than TB {tb:?}"
        );
        assert!(tb.scr.width > ax.scr.width);
    }

    #[test]
    fn scr_only_keeps_the_default_upe() {
        let cfg = table_i(&ax_like(), SearchSpace::ScrOnly);
        assert_eq!(cfg.upe.width, 64, "Table III default width");
        assert_eq!(cfg.upe.count, 64, "the width-64 ladder rung");
    }

    #[test]
    fn area_only_returns_region_filling_shapes() {
        let cfg = table_i(&tb_like(), SearchSpace::AreaOnly);
        assert_eq!(cfg.upe.width, 64);
        assert_eq!(cfg.scr.slots, 1);
    }

    #[test]
    fn wider_search_never_loses() {
        // Full search explores a superset of the SCR-only ladder (same
        // 70:30 split), so it can only improve. Area-only explores a
        // different axis (the split itself) and is compared in Fig. 22's
        // harness rather than dominated analytically.
        let model = CostModel;
        for w in [ax_like(), tb_like()] {
            let scr = model
                .estimate(&w, table_i(&w, SearchSpace::ScrOnly))
                .total();
            let full = model.estimate(&w, table_i(&w, SearchSpace::Full)).total();
            assert!(full <= scr + 1e-9, "full search beats SCR-only");
        }
    }

    #[test]
    fn policy_ignores_identical_configs_and_small_gains() {
        let policy = ReconfigPolicy::default();
        let w = ax_like();
        let best = table_i(&w, SearchSpace::Full);
        assert!(!policy.should_reconfigure(&w, best, best));

        // A config that is already near-optimal should not trigger a switch.
        let near = HwConfig {
            upe: best.upe,
            scr: agnn_hw::ScrConfig::new(best.scr.slots, best.scr.width),
        };
        assert!(!policy.should_reconfigure(&w, near, best));
    }

    #[test]
    fn policy_triggers_on_large_gains() {
        let policy = ReconfigPolicy::default();
        let w = tb_like();
        let best = table_i(&w, SearchSpace::Full);
        // A deliberately bad configuration for TB: tiny SCR window.
        let bad = HwConfig {
            upe: best.upe,
            scr: agnn_hw::ScrConfig::new(512, 16),
        };
        assert!(policy.should_reconfigure(&w, bad, best));
    }
}
