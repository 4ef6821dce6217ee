//! The million-request replay deployment behind the `million_requests`
//! binary: the gated `migration_drift` shape — six memory-pressured
//! Taobao regions on four pipelined boards with peer-to-peer graph
//! rehydration — scaled to arbitrary offered load and replayed once per
//! seed.

use agnn_serve::{MigratePolicy, ServeConfig, TenantSpec};

/// The default seed of the single-seed replay (the smoke sweep's
/// [`crate::serving_smoke::SMOKE_SEED`], so the 6 000-request prefix of
/// the default run is the gated scenario's trace).
pub const DEFAULT_SEED: u64 = 4_242;

/// The scaled `migration_drift` configuration at `requests` offered load
/// under `seed`.
pub fn config(seed: u64, requests: u64) -> ServeConfig {
    ServeConfig {
        seed,
        total_requests: requests,
        queue_capacity: 512,
        boards: 4,
        overlap: true,
        migrate: MigratePolicy::PeerRehydrate,
        ..ServeConfig::reconfig_aware()
    }
}

/// The deployment's tenant mix (fresh per run — every simulation owns
/// its tenants).
pub fn tenants() -> Vec<TenantSpec> {
    TenantSpec::taobao_regions(4.0, 900.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Distinct seeds genuinely produce distinct traces.
    #[test]
    fn seeds_decorrelate_the_traces() {
        let digests: std::collections::BTreeSet<u64> =
            [DEFAULT_SEED, DEFAULT_SEED + 1, DEFAULT_SEED + 2]
                .iter()
                .map(|&seed| {
                    agnn_serve::TrafficSim::new(tenants(), config(seed, 1_000))
                        .run()
                        .trace_digest
                })
                .collect();
        assert_eq!(
            digests.len(),
            3,
            "seeds must decorrelate the traces: {digests:?}"
        );
    }
}
