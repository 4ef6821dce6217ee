//! Parallel fan-out of independent seeded simulations.
//!
//! Every [`TrafficSim`] run is an independent, seeded, byte-stable
//! computation: it owns its tenants, its board pool and its RNG streams,
//! and shares **no mutable state** with any other run (the `Send` audit
//! below is compile-checked). That makes a batch of runs — such as the
//! multi-seed `million_requests` replay — embarrassingly parallel, and
//! this module is the one place the workspace scatters them across OS
//! threads.
//!
//! # The fixed-order merge contract
//!
//! Parallelism must never show in the artifacts. [`par_map`] hands out
//! jobs from a shared injector (completion order is scheduling noise) but
//! writes each result into the slot of its *input index* and returns the
//! slots in input order — so for any job count, including the `jobs = 1`
//! degenerate case that never spawns a thread, the output `Vec` is
//! element-for-element the serial loop's. The tests below pin it twice:
//! `par_runs_is_jobs_invariant` (a proptest over job counts and seeds)
//! and `parallel_runs_equal_the_serial_loop_report_for_report` (full
//! report byte-identity once the wall-clock self-metrics are scrubbed).
//!
//! # Self-metrics under contention
//!
//! Each run's [`SimPerf`](crate::metrics::SimPerf) wall clock is measured
//! *inside* [`TrafficSim::run`], on whatever worker thread executes that
//! run, around only that run's event loop — a parallel batch never bills
//! one run for time spent simulating another. Concurrent runs do still
//! slow each other down through shared cores, caches and SMT siblings,
//! so wall-clock figures from a parallel batch read lower than the same
//! runs alone; the CI sweep, whose `sim_events_per_sec` is gated, runs
//! serially for that reason.

use crate::metrics::TrafficReport;
use crate::sim::{ServeConfig, TrafficSim};
use crate::tenant::TenantSpec;

/// The default fan-out: every core the OS will give us, `1` when the
/// query fails (serial — always correct, never faster).
pub fn default_jobs() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Compile-time `Send` audit of everything a worker thread moves or
/// returns: the simulator (tenants + config + board pool), its inputs and
/// its report. A non-`Send` field added anywhere in that object graph
/// (an `Rc`, a raw pointer, a thread-local handle) fails compilation
/// here, not at a distant `par_map` call site.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<TenantSpec>();
    assert_send::<ServeConfig>();
    assert_send::<TrafficSim>();
    assert_send::<TrafficReport>();
};

/// Applies `f` to every item across up to `jobs` worker OS threads and
/// returns the results **in input order** (the fixed-order merge
/// contract — see the [module docs](self)).
///
/// `f` receives `(index, item)` so position-dependent work needs no
/// shared counter. With `jobs <= 1` or fewer than two items the map runs
/// in the calling thread without touching a pool: the serial degenerate
/// case is the identity baseline parallel runs are byte-compared against,
/// not a separate code path to keep honest.
///
/// ```
/// use agnn_serve::par::par_map;
///
/// let squares = par_map(4, (0u64..10).collect(), |_, x| x * x);
/// assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49, 64, 81]);
/// ```
pub fn par_map<T, R, F>(jobs: usize, items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    let n = items.len();
    if jobs <= 1 || n <= 1 {
        return items
            .into_iter()
            .enumerate()
            .map(|(i, item)| f(i, item))
            .collect();
    }
    let mut slots: Vec<Option<R>> = std::iter::repeat_with(|| None).take(n).collect();
    let mut pool = scoped_threadpool::Pool::new(jobs.min(n) as u32);
    pool.scoped(|scope| {
        for (i, (item, slot)) in items.into_iter().zip(slots.iter_mut()).enumerate() {
            let f = &f;
            scope.execute(move || *slot = Some(f(i, item)));
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.expect("pool.scoped joined every job"))
        .collect()
}

/// Runs every `(tenants, config)` simulation across up to `jobs` worker
/// threads and returns the reports in input order. Each run is a fresh
/// [`TrafficSim`] — seeded arrivals, private board pool, no shared
/// mutable state — executed wholly on one worker, so its
/// [`SimPerf`](crate::metrics::SimPerf) wall clock covers exactly that
/// run (see the [module docs](self)).
///
/// `jobs = 1` is the serial schedule bit-for-bit; any other job count
/// produces byte-identical reports (proptested below).
///
/// ```
/// use agnn_graph::datasets::Dataset;
/// use agnn_serve::par::par_runs;
/// use agnn_serve::sim::ServeConfig;
/// use agnn_serve::tenant::TenantSpec;
///
/// let case = |seed: u64| {
///     (
///         vec![TenantSpec::new("feed", Dataset::Movie, 20.0)],
///         ServeConfig::builder()
///             .seed(seed)
///             .total_requests(200)
///             .build()
///             .expect("valid config"),
///     )
/// };
/// let reports = par_runs(2, vec![case(1), case(2)]);
/// assert_eq!(reports.len(), 2);
/// assert_ne!(reports[0].trace_digest, reports[1].trace_digest);
/// ```
pub fn par_runs(jobs: usize, runs: Vec<(Vec<TenantSpec>, ServeConfig)>) -> Vec<TrafficReport> {
    par_map(jobs, runs, |_, (tenants, config)| {
        TrafficSim::new(tenants, config).run()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use agnn_graph::datasets::Dataset;
    use proptest::prelude::*;

    fn case(seed: u64, requests: u64) -> (Vec<TenantSpec>, ServeConfig) {
        (
            vec![
                TenantSpec::new("feed", Dataset::Movie, 30.0),
                TenantSpec::new("search", Dataset::StackOverflow, 30.0),
            ],
            ServeConfig::reconfig_aware()
                .to_builder()
                .seed(seed)
                .total_requests(requests)
                .boards(2)
                .build()
                .expect("valid config"),
        )
    }

    #[test]
    fn par_map_merges_in_input_order_for_every_job_count() {
        let input: Vec<u64> = (0..37).collect();
        let expect: Vec<u64> = input.iter().map(|x| x * 3 + 1).collect();
        for jobs in [1, 2, 3, 8, 64] {
            assert_eq!(
                par_map(jobs, input.clone(), |_, x| x * 3 + 1),
                expect,
                "jobs={jobs}"
            );
        }
        // The index argument is the input position, not a claim order.
        let indexed = par_map(4, vec!['a', 'b', 'c'], |i, c| (i, c));
        assert_eq!(indexed, vec![(0, 'a'), (1, 'b'), (2, 'c')]);
    }

    #[test]
    fn par_map_handles_empty_and_single_item_batches() {
        assert_eq!(par_map(8, Vec::<u64>::new(), |_, x| x), Vec::<u64>::new());
        assert_eq!(par_map(8, vec![5u64], |_, x| x + 1), vec![6]);
    }

    #[test]
    fn parallel_runs_equal_the_serial_loop_report_for_report() {
        let cases: Vec<_> = (0..6).map(|s| case(s, 400)).collect();
        let serial: Vec<TrafficReport> = cases
            .iter()
            .map(|(t, c)| TrafficSim::new(t.clone(), *c).run())
            .collect();
        for jobs in [1, 2, 5] {
            let parallel = par_runs(jobs, cases.clone());
            assert_eq!(parallel.len(), serial.len());
            for (p, s) in parallel.iter().zip(&serial) {
                assert_eq!(p.trace_digest, s.trace_digest, "jobs={jobs}");
                assert_eq!(p, s, "jobs={jobs}");
                // Full byte identity once the host-wall self-metrics
                // (legitimately different per run) are scrubbed.
                let scrub = |r: &TrafficReport| {
                    let mut r = r.clone();
                    r.sim = Default::default();
                    r.to_json()
                };
                assert_eq!(scrub(p), scrub(s), "jobs={jobs}");
            }
        }
    }

    #[test]
    fn each_run_measures_its_own_wall_clock() {
        for report in par_runs(3, (0..3).map(|s| case(s, 600)).collect()) {
            assert!(report.sim.events > 0);
            assert!(
                report.sim.wall_secs > 0.0,
                "SimPerf is measured inside the worker, around only its run"
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]
        /// The fixed-order merge contract, property-level: any job count
        /// and any batch of seeds produces the serial loop's digests.
        fn par_runs_is_jobs_invariant(jobs in 1usize..=8, seed in 0u64..1000) {
            let cases: Vec<_> = (seed..seed + 3).map(|s| case(s, 150)).collect();
            let serial: Vec<u64> = cases
                .iter()
                .map(|(t, c)| TrafficSim::new(t.clone(), *c).run().trace_digest)
                .collect();
            let parallel: Vec<u64> = par_runs(jobs, cases)
                .iter()
                .map(|r| r.trace_digest)
                .collect();
            prop_assert_eq!(parallel, serial);
        }
    }
}
