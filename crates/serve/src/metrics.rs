//! Deterministic serving metrics: latency histograms, throughput, queue
//! depth, drop and reconfiguration accounting.
//!
//! Percentiles come from a fixed geometric bucket ladder, so two runs with
//! the same seed report byte-identical numbers — no sampling, no clocks.

use crate::cache::CacheStats;
use std::fmt;
use std::sync::OnceLock;

/// Smallest representable latency bucket (1 µs).
const HIST_FLOOR_SECS: f64 = 1e-6;
/// Buckets per factor-of-two of latency.
const BUCKETS_PER_OCTAVE: f64 = 8.0;
/// Total buckets: covers 1 µs to 2^36 µs ≈ 6.9e4 s (~19 hours) at
/// 8/octave; anything beyond lands in the exact-max overflow bucket.
const NUM_BUCKETS: usize = 288;

/// A fixed-ladder geometric latency histogram.
#[derive(Debug, Clone, PartialEq)]
pub struct LatencyHistogram {
    counts: Vec<u64>,
    total: u64,
    max_secs: f64,
    sum_secs: f64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            counts: vec![0; NUM_BUCKETS + 1],
            total: 0,
            max_secs: 0.0,
            sum_secs: 0.0,
        }
    }
}

/// The ladder's defining formula: the bucket of `secs` by `log2`.
/// [`LatencyHistogram::bucket_of`] reads the same bucket from
/// [`BucketTable`] and falls back to this next to each bucket edge.
fn bucket_by_log2(secs: f64) -> usize {
    if secs <= HIST_FLOOR_SECS {
        return 0;
    }
    let octaves = (secs / HIST_FLOOR_SECS).log2();
    ((octaves * BUCKETS_PER_OCTAVE) as usize).min(NUM_BUCKETS)
}

/// Low bits of an `f64` dropped to name its table interval: the
/// exponent and the top four mantissa bits remain, so each octave splits
/// into 16 intervals, each narrower than a bucket (at most
/// `log2(17/16)` ≈ 0.09 octave against 1/8), and holds at most one edge.
const INTERVAL_SHIFT: u32 = 52 - 4;

/// Half-width, in ULPs, of the band around each bucket edge where
/// [`LatencyHistogram::bucket_of`] evaluates [`bucket_by_log2`] itself.
/// `log2` is accurate to about one ULP of its result, so the formula can
/// step back and forth only within a few dozen ULPs of an edge; outside
/// the band it is monotone and the table is exact.
const EDGE_BAND_ULPS: u64 = 256;

/// One table interval: the bucket just below `edge` (the one edge whose
/// band reaches this interval, as `f64` bits), or the interval's bucket
/// when no band does (`edge` is then `u64::MAX`, never reached).
#[derive(Debug, Clone, Copy)]
struct Interval {
    edge: u64,
    base: u32,
}

/// [`bucket_by_log2`] tabulated over the ladder: one [`Interval`] per
/// `INTERVAL_SHIFT` interval of positive `f64`s from the floor up to the
/// last edge's band. Built once per process.
#[derive(Debug)]
struct BucketTable {
    /// Interval index (`bits >> INTERVAL_SHIFT`) of `intervals[0]`.
    first: u64,
    intervals: Vec<Interval>,
}

impl BucketTable {
    fn get() -> &'static BucketTable {
        static TABLE: OnceLock<BucketTable> = OnceLock::new();
        TABLE.get_or_init(BucketTable::build)
    }

    /// The bits of the smallest `f64` above the floor that
    /// [`bucket_by_log2`] puts in bucket `bucket` or higher, by binary
    /// search over the bit patterns (which order like positive values).
    fn edge(bucket: usize) -> u64 {
        let (mut below, mut at) = (HIST_FLOOR_SECS.to_bits(), f64::MAX.to_bits());
        while at - below > 1 {
            let mid = below + (at - below) / 2;
            if bucket_by_log2(f64::from_bits(mid)) >= bucket {
                at = mid;
            } else {
                below = mid;
            }
        }
        at
    }

    fn build() -> BucketTable {
        // `edges[i]` opens bucket `i + 1`.
        let edges: Vec<u64> = (1..=NUM_BUCKETS).map(Self::edge).collect();
        let first = HIST_FLOOR_SECS.to_bits() >> INTERVAL_SHIFT;
        let last = (edges[NUM_BUCKETS - 1] + EDGE_BAND_ULPS) >> INTERVAL_SHIFT;
        let intervals = (first..=last)
            .map(|interval| {
                let lo = interval << INTERVAL_SHIFT;
                let hi = lo + (1 << INTERVAL_SHIFT) - 1;
                let mut banded = (0..NUM_BUCKETS).filter(|&i| {
                    edges[i] - EDGE_BAND_ULPS <= hi && edges[i] + EDGE_BAND_ULPS >= lo
                });
                match (banded.next(), banded.next()) {
                    (Some(i), None) => Interval {
                        edge: edges[i],
                        base: i as u32,
                    },
                    (None, _) => Interval {
                        edge: u64::MAX,
                        base: edges.partition_point(|&e| e <= lo) as u32,
                    },
                    (Some(_), Some(_)) => unreachable!("two bucket edges in one table interval"),
                }
            })
            .collect();
        BucketTable { first, intervals }
    }
}

impl LatencyHistogram {
    /// The ladder bucket of `secs` — [`bucket_by_log2`]'s bucket for
    /// every `f64`, read from [`BucketTable`] away from the bucket edges.
    fn bucket_of(secs: f64) -> usize {
        if secs <= HIST_FLOOR_SECS {
            return 0;
        }
        let bits = secs.to_bits();
        let table = BucketTable::get();
        let interval = (bits >> INTERVAL_SHIFT).wrapping_sub(table.first);
        if let Some(&Interval { edge, base }) = table.intervals.get(interval as usize) {
            if bits.wrapping_sub(edge).wrapping_add(EDGE_BAND_ULPS) > 2 * EDGE_BAND_ULPS {
                return base as usize + usize::from(bits >= edge);
            }
        }
        // NaN, the overflow range and the bands around the edges.
        bucket_by_log2(secs)
    }

    /// Upper bound of bucket `i` in seconds.
    fn bucket_upper(i: usize) -> f64 {
        HIST_FLOOR_SECS * 2f64.powf((i + 1) as f64 / BUCKETS_PER_OCTAVE)
    }

    /// Records one latency observation.
    pub fn record(&mut self, secs: f64) {
        self.counts[Self::bucket_of(secs)] += 1;
        self.total += 1;
        self.sum_secs += secs;
        if secs > self.max_secs {
            self.max_secs = secs;
        }
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Mean latency in seconds (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum_secs / self.total as f64
        }
    }

    /// Exact maximum observed latency in seconds.
    pub fn max(&self) -> f64 {
        self.max_secs
    }

    /// The `q`-quantile (`q` in `[0, 1]`) as the upper bound of the bucket
    /// holding the `⌈q·total⌉`-th observation — deterministic, within one
    /// bucket ratio (~9 %) of the exact order statistic. Returns 0 when
    /// empty.
    ///
    /// # Panics
    ///
    /// Panics if `q` is not in `[0, 1]`.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "q={q} out of range");
        if self.total == 0 {
            return 0.0;
        }
        let rank = ((q * self.total as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                // The overflow bucket reports the exact max instead of an
                // unbounded upper edge.
                return if i == NUM_BUCKETS {
                    self.max_secs
                } else {
                    Self::bucket_upper(i).min(self.max_secs)
                };
            }
        }
        self.max_secs
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
        self.sum_secs += other.sum_secs;
        self.max_secs = self.max_secs.max(other.max_secs);
    }
}

/// Latency components of one served request, in seconds.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RequestLatency {
    /// Simulated seconds spent queued before dispatch.
    pub queue_secs: f64,
    /// Reconfiguration stall charged to this request, if any.
    pub reconfig_secs: f64,
    /// Host→device graph (delta) upload.
    pub upload_secs: f64,
    /// Seconds waiting *inside* the board pipeline: ingested-but-waiting
    /// for the fabric, or preprocessed-but-waiting for the DMA engine.
    /// Always 0 in serial mode (the stages run back to back).
    pub stage_wait_secs: f64,
    /// Accelerator preprocessing.
    pub preprocess_secs: f64,
    /// Device→GPU subgraph download.
    pub download_secs: f64,
    /// GPU inference tail (off the accelerator's critical path).
    pub inference_secs: f64,
    /// Result-cache service time: the lookup cost of a full hit, or — for
    /// a coalesced request — the wait parked on its primary. 0 for every
    /// request that reached a board ([`crate::cache::CacheKind::Off`]
    /// runs never set it).
    pub cache_secs: f64,
}

impl RequestLatency {
    /// End-to-end seconds from arrival to inference completion.
    pub fn total(&self) -> f64 {
        self.queue_secs
            + self.reconfig_secs
            + self.upload_secs
            + self.stage_wait_secs
            + self.preprocess_secs
            + self.download_secs
            + self.inference_secs
            + self.cache_secs
    }

    /// Seconds the request occupies board resources (excludes queueing,
    /// in-pipeline waits and the GPU inference tail).
    pub fn board_secs(&self) -> f64 {
        self.reconfig_secs + self.upload_secs + self.preprocess_secs + self.download_secs
    }
}

/// Aggregate stall attribution: every completed request's end-to-end
/// latency, partitioned **exactly** into six components (the partition
/// is a regrouping of [`RequestLatency`]'s fields, so the six sum to
/// [`RequestLatency::total`] by construction — the conservation the
/// property tests pin). "Where did the p99 go" becomes a report field:
///
/// - **queue** — waiting for the scheduler (admission queue + in-pipeline
///   staging/hand-off waits: the time nobody was working on the request);
/// - **reconfig** — ICAP reconfiguration stalls charged to the request;
/// - **dma** — the host/switch→board graph upload leg;
/// - **fabric** — accelerator preprocessing;
/// - **handoff** — the board→GPU subgraph download plus the GPU
///   inference tail;
/// - **cache** — result-cache service (full-hit lookups and coalesced
///   waits; see [`RequestLatency::cache_secs`]). Always 0 with the
///   cache off, so pre-cache attributions are unchanged.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct StallBreakdown {
    /// Seconds waiting for service (queue + pipeline stage waits).
    pub queue_secs: f64,
    /// Seconds stalled on ICAP reconfiguration.
    pub reconfig_secs: f64,
    /// Seconds on the DMA upload leg.
    pub dma_secs: f64,
    /// Seconds preprocessing on the fabric.
    pub fabric_secs: f64,
    /// Seconds handing the subgraph off (download + inference tail).
    pub handoff_secs: f64,
    /// Seconds served by the result cache (lookups + coalesced waits).
    pub cache_secs: f64,
}

impl StallBreakdown {
    /// One request's latency partitioned into the six components.
    ///
    /// ```
    /// use agnn_serve::{RequestLatency, StallBreakdown};
    ///
    /// let latency = RequestLatency {
    ///     queue_secs: 1.0,
    ///     stage_wait_secs: 0.5,
    ///     reconfig_secs: 0.25,
    ///     upload_secs: 2.0,
    ///     preprocess_secs: 4.0,
    ///     download_secs: 0.5,
    ///     inference_secs: 1.5,
    ///     cache_secs: 0.0,
    /// };
    /// let stalls = StallBreakdown::of(&latency);
    /// // Admission queueing and in-pipeline waits both count as "queue":
    /// // the time nobody was working on the request.
    /// assert_eq!(stalls.queue_secs, 1.5);
    /// // Hand-off = subgraph download + the GPU inference tail.
    /// assert_eq!(stalls.handoff_secs, 2.0);
    /// // The six components are a partition of the end-to-end latency.
    /// assert_eq!(stalls.total(), latency.total());
    /// ```
    pub fn of(latency: &RequestLatency) -> Self {
        StallBreakdown {
            queue_secs: latency.queue_secs + latency.stage_wait_secs,
            reconfig_secs: latency.reconfig_secs,
            dma_secs: latency.upload_secs,
            fabric_secs: latency.preprocess_secs,
            handoff_secs: latency.download_secs + latency.inference_secs,
            cache_secs: latency.cache_secs,
        }
    }

    /// Sum of the six components — equals [`RequestLatency::total`] for
    /// a breakdown built by [`StallBreakdown::of`].
    pub fn total(&self) -> f64 {
        self.queue_secs
            + self.reconfig_secs
            + self.dma_secs
            + self.fabric_secs
            + self.handoff_secs
            + self.cache_secs
    }

    /// Adds another breakdown (aggregation across requests).
    pub fn accumulate(&mut self, other: &StallBreakdown) {
        self.queue_secs += other.queue_secs;
        self.reconfig_secs += other.reconfig_secs;
        self.dma_secs += other.dma_secs;
        self.fabric_secs += other.fabric_secs;
        self.handoff_secs += other.handoff_secs;
        self.cache_secs += other.cache_secs;
    }
}

/// The simulator measuring itself: wall-clock runtime and event count of
/// the run that produced a report.
///
/// These numbers describe the **measurement**, not the simulated system —
/// they vary run to run and machine to machine while the simulated
/// schedule stays bit-identical. `PartialEq` therefore ignores them
/// (two reports of the same simulated run compare equal regardless of
/// host speed), and byte-compare tests zero the field before rendering;
/// [`TrafficReport::to_json`] and the CI timing table are where they
/// surface, as observability; no gate reads them.
#[derive(Debug, Clone, Copy, Default)]
pub struct SimPerf {
    /// Wall-clock seconds the event loop ran.
    pub wall_secs: f64,
    /// Heap events processed.
    pub events: u64,
}

impl SimPerf {
    /// Events processed per wall-clock second (0 when the clock did not
    /// advance — sub-resolution runs cannot claim infinite speed).
    pub fn events_per_sec(&self) -> f64 {
        if self.wall_secs > 0.0 {
            self.events as f64 / self.wall_secs
        } else {
            0.0
        }
    }
}

impl PartialEq for SimPerf {
    /// Always equal: self-metrics are properties of the host, not the
    /// simulated run (see the type docs) — determinism tests assert full
    /// report equality across replays whose wall clocks necessarily
    /// differ.
    fn eq(&self, _other: &Self) -> bool {
        true
    }
}

/// Per-lifecycle-stage latency distributions across all served requests:
/// ingest (graph-delta upload), preprocess (fabric), compute (subgraph
/// hand-off + GPU inference tail). Recorded in both serial and pipelined
/// modes, so the two can be compared stage by stage.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct StageHistograms {
    /// Host→device graph-delta uploads.
    pub ingest: LatencyHistogram,
    /// Fabric preprocessing.
    pub preprocess: LatencyHistogram,
    /// Subgraph hand-off plus inference tail.
    pub compute: LatencyHistogram,
}

impl StageHistograms {
    /// Records one request's stage breakdown.
    pub fn record(&mut self, latency: &RequestLatency) {
        self.ingest.record(latency.upload_secs);
        self.preprocess.record(latency.preprocess_secs);
        self.compute
            .record(latency.download_secs + latency.inference_secs);
    }
}

/// How one request's lifecycle ended — the typed replacement for the
/// informal completed/dropped split.
///
/// Every **arrival** ends in exactly one of the five *arrival-terminal*
/// outcomes (`Served`, `ServedLate`, `ExpiredInQueue`, `Aborted`,
/// `DroppedAtAdmission`): that partition is the conservation law the
/// proptests pin (Σ arrival-terminal outcomes == arrivals).
/// [`RequestOutcome::HedgeLoser`] is different in kind — it counts the
/// *cancelled second leg* of a hedged dispatch, which always pairs with
/// the same request's served winner leg, so hedge losers sit outside the
/// arrival partition and instead equal the number of hedges launched.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RequestOutcome {
    /// Completed within the request's deadline (or with no deadline set —
    /// every completion of a deadline-free run is `Served`).
    Served,
    /// Completed, but past the deadline: the client had already given up,
    /// so the board work counts as wasted, not goodput.
    ServedLate,
    /// Expired in the admission queue before dispatch — removed at scan
    /// time, no board work spent.
    ExpiredInQueue,
    /// Dispatched, then cancelled before its remaining pipeline stage
    /// started (the deadline passed mid-flight); partial board work is
    /// written off.
    Aborted,
    /// The losing second leg of a hedged dispatch, cancelled when the
    /// winner finished (pairs with a `Served`/`ServedLate` winner of the
    /// same request — not an arrival-terminal outcome).
    HedgeLoser,
    /// Refused at admission (queue or per-tenant quota full).
    DroppedAtAdmission,
}

impl RequestOutcome {
    /// Stable lowercase identifier used in reports.
    pub fn name(&self) -> &'static str {
        match self {
            RequestOutcome::Served => "served",
            RequestOutcome::ServedLate => "served_late",
            RequestOutcome::ExpiredInQueue => "expired_in_queue",
            RequestOutcome::Aborted => "aborted",
            RequestOutcome::HedgeLoser => "hedge_loser",
            RequestOutcome::DroppedAtAdmission => "dropped_at_admission",
        }
    }
}

/// Per-outcome request counts (one [`RequestOutcome`] bucket each).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct OutcomeCounts {
    /// Completions within deadline (all completions when no deadline).
    pub served: u64,
    /// Completions past the deadline.
    pub served_late: u64,
    /// In-queue expiries.
    pub expired_in_queue: u64,
    /// Post-dispatch stage aborts.
    pub aborted: u64,
    /// Cancelled hedge legs (pairs with served winners; not
    /// arrival-terminal).
    pub hedge_loser: u64,
    /// Admission refusals.
    pub dropped_at_admission: u64,
}

impl OutcomeCounts {
    /// Increments the bucket for `outcome`.
    pub fn record(&mut self, outcome: RequestOutcome) {
        match outcome {
            RequestOutcome::Served => self.served += 1,
            RequestOutcome::ServedLate => self.served_late += 1,
            RequestOutcome::ExpiredInQueue => self.expired_in_queue += 1,
            RequestOutcome::Aborted => self.aborted += 1,
            RequestOutcome::HedgeLoser => self.hedge_loser += 1,
            RequestOutcome::DroppedAtAdmission => self.dropped_at_admission += 1,
        }
    }

    /// Sum of the five arrival-terminal outcomes — equals the number of
    /// arrivals (the conservation law; excludes `hedge_loser`, which
    /// double-books a served request's cancelled second leg).
    pub fn arrival_terminal(&self) -> u64 {
        self.served
            + self.served_late
            + self.expired_in_queue
            + self.aborted
            + self.dropped_at_admission
    }

    /// Adds another set of counts (aggregation across tenants).
    pub fn accumulate(&mut self, other: &OutcomeCounts) {
        self.served += other.served;
        self.served_late += other.served_late;
        self.expired_in_queue += other.expired_in_queue;
        self.aborted += other.aborted;
        self.hedge_loser += other.hedge_loser;
        self.dropped_at_admission += other.dropped_at_admission;
    }
}

/// One completed request, narrated to the run's sink through
/// [`crate::trace::TraceSink::complete`] — the per-request ground truth
/// equivalence tests compare across scheduling modes. The report itself
/// keeps only aggregates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompletedRequest {
    /// Tenant index (declaration order).
    pub tenant: usize,
    /// Arrival time in simulated seconds (identifies the request: arrival
    /// streams are independent of scheduling).
    pub arrival_secs: f64,
    /// Full latency breakdown.
    pub latency: RequestLatency,
    /// Graph bytes this request's ingest moved over the host link.
    pub host_bytes: u64,
    /// Graph bytes this request's ingest pulled from a peer board over
    /// the PCIe switch. Together with `host_bytes` this partitions the
    /// ingest: every byte arrived from exactly one source (both 0 for a
    /// warm graph).
    pub switch_bytes: u64,
    /// How the lifecycle ended — [`RequestOutcome::Served`] or
    /// [`RequestOutcome::ServedLate`] here (only completions are
    /// narrated; expiries and aborts never produce a record).
    pub outcome: RequestOutcome,
}

/// Per-tenant serving statistics.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TenantStats {
    /// Tenant display name.
    pub name: String,
    /// End-to-end latency distribution.
    pub latency: LatencyHistogram,
    /// Queue-wait distribution (arrival → dispatch): the share of latency
    /// the *scheduler* controls, which is where fair queueing shows up.
    pub queue_wait: LatencyHistogram,
    /// Completions whose end-to-end latency exceeded the tenant's
    /// [`crate::tenant::TenantSpec::slo_secs`] budget. Always 0 for
    /// tenants without a declared SLO; counted under every scheduler, so
    /// SLO attainment is comparable across policies.
    pub slo_violations: u64,
    /// Total accelerator-busy seconds consumed.
    pub board_secs: f64,
    /// Reconfigurations performed to serve this tenant's requests.
    pub reconfigs: u64,
    /// Requests served entirely from the result cache at admission.
    pub cache_hits: u64,
    /// Dispatched requests that skipped preprocessing against a fresh
    /// cache entry (partial hits).
    pub cache_partial_hits: u64,
    /// Dispatched requests that recomputed in full (cache misses; 0 with
    /// the cache off — uncached requests are unclassified, not misses).
    pub cache_misses: u64,
    /// Duplicate in-flight requests coalesced onto a primary.
    pub cache_coalesced: u64,
    /// Typed outcome counters ([`RequestOutcome`] buckets), from which
    /// [`completed`](Self::completed), [`dropped`](Self::dropped) and
    /// [`arrivals`](Self::arrivals) are read. With deadlines off every
    /// non-`served` bucket except `dropped_at_admission` is 0.
    pub outcomes: OutcomeCounts,
    /// Latency distribution of **on-time** completions only (the goodput
    /// split of `latency`). Identical to `latency` when the tenant has no
    /// deadline — everything served counts as goodput then.
    pub goodput_latency: LatencyHistogram,
}

impl TenantStats {
    /// Requests admitted and completed, on time or late.
    pub fn completed(&self) -> u64 {
        self.outcomes.served + self.outcomes.served_late
    }

    /// Requests refused at admission (shared queue full, or — under
    /// [`crate::sched::SchedKind::WeightedFair`] — the tenant's own quota
    /// exhausted). The report-wide [`TrafficReport::dropped`] aggregate
    /// is exactly the sum of these per-tenant counts, which is what makes
    /// fair-queueing drop isolation observable per tenant.
    pub fn dropped(&self) -> u64 {
        self.outcomes.dropped_at_admission
    }

    /// Admission refusals as a share of [`arrivals`](Self::arrivals), in
    /// `[0, 1]` (expired and aborted arrivals count in the denominator).
    pub fn drop_rate(&self) -> f64 {
        share(self.dropped(), self.arrivals())
    }

    /// Requests this tenant arrived with that reached a terminal outcome
    /// — completed, dropped, expired or aborted (the conservation total).
    pub fn arrivals(&self) -> u64 {
        self.outcomes.arrival_terminal()
    }
}

/// Per-board serving statistics — the sharding breakdown of a pool run.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct BoardStats {
    /// Requests this board completed.
    pub completed: u64,
    /// Reconfigurations this board paid.
    pub reconfigs: u64,
    /// Seconds this board spent reprogramming.
    pub reconfig_secs: f64,
    /// Seconds the board's fabric slot was occupied (serial mode folds the
    /// PCIe legs in too, as PR 2 did).
    pub busy_secs: f64,
    /// Seconds the board's DMA engine was occupied (pipelined mode folds
    /// every transfer in; serial runs charge only outbound migration legs
    /// here — host transfers live inside `busy_secs` there).
    pub dma_secs: f64,
    /// Tenants evicted from this board's DRAM to fit the working set.
    pub evictions: u64,
    /// Requests this board served by pulling the graph from a peer
    /// board's DRAM over the PCIe switch.
    pub migrations: u64,
    /// Bytes this board pulled in over the PCIe switch.
    pub switch_bytes: u64,
    /// Bytes this board ingested from the host link.
    pub host_bytes: u64,
}

impl BoardStats {
    /// Fraction of `[0, duration_secs]` the board was occupied.
    pub fn utilization(&self, duration_secs: f64) -> f64 {
        if duration_secs <= 0.0 {
            0.0
        } else {
            self.busy_secs / duration_secs
        }
    }
}

/// Deterministic queue-depth summary: the running maximum and the
/// time-weighted area behind [`DepthTimeline::mean_depth`]. Every
/// transition itself is narrated as a [`crate::trace::CounterKind::QueueDepth`]
/// sample to the run's sink.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DepthTimeline {
    max_depth: usize,
    area: f64,
    last_time: f64,
    last_depth: usize,
}

impl DepthTimeline {
    /// Records a depth transition at `time_secs`.
    pub fn record(&mut self, time_secs: f64, depth: usize) {
        self.area += self.last_depth as f64 * (time_secs - self.last_time).max(0.0);
        self.last_time = time_secs;
        self.last_depth = depth;
        self.max_depth = self.max_depth.max(depth);
    }

    /// Maximum observed depth.
    pub fn max_depth(&self) -> usize {
        self.max_depth
    }

    /// Time-weighted mean depth over `[0, horizon_secs]`.
    pub fn mean_depth(&self, horizon_secs: f64) -> f64 {
        if horizon_secs <= 0.0 {
            return 0.0;
        }
        let tail = self.last_depth as f64 * (horizon_secs - self.last_time).max(0.0);
        (self.area + tail) / horizon_secs
    }
}

/// The full report of one traffic simulation.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TrafficReport {
    /// Per-tenant statistics, in tenant declaration order.
    pub tenants: Vec<TenantStats>,
    /// Simulated seconds from start to the last completion.
    pub duration_secs: f64,
    /// Total reconfigurations performed.
    pub reconfigs: u64,
    /// Total seconds the accelerator spent reprogramming.
    pub reconfig_secs: f64,
    /// Queue-depth maximum and time-weighted mean; the transitions
    /// themselves go to the sink as `QueueDepth` counter samples. The
    /// depth recorded at each transition is the **aggregate** number of
    /// queued requests across the scheduler's admission queues
    /// ([`crate::sched::SchedPolicy::len`]): one shared pool-wide queue
    /// under [`crate::sched::Fifo`], the sum over the per-tenant queues
    /// under [`crate::sched::WeightedFair`] — there is no single shared
    /// queue there, so only the aggregate is meaningful.
    pub queue_depth: DepthTimeline,
    /// Per-board breakdown, in board order. Always at least one entry;
    /// single-board runs report the one board's totals.
    pub boards: Vec<BoardStats>,
    /// Per-lifecycle-stage latency distributions.
    pub stages: StageHistograms,
    /// Seconds a DMA transfer ran concurrently with fabric compute on the
    /// same board — the pipelining the staged scheduler buys. 0 in serial
    /// mode.
    pub overlap_secs: f64,
    /// Aggregate stall attribution summed over every completed request
    /// (each request's six components sum to its end-to-end latency).
    pub stall: StallBreakdown,
    /// Graph bytes moved for work that never became goodput: aborted
    /// stages' transfers, hedge-loser legs, and the full transfer of
    /// every past-deadline completion. 0 whenever deadlines and hedging
    /// are off.
    pub wasted_work_bytes: u64,
    /// Board-seconds written off for the same non-goodput work (the time
    /// half of the wasted ledger).
    pub wasted_secs: f64,
    /// Result-cache counters for the run — all zero (and absent from the
    /// rendered report's effect on behavior) when
    /// [`crate::sim::ServeConfig::cache`] is [`crate::cache::CacheKind::Off`].
    pub cache: CacheStats,
    /// The simulator's own speed (wall clock + events). The **only**
    /// non-deterministic report field: excluded from `PartialEq` (see
    /// [`SimPerf`]) and from [`fmt::Display`], included in
    /// [`TrafficReport::to_json`] as observability.
    pub sim: SimPerf,
    /// Order-sensitive digest of the full event trace; equal digests mean
    /// identical schedules, completions and latencies.
    pub trace_digest: u64,
}

impl TrafficReport {
    /// Total completed requests across tenants.
    pub fn completed(&self) -> u64 {
        self.tenants.iter().map(TenantStats::completed).sum()
    }

    /// Total dropped requests across tenants.
    pub fn dropped(&self) -> u64 {
        self.tenants.iter().map(TenantStats::dropped).sum()
    }

    /// Typed outcome counters summed across tenants.
    pub fn outcomes(&self) -> OutcomeCounts {
        let mut total = OutcomeCounts::default();
        for t in &self.tenants {
            total.accumulate(&t.outcomes);
        }
        total
    }

    /// Total on-time completions — the goodput half of
    /// [`TrafficReport::completed`]. Equal to it when no tenant carries
    /// a deadline.
    pub fn goodput(&self) -> u64 {
        self.tenants.iter().map(|t| t.outcomes.served).sum()
    }

    /// The merged latency distribution of on-time completions only.
    pub fn goodput_latency(&self) -> LatencyHistogram {
        let mut merged = LatencyHistogram::default();
        for t in &self.tenants {
            merged.merge(&t.goodput_latency);
        }
        merged
    }

    /// Requests expired in the admission queue across tenants.
    pub fn expired_in_queue(&self) -> u64 {
        self.tenants
            .iter()
            .map(|t| t.outcomes.expired_in_queue)
            .sum()
    }

    /// Dispatched requests aborted before their next stage started.
    pub fn aborted(&self) -> u64 {
        self.tenants.iter().map(|t| t.outcomes.aborted).sum()
    }

    /// Hedged dispatches launched. Every hedge cancels exactly one
    /// losing leg, so this equals the summed `hedge_loser` counters.
    pub fn hedges(&self) -> u64 {
        self.tenants.iter().map(|t| t.outcomes.hedge_loser).sum()
    }

    /// Completed requests per simulated second.
    pub fn throughput_rps(&self) -> f64 {
        if self.duration_secs <= 0.0 {
            0.0
        } else {
            self.completed() as f64 / self.duration_secs
        }
    }

    /// The merged latency distribution across tenants.
    pub fn overall_latency(&self) -> LatencyHistogram {
        let mut merged = LatencyHistogram::default();
        for t in &self.tenants {
            merged.merge(&t.latency);
        }
        merged
    }

    /// Number of boards that served this run.
    pub fn pool_size(&self) -> usize {
        self.boards.len().max(1)
    }

    /// Total seconds the boards' DMA engines were occupied (pipelined
    /// runs; 0 in serial mode, where transfers fold into `busy_secs`).
    pub fn dma_secs(&self) -> f64 {
        self.boards.iter().map(|b| b.dma_secs).sum()
    }

    /// Total DRAM evictions across the pool.
    pub fn evictions(&self) -> u64 {
        self.boards.iter().map(|b| b.evictions).sum()
    }

    /// Total requests served by pulling a graph from a peer board's DRAM
    /// over the PCIe switch instead of re-uploading from the host.
    pub fn migrations(&self) -> u64 {
        self.boards.iter().map(|b| b.migrations).sum()
    }

    /// Total bytes moved board-to-board over the PCIe switch.
    pub fn switch_bytes(&self) -> u64 {
        self.boards.iter().map(|b| b.switch_bytes).sum()
    }

    /// Total bytes uploaded from the host across the pool.
    pub fn host_upload_bytes(&self) -> u64 {
        self.boards.iter().map(|b| b.host_bytes).sum()
    }

    /// Host-link bytes migration saved, against the **per-dispatch**
    /// counterfactual: had each migrated ingest sourced from the host
    /// instead (same request, same board), every switch byte would have
    /// crossed the host link — so the saving is the switch traffic.
    ///
    /// This is *not* a comparison against a [`MigratePolicy::Off`] run:
    /// a `SplitHot` overflow dispatch only exists because migration does
    /// (under `Off` the request waits for its warm affine board and
    /// uploads nothing), so cross-policy savings must be computed by
    /// diffing two runs' [`TrafficReport::host_upload_bytes`] — as the
    /// example and the CI `migration_drift` gate do.
    ///
    /// [`MigratePolicy::Off`]: crate::pool::MigratePolicy::Off
    pub fn host_bytes_saved(&self) -> u64 {
        self.switch_bytes()
    }

    /// The fraction of DMA-engine time that ran concurrently with fabric
    /// compute — 1.0 means every PCIe byte moved behind a preprocessing
    /// pass, 0 means the pipeline never overlapped (always the case in
    /// serial mode).
    pub fn pipeline_overlap_ratio(&self) -> f64 {
        let dma = self.dma_secs();
        if dma <= 0.0 {
            0.0
        } else {
            (self.overlap_secs / dma).clamp(0.0, 1.0)
        }
    }

    /// Renders the report as deterministic JSON: fixed key order, Rust's
    /// shortest-roundtrip float formatting, the trace digest as a hex
    /// string (JSON numbers cannot carry a full `u64`). Two runs with the
    /// same seed produce byte-identical documents — which is what the CI
    /// `bench-smoke` artifact and perf gate compare — **except** the
    /// `sim_*` self-metric fields, which report the host's wall clock and
    /// are the document's only non-deterministic bytes (byte-compare
    /// tests zero [`TrafficReport::sim`] before rendering).
    pub fn to_json(&self) -> String {
        let overall = self.overall_latency();
        let goodput = self.goodput_latency();
        let mut out = String::with_capacity(1024);
        out.push('{');
        push_field(&mut out, "schema", &json_str("agnn-serve-report/v7"));
        push_field(&mut out, "pool_size", &self.pool_size().to_string());
        push_field(&mut out, "completed", &self.completed().to_string());
        push_field(&mut out, "dropped", &self.dropped().to_string());
        push_field(&mut out, "goodput", &self.goodput().to_string());
        push_field(
            &mut out,
            "goodput_p99_secs",
            &json_f64(goodput.quantile(0.99)),
        );
        push_field(
            &mut out,
            "expired_in_queue",
            &self.expired_in_queue().to_string(),
        );
        push_field(&mut out, "aborted", &self.aborted().to_string());
        push_field(&mut out, "hedges", &self.hedges().to_string());
        push_field(
            &mut out,
            "wasted_work_bytes",
            &self.wasted_work_bytes.to_string(),
        );
        push_field(&mut out, "wasted_secs", &json_f64(self.wasted_secs));
        push_field(&mut out, "reconfigs", &self.reconfigs.to_string());
        push_field(&mut out, "reconfig_secs", &json_f64(self.reconfig_secs));
        push_field(&mut out, "duration_secs", &json_f64(self.duration_secs));
        push_field(&mut out, "throughput_rps", &json_f64(self.throughput_rps()));
        push_field(&mut out, "p50_secs", &json_f64(overall.quantile(0.50)));
        push_field(&mut out, "p95_secs", &json_f64(overall.quantile(0.95)));
        push_field(&mut out, "p99_secs", &json_f64(overall.quantile(0.99)));
        push_field(&mut out, "max_secs", &json_f64(overall.max()));
        push_field(&mut out, "mean_secs", &json_f64(overall.mean()));
        push_field(
            &mut out,
            "queue_depth_max",
            &self.queue_depth.max_depth().to_string(),
        );
        let stages: Vec<String> = [
            ("ingest", &self.stages.ingest),
            ("preprocess", &self.stages.preprocess),
            ("compute", &self.stages.compute),
        ]
        .into_iter()
        .map(|(name, h)| {
            let mut obj = String::new();
            obj.push('{');
            push_field(&mut obj, "stage", &json_str(name));
            push_field(&mut obj, "p50_secs", &json_f64(h.quantile(0.50)));
            push_field(&mut obj, "p99_secs", &json_f64(h.quantile(0.99)));
            push_field(&mut obj, "mean_secs", &json_f64(h.mean()));
            close_obj(&mut obj);
            obj
        })
        .collect();
        push_field(&mut out, "stages", &format!("[{}]", stages.join(",")));
        let mut stall = String::new();
        stall.push('{');
        push_field(&mut stall, "queue_secs", &json_f64(self.stall.queue_secs));
        push_field(
            &mut stall,
            "reconfig_secs",
            &json_f64(self.stall.reconfig_secs),
        );
        push_field(&mut stall, "dma_secs", &json_f64(self.stall.dma_secs));
        push_field(&mut stall, "fabric_secs", &json_f64(self.stall.fabric_secs));
        push_field(
            &mut stall,
            "handoff_secs",
            &json_f64(self.stall.handoff_secs),
        );
        push_field(&mut stall, "cache_secs", &json_f64(self.stall.cache_secs));
        close_obj(&mut stall);
        push_field(&mut out, "stall_attribution", &stall);
        push_field(&mut out, "sim_wall_secs", &json_f64(self.sim.wall_secs));
        push_field(&mut out, "sim_events", &self.sim.events.to_string());
        push_field(
            &mut out,
            "sim_events_per_sec",
            &json_f64(self.sim.events_per_sec()),
        );
        push_field(&mut out, "overlap_secs", &json_f64(self.overlap_secs));
        push_field(
            &mut out,
            "pipeline_overlap_ratio",
            &json_f64(self.pipeline_overlap_ratio()),
        );
        push_field(&mut out, "evictions", &self.evictions().to_string());
        push_field(&mut out, "migrations", &self.migrations().to_string());
        push_field(&mut out, "switch_bytes", &self.switch_bytes().to_string());
        push_field(
            &mut out,
            "host_upload_bytes",
            &self.host_upload_bytes().to_string(),
        );
        push_field(
            &mut out,
            "host_bytes_saved",
            &self.host_bytes_saved().to_string(),
        );
        let mut cache = String::new();
        cache.push('{');
        push_field(&mut cache, "hits", &self.cache.hits.to_string());
        push_field(
            &mut cache,
            "partial_hits",
            &self.cache.partial_hits.to_string(),
        );
        push_field(&mut cache, "misses", &self.cache.misses.to_string());
        push_field(
            &mut cache,
            "invalidations",
            &self.cache.invalidations.to_string(),
        );
        push_field(&mut cache, "coalesced", &self.cache.coalesced.to_string());
        push_field(&mut cache, "hit_rate", &json_f64(self.cache.hit_rate()));
        push_field(
            &mut cache,
            "recompute_secs_saved",
            &json_f64(self.cache.recompute_secs_saved),
        );
        push_field(
            &mut cache,
            "max_served_delta_frac",
            &json_f64(self.cache.max_served_delta_frac),
        );
        close_obj(&mut cache);
        push_field(&mut out, "cache", &cache);
        push_field(
            &mut out,
            "trace_digest",
            &json_str(&format!("{:#018x}", self.trace_digest)),
        );
        let tenants: Vec<String> = self
            .tenants
            .iter()
            .map(|t| {
                let mut obj = String::new();
                obj.push('{');
                push_field(&mut obj, "name", &json_str(&t.name));
                push_field(&mut obj, "completed", &t.completed().to_string());
                push_field(&mut obj, "dropped", &t.dropped().to_string());
                push_field(&mut obj, "reconfigs", &t.reconfigs.to_string());
                push_field(&mut obj, "board_secs", &json_f64(t.board_secs));
                push_field(&mut obj, "p50_secs", &json_f64(t.latency.quantile(0.50)));
                push_field(&mut obj, "p99_secs", &json_f64(t.latency.quantile(0.99)));
                push_field(
                    &mut obj,
                    "queue_wait_p50_secs",
                    &json_f64(t.queue_wait.quantile(0.50)),
                );
                push_field(
                    &mut obj,
                    "queue_wait_p99_secs",
                    &json_f64(t.queue_wait.quantile(0.99)),
                );
                push_field(&mut obj, "slo_violations", &t.slo_violations.to_string());
                push_field(&mut obj, "cache_hits", &t.cache_hits.to_string());
                push_field(
                    &mut obj,
                    "cache_partial_hits",
                    &t.cache_partial_hits.to_string(),
                );
                push_field(&mut obj, "cache_misses", &t.cache_misses.to_string());
                push_field(&mut obj, "cache_coalesced", &t.cache_coalesced.to_string());
                push_field(&mut obj, "served", &t.outcomes.served.to_string());
                push_field(&mut obj, "served_late", &t.outcomes.served_late.to_string());
                push_field(
                    &mut obj,
                    "expired_in_queue",
                    &t.outcomes.expired_in_queue.to_string(),
                );
                push_field(&mut obj, "aborted", &t.outcomes.aborted.to_string());
                push_field(&mut obj, "hedge_loser", &t.outcomes.hedge_loser.to_string());
                push_field(
                    &mut obj,
                    "goodput_p99_secs",
                    &json_f64(t.goodput_latency.quantile(0.99)),
                );
                close_obj(&mut obj);
                obj
            })
            .collect();
        push_field(&mut out, "tenants", &format!("[{}]", tenants.join(",")));
        let boards: Vec<String> = self
            .boards
            .iter()
            .map(|b| {
                let mut obj = String::new();
                obj.push('{');
                push_field(&mut obj, "completed", &b.completed.to_string());
                push_field(&mut obj, "reconfigs", &b.reconfigs.to_string());
                push_field(&mut obj, "reconfig_secs", &json_f64(b.reconfig_secs));
                push_field(&mut obj, "busy_secs", &json_f64(b.busy_secs));
                push_field(&mut obj, "dma_secs", &json_f64(b.dma_secs));
                push_field(&mut obj, "evictions", &b.evictions.to_string());
                push_field(&mut obj, "migrations", &b.migrations.to_string());
                push_field(&mut obj, "switch_bytes", &b.switch_bytes.to_string());
                push_field(&mut obj, "host_bytes", &b.host_bytes.to_string());
                push_field(
                    &mut obj,
                    "utilization",
                    &json_f64(b.utilization(self.duration_secs)),
                );
                close_obj(&mut obj);
                obj
            })
            .collect();
        push_field(&mut out, "boards", &format!("[{}]", boards.join(",")));
        close_obj(&mut out);
        out
    }
}

/// `part / whole`, or 0 when `whole` is 0.
fn share(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// Appends `"key":value,` (the trailing comma is trimmed by [`close_obj`]).
fn push_field(out: &mut String, key: &str, value: &str) {
    out.push('"');
    out.push_str(key);
    out.push_str("\":");
    out.push_str(value);
    out.push(',');
}

/// Replaces a trailing comma with the closing brace.
fn close_obj(out: &mut String) {
    if out.ends_with(',') {
        out.pop();
    }
    out.push('}');
}

/// A string as a JSON literal, with `"`/`\`/control characters escaped.
/// Public so downstream report composers (e.g. the CI `bench-smoke`
/// artifact) share one encoder instead of hand-rolling escaping.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite `f64` as a JSON number (non-finite values become `null` —
/// bare `{}` formatting of a NaN would corrupt the document). Public for
/// the same reason as [`json_str`].
pub fn json_f64(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

impl fmt::Display for TrafficReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{:<14} {:>9} {:>8} {:>8} {:>10} {:>10} {:>10} {:>9}",
            "tenant", "completed", "dropped", "drop%", "p50(ms)", "p99(ms)", "max(ms)", "reconfig"
        )?;
        for t in &self.tenants {
            writeln!(
                f,
                "{:<14} {:>9} {:>8} {:>7.2}% {:>10.2} {:>10.2} {:>10.2} {:>9}",
                t.name,
                t.completed(),
                t.dropped(),
                t.drop_rate() * 100.0,
                t.latency.quantile(0.50) * 1e3,
                t.latency.quantile(0.99) * 1e3,
                t.latency.max() * 1e3,
                t.reconfigs,
            )?;
        }
        let overall = self.overall_latency();
        writeln!(
            f,
            "{:<14} {:>9} {:>8} {:>7.2}% {:>10.2} {:>10.2} {:>10.2} {:>9}",
            "TOTAL",
            self.completed(),
            self.dropped(),
            share(self.dropped(), self.outcomes().arrival_terminal()) * 100.0,
            overall.quantile(0.50) * 1e3,
            overall.quantile(0.99) * 1e3,
            overall.max() * 1e3,
            self.reconfigs,
        )?;
        writeln!(
            f,
            "throughput {:.1} req/s over {:.1} sim-s | queue depth max {} mean {:.1} | reconfig stall {:.2} s",
            self.throughput_rps(),
            self.duration_secs,
            self.queue_depth.max_depth(),
            self.queue_depth.mean_depth(self.duration_secs),
            self.reconfig_secs,
        )?;
        writeln!(
            f,
            "stages p99 (ms): ingest {:.3} | preprocess {:.3} | compute {:.3}",
            self.stages.ingest.quantile(0.99) * 1e3,
            self.stages.preprocess.quantile(0.99) * 1e3,
            self.stages.compute.quantile(0.99) * 1e3,
        )?;
        let total = self.stall.total();
        if total > 0.0 {
            writeln!(
                f,
                "stall attribution: queue {:.1}% | reconfig {:.1}% | dma {:.1}% | \
                 fabric {:.1}% | handoff {:.1}% | cache {:.1}% of {:.1} request-s",
                self.stall.queue_secs / total * 100.0,
                self.stall.reconfig_secs / total * 100.0,
                self.stall.dma_secs / total * 100.0,
                self.stall.fabric_secs / total * 100.0,
                self.stall.handoff_secs / total * 100.0,
                self.stall.cache_secs / total * 100.0,
                total,
            )?;
        }
        if self.cache.lookups() + self.cache.coalesced > 0 {
            writeln!(
                f,
                "cache: hit-rate {:.1}% ({} full, {} partial, {} miss) | {} coalesced | \
                 {} invalidations | {:.1} s recompute saved",
                self.cache.hit_rate() * 100.0,
                self.cache.hits,
                self.cache.partial_hits,
                self.cache.misses,
                self.cache.coalesced,
                self.cache.invalidations,
                self.cache.recompute_secs_saved,
            )?;
        }
        let lifecycle_cuts =
            self.expired_in_queue() + self.aborted() + self.hedges() + self.outcomes().served_late;
        if lifecycle_cuts > 0 || self.wasted_work_bytes > 0 {
            writeln!(
                f,
                "deadline: goodput {}/{} on-time | {} expired | {} aborted | {} late | \
                 {} hedges | wasted {:.2} GB / {:.1} board-s",
                self.goodput(),
                self.completed(),
                self.expired_in_queue(),
                self.aborted(),
                self.outcomes().served_late,
                self.hedges(),
                self.wasted_work_bytes as f64 / 1e9,
                self.wasted_secs,
            )?;
        }
        if self.dma_secs() > 0.0 {
            writeln!(
                f,
                "pipeline: {:.1}% of DMA time overlapped fabric compute ({:.2} s) | {} evictions",
                self.pipeline_overlap_ratio() * 100.0,
                self.overlap_secs,
                self.evictions(),
            )?;
        }
        if self.migrations() > 0 {
            writeln!(
                f,
                "migration: {} peer pulls | {:.2} GB over the switch | {:.2} GB from the host ({:.2} GB saved)",
                self.migrations(),
                self.switch_bytes() as f64 / 1e9,
                self.host_upload_bytes() as f64 / 1e9,
                self.host_bytes_saved() as f64 / 1e9,
            )?;
        }
        if self.boards.len() > 1 {
            for (i, b) in self.boards.iter().enumerate() {
                writeln!(
                    f,
                    "board {i}: {} completed | util {:>5.1}% | {} reconfigs ({:.2} s stall)",
                    b.completed,
                    b.utilization(self.duration_secs) * 100.0,
                    b.reconfigs,
                    b.reconfig_secs,
                )?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_bracket_the_data() {
        let mut h = LatencyHistogram::default();
        for i in 1..=1_000 {
            h.record(i as f64 * 1e-3); // 1 ms .. 1 s
        }
        let p50 = h.quantile(0.50);
        let p99 = h.quantile(0.99);
        assert!((0.45..0.60).contains(&p50), "p50 {p50}");
        assert!((0.9..1.05).contains(&p99), "p99 {p99}");
        assert!(h.quantile(1.0) <= h.max());
        assert_eq!(h.count(), 1_000);
        assert!((h.mean() - 0.5005).abs() < 1e-9);
    }

    #[test]
    fn quantile_is_monotone_in_q() {
        let mut h = LatencyHistogram::default();
        for i in 0..500 {
            h.record(1e-5 * (1 + i % 97) as f64);
        }
        let mut last = 0.0;
        for q in [0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0] {
            let v = h.quantile(q);
            assert!(v >= last, "quantile({q}) = {v} < {last}");
            last = v;
        }
    }

    #[test]
    fn overflow_latencies_report_the_exact_max() {
        let mut h = LatencyHistogram::default();
        h.record(1e9); // far beyond the ladder
        assert_eq!(h.quantile(0.99), 1e9);
        assert_eq!(h.max(), 1e9);
    }

    /// `bucket_of` agrees with `bucket_by_log2` on `secs`.
    fn assert_bucket(secs: f64) {
        assert_eq!(
            LatencyHistogram::bucket_of(secs),
            bucket_by_log2(secs),
            "bucket of {secs:e} (bits {:#x})",
            secs.to_bits()
        );
    }

    #[test]
    fn bucket_of_equals_the_log2_formula_around_every_edge() {
        // Inside the band the formula itself answers; just outside it the
        // table does, so both sides of each band are checked too.
        let band = EDGE_BAND_ULPS as i64;
        let offsets = (-8..=8).chain((1..=8).flat_map(|k| [-band - k, band + k]));
        let offsets: Vec<i64> = offsets.collect();
        for bucket in 1..=NUM_BUCKETS {
            let edge = BucketTable::edge(bucket);
            assert!(bucket_by_log2(f64::from_bits(edge)) >= bucket);
            assert!(bucket_by_log2(f64::from_bits(edge - 1)) < bucket);
            for &offset in &offsets {
                assert_bucket(f64::from_bits(edge.wrapping_add_signed(offset)));
            }
        }
    }

    #[test]
    fn bucket_of_equals_the_log2_formula_on_random_and_special_values() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0x0B0C_4E75);
        for _ in 0..200_000 {
            // Log-uniform over 1e-9 .. 1e6 seconds.
            let secs = 10f64.powf(rng.gen_range(-9.0..6.0));
            assert_bucket(secs);
            assert_bucket(f64::from_bits(
                secs.to_bits() ^ rng.gen_range(0..1u64 << 20),
            ));
        }
        let specials = [
            0.0,
            -0.0,
            -1.0,
            -1e-300,
            f64::MIN,
            f64::MIN_POSITIVE,
            f64::MIN_POSITIVE / 2.0, // subnormal
            f64::from_bits(1),       // the smallest subnormal
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MAX,
            HIST_FLOOR_SECS,
            f64::from_bits(HIST_FLOOR_SECS.to_bits() + 1),
            1e-6 * 2f64.powi(36),
            1e300,
        ];
        for secs in specials {
            assert_bucket(secs);
        }
        assert_eq!(LatencyHistogram::bucket_of(f64::NAN), 0);
        assert_eq!(LatencyHistogram::bucket_of(f64::INFINITY), NUM_BUCKETS);
    }

    #[test]
    fn merge_combines_counts_and_max() {
        let mut a = LatencyHistogram::default();
        let mut b = LatencyHistogram::default();
        a.record(0.010);
        b.record(0.500);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.max(), 0.500);
    }

    #[test]
    fn depth_timeline_tracks_max_and_mean() {
        let mut d = DepthTimeline::default();
        d.record(0.0, 1);
        d.record(10.0, 3);
        d.record(20.0, 0);
        assert_eq!(d.max_depth(), 3);
        // depth 1 over [0,10), 3 over [10,20), 0 after => (10+30)/40.
        assert!((d.mean_depth(40.0) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn board_stats_utilization_is_bounded_and_guarded() {
        let b = BoardStats {
            completed: 10,
            reconfigs: 2,
            reconfig_secs: 0.5,
            busy_secs: 25.0,
            ..BoardStats::default()
        };
        assert!((b.utilization(100.0) - 0.25).abs() < 1e-12);
        assert_eq!(b.utilization(0.0), 0.0, "zero horizon cannot divide");
    }

    #[test]
    fn json_report_is_deterministic_and_structurally_sound() {
        let mut tenant = TenantStats {
            name: "feed \"a\"\\".to_string(),
            ..TenantStats::default()
        };
        tenant.latency.record(0.010);
        let report = TrafficReport {
            tenants: vec![tenant],
            duration_secs: 12.5,
            reconfigs: 1,
            reconfig_secs: 0.23,
            queue_depth: DepthTimeline::default(),
            boards: vec![BoardStats::default(), BoardStats::default()],
            stages: StageHistograms::default(),
            overlap_secs: 0.0,
            stall: StallBreakdown::default(),
            wasted_work_bytes: 0,
            wasted_secs: 0.0,
            cache: CacheStats::default(),
            sim: SimPerf::default(),
            trace_digest: 0xDEAD_BEEF,
        };
        let a = report.to_json();
        let b = report.to_json();
        assert_eq!(a, b, "byte-identical renders");
        assert!(a.starts_with('{') && a.ends_with('}'));
        assert!(a.contains("\"pool_size\":2"));
        assert!(a.contains("\"p99_secs\":"));
        assert!(a.contains("\"stages\":[{\"stage\":\"ingest\""));
        assert!(a.contains("\"pipeline_overlap_ratio\":"));
        assert!(a.contains("\"dma_secs\":"));
        assert!(a.contains("\"migrations\":0"));
        assert!(a.contains("\"switch_bytes\":0"));
        assert!(a.contains("\"host_upload_bytes\":0"));
        assert!(a.contains("\"host_bytes_saved\":0"));
        assert!(a.contains("\"schema\":\"agnn-serve-report/v7\""));
        assert!(a.contains("\"goodput\":0"));
        assert!(a.contains("\"goodput_p99_secs\":"));
        assert!(a.contains("\"expired_in_queue\":0"));
        assert!(a.contains("\"aborted\":0"));
        assert!(a.contains("\"hedges\":0"));
        assert!(a.contains("\"wasted_work_bytes\":0"));
        assert!(a.contains("\"wasted_secs\":0"));
        assert!(a.contains("\"served\":0"));
        assert!(a.contains("\"served_late\":0"));
        assert!(a.contains("\"hedge_loser\":0"));
        assert!(a.contains("\"stall_attribution\":{\"queue_secs\":"));
        assert!(a.contains("\"handoff_secs\":"));
        assert!(a.contains("\"cache_secs\":"));
        assert!(a.contains("\"cache\":{\"hits\":0"));
        assert!(a.contains("\"hit_rate\":0"));
        assert!(a.contains("\"recompute_secs_saved\":0"));
        assert!(a.contains("\"max_served_delta_frac\":0"));
        assert!(a.contains("\"cache_hits\":0"));
        assert!(a.contains("\"cache_partial_hits\":0"));
        assert!(a.contains("\"cache_misses\":0"));
        assert!(a.contains("\"cache_coalesced\":0"));
        assert!(a.contains("\"sim_wall_secs\":"));
        assert!(a.contains("\"sim_events\":0"));
        assert!(a.contains("\"sim_events_per_sec\":"));
        assert!(a.contains("\"queue_wait_p99_secs\":"));
        assert!(a.contains("\"slo_violations\":0"));
        assert!(a.contains("\"trace_digest\":\"0x00000000deadbeef\""));
        assert!(
            a.contains("feed \\\"a\\\"\\\\"),
            "quotes and backslashes escaped"
        );
        assert!(!a.contains(",}"), "no trailing commas: {a}");
        assert!(!a.contains(",]"), "no trailing commas: {a}");
    }

    #[test]
    fn json_f64_guards_non_finite_values() {
        assert_eq!(json_f64(f64::NAN), "null");
        assert_eq!(json_f64(f64::INFINITY), "null");
        assert_eq!(json_f64(0.25), "0.25");
    }

    #[test]
    fn request_latency_totals_are_consistent() {
        let lat = RequestLatency {
            queue_secs: 1.0,
            reconfig_secs: 0.23,
            upload_secs: 0.1,
            stage_wait_secs: 0.0,
            preprocess_secs: 0.5,
            download_secs: 0.05,
            inference_secs: 0.2,
            cache_secs: 0.0,
        };
        assert!((lat.total() - 2.08).abs() < 1e-12);
        assert!((lat.board_secs() - 0.88).abs() < 1e-12);
        // Pipeline waits count toward the end-to-end total but not toward
        // board occupancy.
        let waited = RequestLatency {
            stage_wait_secs: 0.3,
            ..lat
        };
        assert!((waited.total() - 2.38).abs() < 1e-12);
        assert!((waited.board_secs() - lat.board_secs()).abs() < 1e-15);
        // Cache service counts toward the end-to-end total but never
        // toward board occupancy — a full hit occupies no board slot.
        let cached = RequestLatency {
            cache_secs: 0.01,
            ..lat
        };
        assert!((cached.total() - 2.09).abs() < 1e-12);
        assert!((cached.board_secs() - lat.board_secs()).abs() < 1e-15);
    }

    #[test]
    fn stall_breakdown_partitions_the_latency_exactly() {
        let lat = RequestLatency {
            queue_secs: 1.0,
            reconfig_secs: 0.23,
            upload_secs: 0.1,
            stage_wait_secs: 0.3,
            preprocess_secs: 0.5,
            download_secs: 0.05,
            inference_secs: 0.2,
            cache_secs: 0.02,
        };
        let stall = StallBreakdown::of(&lat);
        assert!((stall.queue_secs - 1.3).abs() < 1e-12, "queue + stage wait");
        assert!((stall.reconfig_secs - 0.23).abs() < 1e-12);
        assert!((stall.dma_secs - 0.1).abs() < 1e-12);
        assert!((stall.fabric_secs - 0.5).abs() < 1e-12);
        assert!(
            (stall.handoff_secs - 0.25).abs() < 1e-12,
            "download + inference"
        );
        assert!((stall.cache_secs - 0.02).abs() < 1e-12);
        assert!(
            (stall.total() - lat.total()).abs() < 1e-12,
            "the six components partition the end-to-end latency"
        );
        let mut agg = StallBreakdown::default();
        agg.accumulate(&stall);
        agg.accumulate(&stall);
        assert!((agg.total() - 2.0 * lat.total()).abs() < 1e-12);
    }

    #[test]
    fn sim_perf_compares_equal_and_guards_zero_wall_time() {
        let fast = SimPerf {
            wall_secs: 0.5,
            events: 1_000,
        };
        let slow = SimPerf {
            wall_secs: 2.0,
            events: 1_000,
        };
        assert!((fast.events_per_sec() - 2_000.0).abs() < 1e-9);
        assert_eq!(
            SimPerf::default().events_per_sec(),
            0.0,
            "no clock, no speed claim"
        );
        // Self-metrics describe the host, not the simulated run: reports
        // differing only in SimPerf must still compare equal.
        assert_eq!(fast, slow);
    }

    #[test]
    fn stage_histograms_split_the_lifecycle() {
        let mut stages = StageHistograms::default();
        stages.record(&RequestLatency {
            upload_secs: 0.010,
            preprocess_secs: 0.040,
            download_secs: 0.002,
            inference_secs: 0.003,
            ..RequestLatency::default()
        });
        assert_eq!(stages.ingest.count(), 1);
        assert!((stages.ingest.mean() - 0.010).abs() < 1e-12);
        assert!((stages.preprocess.mean() - 0.040).abs() < 1e-12);
        assert!((stages.compute.mean() - 0.005).abs() < 1e-12);
    }

    #[test]
    fn overlap_ratio_is_guarded_and_bounded() {
        let mut report = TrafficReport {
            tenants: Vec::new(),
            duration_secs: 10.0,
            reconfigs: 0,
            reconfig_secs: 0.0,
            queue_depth: DepthTimeline::default(),
            boards: vec![BoardStats::default()],
            stages: StageHistograms::default(),
            overlap_secs: 0.0,
            stall: StallBreakdown::default(),
            wasted_work_bytes: 0,
            wasted_secs: 0.0,
            cache: CacheStats::default(),
            sim: SimPerf::default(),
            trace_digest: 0,
        };
        assert_eq!(report.pipeline_overlap_ratio(), 0.0, "serial: no DMA clock");
        report.boards[0].dma_secs = 4.0;
        report.overlap_secs = 3.0;
        assert!((report.pipeline_overlap_ratio() - 0.75).abs() < 1e-12);
        report.overlap_secs = 100.0;
        assert_eq!(report.pipeline_overlap_ratio(), 1.0, "clamped");
    }

    #[test]
    fn migration_aggregates_sum_across_boards() {
        let mut report = TrafficReport {
            tenants: Vec::new(),
            duration_secs: 10.0,
            reconfigs: 0,
            reconfig_secs: 0.0,
            queue_depth: DepthTimeline::default(),
            boards: vec![BoardStats::default(), BoardStats::default()],
            stages: StageHistograms::default(),
            overlap_secs: 0.0,
            stall: StallBreakdown::default(),
            wasted_work_bytes: 0,
            wasted_secs: 0.0,
            cache: CacheStats::default(),
            sim: SimPerf::default(),
            trace_digest: 0,
        };
        assert_eq!(report.migrations(), 0);
        assert!(!report.to_string().contains("migration:"), "quiet when off");
        report.boards[0].migrations = 2;
        report.boards[0].switch_bytes = 3_000_000_000;
        report.boards[0].host_bytes = 1_000_000_000;
        report.boards[1].migrations = 1;
        report.boards[1].switch_bytes = 1_000_000_000;
        report.boards[1].host_bytes = 500_000_000;
        assert_eq!(report.migrations(), 3);
        assert_eq!(report.switch_bytes(), 4_000_000_000);
        assert_eq!(report.host_upload_bytes(), 1_500_000_000);
        assert_eq!(report.host_bytes_saved(), report.switch_bytes());
        let text = report.to_string();
        assert!(text.contains("migration: 3 peer pulls"), "{text}");
        assert!(text.contains("4.00 GB over the switch"), "{text}");
    }

    #[test]
    fn outcome_counts_partition_arrivals() {
        let mut c = OutcomeCounts::default();
        for outcome in [
            RequestOutcome::Served,
            RequestOutcome::Served,
            RequestOutcome::ServedLate,
            RequestOutcome::ExpiredInQueue,
            RequestOutcome::Aborted,
            RequestOutcome::DroppedAtAdmission,
            RequestOutcome::HedgeLoser,
        ] {
            c.record(outcome);
        }
        assert_eq!(c.served, 2);
        assert_eq!(c.served_late, 1);
        // Hedge losers sit outside the arrival partition.
        assert_eq!(c.arrival_terminal(), 6);
        assert_eq!(c.hedge_loser, 1);
        let mut agg = OutcomeCounts::default();
        agg.accumulate(&c);
        agg.accumulate(&c);
        assert_eq!(agg.arrival_terminal(), 12);
    }

    #[test]
    fn outcome_names_are_stable() {
        assert_eq!(RequestOutcome::Served.name(), "served");
        assert_eq!(RequestOutcome::ServedLate.name(), "served_late");
        assert_eq!(RequestOutcome::ExpiredInQueue.name(), "expired_in_queue");
        assert_eq!(RequestOutcome::Aborted.name(), "aborted");
        assert_eq!(RequestOutcome::HedgeLoser.name(), "hedge_loser");
        assert_eq!(
            RequestOutcome::DroppedAtAdmission.name(),
            "dropped_at_admission"
        );
    }

    #[test]
    fn deadline_line_is_silent_without_lifecycle_cuts() {
        let report = TrafficReport {
            tenants: Vec::new(),
            duration_secs: 1.0,
            reconfigs: 0,
            reconfig_secs: 0.0,
            queue_depth: DepthTimeline::default(),
            boards: vec![BoardStats::default()],
            stages: StageHistograms::default(),
            overlap_secs: 0.0,
            stall: StallBreakdown::default(),
            wasted_work_bytes: 0,
            wasted_secs: 0.0,
            cache: CacheStats::default(),
            sim: SimPerf::default(),
            trace_digest: 0,
        };
        assert!(!report.to_string().contains("deadline:"), "quiet when off");
        let mut noisy = report.clone();
        noisy.wasted_work_bytes = 1_000;
        assert!(noisy.to_string().contains("deadline:"));
    }
}
