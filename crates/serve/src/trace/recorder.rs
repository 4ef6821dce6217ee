//! The bounded in-memory flight recorder.

use std::collections::VecDeque;

use super::{CounterSample, Span, TraceSink};

/// Default span/counter capacity: enough for every span of a
/// 100k-request trace (≤ 5 spans per request) without unbounded growth.
const DEFAULT_CAPACITY: usize = 512 * 1024;

/// A bounded ring buffer of spans and counter samples for post-mortem
/// queries: when either buffer is full the **oldest** entry is evicted
/// (flight-recorder semantics — the crash you are debugging is at the
/// end of the tape), and the eviction counts are reported so a query
/// knows whether the window it cares about survived.
#[derive(Debug, Clone)]
pub struct FlightRecorder {
    spans: VecDeque<Span>,
    counters: VecDeque<CounterSample>,
    capacity: usize,
    dropped_spans: u64,
    dropped_counters: u64,
}

impl FlightRecorder {
    /// A recorder keeping at most `capacity` spans and `capacity`
    /// counter samples (the most recent ones win).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity > 0, "flight recorder capacity must be positive");
        FlightRecorder {
            spans: VecDeque::new(),
            counters: VecDeque::new(),
            capacity,
            dropped_spans: 0,
            dropped_counters: 0,
        }
    }

    /// The recorded spans, oldest first.
    pub fn spans(&self) -> impl Iterator<Item = &Span> {
        self.spans.iter()
    }

    /// The recorded counter samples, oldest first.
    pub fn counters(&self) -> impl Iterator<Item = &CounterSample> {
        self.counters.iter()
    }

    /// Every retained span of one request, oldest first.
    pub fn spans_for_request(&self, request: u64) -> Vec<Span> {
        self.spans
            .iter()
            .filter(|s| s.request == request)
            .copied()
            .collect()
    }

    /// Spans evicted because the ring was full.
    pub fn dropped_spans(&self) -> u64 {
        self.dropped_spans
    }

    /// Counter samples evicted because the ring was full.
    pub fn dropped_counters(&self) -> u64 {
        self.dropped_counters
    }
}

impl Default for FlightRecorder {
    fn default() -> Self {
        FlightRecorder::with_capacity(DEFAULT_CAPACITY)
    }
}

impl TraceSink for FlightRecorder {
    fn span(&mut self, span: Span) {
        if self.spans.len() == self.capacity {
            self.spans.pop_front();
            self.dropped_spans += 1;
        }
        self.spans.push_back(span);
    }

    fn counter(&mut self, sample: CounterSample) {
        if self.counters.len() == self.capacity {
            self.counters.pop_front();
            self.dropped_counters += 1;
        }
        self.counters.push_back(sample);
    }
}

#[cfg(test)]
mod tests {
    use super::super::{BoardResource, CounterKind, SpanKind, Track};
    use super::*;

    fn span(request: u64, track: Track, begin: f64) -> Span {
        Span {
            track,
            kind: SpanKind::Ingest,
            tenant: 0,
            request,
            begin_secs: begin,
            end_secs: begin + 1.0,
        }
    }

    #[test]
    fn ring_keeps_the_newest_and_counts_evictions() {
        let mut rec = FlightRecorder::with_capacity(2);
        let dma = Track::Board {
            board: 0,
            resource: BoardResource::Dma,
        };
        for i in 0..5 {
            rec.span(span(i, dma, i as f64));
        }
        assert_eq!(rec.spans().count(), 2);
        assert_eq!(rec.dropped_spans(), 3);
        let kept: Vec<u64> = rec.spans().map(|s| s.request).collect();
        assert_eq!(kept, vec![3, 4], "oldest evicted first");
    }

    #[test]
    fn queries_filter_by_request_and_track() {
        let mut rec = FlightRecorder::default();
        let dma = Track::Board {
            board: 0,
            resource: BoardResource::Dma,
        };
        let fabric = Track::Board {
            board: 0,
            resource: BoardResource::Fabric,
        };
        rec.span(span(1, dma, 0.0));
        rec.span(span(2, dma, 1.0));
        rec.span(span(1, fabric, 2.0));
        let tracks: Vec<Track> = rec.spans_for_request(1).iter().map(|s| s.track).collect();
        assert_eq!(tracks, vec![dma, fabric]);
        assert_eq!(rec.dropped_spans(), 0);
    }

    #[test]
    fn counter_ring_is_bounded_too() {
        let mut rec = FlightRecorder::with_capacity(2);
        for i in 0..4 {
            rec.counter(CounterSample {
                kind: CounterKind::QueueDepth,
                time_secs: i as f64,
                value: i as f64,
            });
        }
        assert_eq!(rec.counters().count(), 2);
        assert_eq!(rec.dropped_counters(), 2);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_is_rejected() {
        FlightRecorder::with_capacity(0);
    }
}
