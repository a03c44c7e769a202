//! Chrome-trace-compatible span collection.
//!
//! When tracing is enabled the recorder buffers complete events
//! (`ph: "X"`) with microsecond timestamps relative to the recorder's
//! epoch. They are the `span` lines of the run's telemetry document;
//! every chrome-trace member is kept verbatim, so the `span` lines alone,
//! wrapped in a JSON array, load into `chrome://tracing` / Perfetto.

use std::collections::HashMap;
use aadedupe_lock::Lock;
use std::thread::ThreadId;

/// One complete ("X"-phase) trace event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Event name (span/stage label).
    pub name: &'static str,
    /// Start time, nanoseconds since the recorder's epoch.
    pub ts_ns: u64,
    /// Duration, nanoseconds.
    pub dur_ns: u64,
    /// Small integer id of the emitting thread (assigned on first use).
    pub tid: u32,
}

impl TraceEvent {
    /// The event as one `"kind": "span"` NDJSON line: a chrome-trace
    /// complete event (`ts`/`dur` in microseconds, as the format requires).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"kind\": \"span\", \"name\": \"{}\", \"ph\": \"X\", \"ts\": {:.3}, \"dur\": {:.3}, \"pid\": 1, \"tid\": {}}}",
            self.name,
            self.ts_ns as f64 / 1e3,
            self.dur_ns as f64 / 1e3,
            self.tid
        )
    }
}

/// Buffered trace sink with a thread-id registry.
#[derive(Debug, Default)]
pub struct TraceSink {
    events: Lock<Vec<TraceEvent>>,
    tids: Lock<HashMap<ThreadId, u32>>,
}

impl TraceSink {
    /// The small integer id for the calling thread.
    pub fn tid(&self) -> u32 {
        let mut g = self.tids.lock();
        let next = g.len() as u32;
        *g.entry(std::thread::current().id()).or_insert(next)
    }

    /// Buffers one event.
    pub fn push(&self, ev: TraceEvent) {
        self.events.lock().push(ev);
    }

    /// Takes every buffered event, ordered by start time.
    pub fn drain(&self) -> Vec<TraceEvent> {
        let mut evs = std::mem::take(&mut *self.events.lock());
        evs.sort_by_key(|e| e.ts_ns);
        evs
    }

    /// Buffered event count.
    pub fn len(&self) -> usize {
        self.events.lock().len()
    }

    /// True when no events are buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_serialize_as_chrome_complete_events() {
        let ev = TraceEvent { name: "chunk", ts_ns: 1_500, dur_ns: 42_000, tid: 3 };
        assert_eq!(
            ev.to_json(),
            "{\"kind\": \"span\", \"name\": \"chunk\", \"ph\": \"X\", \"ts\": 1.500, \"dur\": 42.000, \"pid\": 1, \"tid\": 3}"
        );
    }

    #[test]
    fn drain_orders_by_start_and_empties_the_sink() {
        let sink = TraceSink::default();
        sink.push(TraceEvent { name: "b", ts_ns: 20, dur_ns: 1, tid: 0 });
        sink.push(TraceEvent { name: "a", ts_ns: 10, dur_ns: 1, tid: 0 });
        let evs = sink.drain();
        assert_eq!(evs.iter().map(|e| e.name).collect::<Vec<_>>(), ["a", "b"]);
        assert!(sink.is_empty());
    }

    #[test]
    fn tids_are_stable_per_thread() {
        let sink = TraceSink::default();
        let t0 = sink.tid();
        assert_eq!(sink.tid(), t0);
        let other = std::thread::scope(|s| aadedupe_lock::join_scoped(s.spawn(|| sink.tid())).unwrap());
        assert_ne!(other, t0);
    }
}
