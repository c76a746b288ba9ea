//! Bounded flight recorder with anomaly-triggered post-mortems.
//!
//! A [`FlightRecorderSink`] keeps only the most recent `N` events *per
//! severity* — so a flood of routine info events can never evict the
//! warning/error context that explains a failure — and, when an anomaly
//! trigger fires (edge fallback, brown-out, conservation mismatch), dumps
//! the merged rings as a JSONL post-mortem file. It is the default sink
//! for `pb sweep --faults`: memory stays bounded on million-client runs,
//! yet the first anomaly leaves a readable black box behind.
//!
//! A batch ([`EventSink::record_batch`]) takes each ring's lock once and
//! writes into recycled slots, so the flood of routine `fault.*` warn
//! events a faulted sweep produces costs no allocation once the rings
//! are full. Triggers inside a batch still dump exactly the events up
//! to and including themselves.

use crate::events::{Event, EventBatch, EventSink, RingBufferSink};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Event severity, classified from the event kind.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Severity {
    /// Routine instrumentation (`des.*`, `trace.*`, `harvest.*`, …).
    Info,
    /// Degradation en route to recovery (`fault.outage`,
    /// `fault.packet_drop`, `fault.retry`).
    Warn,
    /// Terminal trouble: `fault.fallback` and every `anomaly.*` kind.
    Error,
}

impl Severity {
    /// Classifies an event kind. The scheme is prefix-based so new fault
    /// or anomaly kinds inherit sensible severities without registration.
    pub fn classify(kind: &str) -> Severity {
        if kind.starts_with("anomaly.") || kind == "fault.fallback" {
            Severity::Error
        } else if kind.starts_with("fault.") {
            Severity::Warn
        } else {
            Severity::Info
        }
    }

    fn index(self) -> usize {
        match self {
            Severity::Info => 0,
            Severity::Warn => 1,
            Severity::Error => 2,
        }
    }
}

/// True when an event kind should trip a post-mortem dump: retry
/// exhaustion / brown-out fallbacks (`fault.fallback`, including
/// `cause=brownout`) and every `anomaly.*` kind (e.g. the
/// `anomaly.conservation` mismatch emitted by `pb sweep`).
pub fn is_trigger(kind: &str) -> bool {
    kind == "fault.fallback" || kind.starts_with("anomaly.")
}

/// A bounded per-severity event recorder with anomaly-triggered JSONL
/// dumps. See the module docs for the retention and trigger model.
#[derive(Debug)]
pub struct FlightRecorderSink {
    /// The info, warn and error rings, indexed by [`Severity`].
    rings: [RingBufferSink; 3],
    dump_path: Option<String>,
    max_dumps: u64,
    dumps: AtomicU64,
    triggers: AtomicU64,
    last_trigger: Mutex<Option<&'static str>>,
}

impl FlightRecorderSink {
    /// A recorder keeping the most recent `per_severity` events in each
    /// of the info/warn/error rings, with auto-dump disarmed.
    ///
    /// # Panics
    /// Panics when `per_severity` is zero.
    pub fn new(per_severity: usize) -> Self {
        FlightRecorderSink {
            rings: std::array::from_fn(|_| RingBufferSink::new(per_severity)),
            dump_path: None,
            max_dumps: 0,
            dumps: AtomicU64::new(0),
            triggers: AtomicU64::new(0),
            last_trigger: Mutex::new(None),
        }
    }

    /// Arms auto-dump: the first `max_dumps` trigger events each write
    /// the merged rings to `path` (later triggers still count but stop
    /// rewriting, keeping the *first* anomaly's context on disk).
    pub fn with_auto_dump(mut self, path: impl Into<String>, max_dumps: u64) -> Self {
        self.dump_path = Some(path.into());
        self.max_dumps = max_dumps;
        self
    }

    /// Number of trigger events observed so far.
    pub fn triggers_fired(&self) -> u64 {
        self.triggers.load(Ordering::Relaxed)
    }

    /// Number of post-mortem dumps written so far.
    pub fn dumps_written(&self) -> u64 {
        self.dumps.load(Ordering::Relaxed)
    }

    /// Kind of the most recent trigger event, if any fired.
    pub fn last_trigger(&self) -> Option<String> {
        let last = self.last_trigger.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        last.map(str::to_string)
    }

    /// The auto-dump path, when armed.
    pub fn dump_path(&self) -> Option<&str> {
        self.dump_path.as_deref()
    }

    /// Retained events per severity ring: `(info, warn, error)`.
    pub fn len_by_severity(&self) -> (usize, usize, usize) {
        let [info, warn, error] = &self.rings;
        (info.len(), warn.len(), error.len())
    }

    /// The merged rings rendered as a `(t, seq)`-sorted JSONL post-mortem.
    pub fn dump_jsonl(&self) -> String {
        let mut events = self.events();
        events.sort_by(|a, b| a.t_sim.total_cmp(&b.t_sim).then(a.seq.cmp(&b.seq)));
        let mut out = String::new();
        for e in &events {
            e.write_json(&mut out);
            out.push('\n');
        }
        out
    }

    /// Writes the post-mortem to `path`; returns the number of lines.
    pub fn dump_to(&self, path: &str) -> std::io::Result<usize> {
        let dump = self.dump_jsonl();
        let lines = dump.lines().count();
        std::fs::write(path, dump)?;
        Ok(lines)
    }
}

impl EventSink for FlightRecorderSink {
    fn record(&self, event: Event) {
        let kind = event.kind;
        self.rings[Severity::classify(kind).index()].record(event);
        if is_trigger(kind) {
            self.triggers.fetch_add(1, Ordering::Relaxed);
            if let Ok(mut last) = self.last_trigger.lock() {
                *last = Some(kind);
            }
            if let Some(path) = &self.dump_path {
                // First-wins within the dump budget: keep the context of
                // the earliest anomalies rather than churning the file on
                // every subsequent fallback.
                if self.dumps.load(Ordering::Relaxed) < self.max_dumps {
                    let n = self.dumps.fetch_add(1, Ordering::Relaxed);
                    if n < self.max_dumps {
                        let _ = self.dump_to(path);
                    }
                }
            }
        }
    }

    fn record_batch(&self, first_seq: u64, batch: &EventBatch) {
        // The rings are locked in index order on the first routed event
        // and held until a trigger: the trigger takes the `record` path,
        // whose dump must read the rings.
        let mut locked = None;
        for (seq, (t_sim, kind, fields)) in (first_seq..).zip(batch.iter()) {
            if is_trigger(kind) {
                locked = None;
                self.record(Event { t_sim, seq, kind, fields: fields.to_vec() });
                continue;
            }
            let guards = locked.get_or_insert_with(|| self.rings.each_ref().map(|r| r.lock()));
            let i = Severity::classify(kind).index();
            self.rings[i].push_recycled(&mut guards[i], (t_sim, seq, kind), fields);
        }
    }

    fn events(&self) -> Vec<Event> {
        let mut all: Vec<Event> = self.rings.iter().flat_map(|r| r.events()).collect();
        all.sort_by_key(|e| e.seq);
        all
    }

    fn len(&self) -> usize {
        self.rings.iter().map(|r| r.len()).sum()
    }

    fn is_recording(&self) -> bool {
        true
    }
}

/// A shared flight recorder is still a sink: `pb sweep` hands the
/// telemetry layer one `Arc` clone and keeps the other to read trigger
/// state and write the final post-mortem after the run.
impl EventSink for Arc<FlightRecorderSink> {
    fn record(&self, event: Event) {
        self.as_ref().record(event);
    }

    fn record_batch(&self, first_seq: u64, batch: &EventBatch) {
        self.as_ref().record_batch(first_seq, batch);
    }

    fn events(&self) -> Vec<Event> {
        self.as_ref().events()
    }

    fn len(&self) -> usize {
        self.as_ref().len()
    }

    fn is_recording(&self) -> bool {
        self.as_ref().is_recording()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(t: f64, seq: u64, kind: &'static str) -> Event {
        Event { t_sim: t, seq, kind, fields: vec![] }
    }

    #[test]
    fn severity_classification_is_prefix_based() {
        assert_eq!(Severity::classify("des.arrival"), Severity::Info);
        assert_eq!(Severity::classify("trace.sample"), Severity::Info);
        assert_eq!(Severity::classify("fault.retry"), Severity::Warn);
        assert_eq!(Severity::classify("fault.packet_drop"), Severity::Warn);
        assert_eq!(Severity::classify("fault.fallback"), Severity::Error);
        assert_eq!(Severity::classify("anomaly.conservation"), Severity::Error);
        assert_eq!(Severity::classify("anomaly.brownout"), Severity::Error);
        assert!(is_trigger("fault.fallback"));
        assert!(is_trigger("anomaly.conservation"));
        assert!(!is_trigger("fault.retry"));
    }

    #[test]
    fn rings_are_bounded_per_severity() {
        let sink = FlightRecorderSink::new(4);
        for i in 0..100u64 {
            sink.record(ev(i as f64, i, "des.arrival"));
        }
        for i in 100..110u64 {
            sink.record(ev(i as f64, i, "fault.retry"));
        }
        let (info, warn, error) = sink.len_by_severity();
        assert_eq!((info, warn, error), (4, 4, 0));
        assert_eq!(sink.len(), 8);
        // The info ring kept the *latest* events; the flood did not touch
        // the warn ring.
        let events = sink.events();
        assert!(events.iter().any(|e| e.seq == 99));
        assert!(!events.iter().any(|e| e.seq == 0));
    }

    #[test]
    fn triggers_count_and_dump_once() {
        let dir = std::env::temp_dir().join("pb_flight_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("postmortem.jsonl");
        let path_str = path.to_str().unwrap().to_string();
        let _ = std::fs::remove_file(&path);

        let sink = FlightRecorderSink::new(16).with_auto_dump(&path_str, 1);
        sink.record(ev(1.0, 0, "des.arrival"));
        sink.record(ev(2.0, 1, "fault.retry"));
        assert_eq!(sink.triggers_fired(), 0);
        sink.record(ev(3.0, 2, "fault.fallback"));
        assert_eq!(sink.triggers_fired(), 1);
        assert_eq!(sink.last_trigger().as_deref(), Some("fault.fallback"));
        assert_eq!(sink.dumps_written(), 1);

        let dump = std::fs::read_to_string(&path).expect("post-mortem written");
        assert_eq!(dump.lines().count(), 3);
        assert!(dump.contains("fault.fallback"));

        // A later trigger counts but does not rewrite the first dump.
        sink.record(ev(4.0, 3, "anomaly.conservation"));
        assert_eq!(sink.triggers_fired(), 2);
        assert_eq!(sink.dumps_written(), 1);
        let again = std::fs::read_to_string(&path).unwrap();
        assert!(!again.contains("anomaly.conservation"));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn dump_is_time_sorted_across_rings() {
        let sink = FlightRecorderSink::new(8);
        sink.record(ev(5.0, 0, "des.arrival"));
        sink.record(ev(1.0, 1, "fault.retry"));
        sink.record(ev(3.0, 2, "fault.fallback"));
        let dump = sink.dump_jsonl();
        let ts: Vec<f64> = dump
            .lines()
            .map(|l| {
                crate::json::parse(l).unwrap().get("t").and_then(crate::json::Json::as_f64).unwrap()
            })
            .collect();
        assert_eq!(ts, vec![1.0, 3.0, 5.0]);
    }

    /// A trigger in the middle of a batch dumps exactly what recording
    /// the same events one by one dumps: the events up to and including
    /// the trigger, from rings that have already wrapped.
    #[test]
    fn batched_trigger_dumps_like_per_event_recording() {
        use crate::events::Value;
        let kinds =
            ["des.cycle_done", "fault.retry", "fault.outage", "fault.fallback", "fault.retry"];
        let stream: Vec<(f64, &'static str, u64)> = (0..40u64)
            .map(|i| {
                let kind =
                    if i == 17 || i == 31 { "anomaly.brownout" } else { kinds[i as usize % 5] };
                ((i % 7) as f64, kind, i)
            })
            .collect();
        let dir = std::env::temp_dir().join(format!("pb_flight_batch_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = |name: &str| dir.join(name).to_string_lossy().into_owned();

        let single = FlightRecorderSink::new(3).with_auto_dump(path("single.jsonl"), 4);
        for (seq, &(t_sim, kind, v)) in (100u64..).zip(&stream) {
            single.record(Event { t_sim, seq, kind, fields: vec![("v", Value::U64(v))] });
        }
        let batched = FlightRecorderSink::new(3).with_auto_dump(path("batched.jsonl"), 4);
        let mut batch = EventBatch::new();
        let mut first_seq = 100u64;
        // Batches of 13, 13, 13 and 1 events: every full batch holds
        // triggers after ring-wrapping routine events, and the fourth
        // dump (the one left on disk) fires inside the second batch.
        for chunk in stream.chunks(13) {
            for &(t_sim, kind, v) in chunk {
                batch.push(t_sim, kind, [("v", Value::U64(v))]);
            }
            batched.record_batch(first_seq, &batch);
            first_seq += batch.len() as u64;
            batch.clear();
        }

        assert!(single.triggers_fired() > 4, "the stream must trip several triggers");
        assert_eq!(batched.triggers_fired(), single.triggers_fired());
        assert_eq!(batched.last_trigger(), single.last_trigger());
        assert_eq!(batched.dumps_written(), single.dumps_written());
        assert_eq!(batched.len_by_severity(), single.len_by_severity());
        assert_eq!(batched.dump_jsonl(), single.dump_jsonl());
        let on_disk = std::fs::read_to_string(path("batched.jsonl")).expect("dump written");
        assert_eq!(on_disk, std::fs::read_to_string(path("single.jsonl")).unwrap());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn arc_delegation_shares_state() {
        let arc = Arc::new(FlightRecorderSink::new(4));
        let sink: Box<dyn EventSink> = Box::new(Arc::clone(&arc));
        sink.record(ev(0.0, 0, "fault.fallback"));
        assert!(sink.is_recording());
        assert_eq!(sink.len(), 1);
        assert_eq!(arc.triggers_fired(), 1);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_panics() {
        let _ = FlightRecorderSink::new(0);
    }
}
