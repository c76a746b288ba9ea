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
//! writes into recycled slots, so routine `fault.*` warn events cost no
//! allocation once the rings are full. Triggers inside a batch still
//! dump exactly the events up to and including themselves.
//!
//! Once an armed recorder has spent its dump budget nothing will read
//! its rings again, so the trigger that spends it freezes them: every
//! later event is only counted per severity, and
//! [`len_by_severity`](FlightRecorderSink::len_by_severity) still
//! reports what a recorder that kept storing would retain. A faulted
//! million-client sweep thus pays a classification and a counter
//! increment for the flood that follows its post-mortem.

use crate::events::{Event, EventBatch, EventSink, RingBufferSink};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

/// Event severity, classified from the event kind.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Severity {
    /// Routine instrumentation (`des.*`, `trace.*`, `harvest.*`, …).
    Info,
    /// Degradation en route to recovery (`fault.outage`,
    /// `fault.packet_drop`, `fault.retry`).
    Warn,
    /// Terminal trouble: `fault.fallback` (retry exhaustion or a
    /// brown-out) and every `anomaly.*` kind (e.g. the
    /// `anomaly.conservation` mismatch `pb sweep` emits). Every error
    /// event is a post-mortem trigger.
    Error,
}

impl Severity {
    /// Classifies an event kind. The scheme is prefix-based so new fault
    /// or anomaly kinds inherit sensible severities without registration.
    pub fn classify(kind: &str) -> Severity {
        match kind.strip_prefix("fault.") {
            Some("fallback") => Severity::Error,
            Some(_) => Severity::Warn,
            None if kind.starts_with("anomaly.") => Severity::Error,
            None => Severity::Info,
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

/// A bounded per-severity event recorder with anomaly-triggered JSONL
/// dumps. See the module docs for the retention and trigger model.
#[derive(Debug)]
pub struct FlightRecorderSink {
    /// The info, warn and error rings, indexed by [`Severity`].
    rings: [RingBufferSink; 3],
    /// Events seen per severity, stored or only counted.
    seen: [AtomicU64; 3],
    dump_path: Option<String>,
    max_dumps: u64,
    dumps: AtomicU64,
    dump_error: OnceLock<std::io::Error>,
    /// Set by the trigger that spends the dump budget, while every ring
    /// is locked: from then on events are counted, not stored. It is
    /// never cleared and publishes no data, and every store re-reads it
    /// under a ring lock, so the ring mutexes order it and `Relaxed`
    /// suffices.
    counting: AtomicBool,
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
            seen: Default::default(),
            dump_path: None,
            max_dumps: 0,
            dumps: AtomicU64::new(0),
            dump_error: OnceLock::new(),
            counting: AtomicBool::new(false),
            triggers: AtomicU64::new(0),
            last_trigger: Mutex::new(None),
        }
    }

    /// Arms auto-dump: the first `max_dumps` trigger events each write
    /// the merged rings to `path`. The trigger that spends this budget
    /// freezes the rings at its post-mortem; later events, triggers
    /// included, are only counted, keeping the *first* anomalies'
    /// context on disk.
    pub fn with_auto_dump(mut self, path: impl Into<String>, max_dumps: u64) -> Self {
        self.dump_path = Some(path.into());
        self.max_dumps = max_dumps;
        self
    }

    /// Number of trigger events observed so far.
    pub fn triggers_fired(&self) -> u64 {
        self.triggers.load(Ordering::Relaxed)
    }

    /// Number of post-mortem dumps successfully written so far. A failed
    /// write still spends its share of the dump budget; see
    /// [`dump_error`](Self::dump_error).
    pub fn dumps_written(&self) -> u64 {
        self.dumps.load(Ordering::Relaxed)
    }

    /// The first I/O error an auto-dump hit, if any.
    pub fn dump_error(&self) -> Option<&std::io::Error> {
        self.dump_error.get()
    }

    /// Kind of the most recent trigger event, if any fired.
    pub fn last_trigger(&self) -> Option<String> {
        let last = self.last_trigger.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        last.map(str::to_string)
    }

    /// Events per severity ring a recorder that never stops storing
    /// would retain: `(info, warn, error)`, each `min(seen, capacity)`.
    pub fn len_by_severity(&self) -> (usize, usize, usize) {
        let [info, warn, error] = std::array::from_fn(|i| {
            let capacity = self.rings[i].capacity();
            self.seen[i].load(Ordering::Relaxed).min(capacity as u64) as usize
        });
        (info, warn, error)
    }

    /// The merged rings rendered as a `(t, seq)`-sorted JSONL post-mortem.
    /// Once the dump budget is spent this is exactly the last post-mortem.
    pub fn dump_jsonl(&self) -> String {
        render(&self.lock_rings())
    }

    fn lock_rings(&self) -> [MutexGuard<'_, VecDeque<Event>>; 3] {
        self.rings.each_ref().map(RingBufferSink::lock)
    }

    /// The locked rings to store into, or `None` once the recorder only
    /// counts. `counting` flips only while every ring is locked, so the
    /// re-check under the locks is exact.
    fn lock_for_store(&self) -> Option<[MutexGuard<'_, VecDeque<Event>>; 3]> {
        if self.counting.load(Ordering::Relaxed) {
            return None;
        }
        let rings = self.lock_rings();
        (!self.counting.load(Ordering::Relaxed)).then_some(rings)
    }

    /// Counts a trigger and, within the dump budget, writes the
    /// post-mortem. The attempt that spends the budget renders the rings
    /// and switches to counting under the same locks.
    fn trigger(&self, kind: &'static str) {
        let n = self.triggers.fetch_add(1, Ordering::Relaxed);
        if let Ok(mut last) = self.last_trigger.lock() {
            *last = Some(kind);
        }
        // First-wins within the dump budget: the first `max_dumps`
        // triggers each attempt a dump, keeping the context of the
        // earliest anomalies rather than churning the file on every
        // subsequent fallback.
        let Some(path) = self.dump_path.as_ref().filter(|_| n < self.max_dumps) else { return };
        let dump = {
            let rings = self.lock_rings();
            if n + 1 == self.max_dumps {
                self.counting.store(true, Ordering::Relaxed);
            }
            render(&rings)
        };
        match std::fs::write(path, dump) {
            Ok(()) => {
                self.dumps.fetch_add(1, Ordering::Relaxed);
            }
            Err(e) => {
                let _ = self.dump_error.set(e);
            }
        }
    }
}

/// Locked rings rendered as a `(t, seq)`-sorted JSONL post-mortem.
fn render(rings: &[MutexGuard<'_, VecDeque<Event>>; 3]) -> String {
    let mut events: Vec<&Event> = rings.iter().flat_map(|r| r.iter()).collect();
    events.sort_by(|a, b| a.t_sim.total_cmp(&b.t_sim).then(a.seq.cmp(&b.seq)));
    let mut out = String::new();
    for e in events {
        e.write_json(&mut out);
        out.push('\n');
    }
    out
}

impl EventSink for FlightRecorderSink {
    fn record(&self, event: Event) {
        let kind = event.kind;
        let severity = Severity::classify(kind);
        let i = severity.index();
        self.seen[i].fetch_add(1, Ordering::Relaxed);
        if let Some(mut rings) = self.lock_for_store() {
            let ring = &self.rings[i];
            ring.push_recycled(&mut rings[i], (event.t_sim, event.seq, kind), &event.fields);
        }
        if severity == Severity::Error {
            self.trigger(kind);
        }
    }

    fn record_batch(&self, first_seq: u64, batch: &EventBatch) {
        // The rings stay locked from the first stored event to the next
        // trigger, whose dump must read them. Once the recorder counts,
        // the rest of the batch only adds to the totals.
        let mut seen = [0u64; 3];
        let mut locked = None;
        for (seq, (t_sim, kind, fields)) in (first_seq..).zip(batch.iter()) {
            let severity = Severity::classify(kind);
            let i = severity.index();
            seen[i] += 1;
            if let Some(rings) = locked.get_or_insert_with(|| self.lock_for_store()) {
                self.rings[i].push_recycled(&mut rings[i], (t_sim, seq, kind), fields);
            }
            if severity == Severity::Error {
                locked = None;
                self.trigger(kind);
            }
        }
        for (total, n) in self.seen.iter().zip(seen) {
            total.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// The events the rings hold, in `seq` order. Once the dump budget is
    /// spent these are exactly the last post-mortem's.
    fn events(&self) -> Vec<Event> {
        let mut all: Vec<Event> = self.rings.iter().flat_map(|r| r.events()).collect();
        all.sort_by_key(|e| e.seq);
        all
    }

    /// Number of events the rings hold; see [`EventSink::events`].
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
        assert_eq!(Severity::classify("fault.outage"), Severity::Warn);
        assert_eq!(Severity::classify("faults.retry"), Severity::Info);
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

    /// After the trigger that spends the dump budget the rings freeze at
    /// the post-mortem, yet every summary reads as for a recorder that
    /// kept storing the same stream, per event and batched.
    #[test]
    fn spent_budget_counts_like_a_storing_recorder() {
        use crate::events::Value;
        let kinds =
            ["des.cycle_done", "fault.retry", "fault.outage", "fault.retry", "fault.fallback"];
        let stream: Vec<(f64, &'static str)> = (0..120u64)
            .map(|i| {
                let kind = if i == 61 { "anomaly.brownout" } else { kinds[i as usize % 5] };
                ((i % 11) as f64, kind)
            })
            .collect();
        let dir = std::env::temp_dir().join(format!("pb_flight_counting_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("postmortem.jsonl").to_string_lossy().into_owned();

        let armed = FlightRecorderSink::new(4).with_auto_dump(&path, 1);
        let storing = FlightRecorderSink::new(4);
        let (per_event, batched) = stream.split_at(50);
        for sink in [&armed, &storing] {
            for (seq, &(t_sim, kind)) in (0u64..).zip(per_event) {
                sink.record(Event { t_sim, seq, kind, fields: vec![("v", Value::U64(seq))] });
            }
            let mut batch = EventBatch::new();
            let mut first_seq = per_event.len() as u64;
            for chunk in batched.chunks(9) {
                for (seq, &(t_sim, kind)) in (first_seq..).zip(chunk) {
                    batch.push(t_sim, kind, [("v", Value::U64(seq))]);
                }
                sink.record_batch(first_seq, &batch);
                first_seq += batch.len() as u64;
                batch.clear();
            }
        }

        assert!(armed.triggers_fired() > 20, "the stream must run well past its first trigger");
        assert_eq!(armed.dumps_written(), 1);
        assert_eq!(armed.triggers_fired(), storing.triggers_fired());
        assert_eq!(armed.last_trigger().as_deref(), Some("fault.fallback"));
        assert_eq!(armed.last_trigger(), storing.last_trigger());
        assert_eq!(armed.len_by_severity(), storing.len_by_severity());
        assert_eq!(armed.len_by_severity(), (4, 4, 4));
        let on_disk = std::fs::read_to_string(&path).expect("post-mortem written");
        assert_eq!(armed.dump_jsonl(), on_disk);
        assert_eq!(armed.len(), on_disk.lines().count());
        assert_ne!(storing.dump_jsonl(), on_disk, "the storing recorder moved on");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A post-mortem that cannot be written is not reported as written;
    /// it still spends the budget, so later triggers do not retry it.
    #[test]
    fn failed_dump_keeps_its_error_and_spends_the_budget() {
        let dir = std::env::temp_dir().join(format!("pb_flight_missing_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("postmortem.jsonl");
        let sink = FlightRecorderSink::new(4).with_auto_dump(path.to_string_lossy(), 1);
        sink.record(ev(1.0, 0, "fault.fallback"));
        assert_eq!(sink.triggers_fired(), 1);
        assert_eq!(sink.dumps_written(), 0);
        assert_eq!(sink.dump_error().map(std::io::Error::kind), Some(std::io::ErrorKind::NotFound));

        std::fs::create_dir_all(&dir).unwrap();
        sink.record(ev(2.0, 1, "fault.fallback"));
        assert_eq!(sink.triggers_fired(), 2);
        assert_eq!(sink.dumps_written(), 0);
        assert!(!path.exists(), "a spent budget does not retry the write");
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
