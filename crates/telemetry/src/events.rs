//! The structured simulation event log.
//!
//! An [`Event`] is a sim-time-stamped record — a kind plus typed fields —
//! serialized as one JSON object per line (JSONL). Sinks decide what
//! happens to recorded events: kept unbounded ([`BufferSink`]), kept
//! bounded ([`RingBufferSink`]) or dropped ([`NoopSink`]).
//!
//! Hot loops that emit many untagged events stage them in an
//! [`EventBatch`] and hand the whole batch over at once
//! ([`crate::Telemetry::record_batch`]): one sequence reservation and
//! one lock per ring instead of one of each per event.

use crate::json;
use std::collections::VecDeque;
use std::fmt;
use std::fmt::Write as _;
use std::sync::{Mutex, MutexGuard};

/// A typed event field value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Float (non-finite values serialize as `null`).
    F64(f64),
    /// Boolean.
    Bool(bool),
    /// String.
    Str(String),
    /// A 64-bit trace/span id, serialized as a quoted 16-digit hex
    /// string (the JSONL layer parses numbers as `f64`, which cannot
    /// hold a full `u64` exactly). Storing the raw id keeps the hot
    /// tagging path allocation-free; the hex rendering happens once at
    /// export time.
    Hex(u64),
}

impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::U64(v)
    }
}

impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::U64(v as u64)
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::I64(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::F64(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

impl Value {
    fn write_json(&self, out: &mut String) {
        match self {
            Value::U64(v) => {
                let _ = write!(out, "{v}");
            }
            Value::I64(v) => {
                let _ = write!(out, "{v}");
            }
            Value::F64(v) if v.is_finite() => {
                let _ = write!(out, "{v}");
            }
            Value::F64(_) => out.push_str("null"),
            Value::Bool(v) => {
                let _ = write!(out, "{v}");
            }
            Value::Str(s) => out.push_str(&json::escape(s)),
            Value::Hex(id) => {
                out.push('"');
                crate::trace::push_hex(out, *id);
                out.push('"');
            }
        }
    }
}

/// One sim-time-stamped record of the event log.
#[derive(Clone, Debug, PartialEq)]
pub struct Event {
    /// Simulation timestamp in seconds (`"t"` in JSONL).
    pub t_sim: f64,
    /// Recording sequence number — the tiebreaker that makes the sorted
    /// export deterministic (`"seq"` in JSONL).
    pub seq: u64,
    /// Event type, dot-namespaced by layer (e.g. `"des.arrival"`).
    /// Kinds are literals, so recording one allocates nothing.
    pub kind: &'static str,
    /// Extra fields, flattened into the JSONL object.
    pub fields: Vec<(&'static str, Value)>,
}

impl Event {
    /// Serializes the event as one flat JSON object:
    /// `{"t":…,"seq":…,"kind":"…", <fields>…}`.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(48 + 16 * self.fields.len());
        self.write_json(&mut out);
        out
    }

    /// [`Event::to_json`] into a caller-supplied buffer, so bulk export
    /// loops reuse one allocation across thousands of events.
    pub fn write_json(&self, out: &mut String) {
        out.push_str("{\"t\":");
        if self.t_sim.is_finite() {
            let _ = write!(out, "{}", self.t_sim);
        } else {
            out.push_str("null");
        }
        let _ = write!(out, ",\"seq\":{},\"kind\":{}", self.seq, json::escape(self.kind));
        for (key, value) in &self.fields {
            let _ = write!(out, ",{}:", json::escape(key));
            value.write_json(out);
        }
        out.push('}');
    }
}

/// A reusable staging buffer of events that share no causal tags —
/// the per-retry `fault.*` events of one server cycle, say.
///
/// Events live in two flat columns: one head per event
/// (`t_sim`, kind, end of its fields) and one field column for all of
/// them. [`EventBatch::clear`] keeps both allocations, so a batch that
/// is reused across cycles stages events without allocating once it is
/// warm. Sequence numbers are assigned when the batch is recorded.
#[derive(Debug, Default)]
pub struct EventBatch {
    heads: Vec<(f64, &'static str, usize)>,
    fields: Vec<(&'static str, Value)>,
}

impl EventBatch {
    /// An empty batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Stages one event with its fields.
    #[inline]
    pub fn push<const N: usize>(
        &mut self,
        t_sim: f64,
        kind: &'static str,
        fields: [(&'static str, Value); N],
    ) {
        self.fields.extend(fields);
        self.heads.push((t_sim, kind, self.fields.len()));
    }

    /// Number of staged events.
    pub fn len(&self) -> usize {
        self.heads.len()
    }

    /// True when nothing is staged.
    pub fn is_empty(&self) -> bool {
        self.heads.is_empty()
    }

    /// Drops the staged events, keeping the allocations.
    pub fn clear(&mut self) {
        self.heads.clear();
        self.fields.clear();
    }

    /// The staged events in push order, as `(t_sim, kind, fields)`.
    pub fn iter(&self) -> impl Iterator<Item = (f64, &'static str, &[(&'static str, Value)])> {
        let mut start = 0;
        self.heads.iter().map(move |&(t_sim, kind, end)| {
            let fields = &self.fields[start..end];
            start = end;
            (t_sim, kind, fields)
        })
    }
}

/// Destination of recorded events. Implementations must be safe to share
/// across threads (sweeps record from rayon workers).
pub trait EventSink: Send + Sync + fmt::Debug {
    /// Accepts one event.
    fn record(&self, event: Event);

    /// Accepts a whole batch; event `i` carries sequence number
    /// `first_seq + i`. The default builds each [`Event`] and calls
    /// [`EventSink::record`], so a sink only overrides this to take its
    /// lock once per batch. Either way the sink must retain exactly what
    /// per-event recording would.
    fn record_batch(&self, first_seq: u64, batch: &EventBatch) {
        for (seq, (t_sim, kind, fields)) in (first_seq..).zip(batch.iter()) {
            self.record(Event { t_sim, seq, kind, fields: fields.to_vec() });
        }
    }

    /// A snapshot of the retained events, in recording order.
    fn events(&self) -> Vec<Event>;

    /// Number of retained events.
    fn len(&self) -> usize;

    /// True when no events are retained.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True when recorded events are actually kept. Callers use this to
    /// skip building field vectors for sinks that drop everything.
    fn is_recording(&self) -> bool {
        true
    }
}

/// Drops every event; [`EventSink::is_recording`] is false, so guarded
/// call sites skip event construction entirely.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoopSink;

impl EventSink for NoopSink {
    fn record(&self, _event: Event) {}

    fn events(&self) -> Vec<Event> {
        Vec::new()
    }

    fn len(&self) -> usize {
        0
    }

    fn is_recording(&self) -> bool {
        false
    }
}

/// Keeps every event in memory — the sink behind JSONL trace export.
#[derive(Debug, Default)]
pub struct BufferSink {
    events: Mutex<Vec<Event>>,
}

impl BufferSink {
    /// An empty buffer.
    pub fn new() -> Self {
        Self::default()
    }
}

impl EventSink for BufferSink {
    fn record(&self, event: Event) {
        self.events.lock().expect("event buffer poisoned").push(event);
    }

    fn record_batch(&self, first_seq: u64, batch: &EventBatch) {
        let mut events = self.events.lock().expect("event buffer poisoned");
        events.reserve(batch.len());
        for (seq, (t_sim, kind, fields)) in (first_seq..).zip(batch.iter()) {
            events.push(Event { t_sim, seq, kind, fields: fields.to_vec() });
        }
    }

    fn events(&self) -> Vec<Event> {
        self.events.lock().expect("event buffer poisoned").clone()
    }

    fn len(&self) -> usize {
        self.events.lock().expect("event buffer poisoned").len()
    }
}

/// Keeps only the most recent `capacity` events — bounded memory for
/// long-running simulations where only the tail matters.
#[derive(Debug)]
pub struct RingBufferSink {
    capacity: usize,
    events: Mutex<VecDeque<Event>>,
}

impl RingBufferSink {
    /// A ring keeping the last `capacity` events (capacity must be > 0).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "ring buffer capacity must be positive");
        RingBufferSink { capacity, events: Mutex::new(VecDeque::with_capacity(capacity)) }
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    pub(crate) fn lock(&self) -> MutexGuard<'_, VecDeque<Event>> {
        self.events.lock().expect("event ring poisoned")
    }

    /// Appends one event to the locked ring. A full ring evicts its
    /// oldest event and reuses that slot's field buffer, so a warm ring
    /// records without allocating.
    pub(crate) fn push_recycled(
        &self,
        events: &mut VecDeque<Event>,
        (t_sim, seq, kind): (f64, u64, &'static str),
        fields: &[(&'static str, Value)],
    ) {
        let mut buffer = if events.len() == self.capacity {
            events.pop_front().expect("a full ring is non-empty").fields
        } else {
            Vec::with_capacity(fields.len())
        };
        buffer.clear();
        buffer.extend_from_slice(fields);
        events.push_back(Event { t_sim, seq, kind, fields: buffer });
    }
}

impl EventSink for RingBufferSink {
    fn record(&self, event: Event) {
        let mut events = self.lock();
        if events.len() == self.capacity {
            events.pop_front();
        }
        events.push_back(event);
    }

    fn record_batch(&self, first_seq: u64, batch: &EventBatch) {
        let mut events = self.lock();
        for (seq, (t_sim, kind, fields)) in (first_seq..).zip(batch.iter()) {
            self.push_recycled(&mut events, (t_sim, seq, kind), fields);
        }
    }

    fn events(&self) -> Vec<Event> {
        self.lock().iter().cloned().collect()
    }

    fn len(&self) -> usize {
        self.lock().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Json};

    fn event(t: f64, seq: u64) -> Event {
        Event {
            t_sim: t,
            seq,
            kind: "test",
            fields: vec![("n", 3usize.into()), ("ok", true.into())],
        }
    }

    #[test]
    fn event_serializes_to_valid_flat_json() {
        let e = Event {
            t_sim: 12.5,
            seq: 7,
            kind: "des.arrival",
            fields: vec![
                ("client", 42u64.into()),
                ("delta", (-3i64).into()),
                ("soc", 0.5f64.into()),
                ("label", "a \"quoted\"\nname".into()),
                ("nan", f64::NAN.into()),
            ],
        };
        let parsed = parse(&e.to_json()).expect("valid JSON");
        assert_eq!(parsed.get("t").and_then(Json::as_f64), Some(12.5));
        assert_eq!(parsed.get("seq").and_then(Json::as_f64), Some(7.0));
        assert_eq!(parsed.get("kind").and_then(Json::as_str), Some("des.arrival"));
        assert_eq!(parsed.get("client").and_then(Json::as_f64), Some(42.0));
        assert_eq!(parsed.get("delta").and_then(Json::as_f64), Some(-3.0));
        assert_eq!(parsed.get("soc").and_then(Json::as_f64), Some(0.5));
        assert_eq!(parsed.get("label").and_then(Json::as_str), Some("a \"quoted\"\nname"));
        assert!(matches!(parsed.get("nan"), Some(Json::Null)), "non-finite floats become null");
    }

    #[test]
    fn hex_values_serialize_as_quoted_16_digit_strings() {
        let id = 0x0123_4567_89AB_CDEFu64;
        let e = Event {
            t_sim: 1.0,
            seq: 0,
            kind: "trace.sample",
            fields: vec![("trace", Value::Hex(id)), ("zero", Value::Hex(0))],
        };
        let json = e.to_json();
        // Byte-identical to the historical pre-rendered form.
        assert!(json.contains("\"trace\":\"0123456789abcdef\""), "{json}");
        assert!(json.contains("\"zero\":\"0000000000000000\""), "{json}");
        let parsed = parse(&json).expect("valid JSON");
        assert_eq!(parsed.get("trace").and_then(Json::as_str), Some("0123456789abcdef"));
        // write_json appends without clearing the caller's buffer.
        let mut buf = String::from("x");
        e.write_json(&mut buf);
        assert_eq!(&buf[1..], json);
    }

    #[test]
    fn buffer_sink_retains_in_order() {
        let sink = BufferSink::new();
        for i in 0..5 {
            sink.record(event(i as f64, i));
        }
        assert_eq!(sink.len(), 5);
        assert!(!sink.is_empty());
        assert!(sink.is_recording());
        let events = sink.events();
        assert_eq!(events[0].seq, 0);
        assert_eq!(events[4].seq, 4);
    }

    #[test]
    fn ring_sink_keeps_only_the_tail() {
        let sink = RingBufferSink::new(3);
        assert_eq!(sink.capacity(), 3);
        for i in 0..10 {
            sink.record(event(i as f64, i));
        }
        let events = sink.events();
        assert_eq!(events.len(), 3);
        assert_eq!(events.iter().map(|e| e.seq).collect::<Vec<_>>(), vec![7, 8, 9]);
    }

    #[test]
    fn noop_sink_drops_everything() {
        let sink = NoopSink;
        sink.record(event(0.0, 0));
        assert!(sink.is_empty());
        assert!(!sink.is_recording());
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_ring_panics() {
        let _ = RingBufferSink::new(0);
    }
}
