//! Batched recording retains exactly what per-event recording retains.
//!
//! The same random event stream is recorded twice into fresh sinks:
//! once event by event, once as random-length runs that alternate
//! between [`EventSink::record_batch`] and per-event `record`. The
//! retained `(t, seq, kind, fields)` must match for the unbounded
//! [`BufferSink`], for a [`RingBufferSink`] of any capacity, and through
//! the [`Telemetry`] handle's sequence numbering. Events carry zero to
//! three fields, so a recycled ring slot that kept a stale field from
//! the event it evicted shows up as a mismatch.

use pb_telemetry::{BufferSink, Event, EventBatch, EventSink, RingBufferSink, Telemetry, Value};
use proptest::bool::ANY;
use proptest::collection::vec;
use proptest::prelude::*;

const KINDS: [&str; 3] = ["fault.retry", "fault.outage", "des.cycle_done"];
const KEYS: [&str; 3] = ["attempt", "label", "soc"];

/// One generated event: time, kind index and up to three field seeds.
type Spec = (f64, usize, Vec<u64>);

fn fields(seeds: &[u64]) -> Vec<(&'static str, Value)> {
    seeds
        .iter()
        .enumerate()
        .map(|(i, &v)| match i {
            0 => (KEYS[0], Value::U64(v)),
            1 => (KEYS[1], Value::Str(format!("s{v}"))),
            _ => (KEYS[2], Value::F64(v as f64 * 0.5)),
        })
        .collect()
}

fn event(seq: u64, (t, kind, seeds): &Spec) -> Event {
    Event { t_sim: *t, seq, kind: KINDS[*kind], fields: fields(seeds) }
}

fn stage(batch: &mut EventBatch, (t, kind, seeds): &Spec) {
    let f = fields(seeds);
    let (t, kind) = (*t, KINDS[*kind]);
    match f.as_slice() {
        [] => batch.push(t, kind, []),
        [a] => batch.push(t, kind, [a.clone()]),
        [a, b] => batch.push(t, kind, [a.clone(), b.clone()]),
        [a, b, c] => batch.push(t, kind, [a.clone(), b.clone(), c.clone()]),
        _ => unreachable!("at most three fields"),
    }
}

/// Splits `0..n` into consecutive runs whose lengths cycle through
/// `splits`; each run is `(start, end, batched)`.
fn runs(n: usize, splits: &[(usize, bool)]) -> Vec<(usize, usize, bool)> {
    let mut out = Vec::new();
    let mut start = 0;
    for &(len, batched) in splits.iter().cycle() {
        if start >= n {
            break;
        }
        let end = (start + len).min(n);
        out.push((start, end, batched));
        start = end;
    }
    out
}

/// Records `specs` per event into `reference` and in mixed runs into
/// `batched`, reusing one batch throughout.
fn record_both(
    reference: &dyn EventSink,
    batched: &dyn EventSink,
    specs: &[Spec],
    splits: &[(usize, bool)],
) {
    for (seq, spec) in specs.iter().enumerate() {
        reference.record(event(seq as u64, spec));
    }
    let mut batch = EventBatch::new();
    for (start, end, as_batch) in runs(specs.len(), splits) {
        if as_batch {
            batch.clear();
            specs[start..end].iter().for_each(|s| stage(&mut batch, s));
            assert_eq!(batch.len(), end - start);
            batched.record_batch(start as u64, &batch);
        } else {
            for (seq, spec) in (start..end).zip(&specs[start..end]) {
                batched.record(event(seq as u64, spec));
            }
        }
    }
}

fn spec_strategy() -> impl Strategy<Value = Vec<Spec>> {
    vec(((0u32..1000).prop_map(|t| f64::from(t) * 0.25), 0usize..3, vec(0u64..50, 0..4)), 0..120)
}

proptest! {
    #![proptest_config(proptest::test_runner::Config::with_cases(128))]

    #[test]
    fn ring_batches_retain_what_per_event_recording_retains(
        capacity in 1usize..24,
        specs in spec_strategy(),
        splits in vec((1usize..9, ANY), 1..6),
    ) {
        let reference = RingBufferSink::new(capacity);
        let batched = RingBufferSink::new(capacity);
        record_both(&reference, &batched, &specs, &splits);
        prop_assert_eq!(batched.events(), reference.events());
    }

    #[test]
    fn buffer_batches_retain_what_per_event_recording_retains(
        specs in spec_strategy(),
        splits in vec((1usize..9, ANY), 1..6),
    ) {
        let reference = BufferSink::new();
        let batched = BufferSink::new();
        record_both(&reference, &batched, &specs, &splits);
        prop_assert_eq!(batched.events(), reference.events());
    }

    /// Through the handle: a batch reserves the same sequence numbers
    /// as the per-event calls it replaces, and is cleared afterwards.
    #[test]
    fn handle_batches_number_events_like_per_event_calls(
        capacity in 1usize..24,
        specs in spec_strategy(),
        splits in vec((1usize..9, ANY), 1..6),
    ) {
        let reference = Telemetry::ring(capacity);
        for (t, kind, seeds) in &specs {
            reference.event(*t, KINDS[*kind], fields(seeds));
        }
        let batched = Telemetry::ring(capacity);
        let mut batch = EventBatch::new();
        for (start, end, as_batch) in runs(specs.len(), &splits) {
            for spec @ (t, kind, seeds) in &specs[start..end] {
                if as_batch {
                    stage(&mut batch, spec);
                } else {
                    batched.event(*t, KINDS[*kind], fields(seeds));
                }
            }
            batched.record_batch(&mut batch);
            prop_assert!(batch.is_empty());
        }
        prop_assert_eq!(batched.to_jsonl(), reference.to_jsonl());
        prop_assert_eq!(batched.events(), reference.events());
    }
}
