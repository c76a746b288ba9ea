//! `RingBufferSink` concurrency properties.
//!
//! Writers on the persistent pool hammer one shared ring concurrently;
//! whatever the interleaving, the sink must uphold:
//!
//! 1. **Capacity**: never more than `capacity` events retained, and
//!    exactly `min(capacity, total)` once the dust settles;
//! 2. **Per-writer recording order**: each writer's surviving events
//!    appear in the order that writer recorded them;
//! 3. **Suffix retention**: eviction is globally oldest-first, so the
//!    events a writer keeps are a *contiguous suffix* of what it wrote —
//!    a writer can lose its head, never its tail.
//!
//! Writers emit fixed-size chunks with their identity and a
//! monotonically increasing index in the fields, so the assertions can
//! be made chunk-ordered per writer without assuming any cross-writer
//! interleaving. Odd writers may hand their events over in batches
//! ([`EventSink::record_batch`]) while even writers record one at a
//! time; the three properties must hold for the mix.

use pb_telemetry::{Event, EventBatch, EventSink, RingBufferSink, Value};
use proptest::prelude::*;
use rayon::prelude::*;

fn event(writer: usize, index: usize) -> Event {
    Event {
        t_sim: index as f64,
        // seq is normally assigned by the Telemetry handle; the sink
        // itself must not depend on it for ordering.
        seq: 0,
        kind: "proptest.write",
        fields: vec![("writer", writer.into()), ("index", index.into())],
    }
}

fn field(e: &Event, key: &str) -> usize {
    match e.fields.iter().find(|(k, _)| *k == key) {
        Some((_, Value::U64(v))) => *v as usize,
        other => panic!("missing field {key}: {other:?}"),
    }
}

/// Runs `writers` concurrent producers of `per_writer` events each
/// against one shared ring and returns the retained events. With
/// `batch > 0`, odd writers record in batches of up to `batch` events.
fn hammer(
    capacity: usize,
    writers: usize,
    per_writer: usize,
    batch: usize,
) -> (RingBufferSink, Vec<Event>) {
    let sink = RingBufferSink::new(capacity);
    let ids: Vec<usize> = (0..writers).collect();
    ids.par_iter().for_each(|&w| {
        if batch > 0 && w % 2 == 1 {
            let mut staged = EventBatch::new();
            for start in (0..per_writer).step_by(batch) {
                for i in start..(start + batch).min(per_writer) {
                    staged.push(
                        i as f64,
                        "proptest.write",
                        [("writer", w.into()), ("index", i.into())],
                    );
                }
                sink.record_batch(0, &staged);
                staged.clear();
            }
        } else {
            for i in 0..per_writer {
                sink.record(event(w, i));
            }
        }
    });
    let events = sink.events();
    (sink, events)
}

/// Hammers one ring and checks the three properties of the module docs.
fn assert_capacity_and_order(capacity: usize, writers: usize, per_writer: usize, batch: usize) {
    let (sink, events) = hammer(capacity, writers, per_writer, batch);
    let total = writers * per_writer;

    // Capacity invariant: the ring retains exactly the bounded tail.
    assert_eq!(events.len(), total.min(capacity));
    assert_eq!(sink.len(), events.len());
    assert_eq!(sink.capacity(), capacity);

    // Chunk-ordered per-writer assertions: split the retained stream
    // by writer and check each writer's slice independently.
    for w in 0..writers {
        let indices: Vec<usize> =
            events.iter().filter(|e| field(e, "writer") == w).map(|e| field(e, "index")).collect();

        // Recording order: strictly increasing per writer (the ring
        // preserves arrival order and never reorders).
        for pair in indices.windows(2) {
            assert!(pair[0] < pair[1], "writer {w} out of order: {indices:?}");
        }

        // Suffix retention: eviction is oldest-first, and a writer's
        // own records enter in index order, so whatever survives is
        // the contiguous tail `per_writer - k .. per_writer`.
        if let Some(&first) = indices.first() {
            let expect: Vec<usize> = (first..per_writer).collect();
            assert_eq!(&indices, &expect, "writer {w} must keep a contiguous suffix");
        }
    }
}

proptest! {
    #![proptest_config(proptest::test_runner::Config::with_cases(64))]

    #[test]
    fn capacity_and_order_hold_under_concurrent_writers(
        capacity in 1usize..96,
        writers in 1usize..8,
        per_writer in 0usize..48,
    ) {
        assert_capacity_and_order(capacity, writers, per_writer, 0);
    }

    #[test]
    fn capacity_and_order_hold_with_batch_writers(
        capacity in 1usize..96,
        writers in 2usize..8,
        per_writer in 0usize..48,
        batch in 1usize..12,
    ) {
        assert_capacity_and_order(capacity, writers, per_writer, batch);
    }

    #[test]
    fn single_writer_tail_is_exact(capacity in 1usize..64, n in 0usize..128) {
        // Degenerate single-writer case pins the exact retained window.
        let (_, events) = hammer(capacity, 1, n, 0);
        let got: Vec<usize> = events.iter().map(|e| field(e, "index")).collect();
        let expect: Vec<usize> = (n.saturating_sub(capacity)..n).collect();
        prop_assert_eq!(got, expect);
    }
}
