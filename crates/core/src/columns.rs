//! Columnar (struct-of-arrays) fleet state.
//!
//! Per-client simulation state used to live in `Vec`s of structs and
//! enums scattered across the fault machinery; at fleet sizes of 10⁵–10⁶
//! clients those allocations and their pointer-chasing dominate a sweep
//! point. [`FleetColumns`] keeps each client's drawn class as one flat
//! `u32` phase column that batched operations chunk over with a
//! **deterministic chunk plan**: chunk boundaries are a pure function of
//! the column length ([`FleetColumns::CHUNK`]-sized pieces), never of
//! the worker count, so the persistent work-stealing pool can execute
//! them in any order while integer reductions stay bit-identical across
//! `RAYON_NUM_THREADS` ∈ {1, 2, N}.
//!
//! [`FleetColumns::draw`] consumes the point's fault stream in exactly
//! the order the old `Vec<ClientClass>` population draw did (pinned by
//! the fault-replay suite). The backends draw the column only when the
//! plan can brown out or drop a client; otherwise every client is an
//! uploader and no column is allocated.

use crate::faults::{ClientClass, FaultPlan};
use pb_telemetry::Telemetry;
use rand::Rng;
use rayon::prelude::*;

/// Encodes a [`ClientClass`] into its phase-column representation.
const fn encode(class: ClientClass) -> u32 {
    match class {
        ClientClass::Uploader => 0,
        ClientClass::Brownout => 1,
        ClientClass::SensorDropout => 2,
    }
}

/// Decodes a phase-column entry back into a [`ClientClass`].
fn decode(phase: u32) -> ClientClass {
    match phase {
        0 => ClientClass::Uploader,
        1 => ClientClass::Brownout,
        2 => ClientClass::SensorDropout,
        other => unreachable!("invalid phase column entry {other}"),
    }
}

/// A borrowed, zero-copy view over a contiguous range of the phase
/// column, decoding [`ClientClass`] on access. Replaces `&[ClientClass]`
/// in the faulted-cycle signatures so callers slice columns instead of
/// materializing per-client vectors.
#[derive(Clone, Copy, Debug)]
pub struct ClassView<'a> {
    phase: &'a [u32],
}

impl<'a> ClassView<'a> {
    /// Number of clients in the view.
    pub fn len(&self) -> usize {
        self.phase.len()
    }

    /// True when the view covers no clients.
    pub fn is_empty(&self) -> bool {
        self.phase.is_empty()
    }

    /// The class of client `i` (relative to the view's start).
    pub fn get(&self, i: usize) -> ClientClass {
        decode(self.phase[i])
    }

    /// Iterates the classes in client order.
    pub fn iter(&self) -> impl Iterator<Item = ClientClass> + 'a {
        self.phase.iter().map(|&p| decode(p))
    }

    /// A sub-view over `range` (client indices relative to this view).
    pub fn slice(&self, range: std::ops::Range<usize>) -> ClassView<'a> {
        ClassView { phase: &self.phase[range] }
    }
}

/// Columnar per-client fleet state for one faulted cycle: the drawn
/// [`ClientClass`] of every *active* client, encoded, in client-index
/// order (the same order the fault stream is consumed in).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FleetColumns {
    phase: Vec<u32>,
}

impl FleetColumns {
    /// Deterministic chunk width for batched column operations. A pure
    /// constant — chunk boundaries depend only on the column length, so
    /// reductions over chunks are bit-identical at any thread count.
    pub const CHUNK: usize = 8192;

    /// Draws every client's class for the cycle, in client-index order,
    /// from the point's fault stream — byte-for-byte the same draw
    /// sequence as the historical `Vec<ClientClass>` population draw
    /// (zero probabilities consume no RNG).
    pub fn draw<R: Rng + ?Sized>(plan: &FaultPlan, active: usize, rng: &mut R) -> FleetColumns {
        let p_brown = plan.brownout.map_or(0.0, |b| b.probability);
        let p_sensor = plan.sensor_dropout;
        let phase = (0..active)
            .map(|_| {
                let class = if p_brown > 0.0 && rng.gen::<f64>() < p_brown {
                    ClientClass::Brownout
                } else if p_sensor > 0.0 && rng.gen::<f64>() < p_sensor {
                    ClientClass::SensorDropout
                } else {
                    ClientClass::Uploader
                };
                encode(class)
            })
            .collect();
        FleetColumns { phase }
    }

    /// Number of clients (rows).
    pub fn len(&self) -> usize {
        self.phase.len()
    }

    /// True when the fleet is empty.
    pub fn is_empty(&self) -> bool {
        self.phase.is_empty()
    }

    /// Number of chunks the deterministic chunk plan covers this fleet
    /// with (what batched operations hand to the pool).
    pub fn chunk_count(&self) -> usize {
        self.len().div_ceil(Self::CHUNK)
    }

    /// The class of client `i`.
    pub fn class(&self, i: usize) -> ClientClass {
        decode(self.phase[i])
    }

    /// A view over the whole phase column.
    pub fn classes(&self) -> ClassView<'_> {
        ClassView { phase: &self.phase }
    }

    /// Counts (brown-outs, sensor dropouts), reduced chunk-wise over the
    /// worker pool. Integer sums are associative, so the result is
    /// bit-identical at any thread count.
    pub fn class_counts(&self) -> (usize, usize) {
        if self.phase.is_empty() {
            return (0, 0);
        }
        self.phase
            .par_chunks(Self::CHUNK)
            .map(|chunk| {
                let mut brown = 0usize;
                let mut sensor = 0usize;
                for &p in chunk {
                    brown += usize::from(p == encode(ClientClass::Brownout));
                    sensor += usize::from(p == encode(ClientClass::SensorDropout));
                }
                (brown, sensor)
            })
            .reduce(|| (0, 0), |a, b| (a.0 + b.0, a.1 + b.1))
    }
}

/// Columnar record of one server's *resolved* transfers: effective
/// arrival time, local client index and attempt count as flat columns,
/// filled in client order by the faulted cycle's fault pre-pass.
///
/// The DES fast path partitions these rows into **clean** deliveries
/// (first attempt succeeded, so the effective time *is* the client's
/// sorted wake-up instant — the rows are already time-ordered) and
/// **divergent** ones (retries pushed the client to a later, unordered
/// instant). Merging the sorted clean run with the sorted divergent
/// tail reproduces the exact loop's `(time, push index)` pop
/// order in O(m + d log d) for `d` divergent clients, instead of
/// re-sorting all m rows — and instead of running the event loop at
/// all.
#[derive(Clone, Debug, Default)]
pub struct TransferColumns {
    t_eff: Vec<f64>,
    client: Vec<u32>,
    attempts: Vec<u32>,
}

impl TransferColumns {
    /// An empty column set with room for `n` rows.
    pub fn with_capacity(n: usize) -> Self {
        TransferColumns {
            t_eff: Vec::with_capacity(n),
            client: Vec::with_capacity(n),
            attempts: Vec::with_capacity(n),
        }
    }

    /// Appends a resolved transfer (rows arrive in client order).
    pub fn push(&mut self, t_eff: f64, client: usize, attempts: u64) {
        self.t_eff.push(t_eff);
        self.client.push(client as u32);
        self.attempts.push(attempts.min(u32::MAX as u64) as u32);
    }

    /// Number of resolved transfers.
    pub fn len(&self) -> usize {
        self.t_eff.len()
    }

    /// True when no transfer resolved.
    pub fn is_empty(&self) -> bool {
        self.t_eff.is_empty()
    }

    /// Rows whose effective time diverged from the arrival stream
    /// (needed more than one attempt).
    pub fn divergent_count(&self) -> usize {
        self.attempts.iter().filter(|&&a| a > 1).count()
    }

    /// The rows as `(time, client)` pairs in *push* order (client
    /// order) — what the exact event loop consumes, so its sequence
    /// numbers match the historical per-client push loop.
    pub fn push_order_entries(&self) -> Vec<(f64, usize)> {
        self.t_eff.iter().zip(&self.client).map(|(&t, &c)| (t, c as usize)).collect()
    }

    /// The rows in event-queue *pop* order — time ascending, ties in push
    /// order — as separate time and client columns (the shape the DES
    /// replay consumes), via the clean/divergent merge described on
    /// the type.
    pub fn pop_order_columns(&self) -> (Vec<f64>, Vec<u32>) {
        let m = self.len();
        let mut clean: Vec<(f64, u32, u32)> = Vec::with_capacity(m);
        let mut divergent: Vec<(f64, u32, u32)> = Vec::new();
        for i in 0..m {
            let row = (self.t_eff[i], i as u32, self.client[i]);
            if self.attempts[i] > 1 {
                divergent.push(row);
            } else {
                clean.push(row);
            }
        }
        // Clean rows inherit the arrival sort; only the divergent tail
        // needs ordering. The sort key (time, push index) matches the
        // exact loop's (time, seq) tie-break exactly.
        divergent.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let mut times: Vec<f64> = Vec::with_capacity(m);
        let mut clients: Vec<u32> = Vec::with_capacity(m);
        let (mut ci, mut di) = (0usize, 0usize);
        while ci < clean.len() || di < divergent.len() {
            let take_clean = match (clean.get(ci), divergent.get(di)) {
                (Some(c), Some(d)) => c.0.total_cmp(&d.0).then(c.1.cmp(&d.1)).is_lt(),
                (Some(_), None) => true,
                _ => false,
            };
            let (t, _, client) = if take_clean {
                ci += 1;
                clean[ci - 1]
            } else {
                di += 1;
                divergent[di - 1]
            };
            times.push(t);
            clients.push(client);
        }
        (times, clients)
    }

    /// [`TransferColumns::pop_order_columns`] zipped into `(time,
    /// client)` pairs.
    pub fn pop_order_entries(&self) -> Vec<(f64, usize)> {
        let (times, clients) = self.pop_order_columns();
        times.into_iter().zip(clients).map(|(t, c)| (t, c as usize)).collect()
    }
}

/// Mirrors the fleet's columnar shape into telemetry: the
/// `columns.clients` and `columns.chunks` gauges record the largest
/// fleet seen and how many pool chunks its batched operations span.
pub(crate) fn publish_columns(telemetry: &Telemetry, columns: &FleetColumns) {
    if !telemetry.is_enabled() {
        return;
    }
    if let Some(r) = telemetry.registry() {
        r.gauge("columns.clients").set_max(columns.len() as f64);
        r.gauge("columns.chunks").set_max(columns.chunk_count() as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::Brownout;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn mixed_plan() -> FaultPlan {
        FaultPlan {
            brownout: Some(Brownout { probability: 0.3 }),
            sensor_dropout: 0.3,
            ..FaultPlan::NONE
        }
    }

    #[test]
    fn draw_matches_row_wise_reference() {
        // The columnar draw must consume the fault stream exactly like
        // the historical per-client enum draw.
        let plan = mixed_plan();
        let mut stream = StdRng::seed_from_u64(9);
        let cols = FleetColumns::draw(&plan, 500, &mut stream);
        let mut rng = StdRng::seed_from_u64(9);
        let reference: Vec<ClientClass> = (0..500)
            .map(|_| {
                if rng.gen::<f64>() < 0.3 {
                    ClientClass::Brownout
                } else if rng.gen::<f64>() < 0.3 {
                    ClientClass::SensorDropout
                } else {
                    ClientClass::Uploader
                }
            })
            .collect();
        assert_eq!(cols.len(), 500);
        for (i, want) in reference.iter().enumerate() {
            assert_eq!(cols.class(i), *want, "client {i}");
        }
        // Brown-outs consumed one draw, everyone else two: the stream is
        // left exactly where the reference left it.
        assert_eq!(stream.gen::<u64>(), rng.gen::<u64>());
    }

    #[test]
    fn zero_probabilities_consume_no_rng() {
        use rand::RngCore;
        let mut rng = StdRng::seed_from_u64(9);
        let before = rng.clone().next_u64();
        let cols = FleetColumns::draw(&FaultPlan::NONE, 100, &mut rng);
        assert_eq!(rng.next_u64(), before, "no RNG consumed");
        assert!(cols.classes().iter().all(|c| c == ClientClass::Uploader));
    }

    #[test]
    fn class_counts_match_a_serial_scan_across_chunk_boundaries() {
        // Cross several chunk boundaries so the pooled reduction is
        // genuinely multi-chunk.
        let plan = mixed_plan();
        let n = 3 * FleetColumns::CHUNK + 17;
        let cols = FleetColumns::draw(&plan, n, &mut StdRng::seed_from_u64(4));
        let brown = cols.classes().iter().filter(|c| *c == ClientClass::Brownout).count();
        let sensor = cols.classes().iter().filter(|c| *c == ClientClass::SensorDropout).count();
        assert_eq!(cols.class_counts(), (brown, sensor));
        assert_eq!(cols.chunk_count(), 4);
    }

    #[test]
    fn class_counts_are_thread_count_invariant() {
        let plan = mixed_plan();
        let cols = FleetColumns::draw(&plan, 50_000, &mut StdRng::seed_from_u64(11));
        let wide = cols.class_counts();
        let narrow = rayon::pool::with_thread_cap(1, || cols.class_counts());
        assert_eq!(wide, narrow);
    }

    #[test]
    fn views_slice_without_copying() {
        let plan = mixed_plan();
        let cols = FleetColumns::draw(&plan, 100, &mut StdRng::seed_from_u64(2));
        let view = cols.classes();
        let tail = view.slice(60..100);
        assert_eq!(tail.len(), 40);
        for i in 0..40 {
            assert_eq!(tail.get(i), cols.class(60 + i));
        }
        assert!(!tail.is_empty());
        assert_eq!(view.slice(0..0).len(), 0);
    }

    #[test]
    fn pop_order_merge_matches_a_stable_sort() {
        // Clean rows keep a sorted time column; divergent rows scatter.
        // The merge must equal a stable sort of all rows by time (stable
        // sort preserves push order at ties — the event-queue tie-break).
        let mut cols = TransferColumns::with_capacity(8);
        let mut rng = StdRng::seed_from_u64(3);
        let mut t = 0.0;
        let mut reference: Vec<(f64, usize)> = Vec::new();
        for client in 0..200usize {
            t += rng.gen::<f64>();
            let retried = rng.gen::<f64>() < 0.3;
            let (t_eff, attempts) = if retried { (t + 40.0 * rng.gen::<f64>(), 3) } else { (t, 1) };
            cols.push(t_eff, client, attempts);
            reference.push((t_eff, client));
        }
        assert_eq!(cols.push_order_entries(), reference);
        reference.sort_by(|a, b| a.0.total_cmp(&b.0));
        assert_eq!(cols.pop_order_entries(), reference);
        assert!(cols.divergent_count() > 10);
        assert_eq!(cols.len(), 200);
        assert!(!cols.is_empty());
    }

    #[test]
    fn all_clean_pop_order_is_push_order() {
        let mut cols = TransferColumns::with_capacity(4);
        for (i, t) in [1.0, 2.5, 7.0].into_iter().enumerate() {
            cols.push(t, i, 1);
        }
        assert_eq!(cols.pop_order_entries(), cols.push_order_entries());
        assert_eq!(cols.divergent_count(), 0);
        assert!(TransferColumns::default().pop_order_entries().is_empty());
    }

    #[test]
    fn empty_fleet_is_well_behaved() {
        let cols = FleetColumns::default();
        assert!(cols.is_empty());
        assert_eq!(cols.class_counts(), (0, 0));
        assert_eq!(cols.chunk_count(), 0);
    }
}
