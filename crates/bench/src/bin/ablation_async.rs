//! Synchronized time slots vs unsynchronized FCFS arrivals (beyond the
//! paper).
//!
//! Quantifies what the paper's GPS-synchronized time slots buy: with
//! random arrivals the server's receive NIC is up for the near-full union
//! of upload intervals and the model runs once per client instead of once
//! per slot; with slots it is up 18 × 15 s and runs 18 batched executions.
//! Asynchrony buys latency instead — no client waits for its group's slot.
//!
//! `cargo run -p pb-bench --bin ablation_async [--csv]`

use pb_bench::{emit, Args};
use pb_orchestra::allocator::allocate;
use pb_orchestra::des::simulate_async_cycle_memoized;
use pb_orchestra::loss::LossModel;
use pb_orchestra::prelude::*;
use pb_orchestra::report::TextTable;
use pb_orchestra::simulation::servers_cycle_energy;

fn main() {
    let args = Args::from_env();
    if args.help {
        println!("usage: ablation_async [--csv] [--cap N] [--seed N]");
        return;
    }
    let cap: usize = args.get("cap", 10);
    let server = presets::cloud_server(ServiceKind::Cnn, cap);

    let mut t = TextTable::new(vec![
        "clients",
        "slotted_J",
        "async_J",
        "overhead_pct",
        "async_mean_latency_s",
        "async_peak_queue",
    ]);
    let disabled = Telemetry::disabled();
    for n in [10usize, 60, 120, 180] {
        let allocation = allocate(n, &server, FillPolicy::PackSlots, None);
        let slotted = servers_cycle_energy(&server, &allocation, &LossModel::NONE);
        let mut rng = seeded_rng(args.get("seed", 42u64));
        let a = simulate_async_cycle_memoized(n, &server, &mut rng, &disabled, None, None);
        t.row(vec![
            n.to_string(),
            format!("{:.0}", slotted.value()),
            format!("{:.0}", a.server_energy.value()),
            format!("{:.1}", (a.server_energy / slotted - 1.0) * 100.0),
            format!("{:.1}", a.mean_latency.value()),
            a.peak_queue.to_string(),
        ]);
    }
    emit(&t, args.csv);
    if !args.csv {
        println!("\nSynchronized slots + batched execution save substantial server energy;");
        println!("asynchrony's payoff is the ~16 s mean latency (no slot waiting).");
    }
}
