//! Event-level timeline rendering of one cycle.
//!
//! The sweep layer computes cycle energies in closed form. This module
//! renders the same cycle as an explicit event timeline — every slot's
//! receive window and service execution as dwell intervals on the server's
//! power-state machine, and the client's actions on its own machine — so
//! the closed-form numbers can be validated against a trapezoidal
//! integration of the resulting power trace, and so the Figure 4-style
//! chronology ("the edge starts shutting down as the server executes the
//! service's tasks") can be inspected and plotted.

use crate::allocator::{Allocation, FillPolicy};
use crate::client::ClientModel;
use crate::loss::LossModel;
use crate::server::ServerModel;
use pb_energy::state::{PowerState, StateMachine};
use pb_units::{Joules, Seconds};

/// Renders one server's cycle as a power-state machine: the slots run
/// back-to-back from the start of the cycle, then the server idles.
pub fn server_timeline(server: &ServerModel, slots: &[usize], loss: &LossModel) -> StateMachine {
    let penalty = loss.transfer.as_ref();
    let mut m = StateMachine::new(PowerState::active("idle"));
    for (i, &k) in slots.iter().enumerate() {
        if k == 0 {
            continue;
        }
        let sat = loss.saturation.as_ref().map_or(1.0, |s| s.multiplier(k, server.max_parallel));
        let recv = server.receive_window(k, penalty);
        m.dwell(PowerState::active(format!("receive slot {i}")), server.receive_power * sat, recv);
        m.dwell(
            PowerState::active(format!("process slot {i}")),
            server.process_power * sat,
            server.process_duration,
        );
    }
    let busy = m.clock();
    assert!(busy.value() <= server.cycle.value() + 1e-9, "slots overflow the cycle: busy {busy}");
    m.dwell(PowerState::active("idle"), server.idle_power, server.cycle - busy);
    m
}

/// Renders one client's cycle as a power-state machine, with its transfer
/// stretched by the Loss-B penalty for a slot of `occupancy` clients.
pub fn client_timeline(client: &ClientModel, occupancy: usize, loss: &LossModel) -> StateMachine {
    let extra = loss.transfer.as_ref().map_or(Seconds::ZERO, |p| p.extra_for(occupancy));
    let mut m = StateMachine::new(PowerState::Sleep);
    for (i, a) in client.actions.iter().enumerate() {
        let duration =
            if Some(i) == client.transfer_action { a.duration + extra } else { a.duration };
        m.dwell(PowerState::active(a.name.clone()), a.power, duration);
    }
    let active = m.clock();
    assert!(
        active.value() <= client.wake_period.value() + 1e-9,
        "actions overflow the wake period"
    );
    m.dwell(PowerState::Sleep, client.sleep_power, client.wake_period - active);
    m
}

/// The scheduled start time of every slot in `slots`, mirroring
/// [`server_timeline`]'s chronology: used slots run back-to-back from the
/// cycle start (receive window then processing), empty slots report the
/// clock where they would have started. This is where a slot's clients
/// begin their upload — the fault layer checks these instants against
/// the outage window.
pub fn slot_start_times(server: &ServerModel, slots: &[usize], loss: &LossModel) -> Vec<Seconds> {
    let penalty = loss.transfer.as_ref();
    let mut clock = Seconds::ZERO;
    slots
        .iter()
        .map(|&k| {
            let start = clock;
            if k > 0 {
                clock += server.receive_window(k, penalty) + server.process_duration;
            }
            start
        })
        .collect()
}

/// Total server energy of an allocation, integrated from event timelines.
/// Must agree with [`crate::simulation::servers_cycle_energy`] — an
/// internal consistency check exposed for tests and validation binaries.
pub fn servers_energy_from_timelines(
    server: &ServerModel,
    allocation: &Allocation,
    loss: &LossModel,
) -> Joules {
    allocation
        .groups()
        .iter()
        .flat_map(|(count, sa)| {
            // One timeline per distinct shape; its energy is added once
            // per server so the sum order matches a dense iteration.
            std::iter::repeat_n(server_timeline(server, &sa.slots, loss).total_energy(), *count)
        })
        .sum()
}

/// Total client-side energy of an allocation, integrated from timelines.
pub fn clients_energy_from_timelines(
    client: &ClientModel,
    allocation: &Allocation,
    loss: &LossModel,
) -> Joules {
    allocation
        .groups()
        .iter()
        .flat_map(|(count, sa)| {
            // One timeline per distinct occupancy; the per-slot energies
            // are replayed per server in the group, preserving the exact
            // addition order of a dense per-server iteration.
            let per_slot: Vec<Joules> = sa
                .slots
                .iter()
                .filter(|&&k| k > 0)
                .map(|&k| client_timeline(client, k, loss).total_energy() * k as f64)
                .collect();
            std::iter::repeat_n(per_slot, *count).flatten()
        })
        .sum()
}

/// Validates the closed-form cycle accounting against the event timelines
/// for `n_clients`; returns the absolute discrepancy (should be ≈ 0).
pub fn validate_cycle(
    n_clients: usize,
    client: &ClientModel,
    server: &ServerModel,
    loss: &LossModel,
    policy: FillPolicy,
) -> Joules {
    let allocation = crate::allocator::allocate(n_clients, server, policy, loss.transfer.as_ref());
    let closed_servers = crate::simulation::servers_cycle_energy(server, &allocation, loss);
    let closed_clients = crate::simulation::edge_cycle_energy(client, &allocation, loss);
    let event_servers = servers_energy_from_timelines(server, &allocation, loss);
    let event_clients = clients_energy_from_timelines(client, &allocation, loss);
    (closed_servers - event_servers).abs() + (closed_clients - event_clients).abs()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::presets;
    use crate::ServiceKind;
    use pb_units::Watts;

    fn setup(cap: usize) -> (ClientModel, ServerModel) {
        (presets::edge_cloud_client(), presets::cloud_server(ServiceKind::Cnn, cap))
    }

    #[test]
    fn server_timeline_covers_whole_cycle() {
        let (_, server) = setup(10);
        let m = server_timeline(&server, &[10, 10, 3], &LossModel::NONE);
        assert!((m.clock() - Seconds(300.0)).abs() < Seconds(1e-9));
        // Three receive windows of 15 s each.
        assert!((m.time_in("receive slot 0") - Seconds(15.0)).abs() < Seconds(1e-9));
        assert!((m.time_in("process slot 2") - Seconds(1.0)).abs() < Seconds(1e-9));
    }

    #[test]
    fn client_timeline_matches_cycle_energy() {
        let (client, _) = setup(10);
        let m = client_timeline(&client, 10, &LossModel::NONE);
        assert!((m.total_energy() - client.cycle_energy()).abs() < Joules(1e-9));
        assert!((m.clock() - client.wake_period).abs() < Seconds(1e-9));
    }

    #[test]
    fn client_timeline_with_transfer_penalty() {
        let (client, _) = setup(10);
        let loss = LossModel::transfer_only();
        let m = client_timeline(&client, 10, &loss);
        // Transfer stretched by 1.5 × 9 = 13.5 s.
        assert!((m.time_in("Send audio") - Seconds(28.5)).abs() < Seconds(1e-9));
        assert!(
            (m.total_energy() - client.cycle_energy_with_transfer_penalty(Seconds(13.5))).abs()
                < Joules(1e-9)
        );
    }

    #[test]
    fn slot_start_times_mirror_the_timeline_chronology() {
        let (_, server) = setup(10);
        // Paper setting: 16 s per used slot (15 s receive + 1 s process).
        let starts = slot_start_times(&server, &[10, 10, 3, 0, 0], &LossModel::NONE);
        assert_eq!(starts.len(), 5);
        assert!((starts[0] - Seconds(0.0)).abs() < Seconds(1e-9));
        assert!((starts[1] - Seconds(16.0)).abs() < Seconds(1e-9));
        assert!((starts[2] - Seconds(32.0)).abs() < Seconds(1e-9));
        // Empty slots don't advance the clock.
        assert!((starts[3] - Seconds(48.0)).abs() < Seconds(1e-9));
        assert!((starts[4] - Seconds(48.0)).abs() < Seconds(1e-9));
        // Loss B stretches the receive window with occupancy.
        let b = slot_start_times(&server, &[10, 10], &LossModel::transfer_only());
        assert!(b[1] > starts[1]);
    }

    #[test]
    fn closed_form_matches_event_timeline_no_loss() {
        let (client, server) = setup(10);
        for n in [1usize, 9, 95, 180, 181, 400] {
            let gap = validate_cycle(n, &client, &server, &LossModel::NONE, FillPolicy::PackSlots);
            assert!(gap < Joules(1e-6), "n = {n}: gap {gap}");
        }
    }

    #[test]
    fn closed_form_matches_event_timeline_under_losses() {
        let (client, server) = setup(10);
        // Loss C is irrelevant here (validate_cycle takes the population
        // as given); A and B change both paths identically.
        for loss in [LossModel::saturation_only(), LossModel::transfer_only(), LossModel::all()] {
            for policy in [FillPolicy::PackSlots, FillPolicy::BalanceSlots] {
                for n in [1usize, 37, 100, 250] {
                    let gap = validate_cycle(n, &client, &server, &loss, policy);
                    assert!(
                        gap < Joules(1e-6),
                        "loss {loss:?}, policy {policy:?}, n {n}: gap {gap}"
                    );
                }
            }
        }
    }

    #[test]
    fn fig9_calibration_also_validates() {
        let (client, server) = setup(35);
        let gap =
            validate_cycle(1700, &client, &server, &LossModel::fig9(), FillPolicy::BalanceSlots);
        assert!(gap < Joules(1e-6), "gap {gap}");
    }

    #[test]
    fn saturated_slot_power_is_scaled_in_timeline() {
        let (_, server) = setup(10);
        let loss = LossModel::saturation_only();
        let m = server_timeline(&server, &[10], &loss);
        // Full slot of 10 with limit 5: ×1.5 on the receive power.
        let receive = m.history().iter().find(|t| t.state.label() == "receive slot 0").unwrap();
        assert!((receive.power - Watts(68.8 * 1.5)).abs() < Watts(1e-6));
    }

    #[test]
    fn sampled_trace_integrates_to_same_energy() {
        // Cross-check with the pb-energy trapezoidal integrator at 0.1 s
        // sampling: the stepwise trace integrates to within 1% (boundary
        // samples straddle power steps).
        let (_, server) = setup(10);
        let m = server_timeline(&server, &[10, 10], &LossModel::NONE);
        let trace = m.sample_trace(Seconds(0.1));
        let integrated = trace.energy();
        let exact = m.total_energy();
        let rel = ((integrated - exact) / exact).abs();
        assert!(rel < 0.01, "relative gap {rel}");
    }

    mod props {
        use super::*;
        use crate::engine::{Backend, CycleEngine, ScenarioSpec, SimContext};
        use crate::faults::FaultPlan;
        use proptest::prelude::*;

        fn rel_gap(a: Joules, b: Joules) -> f64 {
            let scale = a.value().abs().max(b.value().abs());
            if scale == 0.0 {
                0.0
            } else {
                (a - b).value().abs() / scale
            }
        }

        proptest! {
            #![proptest_config(proptest::test_runner::Config::with_cases(32))]
            #[test]
            fn closed_form_and_timeline_always_agree(
                n in 1usize..600,
                clients in 0usize..1_000_000,
                cap in 1usize..60,
                which_loss in 0u8..6,
                balance in proptest::bool::ANY,
                cnn in proptest::bool::ANY,
                seed in 0u64..u64::MAX,
            ) {
                let loss = match which_loss {
                    0 => LossModel::NONE,
                    1 => LossModel::saturation_only(),
                    2 => LossModel::transfer_only(),
                    3 => LossModel::client_loss_only(),
                    4 => LossModel::all(),
                    _ => LossModel::fig9(),
                };
                let policy = if balance { FillPolicy::BalanceSlots } else { FillPolicy::PackSlots };
                let service = if cnn { ServiceKind::Cnn } else { ServiceKind::Svm };
                let spec = ScenarioSpec { policy, ..ScenarioSpec::paper(service, cap, loss) };
                let gap = validate_cycle(n, &spec.cloud_client, &spec.server, &loss, policy);
                prop_assert!(gap < Joules(1e-6), "gap {gap}");

                // The same agreement through the public engine up to a
                // million clients, with Loss C drawn from the seeded context.
                let ctx = SimContext::new(seed).with_fault_plan(FaultPlan::NONE);
                let closed = Backend::ClosedForm.evaluate(&spec, clients, &ctx);
                let timeline = Backend::EventTimeline.evaluate(&spec, clients, &ctx);
                prop_assert_eq!(closed.n_active, timeline.n_active);
                prop_assert_eq!(closed.n_servers, timeline.n_servers);
                let edge = rel_gap(closed.edge_energy_total, timeline.edge_energy_total);
                let server = rel_gap(closed.server_energy_total, timeline.server_energy_total);
                prop_assert!(edge <= 1e-9, "edge relative gap {edge}");
                prop_assert!(server <= 1e-9, "server relative gap {server}");
            }
        }
    }
}
