//! The combined solar → converter → battery → load power system.
//!
//! This is the energy node of the deployed hive: the panel charges the
//! battery through the converter while the load (both Raspberry Pis) draws
//! from it. Stepping the system over several simulated days reproduces the
//! Figure 2 dynamics — daytime charging, nighttime discharge and brown-outs
//! when the battery is exhausted before sunrise.

use crate::battery::Battery;
use crate::solar::{DcDcConverter, Irradiance, SolarPanel};
use pb_telemetry::Telemetry;
use pb_units::{Joules, Seconds, TimeOfDay, Watts};
use rand::Rng;

/// Configuration of a hive power system.
#[derive(Clone, Debug)]
pub struct PowerSystemConfig {
    /// Irradiance model for the site.
    pub irradiance: Irradiance,
    /// Installed panel.
    pub panel: SolarPanel,
    /// Step-down converter between panel and battery.
    pub converter: DcDcConverter,
    /// Storage battery.
    pub battery: Battery,
}

impl Default for PowerSystemConfig {
    /// The deployed configuration: default irradiance, 30 W panel, 5 V/3 A
    /// converter and the 20 Ah power bank.
    fn default() -> Self {
        PowerSystemConfig {
            irradiance: Irradiance::default(),
            panel: SolarPanel::mono_30w(),
            converter: DcDcConverter::default(),
            battery: Battery::power_bank_20ah(),
        }
    }
}

/// Outcome of one simulation step.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct HarvestStep {
    /// Time of day at the start of the step.
    pub time: TimeOfDay,
    /// Power produced by the panel after conversion.
    pub harvested: Watts,
    /// Energy actually delivered to the load this step.
    pub delivered: Joules,
    /// Energy the load requested this step.
    pub requested: Joules,
    /// Battery state of charge (fraction) after the step.
    pub soc: f64,
    /// True when the load could not be fully served (brown-out).
    pub brown_out: bool,
}

/// A steppable hive power system.
#[derive(Clone, Debug)]
pub struct PowerSystem {
    config: PowerSystemConfig,
    clock: Seconds,
    total_harvested: Joules,
    total_delivered: Joules,
    brown_out_time: Seconds,
    telemetry: Telemetry,
}

impl PowerSystem {
    /// Creates a system at simulation time zero (midnight).
    pub fn new(config: PowerSystemConfig) -> Self {
        PowerSystem {
            config,
            clock: Seconds::ZERO,
            total_harvested: Joules::ZERO,
            total_delivered: Joules::ZERO,
            brown_out_time: Seconds::ZERO,
            telemetry: Telemetry::disabled(),
        }
    }

    /// A system reporting into `telemetry`: each step updates the
    /// `battery.soc` gauge and the `harvest.harvested_w` histogram,
    /// counts `harvest.brown_outs`, and — when the sink keeps events —
    /// appends a sim-time-stamped `battery.soc` trajectory record.
    /// Telemetry observes but never changes the simulation (the RNG
    /// stream is untouched).
    pub fn with_telemetry(config: PowerSystemConfig, telemetry: Telemetry) -> Self {
        PowerSystem { telemetry, ..Self::new(config) }
    }

    /// Current simulation time.
    pub fn clock(&self) -> Seconds {
        self.clock
    }

    /// The battery, for SoC inspection.
    pub fn battery(&self) -> &Battery {
        &self.config.battery
    }

    /// Total converted solar energy harvested so far.
    pub fn total_harvested(&self) -> Joules {
        self.total_harvested
    }

    /// Total energy delivered to the load so far.
    pub fn total_delivered(&self) -> Joules {
        self.total_delivered
    }

    /// Cumulative time the load was starved.
    pub fn brown_out_time(&self) -> Seconds {
        self.brown_out_time
    }

    /// Advances the system by `dt` with the load drawing `load` throughout.
    ///
    /// Harvested power serves the load first; surplus charges the battery
    /// and deficit discharges it. When the battery cannot cover the deficit
    /// the step is a (partial) brown-out.
    pub fn step<R: Rng + ?Sized>(&mut self, load: Watts, dt: Seconds, rng: &mut R) -> HarvestStep {
        assert!(dt.value() > 0.0, "step duration must be positive");
        let time = TimeOfDay::at(self.clock);
        let irradiance = self.config.irradiance.sample(time, rng);
        let harvested_power = self.config.converter.convert(self.config.panel.output(irradiance));

        let requested = load * dt;
        let direct = (harvested_power.min(load)) * dt;
        let surplus_power = (harvested_power - load).max(Watts::ZERO);
        let deficit_power = (load - harvested_power).max(Watts::ZERO);

        let mut delivered = direct;
        if surplus_power > Watts::ZERO {
            self.config.battery.charge(surplus_power, dt);
        } else if deficit_power > Watts::ZERO {
            delivered += self.config.battery.discharge(deficit_power, dt);
        }

        let brown_out = delivered.value() + 1e-9 < requested.value();
        if brown_out {
            // Attribute starved time proportionally to the missing energy.
            let missing =
                (requested - delivered).value() / requested.value().max(f64::MIN_POSITIVE);
            self.brown_out_time += dt * missing;
        }

        self.total_harvested += harvested_power * dt;
        self.total_delivered += delivered;
        let t_start = self.clock.value();
        self.clock += dt;

        let soc = self.config.battery.soc().fraction();
        if self.telemetry.is_enabled() {
            self.telemetry.set_gauge("battery.soc", soc);
            self.telemetry.observe("harvest.harvested_w", harvested_power.value());
            if brown_out {
                self.telemetry.add_to_counter("harvest.brown_outs", 1);
            }
            if self.telemetry.events_recording() {
                self.telemetry.event(
                    t_start,
                    "battery.soc",
                    vec![
                        ("soc", soc.into()),
                        ("harvested_w", harvested_power.value().into()),
                        ("delivered_j", delivered.value().into()),
                        ("brown_out", brown_out.into()),
                    ],
                );
                // An explicit anomaly event (a flight-recorder dump
                // trigger) — only under the causal-tracing flag, so the
                // plain trace stays byte-identical to its historical
                // shape.
                if brown_out && self.telemetry.tracing_active() {
                    self.telemetry.event(
                        t_start,
                        "anomaly.brownout",
                        vec![
                            ("soc", soc.into()),
                            ("requested_j", requested.value().into()),
                            ("delivered_j", delivered.value().into()),
                        ],
                    );
                }
            }
        }

        HarvestStep { time, harvested: harvested_power, delivered, requested, soc, brown_out }
    }

    /// Runs the system for `total` at fixed `dt`, with the load given by
    /// `load_at(time_of_day)`. Returns every step.
    pub fn run<R: Rng + ?Sized>(
        &mut self,
        total: Seconds,
        dt: Seconds,
        rng: &mut R,
        mut load_at: impl FnMut(TimeOfDay) -> Watts,
    ) -> Vec<HarvestStep> {
        let n = (total.value() / dt.value()).round() as usize;
        let mut steps = Vec::with_capacity(n);
        for _ in 0..n {
            let load = load_at(TimeOfDay::at(self.clock));
            steps.push(self.step(load, dt, rng));
        }
        steps
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pb_units::WattHours;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn clear_config(battery: Battery) -> PowerSystemConfig {
        PowerSystemConfig {
            irradiance: Irradiance { cloud_std: 0.0, clearness: 1.0, ..Irradiance::default() },
            panel: SolarPanel::mono_30w(),
            converter: DcDcConverter::default(),
            battery,
        }
    }

    #[test]
    fn daytime_surplus_charges_battery() {
        let battery = Battery::new(WattHours(100.0), 0.5);
        let mut sys = PowerSystem::new(clear_config(battery));
        let mut rng = StdRng::seed_from_u64(1);
        // Jump to noon by stepping with zero-ish load until 12:00.
        sys.clock = Seconds::from_hours(13.5);
        let soc_before = sys.battery().soc().fraction();
        let step = sys.step(Watts(1.0), Seconds(600.0), &mut rng);
        assert!(!step.brown_out);
        assert!(step.harvested > Watts(10.0));
        assert!(sys.battery().soc().fraction() > soc_before);
    }

    #[test]
    fn night_discharges_battery() {
        let battery = Battery::new(WattHours(100.0), 0.5);
        let mut sys = PowerSystem::new(clear_config(battery));
        let mut rng = StdRng::seed_from_u64(1);
        let soc_before = sys.battery().soc().fraction();
        let step = sys.step(Watts(2.0), Seconds(600.0), &mut rng); // midnight
        assert_eq!(step.harvested, Watts::ZERO);
        assert!(!step.brown_out);
        assert!(sys.battery().soc().fraction() < soc_before);
        assert!((step.delivered - Joules(1200.0)).abs() < Joules(1e-6));
    }

    #[test]
    fn empty_battery_at_night_browns_out() {
        let battery = Battery::new(WattHours(1.0), 0.0);
        let mut sys = PowerSystem::new(clear_config(battery));
        let mut rng = StdRng::seed_from_u64(1);
        let step = sys.step(Watts(2.0), Seconds(600.0), &mut rng);
        assert!(step.brown_out);
        assert_eq!(step.delivered, Joules::ZERO);
        assert!(sys.brown_out_time() > Seconds(590.0));
    }

    #[test]
    fn week_long_run_recovers_each_morning() {
        // Small battery: dies every night, recovers every day — the
        // Figure 2a pattern.
        let battery = Battery::new(WattHours(5.0), 0.3).with_cutoff(0.0);
        let mut sys = PowerSystem::new(clear_config(battery));
        let mut rng = StdRng::seed_from_u64(42);
        let steps = sys.run(Seconds::from_days(7.0), Seconds(600.0), &mut rng, |_| Watts(1.3));
        assert_eq!(steps.len(), 7 * 144);
        let night_outage = steps.iter().filter(|s| s.brown_out).all(|s| {
            !clear_config(Battery::power_bank_20ah()).irradiance.is_daylight(s.time)
                || s.harvested < Watts(1.3)
        });
        assert!(night_outage, "brown-outs must only happen without sufficient sun");
        // There must be at least one brown-out (battery too small for the night)
        assert!(steps.iter().any(|s| s.brown_out));
        // …and at least one fully-served daytime step every day.
        assert!(steps.iter().filter(|s| !s.brown_out).count() > 7 * 50);
    }

    #[test]
    fn energy_conservation_loose_bound() {
        // Delivered energy can never exceed harvested + initial storage.
        let battery = Battery::new(WattHours(10.0), 0.8);
        let initial = battery.stored();
        let mut sys = PowerSystem::new(clear_config(battery));
        let mut rng = StdRng::seed_from_u64(7);
        sys.run(Seconds::from_days(2.0), Seconds(300.0), &mut rng, |_| Watts(3.0));
        assert!(sys.total_delivered() <= sys.total_harvested() + initial + Joules(1e-6));
    }

    #[test]
    fn telemetry_records_soc_trajectory_without_perturbing_the_run() {
        let tel = Telemetry::enabled();
        let battery = Battery::new(WattHours(5.0), 0.3).with_cutoff(0.0);
        let mut traced = PowerSystem::with_telemetry(clear_config(battery.clone()), tel.clone());
        let mut plain = PowerSystem::new(clear_config(battery));
        let mut rng_a = StdRng::seed_from_u64(42);
        let mut rng_b = StdRng::seed_from_u64(42);
        let day = Seconds::from_days(1.0);
        let a = traced.run(day, Seconds(600.0), &mut rng_a, |_| Watts(1.3));
        let b = plain.run(day, Seconds(600.0), &mut rng_b, |_| Watts(1.3));
        assert_eq!(a, b, "telemetry must not change the simulation");

        // One trajectory event per step, monotone in sim time.
        let events = tel.events_sorted();
        assert_eq!(events.len(), 144);
        assert!(events.windows(2).all(|w| w[0].t_sim <= w[1].t_sim));
        let snap = tel.snapshot();
        assert_eq!(snap.histogram("harvest.harvested_w").unwrap().count, 144);
        let soc = snap.gauge("battery.soc").expect("gauge tracks last soc");
        assert!((0.0..=1.0).contains(&soc));
        // A 5 Wh battery under 1.3 W cannot cover the night.
        let brown_outs = snap.counter("harvest.brown_outs").expect("night brown-outs");
        assert!(brown_outs > 0);
        assert_eq!(brown_outs as usize, a.iter().filter(|s| s.brown_out).count());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_step_panics() {
        let mut sys = PowerSystem::new(PowerSystemConfig::default());
        let mut rng = StdRng::seed_from_u64(1);
        sys.step(Watts(1.0), Seconds(0.0), &mut rng);
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(proptest::test_runner::Config::with_cases(64))]
            #[test]
            fn delivered_never_exceeds_requested(
                load in 0.1f64..10.0,
                soc in 0.0f64..1.0,
                hours in 0.0f64..24.0,
                seed in 0u64..500,
            ) {
                let battery = Battery::new(WattHours(2.0), soc);
                let mut sys = PowerSystem::new(clear_config(battery));
                sys.clock = Seconds::from_hours(hours);
                let mut rng = StdRng::seed_from_u64(seed);
                let step = sys.step(Watts(load), Seconds(60.0), &mut rng);
                prop_assert!(step.delivered.value() <= step.requested.value() + 1e-9);
                prop_assert!((0.0..=1.0).contains(&step.soc));
            }
        }
    }
}
