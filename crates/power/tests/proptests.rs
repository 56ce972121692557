//! Property-based tests for the power/energy/thermal models.

use proptest::prelude::*;

use capsim_power::{ActivityWindow, NodePowerModel, PowerMeter, ThermalModel};

fn window_strategy() -> impl Strategy<Value = ActivityWindow> {
    (
        1.2f64..2.7,
        0.78f64..1.05,
        0.0625f64..=1.0,
        0.0f64..=1.0,
        0.0f64..=1.0,
        0u32..=2,
        0.0f64..5e7,
        0.0f64..5e7,
        0.0f64..=1.0,
        0.8f64..=1.0,
        30.0f64..90.0,
    )
        .prop_map(|(f, v, duty, busy, act, cores, l3, dram, gated, gate_frac, temp)| {
            ActivityWindow {
                f_ghz: f,
                volts: v,
                duty,
                busy_frac: busy,
                activity: act,
                active_cores: cores,
                l3_accesses_per_s: l3,
                dram_lines_per_s: dram,
                cache_gated_frac: gated,
                mem_gate_power_frac: gate_frac,
                temp_c: temp,
            }
        })
}

proptest! {
    /// Node power is always positive, at least the idle floor, bounded by
    /// a sane ceiling, and the breakdown sums to the total.
    #[test]
    fn power_is_bounded_and_consistent(w in window_strategy()) {
        let m = NodePowerModel::default();
        let b = m.power(&w);
        let total = b.total_w();
        prop_assert!(total >= m.idle_w() * 0.9, "total {total} below idle floor");
        prop_assert!(total < 400.0, "total {total} absurd");
        let sum = b.platform_w + b.sockets_idle_w + b.dram_background_w
            + b.core_dynamic_w + b.leakage_w + b.uncore_w + b.dram_active_w;
        prop_assert!((sum - total).abs() < 1e-9);
        prop_assert!(b.core_dynamic_w >= 0.0 && b.leakage_w >= 0.0);
    }

    /// Monotonicity: more frequency, voltage, activity or duty never
    /// reduces power (all else equal).
    #[test]
    fn power_is_monotone_in_each_throttle_axis(w in window_strategy(), bump in 0.01f64..0.2) {
        let m = NodePowerModel::default();
        let base = m.power(&w).total_w();
        let mut hf = w; hf.f_ghz = (w.f_ghz + bump).min(2.7);
        prop_assert!(m.power(&hf).total_w() >= base - 1e-9);
        let mut hv = w; hv.volts = (w.volts + bump / 4.0).min(1.05);
        prop_assert!(m.power(&hv).total_w() >= base - 1e-9);
        let mut hd = w; hd.duty = (w.duty + bump).min(1.0);
        prop_assert!(m.power(&hd).total_w() >= base - 1e-9);
        let mut hg = w; hg.cache_gated_frac = (w.cache_gated_frac - bump).max(0.0);
        prop_assert!(m.power(&hg).total_w() >= base - 1e-9, "ungating never saves power");
    }

    /// The meter's run average is always between the min and max sample,
    /// and energy == run_avg × total time exactly.
    #[test]
    fn meter_average_is_bounded_and_energy_consistent(
        samples in proptest::collection::vec((0.001f64..2.0, 90.0f64..170.0), 1..50),
    ) {
        let mut meter = PowerMeter::new(0.5);
        let mut min = f64::MAX;
        let mut max = f64::MIN;
        for &(d, w) in &samples {
            meter.record(d, w);
            min = min.min(w);
            max = max.max(w);
        }
        let avg = meter.run_avg_w();
        prop_assert!(avg >= min - 1e-9 && avg <= max + 1e-9);
        prop_assert!((meter.energy_j() - avg * meter.total_s()).abs() / meter.energy_j() < 1e-9);
        let wavg = meter.window_avg_w();
        prop_assert!(wavg >= min - 1e-9 && wavg <= max + 1e-9);
    }

    /// Thermal: temperature always stays between ambient and the hottest
    /// steady state it was exposed to (plus its own start).
    #[test]
    fn thermal_stays_in_physical_bounds(
        steps in proptest::collection::vec((0.0f64..150.0, 0.01f64..20.0), 1..100),
    ) {
        let mut t = ThermalModel::e5_2680();
        let start = t.temp_c();
        let mut upper = start;
        for &(p, dt) in &steps {
            t.step(p, dt);
            upper = upper.max(t.steady_state_c(p));
            prop_assert!(t.temp_c() >= t.t_amb_c - 1e-9);
            prop_assert!(t.temp_c() <= upper + 1e-9, "{} > {}", t.temp_c(), upper);
        }
    }
}
