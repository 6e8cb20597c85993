//! Scenario: TPCC on MySQL — the paper's best case for tiering. The
//! LINEITEM/HISTORY-class tables are written once and almost never read,
//! so 40-50% of the footprint is safely placeable, and the cold fraction
//! SATURATES: raising the tolerable slowdown does not find more cold data
//! (Figure 11's distinctive MySQL row).
//!
//! Run with: `cargo run --release --example tpcc_cold_tables`

use thermostat_suite::core::{Daemon, ThermostatConfig};
use thermostat_suite::mem::CostModel;
use thermostat_suite::sim::{run_for, Engine, NoPolicy, SimConfig};
use thermostat_suite::workloads::{AppConfig, AppId};

const DURATION_NS: u64 = 40_000_000_000;
const SCALE: u64 = 64;

fn run_at(slowdown_pct: f64) -> (f64, f64) {
    let mut engine = Engine::new(SimConfig::paper_defaults(512 << 20, 512 << 20));
    let mut w = AppId::MysqlTpcc.build(AppConfig {
        scale: SCALE,
        seed: 11,
        read_pct: 95,
    });
    w.init(&mut engine);
    let mut daemon = Daemon::new(ThermostatConfig {
        tolerable_slowdown_pct: slowdown_pct,
        sampling_period_ns: 1_000_000_000,
        ..ThermostatConfig::paper_defaults()
    });
    let out = run_for(&mut engine, w.as_mut(), &mut daemon, DURATION_NS);
    (
        engine.footprint_breakdown().cold_fraction(),
        out.ops_per_sec(),
    )
}

fn main() {
    // Baseline throughput for reference.
    let mut engine = Engine::new(SimConfig::paper_defaults(512 << 20, 512 << 20));
    let mut w = AppId::MysqlTpcc.build(AppConfig {
        scale: SCALE,
        seed: 11,
        read_pct: 95,
    });
    w.init(&mut engine);
    let base = run_for(&mut engine, w.as_mut(), &mut NoPolicy, DURATION_NS);
    println!("baseline: {:.0} transactions/s\n", base.ops_per_sec());

    println!("tolerable_slowdown  cold_fraction  throughput  savings(0.25x)");
    let mut last_cold = 0.0;
    for slowdown in [3.0, 6.0, 10.0] {
        let (cold, tput) = run_at(slowdown);
        let savings = CostModel::new(0.25).evaluate(cold).savings_fraction;
        println!(
            "{:>17.0}%  {:>12.1}%  {:>8.0}/s  {:>13.1}%",
            slowdown,
            cold * 100.0,
            tput,
            savings * 100.0
        );
        last_cold = cold;
    }
    println!(
        "\nsaturation: the cold fraction plateaus near the size of the append-only\n\
         tables (~{:.0}% here) because every remaining page is genuinely hot —\n\
         the paper's Figure 11 observation for MySQL-TPCC.",
        last_cold * 100.0
    );
}
