//! End-to-end integration tests: the full stack (workload generator →
//! engine → Thermostat daemon) at miniature scale.

use thermostat_suite::core::{Daemon, ThermostatConfig};
use thermostat_suite::sim::{run_for, Engine, NoPolicy, SimConfig};
use thermostat_suite::workloads::{AppConfig, AppId};

const SCALE: u64 = 512;
const DURATION_NS: u64 = 3_000_000_000;

fn sim_config() -> SimConfig {
    let mut cfg = SimConfig::paper_defaults(192 << 20, 192 << 20);
    // Miniature footprints need a miniature TLB to stay in the paper's
    // footprint >> TLB-reach regime (see DESIGN.md §1).
    cfg.tlb.l1_small = thermostat_suite::vm::TlbGeometry::new(8, 4);
    cfg.tlb.l1_huge = thermostat_suite::vm::TlbGeometry::new(4, 4);
    cfg.tlb.l2 = thermostat_suite::vm::TlbGeometry::new(16, 8);
    cfg.llc.size_bytes = 512 << 10;
    cfg
}

fn daemon_config() -> ThermostatConfig {
    ThermostatConfig {
        sampling_period_ns: 300_000_000,
        ..ThermostatConfig::paper_defaults()
    }
}

fn baseline(app: AppId) -> f64 {
    let mut engine = Engine::new(sim_config());
    let mut w = app.build(AppConfig {
        scale: SCALE,
        seed: 99,
        read_pct: 95,
    });
    w.init(&mut engine);
    run_for(&mut engine, w.as_mut(), &mut NoPolicy, DURATION_NS).ops_per_sec()
}

fn managed(app: AppId) -> (f64, Engine, Daemon) {
    let mut engine = Engine::new(sim_config());
    let mut w = app.build(AppConfig {
        scale: SCALE,
        seed: 99,
        read_pct: 95,
    });
    w.init(&mut engine);
    let mut daemon = Daemon::new(daemon_config());
    let out = run_for(&mut engine, w.as_mut(), &mut daemon, DURATION_NS);
    (out.ops_per_sec(), engine, daemon)
}

#[test]
fn tpcc_finds_cold_data_within_slowdown_budget() {
    let base = baseline(AppId::MysqlTpcc);
    let (tput, engine, daemon) = managed(AppId::MysqlTpcc);
    assert!(daemon.stats().periods >= 8, "daemon must have run");
    let cold = engine.footprint_breakdown().cold_fraction();
    assert!(
        cold > 0.10,
        "TPCC has large cold tables; found only {:.1}%",
        cold * 100.0
    );
    let slowdown = (base / tput - 1.0) * 100.0;
    // 3% target plus generous noise allowance for the miniature scale.
    assert!(
        slowdown < 6.0,
        "slowdown {slowdown:.2}% blew through the target"
    );
}

#[test]
fn websearch_archival_index_goes_cold_with_tiny_slowdown() {
    let base = baseline(AppId::WebSearch);
    let (tput, engine, _daemon) = managed(AppId::WebSearch);
    let cold = engine.footprint_breakdown().cold_fraction();
    assert!(
        cold > 0.15,
        "archival index must be placed, got {:.1}%",
        cold * 100.0
    );
    let slowdown = (base / tput - 1.0) * 100.0;
    assert!(
        slowdown < 3.0,
        "web search is compute-bound; got {slowdown:.2}%"
    );
}

#[test]
fn whole_stack_is_deterministic() {
    let run = || {
        let (tput, engine, daemon) = managed(AppId::Aerospike);
        (
            tput.to_bits(),
            engine.footprint_breakdown(),
            daemon.stats(),
            engine.stats().accesses,
            engine.trap_stats().faults,
        )
    };
    assert_eq!(run(), run(), "same seed must give bit-identical runs");
}

#[test]
fn daemon_history_is_consistent() {
    let (_, engine, daemon) = managed(AppId::Cassandra);
    let hist = daemon.history();
    assert_eq!(hist.len() as u64, daemon.stats().periods);
    let mut last_t = 0;
    for rec in hist {
        assert!(rec.at_ns > last_t, "period timestamps must be increasing");
        last_t = rec.at_ns;
        assert!(rec.breakdown.total() > 0);
        assert!(rec.breakdown.cold_fraction() <= 1.0);
    }
    // The final record's breakdown matches the engine's current state.
    let now = engine.footprint_breakdown();
    let last = hist.last().expect("at least one period").breakdown;
    // Footprints can only have grown since the last classify scan.
    assert!(now.total() >= last.total());
}

#[test]
fn demoted_pages_live_in_slow_tier_and_stay_monitored() {
    let (_, engine, daemon) = managed(AppId::MysqlTpcc);
    assert!(daemon.cold_pages() > 0);
    // Cross-check: the trap unit still monitors pages (cold monitoring
    // never stops while pages are placed).
    assert!(
        engine.trap().poisoned_len() > 0,
        "cold pages must stay poisoned"
    );
    // And the engine counted faults against slow pages.
    assert!(engine.stats().slow_trap_faults > 0 || engine.stats().slow_tier_accesses > 0);
}

#[test]
fn migration_traffic_is_modest() {
    let (_, engine, _) = managed(AppId::Cassandra);
    let ms = engine.migration_stats();
    let mbps = ms.to_slow_mbps(DURATION_NS);
    // Table 3's claim, scaled: migration bandwidth is trivially small.
    assert!(
        mbps < 200.0,
        "migration traffic {mbps:.1} MB/s is implausible"
    );
}

#[test]
fn engine_and_policies_are_send() {
    // Harness code moves engines and daemons into worker threads; the
    // types must stay Send (C-SEND-SYNC).
    fn assert_send<T: Send>() {}
    assert_send::<Engine>();
    assert_send::<Daemon>();
    assert_send::<thermostat_suite::kstaled::Kstaled>();
    assert_send::<thermostat_suite::kstaled::ClockPolicy>();
}

#[test]
fn runs_are_reproducible_across_threads() {
    // Same-seed runs must agree even when executed on different threads
    // (no hidden thread-local or global state).
    let run = || {
        let (tput, engine, _) = managed(AppId::WebSearch);
        (tput.to_bits(), engine.footprint_breakdown())
    };
    let a = std::thread::spawn(run).join().expect("thread run");
    let b = run();
    assert_eq!(a, b);
}

#[test]
fn baseline_run_never_touches_slow_memory() {
    let mut engine = Engine::new(sim_config());
    let mut w = AppId::Redis.build(AppConfig {
        scale: SCALE,
        seed: 1,
        read_pct: 90,
    });
    w.init(&mut engine);
    run_for(&mut engine, w.as_mut(), &mut NoPolicy, DURATION_NS / 4);
    assert_eq!(engine.stats().slow_tier_accesses, 0);
    assert_eq!(engine.stats().slow_trap_faults, 0);
    assert_eq!(engine.footprint_breakdown().cold(), 0);
}
