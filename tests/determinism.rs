//! Determinism tests: the whole stack — engine, daemon, and the JSON
//! serialization of their artifacts — must be a pure function of the seed.
//!
//! The acceptance bar is byte-identity, not approximate equality: rerunning
//! any seeded experiment twice has to produce the same report files so that
//! figure reproduction is diffable.

use thermo_util::json::{encode, encode_pretty, ToJson};
use thermostat_suite::bench::ExperimentReport;
use thermostat_suite::core::{Daemon, DaemonStats, PeriodRecord, ThermostatConfig};
use thermostat_suite::sim::{run_for, Engine, SimConfig};
use thermostat_suite::workloads::{AppConfig, AppId};

const SCALE: u64 = 512;
const DURATION_NS: u64 = 2_000_000_000;

/// One managed run at miniature scale; returns the serialized artifacts.
struct RunArtifacts {
    stats: DaemonStats,
    stats_json: String,
    history_json: String,
    report_json: String,
}

fn run(seed: u64) -> RunArtifacts {
    let mut cfg = SimConfig::paper_defaults(192 << 20, 192 << 20);
    cfg.tlb.l1_small = thermostat_suite::vm::TlbGeometry::new(8, 4);
    cfg.tlb.l1_huge = thermostat_suite::vm::TlbGeometry::new(4, 4);
    cfg.tlb.l2 = thermostat_suite::vm::TlbGeometry::new(16, 8);
    cfg.llc.size_bytes = 512 << 10;
    let mut engine = Engine::new(cfg);
    let mut w = AppId::MysqlTpcc.build(AppConfig {
        scale: SCALE,
        seed,
        read_pct: 95,
    });
    w.init(&mut engine);
    let daemon_cfg = ThermostatConfig {
        sampling_period_ns: 300_000_000,
        seed,
        ..ThermostatConfig::paper_defaults()
    };
    let mut daemon = Daemon::new(daemon_cfg);
    let out = run_for(&mut engine, w.as_mut(), &mut daemon, DURATION_NS);

    let stats = daemon.stats();
    let history: Vec<PeriodRecord> = daemon.history().to_vec();
    // A miniature bench report: the exact shape fig/tab binaries write via
    // `write_json`, so byte-identity here transfers to the report files.
    let report = ExperimentReport {
        id: "determinism".to_string(),
        title: "determinism probe".to_string(),
        columns: vec!["ops_per_sec".to_string(), "periods".to_string()],
        rows: vec![vec![
            format!("{:.6}", out.ops_per_sec()),
            stats.periods.to_string(),
        ]],
        notes: vec![format!("seed {seed}")],
    };
    RunArtifacts {
        stats,
        stats_json: encode(&stats),
        history_json: encode(&history),
        report_json: encode_pretty(&report),
    }
}

#[test]
fn same_seed_gives_byte_identical_artifacts() {
    let a = run(7);
    let b = run(7);
    assert_eq!(a.stats, b.stats, "DaemonStats must match structurally");
    assert_eq!(
        a.stats_json, b.stats_json,
        "DaemonStats JSON must be byte-identical"
    );
    assert_eq!(
        a.history_json, b.history_json,
        "PeriodRecord history JSON must be byte-identical"
    );
    assert_eq!(
        a.report_json, b.report_json,
        "bench report JSON must be byte-identical"
    );
}

#[test]
fn distinct_seeds_diverge() {
    let a = run(7);
    let b = run(8);
    // The workload layout and sampling choices both depend on the seed, so
    // at least one artifact must differ (in practice all of them do).
    assert!(
        a.history_json != b.history_json || a.report_json != b.report_json,
        "distinct seeds produced identical runs"
    );
}

#[test]
fn every_registry_experiment_is_byte_deterministic() {
    // Smoke-run the full fig/tab registry twice: each harness entry must
    // serialize to byte-identical artifact JSON, which is the property
    // the golden checker (`scripts/golden.sh`) builds on. Registration is
    // enough to be covered here — new experiments can't silently opt out.
    let params = thermostat_suite::bench::EvalParams {
        // A third of the golden smoke duration: identity of two reruns
        // doesn't need the full window, just the full pipeline.
        duration_ns: 500_000_000,
        ..thermostat_suite::bench::EvalParams::smoke()
    };
    for exp in thermostat_suite::bench::experiments::ALL {
        let a = encode(&(exp.run)(&params));
        let b = encode(&(exp.run)(&params));
        assert_eq!(a, b, "experiment {} artifact not byte-identical", exp.id);
        assert!(
            a.contains("\"report\"") && a.contains("\"runs\""),
            "experiment {} artifact missing report/runs sections",
            exp.id
        );
    }
}

#[test]
fn fabric_experiments_are_registered_and_swept() {
    // The transactional-fabric experiments must stay in the registry:
    // `every_registry_experiment_is_byte_deterministic` above and the
    // golden sweep both iterate `ALL`, so registration is what keeps the
    // fabric's async copy/abort/backoff machinery under the
    // byte-determinism gate.
    for id in ["fab_bw", "fab_abort"] {
        assert!(
            thermostat_suite::bench::experiments::by_id(id).is_some(),
            "fabric experiment {id} must be registered"
        );
    }
}

#[test]
fn json_encoding_is_itself_deterministic() {
    // Re-encoding the same value twice is byte-stable (ordered object
    // fields, no HashMap iteration anywhere in the serializer).
    let a = run(11);
    let v = a.stats.to_json();
    assert_eq!(
        thermo_util::json::to_string(&v),
        thermo_util::json::to_string(&v)
    );
    // And a decode/encode round trip through the Value model is stable.
    let parsed = thermo_util::json::parse(&a.history_json).expect("valid JSON");
    assert_eq!(thermo_util::json::to_string(&parsed), a.history_json);
}
