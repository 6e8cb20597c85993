use super::*;
use thermo_mem::VirtAddr;
use thermo_sim::{run_for, Access, SimConfig, Workload};

/// A workload with one blazing-hot huge page and N idle ones.
struct OneHot {
    base: VirtAddr,
    n_huge: u64,
    i: u64,
}

impl Workload for OneHot {
    fn name(&self) -> &str {
        "onehot"
    }

    fn init(&mut self, engine: &mut Engine) {
        self.base = engine.mmap(self.n_huge * (2 << 20), true, true, false, "heap");
        for p in 0..self.n_huge {
            engine.access(self.base + p * (2 << 20), true);
        }
    }

    fn next_op(&mut self, _now: u64, acc: &mut Vec<Access>) -> Option<u64> {
        // Hammer page 0 at fine grain.
        acc.push(Access::read(self.base + (self.i * 64) % (2 << 20)));
        self.i += 1;
        Some(2_000)
    }
}

fn fast_config() -> ThermostatConfig {
    ThermostatConfig {
        sampling_period_ns: 300_000_000, // 100ms scans for test speed
        sample_fraction: 0.5,            // sample aggressively in tests
        // Tiny test workloads have low absolute access rates; a tight
        // slowdown target keeps their hot pages clearly above budget.
        tolerable_slowdown_pct: 0.5,
        ..ThermostatConfig::paper_defaults()
    }
}

fn engine() -> Engine {
    let mut cfg = SimConfig::paper_defaults(256 << 20, 256 << 20);
    // Aggressive OS-noise flushing so the degenerate one-page test
    // workloads still exhibit TLB misses (real workloads get this from
    // capacity pressure instead).
    cfg.tlb_flush_period_ns = Some(100_000);
    Engine::new(cfg)
}

#[test]
fn daemon_demotes_idle_pages_not_the_hot_one() {
    let mut e = engine();
    let mut w = OneHot {
        base: VirtAddr(0),
        n_huge: 16,
        i: 0,
    };
    w.init(&mut e);
    let mut d = Daemon::new(fast_config());
    run_for(&mut e, &mut w, &mut d, 5_000_000_000);
    assert!(d.stats().periods >= 3, "daemon must have completed periods");
    assert!(
        d.cold_pages() >= 8,
        "idle pages must be demoted, got {}",
        d.cold_pages()
    );
    // The hot page stays in fast memory.
    assert_eq!(e.tier_of_vpn(w.base.vpn()), Some(Tier::Fast));
    // Demoted pages ended up consolidated as huge pages in slow tier.
    let fb = e.footprint_breakdown();
    assert!(fb.huge_slow > 0);
}

#[test]
fn cold_pages_stay_monitored_and_counted() {
    let mut e = engine();
    let mut w = OneHot {
        base: VirtAddr(0),
        n_huge: 8,
        i: 0,
    };
    w.init(&mut e);
    let mut d = Daemon::new(fast_config());
    run_for(&mut e, &mut w, &mut d, 4_000_000_000);
    let cold = d.cold_pages();
    assert!(cold > 0);
    // Every tracked cold page is either huge-poisoned or child-poisoned.
    for &vpn in d.cold.keys() {
        let poisoned = e.trap().is_poisoned(vpn) || e.trap().is_poisoned(vpn.offset(0));
        assert!(poisoned, "cold page {vpn} must be monitored");
    }
}

/// A workload whose hot set migrates: phase 1 hammers page A, phase 2
/// hammers page B (previously idle).
struct PhaseShift {
    base: VirtAddr,
    n_huge: u64,
    i: u64,
    shift_at_ns: u64,
}

impl Workload for PhaseShift {
    fn name(&self) -> &str {
        "phaseshift"
    }

    fn init(&mut self, engine: &mut Engine) {
        self.base = engine.mmap(self.n_huge * (2 << 20), true, true, false, "heap");
        for p in 0..self.n_huge {
            engine.access(self.base + p * (2 << 20), true);
        }
    }

    fn next_op(&mut self, now: u64, acc: &mut Vec<Access>) -> Option<u64> {
        let page = if now < self.shift_at_ns { 0 } else { 1 };
        acc.push(Access::read(
            self.base + page * (2 << 20) + (self.i * 64) % (2 << 20),
        ));
        self.i += 1;
        Some(2_000)
    }
}

#[test]
fn correction_promotes_page_that_becomes_hot() {
    let mut e = engine();
    let mut w = PhaseShift {
        base: VirtAddr(0),
        n_huge: 8,
        i: 0,
        shift_at_ns: 3_000_000_000,
    };
    w.init(&mut e);
    let mut d = Daemon::new(fast_config());
    run_for(&mut e, &mut w, &mut d, 8_000_000_000);
    // Page 1 was idle in phase 1 (likely demoted) but must be back in
    // fast memory by the end.
    let page1 = (w.base + (2 << 20)).vpn();
    assert_eq!(
        e.tier_of_vpn(page1),
        Some(Tier::Fast),
        "hot page must be promoted back"
    );
    assert!(
        d.stats().pages_promoted > 0,
        "correction must have promoted pages"
    );
}

#[test]
fn runtime_slowdown_knob() {
    let mut d = Daemon::new(fast_config());
    d.set_tolerable_slowdown_pct(6.0);
    assert!((d.config().target_slow_access_rate() - 60_000.0).abs() < 1e-9);
}

#[test]
#[should_panic(expected = "slowdown")]
fn bad_runtime_knob_panics() {
    let mut d = Daemon::new(fast_config());
    d.set_tolerable_slowdown_pct(-1.0);
}

#[test]
fn split_placement_moves_cold_children_of_hot_pages() {
    // One huge page where only 8 of 512 children are ever touched:
    // classic small-hot-footprint page. With split placement the cold
    // 504 children end up in slow memory while the page stays usable.
    struct SparseHot {
        base: VirtAddr,
        i: u64,
    }
    impl Workload for SparseHot {
        fn name(&self) -> &str {
            "sparsehot"
        }
        fn init(&mut self, engine: &mut Engine) {
            self.base = engine.mmap(4 << 20, true, true, false, "heap");
            engine.access(self.base, true);
            engine.access(self.base + (2 << 20), true);
        }
        fn next_op(&mut self, _now: u64, acc: &mut Vec<Access>) -> Option<u64> {
            // Hammer 8 children of huge page 0 hard.
            let child = (self.i % 8) * 4096;
            acc.push(Access::read(self.base + child + (self.i * 64) % 4096));
            self.i += 1;
            Some(1_000)
        }
    }
    let mut e = engine();
    let mut w = SparseHot {
        base: VirtAddr(0),
        i: 0,
    };
    w.init(&mut e);
    let mut cfg = fast_config();
    cfg.split_placement_enabled = true;
    cfg.sample_fraction = 1.0; // always sample both pages
    let mut d = Daemon::new(cfg);
    run_for(&mut e, &mut w, &mut d, 3_000_000_000);
    assert!(
        d.stats().pages_split_placed > 0,
        "sparse-hot page must be split-placed"
    );
    assert!(
        d.partial_children() > 400,
        "most children go cold: {}",
        d.partial_children()
    );
    // The hot children stayed in fast memory.
    assert_eq!(e.tier_of_vpn(w.base.vpn()), Some(Tier::Fast));
    // And cold children really are in the slow tier.
    let cold_child = w.base.vpn().offset(300);
    assert_eq!(e.tier_of_vpn(cold_child), Some(Tier::Slow));
}

#[test]
fn split_placement_off_by_default_keeps_pages_whole() {
    let mut e = engine();
    let mut w = OneHot {
        base: VirtAddr(0),
        n_huge: 8,
        i: 0,
    };
    w.init(&mut e);
    let mut d = Daemon::new(fast_config());
    run_for(&mut e, &mut w, &mut d, 2_000_000_000);
    assert_eq!(d.partial_children(), 0);
    assert_eq!(d.stats().pages_split_placed, 0);
}

#[test]
fn history_records_periods() {
    let mut e = engine();
    let mut w = OneHot {
        base: VirtAddr(0),
        n_huge: 4,
        i: 0,
    };
    w.init(&mut e);
    let mut d = Daemon::new(fast_config());
    run_for(&mut e, &mut w, &mut d, 3_000_000_000);
    assert_eq!(d.history().len() as u64, d.stats().periods);
    for r in d.history() {
        assert!(r.breakdown.total() > 0);
    }
}
