//! Microbenchmarks of the substrate hot paths: TLB lookups, page walks,
//! THP split/collapse, A-bit scans, the LLC, the classifier and the key
//! distributions. These bound the simulator's own throughput (the engine
//! processes hundreds of millions of accesses per experiment).

use thermo_mem::{PageSize, Pfn, Tier, Vpn};
use thermo_sim::{
    CommitStatus, Engine, Fabric, FabricConfig, Llc, LlcConfig, OpOutcome, PlanOp, PolicyPlan,
    SimConfig,
};
use thermo_util::bench::{black_box, BatchSize, Criterion};
use thermo_util::rng::SmallRng;
use thermo_util::rng::{Rng, SeedableRng};
use thermo_util::{criterion_group, criterion_main};
use thermo_vm::{PageTable, Tlb, TlbConfig, Vpid};
use thermo_workloads::{HotspotDist, KeyDist, ScrambledZipfian};
use thermostat::{classify, Candidate};

fn bench_tlb(c: &mut Criterion) {
    let mut tlb = Tlb::new(TlbConfig::default());
    let v = Vpid(1);
    for i in 0..64 {
        tlb.insert(Vpn(i), Pfn(i), PageSize::Small4K, v);
    }
    let mut i = 0u64;
    c.bench_function("tlb_lookup_hit", |b| {
        b.iter(|| {
            i = (i + 1) % 64;
            black_box(tlb.lookup(Vpn(i), v))
        })
    });
    let mut j = 0u64;
    c.bench_function("tlb_lookup_miss", |b| {
        b.iter(|| {
            j += 1;
            black_box(tlb.lookup(Vpn(1_000_000 + j), v))
        })
    });
}

fn bench_pagetable(c: &mut Criterion) {
    let mut pt = PageTable::new();
    for p in 0..256u64 {
        pt.map_huge(Vpn(p * 512), Pfn(p * 512), true).unwrap();
    }
    let mut i = 0u64;
    c.bench_function("pagetable_lookup_huge", |b| {
        b.iter(|| {
            i = (i + 97) % (256 * 512);
            black_box(pt.lookup(Vpn(i)))
        })
    });
    c.bench_function("thp_split_collapse", |b| {
        b.iter(|| {
            pt.split_huge(Vpn(0)).unwrap();
            pt.collapse_huge(Vpn(0)).unwrap();
        })
    });
}

fn bench_scan(c: &mut Criterion) {
    let mut engine = Engine::new(SimConfig::paper_defaults(64 << 20, 64 << 20));
    let base = engine.mmap(32 << 20, true, true, false, "heap");
    for p in 0..16u64 {
        engine.access(base + p * (2 << 20), true);
    }
    let mut out = Vec::new();
    c.bench_function("scan_and_clear_16_huge_pages", |b| {
        b.iter(|| {
            out.clear();
            black_box(engine.scan_and_clear_accessed(base.vpn(), 16 * 512, &mut out))
        })
    });
}

fn bench_llc(c: &mut Criterion) {
    let mut llc = Llc::new(LlcConfig::default());
    let mut rng = SmallRng::seed_from_u64(1);
    c.bench_function("llc_access_random", |b| {
        b.iter(|| {
            let line: u64 = rng.gen_range(0..1_000_000);
            black_box(llc.access(line))
        })
    });
}

fn bench_demote(c: &mut Criterion) {
    // One daemon plan that demotes 30 split huge pages, as a Thermostat
    // period on `tpcc_scan` does, against that workload's 16MB LLC, then
    // the access that follows it. Each demotion drops its old frame's
    // lines from the LLC and poisons 512 children; per-page sweeps of the
    // 262,144-word tag store would cost 30 times one sweep.
    const PAGES: u64 = 30;
    let setup = || {
        let mut cfg = SimConfig::paper_defaults(128 << 20, 128 << 20);
        cfg.llc.size_bytes = 16 << 20;
        let mut engine = Engine::new(cfg);
        let base = engine.mmap(PAGES << 21, true, true, false, "heap");
        let mut plan = PolicyPlan::new();
        for p in 0..PAGES {
            let page = base + (p << 21);
            // One line per 4KB frame, so the sweep has lines to drop.
            for f in 0..512u64 {
                engine.access(page + f * 4096, false);
            }
            engine.split_huge(page.vpn()).expect("huge page");
            plan.push(PlanOp::DemoteHuge { vpn: page.vpn() });
        }
        (engine, plan, base)
    };
    c.bench_function("demote_30_huge_pages_16mb_llc", |b| {
        b.iter_batched(
            setup,
            |(mut engine, plan, base)| {
                let receipt = engine.apply_plan(&plan);
                assert!(receipt.outcomes().iter().all(|o| *o == OpOutcome::Done));
                black_box(engine.access(base, false))
            },
            BatchSize::PerIteration,
        )
    });
}

fn bench_engine_access(c: &mut Criterion) {
    let mut engine = Engine::new(SimConfig::paper_defaults(256 << 20, 256 << 20));
    let base = engine.mmap(128 << 20, true, true, false, "heap");
    // Warm the region.
    let mut off = 0;
    while off < (128 << 20) {
        engine.access(base + off, true);
        off += 2 << 20;
    }
    let mut rng = SmallRng::seed_from_u64(2);
    c.bench_function("engine_access_random_128mb", |b| {
        b.iter(|| {
            let off: u64 = rng.gen_range(0..(128u64 << 20)) & !63;
            black_box(engine.access(base + off, false))
        })
    });
}

fn bench_classifier(c: &mut Criterion) {
    let mut rng = SmallRng::seed_from_u64(3);
    let candidates: Vec<Candidate> = (0..10_000)
        .map(|i| Candidate {
            vpn: Vpn(i * 512),
            rate_per_sec: rng.gen_range(0.0..10_000.0),
        })
        .collect();
    c.bench_function("classify_10k_pages", |b| {
        b.iter(|| black_box(classify(candidates.clone(), 30_000.0)))
    });
}

fn bench_fabric(c: &mut Criterion) {
    let cfg = |bw: u64| FabricConfig {
        enabled: true,
        link_bandwidth_bytes_per_sec: bw,
        ..FabricConfig::default()
    };
    // 64 sequential huge-page demotions over a 10GB/s link, ticking the
    // copy engine at 50µs granularity until each commit lands: the cost
    // of the fabric's queue/budget bookkeeping on the engine hot path.
    c.bench_function("fabric_copy_64_pages", |b| {
        b.iter(|| {
            let mut fab = Fabric::new(cfg(10_000_000_000));
            let mut now = 0u64;
            for p in 0..64u64 {
                let id = fab.begin(Vpn(p * 512), PageSize::Huge2M, Tier::Slow, now);
                loop {
                    now += 50_000;
                    fab.tick(now);
                    match fab.commit_status(id) {
                        CommitStatus::Ready { .. } => {
                            fab.finish_commit(id);
                            break;
                        }
                        CommitStatus::Failed => {
                            fab.abort(id);
                            break;
                        }
                        CommitStatus::Pending => {}
                    }
                }
            }
            black_box(fab.stats().committed)
        })
    });
    // A write storm on an in-flight copy: abort, backoff, retry until the
    // transaction fails — the path every mid-copy store exercises.
    c.bench_function("fabric_write_abort_retry", |b| {
        b.iter(|| {
            let mut fab = Fabric::new(cfg(1_000_000_000));
            let mut now = 0u64;
            let id = fab.begin(Vpn(0), PageSize::Huge2M, Tier::Slow, now);
            for _ in 0..4 {
                now += 1_000_000;
                fab.tick(now);
                fab.note_write(Vpn(0), now);
            }
            fab.abort(id);
            black_box(fab.stats().write_aborts)
        })
    });
    // 32 huge-page demotions queued on a 128MB/s link, ticked every 100ns
    // (12 bytes of budget, so nearly every tick starves) with a write to a
    // queued page every 50th tick, which sends copies into backoff: the
    // fabric's share of each access while a congested link is busy.
    c.bench_function("fabric_tick_congested", |b| {
        b.iter(|| {
            let mut fab = Fabric::new(cfg(128_000_000));
            for p in 0..32u64 {
                fab.begin(Vpn(p * 512), PageSize::Huge2M, Tier::Slow, 0);
            }
            let mut now = 0u64;
            for t in 1..=10_000u64 {
                now += 100;
                fab.tick(now);
                if t % 50 == 0 {
                    fab.note_write(Vpn(t / 50 % 32 * 512), now);
                }
            }
            black_box(fab.stats().congestion_events)
        })
    });
}

fn bench_dists(c: &mut Criterion) {
    let zipf = ScrambledZipfian::new(4_000_000);
    let hotspot = HotspotDist::paper_redis(4_000_000);
    let mut rng = SmallRng::seed_from_u64(4);
    c.bench_function("zipfian_sample", |b| {
        b.iter(|| black_box(zipf.sample(&mut rng)))
    });
    c.bench_function("hotspot_sample", |b| {
        b.iter(|| black_box(hotspot.sample(&mut rng)))
    });
}

fn bench_lint(c: &mut Criterion) {
    // The whole serial walk: lex + tree + flow over every workspace source.
    let root = std::path::Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."));
    c.bench_function("lint_workspace", |b| {
        b.iter(|| {
            let findings = thermo_lint::lint_workspace(root).expect("workspace readable");
            black_box(findings.len())
        })
    });
}

criterion_group!(
    benches,
    bench_tlb,
    bench_pagetable,
    bench_scan,
    bench_llc,
    bench_demote,
    bench_engine_access,
    bench_classifier,
    bench_fabric,
    bench_dists,
    bench_lint
);
criterion_main!(benches);
