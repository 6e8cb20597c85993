//! Differential oracle for the TLB.
//!
//! `RefTlb` below is a deliberately naive model of `thermo_vm::Tlb`: each
//! array (L1-4K, L1-2M, unified L2) is a `Vec` of sets, each set a `Vec`
//! of optional entries with a last-use time. A lookup probes L1-4K,
//! L1-2M, L2-4K and L2-2M in that order, with no skipping, and an L2 hit
//! refills that size's L1 at the same tick. An insert writes L1(size),
//! then L2, at one tick; its victim is the way holding the same tag, else
//! the first invalid way, else the least recently used way (first on
//! ties). A shootdown invalidates every matching way and counts once if
//! anything matched; a window shootdown is 512 4KB shootdowns, one per
//! page of a 2MB window; `flush_all` and `flush_vpid` count one each.
//!
//! The real TLB differs from the model in exactly the places this test
//! aims at: packed tag words, the per-size valid counts that let a lookup
//! skip an array, the power-of-two set mask, hoisted tag/key packing, and
//! the window shootdown's single pass with its per-page count. Random
//! streams of all six operations over three VPIDs and both page sizes
//! drive both in lock-step; every lookup outcome and the statistics after
//! every operation must be identical. Geometries have power-of-two and
//! other set counts.

use thermo_mem::{PageSize, Pfn, Vpn, PAGES_PER_HUGE};
use thermo_util::forall;
use thermo_util::proptest_lite::{range, vec_of, weighted, Strategy};
use thermo_vm::{Tlb, TlbConfig, TlbGeometry, TlbOutcome, TlbStats, Vpid};

const HUGE: u64 = PAGES_PER_HUGE as u64;

/// Huge-page numbers of the 2MB regions the streams touch; the last one
/// puts high bits in the VPN.
const REGIONS: [u64; 5] = [0, 1, 2, 5, 1 << 30];

/// `(l1_small, l1_huge, l2)` as `(entries, ways)`, plus the shipped
/// scaled and default hierarchies.
fn configs() -> Vec<TlbConfig> {
    let cfg = |s: (usize, usize), h: (usize, usize), l2: (usize, usize)| TlbConfig {
        l1_small: TlbGeometry::new(s.0, s.1),
        l1_huge: TlbGeometry::new(h.0, h.1),
        l2: TlbGeometry::new(l2.0, l2.1),
        l2_hit_ns: 7,
    };
    vec![
        TlbConfig::paper_scaled(),
        TlbConfig::default(),
        cfg((8, 2), (4, 2), (16, 4)),
        cfg((6, 2), (3, 3), (12, 4)),
        cfg((12, 4), (10, 2), (20, 4)),
        cfg((3, 3), (1, 1), (6, 3)),
    ]
}

#[derive(Clone, Copy)]
struct Entry {
    vpn: u64,
    size: PageSize,
    vpid: u16,
    pfn: u64,
    last_use: u64,
}

impl Entry {
    fn is(&self, vpn: u64, size: PageSize, vpid: u16) -> bool {
        self.vpn == vpn && self.size == size && self.vpid == vpid
    }
}

struct RefArray {
    sets: Vec<Vec<Option<Entry>>>,
}

impl RefArray {
    fn new(geo: TlbGeometry) -> Self {
        Self {
            sets: vec![vec![None; geo.ways]; geo.entries / geo.ways],
        }
    }

    /// Huge entries select their set by huge-page number.
    fn set(&mut self, vpn: u64, size: PageSize) -> &mut Vec<Option<Entry>> {
        let key = match size {
            PageSize::Small4K => vpn,
            PageSize::Huge2M => vpn / HUGE,
        };
        let n = self.sets.len() as u64;
        &mut self.sets[(key % n) as usize]
    }

    fn probe(&mut self, vpn: u64, size: PageSize, vpid: u16, now: u64) -> Option<u64> {
        let e = self
            .set(vpn, size)
            .iter_mut()
            .flatten()
            .find(|e| e.is(vpn, size, vpid))?;
        e.last_use = now;
        Some(e.pfn)
    }

    fn insert(&mut self, vpn: u64, size: PageSize, vpid: u16, pfn: u64, now: u64) {
        let set = self.set(vpn, size);
        let victim = set
            .iter()
            .position(|w| w.is_some_and(|e| e.is(vpn, size, vpid)))
            .or_else(|| set.iter().position(Option::is_none))
            .unwrap_or_else(|| {
                let stamp = |w: &Option<Entry>| w.map_or(0, |e| e.last_use);
                let oldest = set.iter().map(stamp).min().expect("ways > 0");
                set.iter()
                    .position(|w| stamp(w) == oldest)
                    .expect("oldest exists")
            });
        set[victim] = Some(Entry {
            vpn,
            size,
            vpid,
            pfn,
            last_use: now,
        });
    }

    /// Drops every entry `pred` selects; true when any was dropped.
    fn invalidate(&mut self, pred: impl Fn(&Entry) -> bool) -> bool {
        let mut hit = false;
        for way in self.sets.iter_mut().flatten() {
            if way.is_some_and(|e| pred(&e)) {
                *way = None;
                hit = true;
            }
        }
        hit
    }
}

struct RefTlb {
    l1_small: RefArray,
    l1_huge: RefArray,
    l2: RefArray,
    now: u64,
    stats: TlbStats,
}

impl RefTlb {
    fn new(cfg: &TlbConfig) -> Self {
        Self {
            l1_small: RefArray::new(cfg.l1_small),
            l1_huge: RefArray::new(cfg.l1_huge),
            l2: RefArray::new(cfg.l2),
            now: 0,
            stats: TlbStats::default(),
        }
    }

    fn l1(&mut self, size: PageSize) -> &mut RefArray {
        match size {
            PageSize::Small4K => &mut self.l1_small,
            PageSize::Huge2M => &mut self.l1_huge,
        }
    }

    fn lookup(&mut self, vpn: u64, vpid: u16) -> TlbOutcome {
        self.now += 1;
        let now = self.now;
        let candidates = [
            (vpn, PageSize::Small4K),
            (vpn - vpn % HUGE, PageSize::Huge2M),
        ];
        for (base, size) in candidates {
            if let Some(pfn) = self.l1(size).probe(base, size, vpid, now) {
                self.stats.l1_hits += 1;
                return TlbOutcome::HitL1 {
                    pfn: Pfn(pfn),
                    size,
                };
            }
        }
        for (base, size) in candidates {
            if let Some(pfn) = self.l2.probe(base, size, vpid, now) {
                self.stats.l2_hits += 1;
                self.l1(size).insert(base, size, vpid, pfn, now);
                return TlbOutcome::HitL2 {
                    pfn: Pfn(pfn),
                    size,
                };
            }
        }
        self.stats.misses += 1;
        TlbOutcome::Miss
    }

    fn insert(&mut self, vpn: u64, size: PageSize, vpid: u16, pfn: u64) {
        self.now += 1;
        let now = self.now;
        self.l1(size).insert(vpn, size, vpid, pfn, now);
        self.l2.insert(vpn, size, vpid, pfn, now);
    }

    fn shootdown(&mut self, vpn: u64, size: PageSize, vpid: u16) {
        let matches = |e: &Entry| e.is(vpn, size, vpid);
        let l1 = self.l1(size).invalidate(matches);
        let l2 = self.l2.invalidate(matches);
        if l1 || l2 {
            self.stats.shootdowns += 1;
        }
    }

    fn flush(&mut self, pred: impl Fn(&Entry) -> bool + Copy) {
        self.l1_small.invalidate(pred);
        self.l1_huge.invalidate(pred);
        self.l2.invalidate(pred);
        self.stats.shootdowns += 1;
    }
}

#[derive(Debug, Clone)]
enum Op {
    /// 4KB page `off` of region `REGIONS[region]`.
    Lookup {
        region: u8,
        off: u16,
        vpid: u16,
    },
    /// A 4KB entry for that page, or the 2MB entry of its region.
    Insert {
        region: u8,
        off: u16,
        huge: bool,
        vpid: u16,
        pfn: u16,
    },
    Shootdown {
        region: u8,
        off: u16,
        huge: bool,
        vpid: u16,
    },
    /// Every 4KB page of region `REGIONS[region]`.
    ShootdownWindow {
        region: u8,
        vpid: u16,
    },
    FlushAll,
    FlushVpid {
        vpid: u16,
    },
}

/// The page base an op names: the 4KB page itself, or its 2MB base.
fn base_of(region: u8, off: u16, huge: bool) -> (u64, PageSize) {
    let vpn = REGIONS[region as usize] * HUGE + off as u64;
    if huge {
        (vpn - vpn % HUGE, PageSize::Huge2M)
    } else {
        (vpn, PageSize::Small4K)
    }
}

/// Regions and offsets mostly from a small hot pool, so entries are
/// re-inserted, shot down and looked up again while they are resident
/// and sets fill up; sometimes from anywhere.
fn region_strategy() -> impl Strategy<Value = u8> {
    weighted(vec![
        (4, range(0u8..2).boxed()),
        (1, range(0u8..REGIONS.len() as u8).boxed()),
    ])
}

fn off_strategy() -> impl Strategy<Value = u16> {
    weighted(vec![
        (6, range(0u16..8).boxed()),
        (2, range(0u16..32).boxed()),
        (1, range(0u16..HUGE as u16).boxed()),
    ])
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let vpid = || range(1u16..4);
    weighted(vec![
        (
            12,
            (region_strategy(), off_strategy(), vpid())
                .prop_map(|(region, off, vpid)| Op::Lookup { region, off, vpid })
                .boxed(),
        ),
        (
            8,
            (
                (region_strategy(), off_strategy()),
                range(0u8..4),
                vpid(),
                range(0u16..1000),
            )
                .prop_map(|((region, off), kind, vpid, pfn)| Op::Insert {
                    region,
                    off,
                    huge: kind == 0,
                    vpid,
                    pfn,
                })
                .boxed(),
        ),
        (
            3,
            (region_strategy(), off_strategy(), range(0u8..4), vpid())
                .prop_map(|(region, off, kind, vpid)| Op::Shootdown {
                    region,
                    off,
                    huge: kind == 0,
                    vpid,
                })
                .boxed(),
        ),
        (
            1,
            (region_strategy(), vpid())
                .prop_map(|(region, vpid)| Op::ShootdownWindow { region, vpid })
                .boxed(),
        ),
        (
            1,
            range(0u8..4)
                .prop_map(|k| {
                    if k == 0 {
                        Op::FlushAll
                    } else {
                        Op::FlushVpid { vpid: k.into() }
                    }
                })
                .boxed(),
        ),
    ])
}

#[test]
fn tlb_matches_a_naive_lru_model() {
    let configs = configs();
    forall!(
        cases = 256,
        (config in range(0usize..configs.len())),
        (ops in vec_of(op_strategy(), 1..300)) => {
        let cfg = configs[config];
        let mut tlb = Tlb::new(cfg);
        let mut reference = RefTlb::new(&cfg);
        for (i, op) in ops.iter().enumerate() {
            match *op {
                Op::Lookup { region, off, vpid } => {
                    let (vpn, _) = base_of(region, off, false);
                    assert_eq!(
                        tlb.lookup(Vpn(vpn), Vpid(vpid)),
                        reference.lookup(vpn, vpid),
                        "op {i}: lookup of vpn {vpn} vpid {vpid} ({cfg:?})"
                    );
                }
                Op::Insert { region, off, huge, vpid, pfn } => {
                    let (vpn, size) = base_of(region, off, huge);
                    tlb.insert(Vpn(vpn), Pfn(pfn.into()), size, Vpid(vpid));
                    reference.insert(vpn, size, vpid, pfn.into());
                }
                Op::Shootdown { region, off, huge, vpid } => {
                    let (vpn, size) = base_of(region, off, huge);
                    tlb.shootdown(Vpn(vpn), size, Vpid(vpid));
                    reference.shootdown(vpn, size, vpid);
                }
                Op::ShootdownWindow { region, vpid } => {
                    let (base, _) = base_of(region, 0, false);
                    tlb.shootdown_window(Vpn(base), Vpid(vpid));
                    for vpn in base..base + HUGE {
                        reference.shootdown(vpn, PageSize::Small4K, vpid);
                    }
                }
                Op::FlushAll => {
                    tlb.flush_all();
                    reference.flush(|_| true);
                }
                Op::FlushVpid { vpid } => {
                    tlb.flush_vpid(Vpid(vpid));
                    reference.flush(|e| e.vpid == vpid);
                }
            }
            assert_eq!(tlb.stats(), reference.stats, "op {i}: stats after {op:?} ({cfg:?})");
        }
    });
}
