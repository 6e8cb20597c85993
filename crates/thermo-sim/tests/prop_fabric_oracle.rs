//! Differential oracle for the migration fabric.
//!
//! `RefFabric` below is a deliberately naive model of `thermo_sim::Fabric`:
//! plain `Vec`s searched linearly, link queues that keep resolved
//! transactions until a tick that advances time sweeps the whole queue,
//! and a shadow FIFO that holds exactly the live shadows, oldest first.
//! Random op sequences drive both in lock-step; after every op they must
//! agree on every observable: stats, `busy()`, `has_state()`, in-flight
//! count and bytes, the transaction covering each probed page, and the
//! commit status of every unresolved transaction.
//!
//! The link is slow (128 MB/s) and ticks are 0–5 µs apart, so with up to
//! 64 copies in flight most ticks are starved and retries back off for a
//! few ticks: the regime where the fabric's in-place, early-exit tick and
//! its pending-sweep count differ most from a full sweep.

use thermo_mem::{PageSize, Tier, Vpn, PAGES_PER_HUGE};
use thermo_sim::{CommitStatus, Fabric, FabricConfig, FabricStats, MigrateTxn, TxnState};
use thermo_util::forall;
use thermo_util::proptest_lite::{any, range, vec_of, weighted, Strategy};

/// Pages live in `[0, SPAN)`: eight 2MB regions, so unaligned huge pages
/// straddle region boundaries and share regions with 4K pages.
const SPAN: u16 = 8 * PAGES_PER_HUGE as u16;
const MAX_IN_FLIGHT: usize = 64;
const LINK_BW: u64 = 128_000_000;

fn covers(base: Vpn, size: PageSize, vpn: Vpn) -> bool {
    base.0 <= vpn.0 && vpn.0 < base.0 + size.small_pages() as u64
}

fn link(target: Tier) -> usize {
    match target {
        Tier::Fast => 0,
        Tier::Slow => 1,
    }
}

fn size_of(huge: bool) -> PageSize {
    if huge {
        PageSize::Huge2M
    } else {
        PageSize::Small4K
    }
}

/// Every field of a transaction, for equality checks.
type TxnFields = (u64, Vpn, PageSize, Tier, TxnState, u64, u32, u64);

fn fields(t: &MigrateTxn) -> TxnFields {
    (
        t.id,
        t.base_vpn,
        t.size,
        t.target,
        t.state,
        t.copied_bytes,
        t.retries,
        t.resume_at_ns,
    )
}

struct RefFabric {
    cfg: FabricConfig,
    /// Unresolved transactions, in id order.
    txns: Vec<MigrateTxn>,
    /// Per-destination link queues of ids; resolved and failed ids stay
    /// until the next tick that advances time.
    queues: [Vec<u64>; 2],
    /// Live shadows, oldest first.
    shadows: Vec<(Vpn, PageSize)>,
    last_tick_ns: u64,
    next_id: u64,
    stats: FabricStats,
}

impl RefFabric {
    fn new(cfg: FabricConfig) -> Self {
        Self {
            cfg,
            txns: Vec::new(),
            queues: [Vec::new(), Vec::new()],
            shadows: Vec::new(),
            last_tick_ns: 0,
            next_id: 1,
            stats: FabricStats::default(),
        }
    }

    fn busy(&self) -> bool {
        self.queues.iter().any(|q| !q.is_empty())
    }

    fn has_state(&self) -> bool {
        self.txns.iter().any(|t| t.state != TxnState::Failed) || !self.shadows.is_empty()
    }

    fn in_flight_bytes(&self) -> u64 {
        self.txns.iter().map(|t| t.size.bytes() as u64).sum()
    }

    /// Index of the live (not failed) transaction covering `vpn`.
    fn live_covering(&self, vpn: Vpn) -> Option<usize> {
        self.txns
            .iter()
            .position(|t| t.state != TxnState::Failed && covers(t.base_vpn, t.size, vpn))
    }

    fn txn_for_page(&self, vpn: Vpn) -> Option<&MigrateTxn> {
        self.live_covering(vpn).map(|i| &self.txns[i])
    }

    fn overlaps_live(&self, base: Vpn, size: PageSize) -> bool {
        let n = size.small_pages() as u64;
        self.txns.iter().any(|t| {
            t.state != TxnState::Failed
                && t.base_vpn.0 < base.0 + n
                && base.0 < t.base_vpn.0 + t.size.small_pages() as u64
        })
    }

    fn index_of(&self, id: u64) -> usize {
        self.txns
            .iter()
            .position(|t| t.id == id)
            .expect("known txn id")
    }

    fn begin(&mut self, base_vpn: Vpn, size: PageSize, target: Tier, now: u64) -> u64 {
        assert!(
            !self.overlaps_live(base_vpn, size),
            "the test loop skips overlapping begins"
        );
        if !self.busy() {
            self.last_tick_ns = now;
        }
        let id = self.next_id;
        self.next_id += 1;
        self.stats.begun += 1;
        let shadowed = target == Tier::Fast && self.take_shadow(base_vpn, size);
        self.txns.push(MigrateTxn {
            id,
            base_vpn,
            size,
            target,
            state: if shadowed {
                TxnState::Copied
            } else {
                TxnState::Copying
            },
            copied_bytes: if shadowed { size.bytes() as u64 } else { 0 },
            retries: 0,
            resume_at_ns: 0,
        });
        if !shadowed {
            self.queues[link(target)].push(id);
        }
        id
    }

    /// Sweeps every queue entry, as the fabric's first tick did.
    fn tick(&mut self, now: u64) {
        let dt = now.saturating_sub(self.last_tick_ns);
        if dt == 0 {
            return;
        }
        self.last_tick_ns = now;
        for l in 0..2 {
            if self.queues[l].is_empty() {
                continue;
            }
            let mut budget =
                (self.cfg.link_bandwidth_bytes_per_sec as u128 * dt as u128 / 1_000_000_000) as u64;
            let mut moved = 0u64;
            let mut keep = Vec::new();
            let mut starved = false;
            for id in std::mem::take(&mut self.queues[l]) {
                let Some(txn) = self.txns.iter_mut().find(|t| t.id == id) else {
                    continue; // resolved
                };
                if txn.state != TxnState::Copying {
                    continue; // failed
                }
                if txn.resume_at_ns > now {
                    keep.push(id);
                    continue;
                }
                if budget == 0 {
                    starved = true;
                    keep.push(id);
                    continue;
                }
                let size = txn.size.bytes() as u64;
                let chunk = (size - txn.copied_bytes).min(budget);
                txn.copied_bytes += chunk;
                budget -= chunk;
                moved += chunk;
                if txn.copied_bytes == size {
                    txn.state = TxnState::Copied;
                } else {
                    starved = true;
                    keep.push(id);
                }
            }
            self.queues[l] = keep;
            if starved {
                self.stats.congestion_events += 1;
            }
            if moved > 0 {
                self.stats.bytes_copied += moved;
                let rate = (moved as u128 * 1_000_000_000 / dt as u128) as u64;
                self.stats.peak_bytes_per_sec = self.stats.peak_bytes_per_sec.max(rate);
            }
        }
    }

    fn note_write(&mut self, vpn: Vpn, now: u64) {
        // Only the shadow with the highest base at or below `vpn` is
        // consulted, as in the fabric's ordered directory.
        let nearest = (0..self.shadows.len())
            .filter(|&i| self.shadows[i].0 <= vpn)
            .max_by_key(|&i| self.shadows[i].0);
        if let Some(i) = nearest {
            let (base, size) = self.shadows[i];
            if covers(base, size, vpn) {
                self.shadows.remove(i);
            }
        }
        let Some(i) = self.live_covering(vpn) else {
            return;
        };
        let txn = &mut self.txns[i];
        if txn.state == TxnState::Copying && txn.copied_bytes == 0 {
            return;
        }
        self.stats.write_aborts += 1;
        txn.retries += 1;
        txn.copied_bytes = 0;
        if txn.retries > self.cfg.max_retries {
            txn.state = TxnState::Failed;
            return;
        }
        let was_copied = txn.state == TxnState::Copied;
        txn.state = TxnState::Copying;
        txn.resume_at_ns = now + (self.cfg.backoff_base_ns << (txn.retries - 1).min(20));
        if was_copied {
            let (id, target) = (txn.id, txn.target);
            if !self.busy() {
                self.last_tick_ns = now;
            }
            self.queues[link(target)].push(id);
        }
    }

    fn commit_status(&self, id: u64) -> CommitStatus {
        let t = &self.txns[self.index_of(id)];
        match t.state {
            TxnState::Copying => CommitStatus::Pending,
            TxnState::Failed => CommitStatus::Failed,
            TxnState::Copied => CommitStatus::Ready {
                vpn: t.base_vpn,
                size: t.size,
                target: t.target,
            },
        }
    }

    fn finish_commit(&mut self, id: u64) {
        let t = self.txns.remove(self.index_of(id));
        self.stats.committed += 1;
        if t.target == Tier::Slow {
            self.record_shadow(t.base_vpn, t.size);
        }
    }

    fn abort(&mut self, id: u64) {
        self.txns.remove(self.index_of(id));
        self.stats.aborted += 1;
    }

    /// Fails the live transaction covering `base` and every live one
    /// starting inside `(base, base + n_pages)`.
    fn invalidate_overlapping(&mut self, base: Vpn, n_pages: u64) {
        for t in &mut self.txns {
            let hit = covers(t.base_vpn, t.size, base)
                || (t.base_vpn.0 > base.0 && t.base_vpn.0 < base.0 + n_pages);
            if t.state != TxnState::Failed && hit {
                t.state = TxnState::Failed;
                self.stats.invalidated += 1;
            }
        }
    }

    fn record_shadow(&mut self, vpn: Vpn, size: PageSize) {
        if self.cfg.shadow_capacity == 0 {
            return;
        }
        match self.shadows.iter_mut().find(|(v, _)| *v == vpn) {
            Some(s) => s.1 = size,
            None => self.shadows.push((vpn, size)),
        }
        while self.shadows.len() as u64 > self.cfg.shadow_capacity {
            self.shadows.remove(0);
        }
    }

    fn take_shadow(&mut self, vpn: Vpn, size: PageSize) -> bool {
        match self.shadows.iter().position(|&s| s == (vpn, size)) {
            Some(i) => {
                self.shadows.remove(i);
                self.stats.shadow_hits += 1;
                true
            }
            None => false,
        }
    }
}

/// One step of a case. `pick` fields aim the op at existing state (an
/// unresolved transaction or a live shadow) when they select one, so
/// writes, promotions and shadow takes land on interesting pages often;
/// otherwise the op uses its own `vpn`.
#[derive(Debug, Clone)]
enum Op {
    Begin {
        pick: u8,
        vpn: u16,
        huge: bool,
        to_fast: bool,
    },
    /// Advance virtual time by 0–5 µs and tick.
    Tick(u16),
    /// `pick` aims at a transaction (low third) or a shadow (middle).
    Write {
        pick: u8,
        vpn: u16,
    },
    /// `commit_status`, then `finish_commit` if ready or `abort` if failed.
    Commit(u8),
    Abort(u8),
    Invalidate {
        pick: u8,
        vpn: u16,
        huge: bool,
    },
    /// `slot` records one of eight aligned huge pages, so shadows are
    /// re-recorded after a write dropped them.
    RecordShadow {
        slot: bool,
        vpn: u16,
        huge: bool,
    },
    TakeShadow {
        pick: u8,
        vpn: u16,
        huge: bool,
    },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let vpn = || range(0u16..SPAN);
    weighted(vec![
        (
            9,
            (any::<u8>(), vpn(), range(0u8..4), any::<bool>())
                .prop_map(|(pick, vpn, h, to_fast)| Op::Begin {
                    pick,
                    vpn,
                    huge: h == 0,
                    to_fast,
                })
                .boxed(),
        ),
        (8, range(0u16..5_001).prop_map(Op::Tick).boxed()),
        (
            5,
            (any::<u8>(), vpn())
                .prop_map(|(pick, vpn)| Op::Write { pick, vpn })
                .boxed(),
        ),
        (3, any::<u8>().prop_map(Op::Commit).boxed()),
        (1, any::<u8>().prop_map(Op::Abort).boxed()),
        (
            1,
            (any::<u8>(), vpn(), any::<bool>())
                .prop_map(|(pick, vpn, huge)| Op::Invalidate { pick, vpn, huge })
                .boxed(),
        ),
        (
            2,
            (any::<bool>(), vpn(), any::<bool>())
                .prop_map(|(slot, vpn, huge)| Op::RecordShadow { slot, vpn, huge })
                .boxed(),
        ),
        (
            1,
            (any::<u8>(), vpn(), any::<bool>())
                .prop_map(|(pick, vpn, huge)| Op::TakeShadow { pick, vpn, huge })
                .boxed(),
        ),
    ])
}

/// The item `pick` selects when it is below `share` of 256 and there is
/// anything to select.
fn picked<T: Copy>(items: &[T], pick: u8, share: u8) -> Option<T> {
    (pick < share && !items.is_empty()).then(|| items[pick as usize % items.len()])
}

/// Both fabrics agree on every observable. `probes` are the pages whose
/// covering transaction is compared, beyond each transaction's own ends.
fn assert_agree(fab: &Fabric, oracle: &RefFabric, probes: &[Vpn]) {
    assert_eq!(fab.stats(), oracle.stats, "stats");
    assert_eq!(fab.busy(), oracle.busy(), "busy()");
    assert_eq!(fab.has_state(), oracle.has_state(), "has_state()");
    assert_eq!(fab.in_flight(), oracle.txns.len(), "in_flight()");
    assert_eq!(
        fab.in_flight_bytes(),
        oracle.in_flight_bytes(),
        "in_flight_bytes()"
    );
    let ends = oracle.txns.iter().flat_map(|t| {
        let last = t.base_vpn.0 + t.size.small_pages() as u64 - 1;
        [t.base_vpn, Vpn(last), Vpn(last + 1)]
    });
    for vpn in probes.iter().copied().chain(ends) {
        assert_eq!(
            fab.txn_for_page(vpn).map(fields),
            oracle.txn_for_page(vpn).map(fields),
            "txn_for_page({vpn:?})"
        );
    }
    for t in &oracle.txns {
        assert_eq!(
            fab.commit_status(t.id),
            oracle.commit_status(t.id),
            "commit_status({})",
            t.id
        );
    }
}

#[test]
fn fabric_matches_naive_reference() {
    forall!(cases = 256,
        (shadow_capacity in range(0u64..6)),
        (ops in vec_of(op_strategy(), 1..400)) => {
        let cfg = FabricConfig {
            enabled: true,
            link_bandwidth_bytes_per_sec: LINK_BW,
            max_retries: 2,
            backoff_base_ns: 2_000,
            shadow_capacity,
        };
        let mut fab = Fabric::new(cfg);
        let mut oracle = RefFabric::new(cfg);
        let mut now = 0u64;
        for op in ops {
            let mut probes: Vec<Vpn> = Vec::new();
            match op {
                Op::Begin { pick, vpn, huge, to_fast } => {
                    let (base, size, target) = match picked(&oracle.shadows, pick, 128) {
                        Some((v, s)) => (v, s, Tier::Fast),
                        None => {
                            let target = if to_fast { Tier::Fast } else { Tier::Slow };
                            (Vpn(vpn as u64), size_of(huge), target)
                        }
                    };
                    probes.push(base);
                    if oracle.txns.len() < MAX_IN_FLIGHT && !oracle.overlaps_live(base, size) {
                        let id = fab.begin(base, size, target, now);
                        assert_eq!(id, oracle.begin(base, size, target, now), "begin id");
                    }
                }
                Op::Tick(dt) => {
                    now += dt as u64;
                    fab.tick(now);
                    oracle.tick(now);
                }
                Op::Write { pick, vpn } => {
                    let inside = |base: Vpn, size: PageSize| {
                        Vpn(base.0 + vpn as u64 % size.small_pages() as u64)
                    };
                    let txn = picked(&oracle.txns, pick, 86);
                    let shadow = picked(&oracle.shadows, pick.saturating_sub(86), 86);
                    let v = match (txn, shadow) {
                        (Some(t), _) => inside(t.base_vpn, t.size),
                        (None, Some((base, size))) => inside(base, size),
                        (None, None) => Vpn(vpn as u64),
                    };
                    probes.push(v);
                    fab.note_write(v, now);
                    oracle.note_write(v, now);
                }
                Op::Commit(k) => {
                    if let Some(t) = picked(&oracle.txns, k, 255) {
                        let status = fab.commit_status(t.id);
                        assert_eq!(status, oracle.commit_status(t.id), "commit_status");
                        match status {
                            CommitStatus::Ready { .. } => {
                                fab.finish_commit(t.id);
                                oracle.finish_commit(t.id);
                            }
                            CommitStatus::Failed => {
                                fab.abort(t.id);
                                oracle.abort(t.id);
                            }
                            CommitStatus::Pending => {}
                        }
                    }
                }
                Op::Abort(k) => {
                    if let Some(t) = picked(&oracle.txns, k, 255) {
                        fab.abort(t.id);
                        oracle.abort(t.id);
                    }
                }
                Op::Invalidate { pick, vpn, huge } => {
                    let (base, n) = match picked(&oracle.txns, pick, 128) {
                        Some(t) => (t.base_vpn, t.size.small_pages() as u64),
                        None => (Vpn(vpn as u64), size_of(huge).small_pages() as u64),
                    };
                    probes.push(base);
                    fab.invalidate_overlapping(base, n);
                    oracle.invalidate_overlapping(base, n);
                }
                Op::RecordShadow { slot, vpn, huge } => {
                    let (v, size) = if slot {
                        (Vpn(vpn as u64 % 8 * PAGES_PER_HUGE as u64), PageSize::Huge2M)
                    } else {
                        (Vpn(vpn as u64), size_of(huge))
                    };
                    fab.record_shadow(v, size);
                    oracle.record_shadow(v, size);
                }
                Op::TakeShadow { pick, vpn, huge } => {
                    let (v, size) = picked(&oracle.shadows, pick, 128)
                        .unwrap_or((Vpn(vpn as u64), size_of(huge)));
                    assert_eq!(
                        fab.take_shadow(v, size),
                        oracle.take_shadow(v, size),
                        "take_shadow({v:?}, {size:?})"
                    );
                }
            }
            assert_agree(&fab, &oracle, &probes);
        }
    });
}
