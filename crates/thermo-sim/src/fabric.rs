//! Finite-bandwidth migration fabric with transactional, non-exclusive
//! page moves.
//!
//! The paper treats migration as instantaneous and exclusive: `migrate_page`
//! copies a page in one kernel-time charge while the application is (by
//! construction) not touching it. That hides the regime where migration
//! traffic itself is the bottleneck. This module models the DRAM↔slow-tier
//! channel as two finite-bandwidth links (one per *destination* tier) and
//! makes migration a transaction in the style of Nomad:
//!
//! * [`Fabric::begin`] opens a transaction; the copy then proceeds
//!   asynchronously as virtual time advances ([`Fabric::tick`]) while the
//!   application keeps accessing the page;
//! * a write to a page mid-copy makes the copied bytes stale — the
//!   transaction aborts its copy and retries after a bounded exponential
//!   backoff ([`Fabric::note_write`]), failing permanently after
//!   `max_retries`;
//! * committing ([`Fabric::commit_status`] + [`Fabric::finish_commit`])
//!   only succeeds once the copy is complete; the page remains resident in
//!   its source tier until the engine remaps it at commit;
//! * a demoted page leaves a *shadow* entry behind
//!   ([`Fabric::record_shadow`]): until the first write invalidates it, a
//!   re-promotion can reuse the stale fast-tier copy and skip the bulk
//!   transfer entirely ([`Fabric::take_shadow`]).
//!
//! The fabric holds *metadata only*: no frames are reserved while a copy is
//! in flight, so the engine's residency invariant (each mapped page backed
//! by exactly one frame in exactly one tier) holds at every instant — the
//! property tests in `tests/prop_fabric.rs` pin this.
//!
//! The engine ticks a busy fabric after every access, so that path avoids
//! work proportional to the queue: each link's queue holds exactly its
//! `Copying` transactions, [`Fabric::tick`] walks it in place and stops at
//! the first starved copy (reading only copies still backing off ahead of
//! it), and a per-2MB region count lets [`Fabric::note_write`] skip its
//! directory searches for writes far from any shadow or live transaction
//! (DESIGN.md §12).
//!
//! Determinism: the fabric has no RNG, no ambient clock and no hashed
//! containers; its state (ordered maps, FIFO queues, a dense region
//! table) is a pure function of the call sequence.

use std::collections::{BTreeMap, VecDeque};
use thermo_mem::{PageSize, Tier, Vpn, PAGES_PER_HUGE};

/// Fabric configuration knobs.
///
/// `enabled` is the *policy-mode* switch: the daemons consult it to decide
/// whether to demote through transactions. The mechanism itself is always
/// available; with `enabled = false` (the default) no transactions are ever
/// opened and the engine behaves exactly as before — all pre-fabric goldens
/// are unchanged.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FabricConfig {
    /// Policy-mode switch: daemons demote via Begin/Commit transactions.
    pub enabled: bool,
    /// Per-link copy bandwidth, bytes per second of virtual time.
    pub link_bandwidth_bytes_per_sec: u64,
    /// Write-aborts tolerated before a transaction fails permanently.
    pub max_retries: u32,
    /// Base of the exponential retry backoff, ns.
    pub backoff_base_ns: u64,
    /// Shadow directory capacity (pages); oldest entries are evicted FIFO.
    pub shadow_capacity: u64,
}

impl Default for FabricConfig {
    fn default() -> Self {
        Self {
            enabled: false,
            link_bandwidth_bytes_per_sec: 2_000_000_000,
            max_retries: 3,
            backoff_base_ns: 200_000,
            shadow_capacity: 64,
        }
    }
}

thermo_util::json_struct!(FabricConfig {
    enabled,
    link_bandwidth_bytes_per_sec,
    max_retries,
    backoff_base_ns,
    shadow_capacity,
});

/// Where a transaction is in its life cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxnState {
    /// Bytes still moving (or waiting out a retry backoff).
    Copying,
    /// Copy complete; ready to commit.
    Copied,
    /// Retries exhausted or page invalidated; only abort can resolve it.
    Failed,
}

/// One in-flight migration transaction.
#[derive(Debug, Clone, Copy)]
pub struct MigrateTxn {
    /// Transaction id (monotonic, unique per fabric).
    pub id: u64,
    /// Leaf page being moved (base VPN of its mapping).
    pub base_vpn: Vpn,
    /// Leaf size.
    pub size: PageSize,
    /// Destination tier.
    pub target: Tier,
    /// Current state.
    pub state: TxnState,
    /// Bytes copied so far in the current attempt.
    pub copied_bytes: u64,
    /// Write-aborts suffered so far.
    pub retries: u32,
    /// Virtual time before which the copy may not resume (retry backoff).
    pub resume_at_ns: u64,
}

/// What [`Fabric::commit_status`] reports for a transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommitStatus {
    /// Copy still in flight — ask again later.
    Pending,
    /// Transaction failed (retries exhausted or invalidated); abort it.
    Failed,
    /// Copy complete: the engine may remap and then finish the commit.
    Ready {
        /// Page to remap.
        vpn: Vpn,
        /// Leaf size.
        size: PageSize,
        /// Destination tier.
        target: Tier,
    },
}

/// Counters for the fabric's lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FabricStats {
    /// Transactions opened.
    pub begun: u64,
    /// Transactions committed.
    pub committed: u64,
    /// Transactions aborted (explicitly or after failure).
    pub aborted: u64,
    /// Copy restarts caused by writes to in-flight pages.
    pub write_aborts: u64,
    /// Transactions killed by a structural page operation (split, poison…).
    pub invalidated: u64,
    /// Promotions served instantly from a shadow copy.
    pub shadow_hits: u64,
    /// Ticks where a link's budget ran out with eligible copies waiting.
    pub congestion_events: u64,
    /// LLC misses that paid the contention penalty.
    pub contended_misses: u64,
    /// Total bytes moved over the links.
    pub bytes_copied: u64,
    /// Highest observed per-tick link throughput, bytes/sec.
    pub peak_bytes_per_sec: u64,
}

/// Index of the 2MB region (the region filter's grain) holding `vpn`.
fn region(vpn: u64) -> u64 {
    vpn / PAGES_PER_HUGE as u64
}

/// The regions a leaf at `base` touches; an unaligned huge leaf touches two.
fn regions(base: Vpn, size: PageSize) -> std::ops::RangeInclusive<u64> {
    region(base.0)..=region(base.0 + size.small_pages() as u64 - 1)
}

/// Per-2MB-region count of the shadows and live transactions whose range
/// touches the region: a write to a region counted zero can neither
/// invalidate a shadow nor abort a copy. Dense over the lowest to highest
/// region ever counted, and empty until the first count, so an engine
/// that never migrates through the fabric carries no table.
#[derive(Debug, Default)]
struct RegionCounts {
    /// Region index of `counts[0]`.
    first: u64,
    counts: Vec<u32>,
}

impl RegionCounts {
    fn get(&self, vpn: Vpn) -> u32 {
        region(vpn.0)
            .checked_sub(self.first)
            .and_then(|i| self.counts.get(i as usize))
            .map_or(0, |&c| c)
    }

    fn add(&mut self, base: Vpn, size: PageSize) {
        let r = regions(base, size);
        if self.counts.is_empty() {
            self.first = *r.start();
        } else if *r.start() < self.first {
            let grow = (self.first - r.start()) as usize;
            self.counts.splice(0..0, std::iter::repeat_n(0, grow));
            self.first = *r.start();
        }
        let end = (r.end() - self.first) as usize + 1;
        if self.counts.len() < end {
            self.counts.resize(end, 0);
        }
        for i in r {
            self.counts[(i - self.first) as usize] += 1;
        }
    }

    fn sub(&mut self, base: Vpn, size: PageSize) {
        for i in regions(base, size) {
            self.counts[(i - self.first) as usize] -= 1;
        }
    }
}

/// The migration fabric: two finite-bandwidth links plus transaction and
/// shadow directories. Owned by the engine but fully public so benches and
/// property tests can drive it directly.
#[derive(Debug)]
pub struct Fabric {
    cfg: FabricConfig,
    txns: BTreeMap<u64, MigrateTxn>,
    /// Live (unresolved, non-failed) transaction per page.
    by_page: BTreeMap<Vpn, u64>,
    /// Per-destination-tier link queues, `queues[0]` → Fast, `queues[1]` →
    /// Slow: exactly the link's `Copying` transactions, in arrival order.
    queues: [VecDeque<u64>; 2],
    /// Copying transactions resolved (aborted, failed, invalidated) since
    /// the last tick that advanced time. The links stay busy until that
    /// tick: the LLC contention penalty, `begin`'s idle reset and the
    /// arbiter's congestion report all observe `busy()`, and the simulated
    /// timeline is pinned to this timing (DESIGN.md §12).
    unswept: u32,
    shadows: BTreeMap<Vpn, PageSize>,
    /// The live shadows' vpns, oldest first.
    shadow_fifo: VecDeque<Vpn>,
    /// Shadows plus live transactions per 2MB region (`note_write`'s filter).
    regions: RegionCounts,
    last_tick_ns: u64,
    next_id: u64,
    stats: FabricStats,
}

fn link_index(target: Tier) -> usize {
    match target {
        Tier::Fast => 0,
        Tier::Slow => 1,
    }
}

impl Fabric {
    /// A fabric with the given knobs and no in-flight state.
    pub fn new(cfg: FabricConfig) -> Self {
        Self {
            cfg,
            txns: BTreeMap::new(),
            by_page: BTreeMap::new(),
            queues: [VecDeque::new(), VecDeque::new()],
            unswept: 0,
            shadows: BTreeMap::new(),
            shadow_fifo: VecDeque::new(),
            regions: RegionCounts::default(),
            last_tick_ns: 0,
            next_id: 1,
            stats: FabricStats::default(),
        }
    }

    /// The configuration this fabric was built with.
    pub fn config(&self) -> &FabricConfig {
        &self.cfg
    }

    /// Lifetime counters.
    pub fn stats(&self) -> FabricStats {
        self.stats
    }

    /// True while any link has queued copies, counting copies resolved
    /// since the last tick that advanced time.
    pub fn busy(&self) -> bool {
        self.unswept > 0 || self.queues.iter().any(|q| !q.is_empty())
    }

    /// True if the fabric holds any state the engine must consult on the
    /// hot path (live transactions or shadows).
    pub fn has_state(&self) -> bool {
        !self.by_page.is_empty() || !self.shadows.is_empty()
    }

    /// Number of unresolved transactions (any state).
    pub fn in_flight(&self) -> usize {
        self.txns.len()
    }

    /// Bytes covered by unresolved transactions — capacity a reclaim
    /// must treat as pinned (the arbiter's `reserved_bytes` input).
    pub fn in_flight_bytes(&self) -> u64 {
        self.txns.values().map(|t| t.size.bytes() as u64).sum()
    }

    /// The live transaction covering `vpn`, if any.
    pub fn txn_for_page(&self, vpn: Vpn) -> Option<&MigrateTxn> {
        let (&base, &id) = self.by_page.range(..=vpn).next_back()?;
        let txn = &self.txns[&id];
        let n = txn.size.small_pages() as u64;
        (base.0 + n > vpn.0).then_some(txn)
    }

    /// Open a migration transaction for the leaf page at `base_vpn`.
    ///
    /// Panics if a live transaction already overlaps the page — callers
    /// (the plan layer) must not double-inject; the property tests and
    /// daemons both track pending pages.
    ///
    /// A promotion (`target == Fast`) that finds a valid shadow completes
    /// instantly: the stale fast-tier copy is still good, so the
    /// transaction is born `Copied` without touching a link.
    pub fn begin(&mut self, base_vpn: Vpn, size: PageSize, target: Tier, now: u64) -> u64 {
        let n = size.small_pages() as u64;
        if let Some((&b, &id)) = self.by_page.range(..=base_vpn).next_back() {
            let bn = self.txns[&id].size.small_pages() as u64;
            assert!(
                b.0 + bn <= base_vpn.0,
                "fabric: begin overlaps live txn {id} at vpn {}",
                b.0
            );
        }
        if let Some((&b, &id)) = self.by_page.range(Vpn(base_vpn.0 + 1)..).next() {
            assert!(
                base_vpn.0 + n <= b.0,
                "fabric: begin overlaps live txn {id} at vpn {}",
                b.0
            );
        }
        // An idle fabric must not bank the elapsed idle time as copy budget.
        if !self.busy() {
            self.last_tick_ns = now;
        }
        let id = self.next_id;
        self.next_id += 1;
        self.stats.begun += 1;
        let shadowed = target == Tier::Fast && self.take_shadow(base_vpn, size);
        let bytes = size.bytes() as u64;
        let txn = MigrateTxn {
            id,
            base_vpn,
            size,
            target,
            state: if shadowed {
                TxnState::Copied
            } else {
                TxnState::Copying
            },
            copied_bytes: if shadowed { bytes } else { 0 },
            retries: 0,
            resume_at_ns: 0,
        };
        if !shadowed {
            self.queues[link_index(target)].push_back(id);
        }
        self.txns.insert(id, txn);
        self.by_page.insert(base_vpn, id);
        self.regions.add(base_vpn, size);
        id
    }

    /// Advance the links to virtual time `now`, moving up to
    /// `bandwidth × Δt` bytes per link. The budget is a per-tick floor with
    /// no carry, so charged bandwidth provably never exceeds link capacity
    /// over any interval.
    ///
    /// Each queue is walked in place from its head: copies backing off are
    /// skipped, finished copies leave the queue, and the walk stops at the
    /// first copy the budget cannot finish. Nothing behind that copy could
    /// move, so the tick touches no further entry, and it allocates nothing.
    pub fn tick(&mut self, now: u64) {
        let dt = now.saturating_sub(self.last_tick_ns);
        if dt == 0 {
            return;
        }
        self.last_tick_ns = now;
        self.unswept = 0;
        for queue in &mut self.queues {
            if queue.is_empty() {
                continue;
            }
            let mut budget =
                (self.cfg.link_bandwidth_bytes_per_sec as u128 * dt as u128 / 1_000_000_000) as u64;
            let mut moved = 0u64;
            let mut starved = false;
            let mut i = 0;
            while let Some(&id) = queue.get(i) {
                let txn = self.txns.get_mut(&id).expect("queued id is a live txn");
                debug_assert_eq!(txn.state, TxnState::Copying, "txn {id} queued");
                if txn.resume_at_ns > now {
                    i += 1; // still backing off
                    continue;
                }
                if budget == 0 {
                    starved = true;
                    break;
                }
                let size = txn.size.bytes() as u64;
                let chunk = (size - txn.copied_bytes).min(budget);
                txn.copied_bytes += chunk;
                budget -= chunk;
                moved += chunk;
                if txn.copied_bytes < size {
                    starved = true; // budget exhausted mid-page
                    break;
                }
                txn.state = TxnState::Copied;
                queue.remove(i);
            }
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

    /// The engine observed a write to `vpn`. Invalidate any shadow and
    /// write-abort any in-flight copy covering the page.
    pub fn note_write(&mut self, vpn: Vpn, now: u64) {
        if self.regions.get(vpn) == 0 {
            return; // no shadow and no live transaction in vpn's region
        }
        // Shadows: a write makes the stale fast-tier copy unusable.
        if let Some((&base, &size)) = self.shadows.range(..=vpn).next_back() {
            if base.0 + size.small_pages() as u64 > vpn.0 {
                self.remove_shadow(base);
            }
        }
        let Some((&base, &id)) = self.by_page.range(..=vpn).next_back() else {
            return;
        };
        let Some(txn) = self.txns.get_mut(&id) else {
            return;
        };
        if base.0 + txn.size.small_pages() as u64 <= vpn.0 {
            return;
        }
        if txn.state == TxnState::Failed {
            return;
        }
        if txn.state == TxnState::Copying && txn.copied_bytes == 0 {
            return; // nothing copied yet, nothing to go stale
        }
        self.stats.write_aborts += 1;
        txn.retries += 1;
        txn.copied_bytes = 0;
        if txn.retries > self.cfg.max_retries {
            let live = *txn;
            txn.state = TxnState::Failed;
            self.retire(&live);
            return;
        }
        let was_copied = txn.state == TxnState::Copied;
        txn.state = TxnState::Copying;
        let shift = (txn.retries - 1).min(20);
        txn.resume_at_ns = now + (self.cfg.backoff_base_ns << shift);
        if was_copied {
            // It had left the queue on completion; re-enqueue the retry.
            let target = txn.target;
            if !self.busy() {
                self.last_tick_ns = now;
            }
            self.queues[link_index(target)].push_back(id);
        }
    }

    /// Where transaction `id` stands for commit purposes.
    ///
    /// Panics on an unknown id: commit/abort of a transaction that was never
    /// begun (or was already resolved) is a plan-layer bug.
    pub fn commit_status(&self, id: u64) -> CommitStatus {
        let txn = self
            .txns
            .get(&id)
            .unwrap_or_else(|| panic!("fabric: unknown txn {id}"));
        match txn.state {
            TxnState::Copying => CommitStatus::Pending,
            TxnState::Failed => CommitStatus::Failed,
            TxnState::Copied => CommitStatus::Ready {
                vpn: txn.base_vpn,
                size: txn.size,
                target: txn.target,
            },
        }
    }

    /// Resolve a `Ready` transaction after the engine has remapped the
    /// page. A demotion leaves a shadow behind for instant re-promotion.
    pub fn finish_commit(&mut self, id: u64) {
        let txn = self.resolve(id);
        self.stats.committed += 1;
        if txn.target == Tier::Slow {
            self.record_shadow(txn.base_vpn, txn.size);
        }
    }

    /// Abort and discard transaction `id` (any state). Panics on unknown id.
    pub fn abort(&mut self, id: u64) {
        self.resolve(id);
        self.stats.aborted += 1;
    }

    /// Remove transaction `id` from every directory and queue.
    fn resolve(&mut self, id: u64) -> MigrateTxn {
        let txn = self
            .txns
            .remove(&id)
            .unwrap_or_else(|| panic!("fabric: unknown txn {id}"));
        if txn.state != TxnState::Failed {
            self.retire(&txn);
        }
        txn
    }

    /// Take the live transaction `txn` (as it was before it failed or
    /// resolved) off its page and, if it was copying, off its link queue.
    fn retire(&mut self, txn: &MigrateTxn) {
        self.by_page.remove(&txn.base_vpn);
        self.regions.sub(txn.base_vpn, txn.size);
        if txn.state == TxnState::Copying {
            let queue = &mut self.queues[link_index(txn.target)];
            let at = queue
                .iter()
                .position(|&q| q == txn.id)
                .expect("a copying txn is queued");
            queue.remove(at);
            self.unswept += 1;
        }
    }

    /// A structural page operation (split, collapse, poison, migrate…)
    /// touched `[base, base + n_pages)`: any overlapping live transaction
    /// is now meaningless. Mark it failed so its eventual commit resolves
    /// as a clean abort instead of remapping a page that changed shape.
    pub fn invalidate_overlapping(&mut self, base: Vpn, n_pages: u64) {
        if self.by_page.is_empty() {
            return;
        }
        let mut hit: Vec<u64> = Vec::new();
        if let Some((&b, &id)) = self.by_page.range(..=base).next_back() {
            let bn = self.txns[&id].size.small_pages() as u64;
            if b.0 + bn > base.0 {
                hit.push(id);
            }
        }
        for (&b, &id) in self.by_page.range(Vpn(base.0 + 1)..) {
            if b.0 >= base.0 + n_pages {
                break;
            }
            hit.push(id);
        }
        for id in hit {
            let txn = self.txns.get_mut(&id).expect("by_page points at live txn");
            let live = *txn;
            txn.state = TxnState::Failed;
            self.retire(&live);
            self.stats.invalidated += 1;
        }
    }

    /// Remember that the fast-tier copy of a just-demoted page is still
    /// intact (stale only after the next write).
    pub fn record_shadow(&mut self, vpn: Vpn, size: PageSize) {
        if self.cfg.shadow_capacity == 0 {
            return;
        }
        match self.shadows.insert(vpn, size) {
            Some(old) => self.regions.sub(vpn, old),
            None => self.shadow_fifo.push_back(vpn),
        }
        self.regions.add(vpn, size);
        while self.shadows.len() as u64 > self.cfg.shadow_capacity {
            let oldest = self.shadow_fifo[0];
            self.remove_shadow(oldest);
        }
    }

    /// Consume the shadow for `(vpn, size)` if present and exactly matching.
    pub fn take_shadow(&mut self, vpn: Vpn, size: PageSize) -> bool {
        if self.shadows.get(&vpn) == Some(&size) {
            self.remove_shadow(vpn);
            self.stats.shadow_hits += 1;
            true
        } else {
            false
        }
    }

    /// Drop the shadow at `vpn` from the directory, its FIFO slot and the
    /// region counts.
    fn remove_shadow(&mut self, vpn: Vpn) {
        let size = self.shadows.remove(&vpn).expect("shadow is recorded");
        self.regions.sub(vpn, size);
        let at = self
            .shadow_fifo
            .iter()
            .position(|&v| v == vpn)
            .expect("a recorded shadow has a FIFO slot");
        self.shadow_fifo.remove(at);
    }

    /// Record an LLC miss that paid the contention penalty.
    pub fn note_contended_miss(&mut self) {
        self.stats.contended_misses += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const HUGE: u64 = 2 << 20;

    fn fab(bw: u64) -> Fabric {
        Fabric::new(FabricConfig {
            enabled: true,
            link_bandwidth_bytes_per_sec: bw,
            ..FabricConfig::default()
        })
    }

    #[test]
    fn copy_is_paced_by_bandwidth() {
        // 2MB page over a 1GB/s link needs ~2ms of virtual time.
        let mut f = fab(1_000_000_000);
        let id = f.begin(Vpn(0), PageSize::Huge2M, Tier::Slow, 0);
        f.tick(1_000_000); // 1ms → 1MB copied
        assert_eq!(f.commit_status(id), CommitStatus::Pending);
        f.tick(2_200_000);
        assert!(matches!(f.commit_status(id), CommitStatus::Ready { .. }));
        assert_eq!(f.stats().bytes_copied, HUGE);
        assert!(f.stats().peak_bytes_per_sec <= 1_000_000_000);
        f.finish_commit(id);
        assert_eq!(f.in_flight(), 0);
        assert_eq!(f.stats().committed, 1);
    }

    #[test]
    fn idle_time_is_not_banked_as_budget() {
        let mut f = fab(1_000_000_000);
        // Fabric idles for a long time; a fresh txn must still take ~2ms.
        let id = f.begin(Vpn(0), PageSize::Huge2M, Tier::Slow, 10_000_000_000);
        f.tick(10_000_000_001); // 1ns later: at most ~1 byte moved
        assert_eq!(f.commit_status(id), CommitStatus::Pending);
        assert!(f.stats().bytes_copied <= 2);
        f.abort(id);
    }

    #[test]
    fn write_aborts_retry_then_fail() {
        let mut f = fab(1_000_000_000);
        let id = f.begin(Vpn(0), PageSize::Huge2M, Tier::Slow, 0);
        let mut now = 0;
        for attempt in 0..4u32 {
            // Let some bytes move, then dirty the page.
            now += 1_000_000;
            f.tick(now);
            f.note_write(Vpn(3), now);
            assert_eq!(f.stats().write_aborts, attempt as u64 + 1);
        }
        // max_retries = 3, fourth write-abort fails the transaction.
        assert_eq!(f.commit_status(id), CommitStatus::Failed);
        // A failed txn no longer blocks the page: a new begin succeeds
        // after the failed one is aborted.
        f.abort(id);
        assert_eq!(f.stats().aborted, 1);
        let id2 = f.begin(Vpn(0), PageSize::Huge2M, Tier::Slow, now);
        assert_ne!(id, id2);
    }

    #[test]
    fn write_before_any_copy_is_free() {
        let mut f = fab(1_000_000_000);
        let id = f.begin(Vpn(0), PageSize::Huge2M, Tier::Slow, 0);
        f.note_write(Vpn(0), 0); // nothing copied yet → no abort
        assert_eq!(f.stats().write_aborts, 0);
        f.abort(id);
    }

    #[test]
    fn shadow_promotion_is_instant() {
        let mut f = fab(1_000_000_000);
        let id = f.begin(Vpn(512), PageSize::Huge2M, Tier::Slow, 0);
        f.tick(3_000_000);
        f.finish_commit(id); // demotion records a shadow
        let id2 = f.begin(Vpn(512), PageSize::Huge2M, Tier::Fast, 3_000_000);
        assert!(matches!(f.commit_status(id2), CommitStatus::Ready { .. }));
        assert_eq!(f.stats().shadow_hits, 1);
        f.finish_commit(id2);
        // Shadow is consumed: the next promotion has to copy.
        let id3 = f.begin(Vpn(512), PageSize::Huge2M, Tier::Fast, 3_000_000);
        assert_eq!(f.commit_status(id3), CommitStatus::Pending);
        f.abort(id3);
    }

    #[test]
    fn writes_invalidate_shadows() {
        let mut f = fab(1_000_000_000);
        let id = f.begin(Vpn(0), PageSize::Huge2M, Tier::Slow, 0);
        f.tick(3_000_000);
        f.finish_commit(id);
        f.note_write(Vpn(17), 3_000_000); // inside the shadowed huge page
        let id2 = f.begin(Vpn(0), PageSize::Huge2M, Tier::Fast, 3_000_000);
        assert_eq!(f.commit_status(id2), CommitStatus::Pending);
        assert_eq!(f.stats().shadow_hits, 0);
        f.abort(id2);
    }

    #[test]
    #[should_panic(expected = "overlaps live txn")]
    fn overlapping_begin_panics() {
        let mut f = fab(1_000_000_000);
        f.begin(Vpn(0), PageSize::Huge2M, Tier::Slow, 0);
        f.begin(Vpn(100), PageSize::Small4K, Tier::Slow, 0);
    }

    #[test]
    fn invalidation_fails_txn_but_keeps_it_resolvable() {
        let mut f = fab(1_000_000_000);
        let id = f.begin(Vpn(0), PageSize::Huge2M, Tier::Slow, 0);
        f.tick(500_000);
        f.invalidate_overlapping(Vpn(0), 512);
        assert_eq!(f.stats().invalidated, 1);
        assert_eq!(f.commit_status(id), CommitStatus::Failed);
        f.abort(id);
        assert_eq!(f.in_flight(), 0);
    }

    #[test]
    fn congestion_is_counted_when_budget_starves() {
        let mut f = fab(1_000_000_000);
        for i in 0..4 {
            f.begin(Vpn(i * 512), PageSize::Huge2M, Tier::Slow, 0);
        }
        f.tick(1_000_000); // 1MB budget for 8MB of queued copies
        assert!(f.stats().congestion_events >= 1);
        assert_eq!(f.stats().bytes_copied, 1_000_000);
    }

    #[test]
    fn shadow_capacity_is_fifo_bounded() {
        let mut f = Fabric::new(FabricConfig {
            shadow_capacity: 2,
            ..FabricConfig::default()
        });
        f.record_shadow(Vpn(0), PageSize::Huge2M);
        f.record_shadow(Vpn(512), PageSize::Huge2M);
        f.record_shadow(Vpn(1024), PageSize::Huge2M);
        assert!(!f.take_shadow(Vpn(0), PageSize::Huge2M), "oldest evicted");
        assert!(f.take_shadow(Vpn(512), PageSize::Huge2M));
        assert!(f.take_shadow(Vpn(1024), PageSize::Huge2M));
    }

    #[test]
    fn shadow_fifo_evicts_the_oldest_live_shadow() {
        let mut f = Fabric::new(FabricConfig {
            shadow_capacity: 2,
            ..FabricConfig::default()
        });
        let (a, b, c) = (Vpn(0), Vpn(512), Vpn(1024));
        f.record_shadow(a, PageSize::Huge2M);
        f.note_write(a, 0); // invalidates A's first shadow
        f.record_shadow(b, PageSize::Huge2M);
        f.record_shadow(a, PageSize::Huge2M);
        f.record_shadow(c, PageSize::Huge2M);
        assert!(!f.take_shadow(b, PageSize::Huge2M), "B was the oldest live");
        assert!(f.take_shadow(a, PageSize::Huge2M));
        assert!(f.take_shadow(c, PageSize::Huge2M));
        assert!(f.shadow_fifo.is_empty());
    }

    #[test]
    fn config_roundtrips() {
        let c = FabricConfig {
            enabled: true,
            link_bandwidth_bytes_per_sec: 123,
            ..FabricConfig::default()
        };
        let j = thermo_util::json::encode(&c);
        let back: FabricConfig = thermo_util::json::decode(&j).expect("decode");
        assert_eq!(c, back);
    }
}
