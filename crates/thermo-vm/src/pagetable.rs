//! Flat-leaf page table with transparent-huge-page support.
//!
//! Semantically this mirrors the x86-64 radix tree (PML4 → PDPT → PD → PT,
//! 512 entries per level): a 2MB-aligned virtual slot either is a 2MB leaf
//! (PS bit set on the PD entry) or holds a table of 512 4KB PTEs.
//! Thermostat's sampling (paper §3.2) *splits* a huge page into its 512
//! constituent 4KB PTEs to monitor them individually and later *collapses*
//! it back; both are pure page-table transformations here because a huge
//! page is always backed by a physically contiguous huge frame (see
//! `thermo-mem::frame`).
//!
//! The representation, however, is flat: one dense array of per-slot leaf
//! rows indexed by `vpn >> 9`, offset from the lowest mapped slot. The
//! simulated process bump-allocates VMAs contiguously, so the slot space is
//! dense and a translation is one bounds-checked index instead of three
//! pointer hops; range scans (`for_each_leaf`) are linear array sweeps, one
//! per range of a policy snapshot (`thermo_sim::MemoryView`).
//! Walk *costs* are still charged by the simulator per radix level — the
//! model is unchanged, only the host representation is flat.

use crate::pte::Pte;
use std::error::Error;
use std::fmt;
use thermo_mem::{PageSize, Pfn, Vpn, PAGES_PER_HUGE};

const FANOUT: usize = 512;

/// Errors returned by page-table operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MapError {
    /// The target range already holds a mapping.
    AlreadyMapped {
        /// First conflicting page.
        vpn: Vpn,
    },
    /// The virtual page is not mapped.
    NotMapped {
        /// The page in question.
        vpn: Vpn,
    },
    /// Attempted a huge-page operation on a misaligned VPN.
    Misaligned {
        /// The offending page number.
        vpn: Vpn,
    },
    /// Split/collapse was applied to the wrong mapping kind (e.g. collapsing
    /// a range that is not 512 compatible 4KB PTEs).
    WrongKind {
        /// Base page of the operation.
        vpn: Vpn,
        /// Explanation.
        reason: &'static str,
    },
}

impl fmt::Display for MapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MapError::AlreadyMapped { vpn } => write!(f, "page {vpn} is already mapped"),
            MapError::NotMapped { vpn } => write!(f, "page {vpn} is not mapped"),
            MapError::Misaligned { vpn } => write!(f, "page {vpn} is not 2MB aligned"),
            MapError::WrongKind { vpn, reason } => {
                write!(f, "wrong mapping kind at {vpn}: {reason}")
            }
        }
    }
}

impl Error for MapError {}

/// A resolved translation, as returned by [`PageTable::lookup`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mapping {
    /// The leaf entry (copied; use the `with_pte_mut` family to modify).
    pub pte: Pte,
    /// Leaf size.
    pub size: PageSize,
    /// Base VPN of the leaf (equal to the queried VPN for 4KB leaves, the
    /// 2MB-aligned base for huge leaves).
    pub base_vpn: Vpn,
}

impl Mapping {
    /// Physical frame backing the *queried* 4KB page: for huge leaves this
    /// is the base frame offset by the page's index within the huge page.
    pub fn frame_for(&self, vpn: Vpn) -> Pfn {
        match self.size {
            PageSize::Small4K => self.pte.pfn(),
            PageSize::Huge2M => self
                .pte
                .pfn()
                .offset((vpn - self.base_vpn) % PAGES_PER_HUGE as u64),
        }
    }
}

/// One 2MB-aligned slot of the flat leaf array.
enum Slot {
    /// Nothing mapped in this 2MB window.
    Empty,
    /// A 2MB leaf (PD entry with the PS bit).
    Huge(Pte),
    /// A table of 512 4KB PTEs (non-present entries are `Pte::empty()`).
    Table(Box<Table>),
}

struct Table {
    entries: [Pte; FANOUT],
    present: u16,
}

impl Table {
    fn new() -> Box<Self> {
        Box::new(Table {
            entries: [Pte::empty(); FANOUT],
            present: 0,
        })
    }
}

/// The per-process page table.
pub struct PageTable {
    /// Dense per-slot leaf rows; slot `k` (i.e. `vpn >> 9 == k`) lives at
    /// `slots[k - slot_base]`. Grown on demand at either end.
    slots: Vec<Slot>,
    /// Slot key of `slots[0]`; fixed by the first mapping.
    slot_base: u64,
    mapped_small: u64,
    mapped_huge: u64,
}

impl fmt::Debug for PageTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PageTable")
            .field("mapped_small", &self.mapped_small)
            .field("mapped_huge", &self.mapped_huge)
            .finish()
    }
}

impl Default for PageTable {
    fn default() -> Self {
        Self::new()
    }
}

impl PageTable {
    /// Creates an empty page table.
    pub fn new() -> Self {
        Self {
            slots: Vec::new(),
            slot_base: 0,
            mapped_small: 0,
            mapped_huge: 0,
        }
    }

    /// Number of mapped 4KB leaves.
    pub fn mapped_small_pages(&self) -> u64 {
        self.mapped_small
    }

    /// Number of mapped 2MB leaves.
    pub fn mapped_huge_pages(&self) -> u64 {
        self.mapped_huge
    }

    /// Total mapped bytes.
    pub fn mapped_bytes(&self) -> u64 {
        self.mapped_small * 4096 + self.mapped_huge * (PAGES_PER_HUGE as u64) * 4096
    }

    /// Read access to slot `key`'s row, `None` when outside the populated
    /// window.
    #[inline]
    fn slot(&self, key: u64) -> Option<&Slot> {
        let idx = key.wrapping_sub(self.slot_base);
        self.slots.get(idx as usize)
    }

    #[inline]
    fn slot_mut(&mut self, key: u64) -> Option<&mut Slot> {
        let idx = key.wrapping_sub(self.slot_base);
        self.slots.get_mut(idx as usize)
    }

    /// Mutable access to slot `key`'s row, growing the dense window to
    /// cover it (the grow path is cold: VMAs are bump-allocated, so new
    /// slots almost always extend the high end by one).
    fn slot_grow(&mut self, key: u64) -> &mut Slot {
        if self.slots.is_empty() {
            self.slot_base = key;
            self.slots.push(Slot::Empty);
        } else if key < self.slot_base {
            let shortfall = (self.slot_base - key) as usize;
            self.slots
                .splice(0..0, std::iter::repeat_with(|| Slot::Empty).take(shortfall));
            self.slot_base = key;
        } else {
            let idx = (key - self.slot_base) as usize;
            if idx >= self.slots.len() {
                self.slots.resize_with(idx + 1, || Slot::Empty);
            }
        }
        let idx = (key - self.slot_base) as usize;
        &mut self.slots[idx]
    }

    /// Maps `vpn` to a 4KB frame.
    ///
    /// # Errors
    ///
    /// [`MapError::AlreadyMapped`] if `vpn` is covered by an existing 4KB or
    /// 2MB mapping.
    pub fn map_small(&mut self, vpn: Vpn, pfn: Pfn, writable: bool) -> Result<(), MapError> {
        let slot = self.slot_grow(vpn.0 >> 9);
        let i1 = (vpn.0 & 0x1ff) as usize;
        match slot {
            Slot::Huge(_) => return Err(MapError::AlreadyMapped { vpn }),
            Slot::Empty => *slot = Slot::Table(Table::new()),
            Slot::Table(_) => {}
        }
        let Slot::Table(t) = slot else { unreachable!() };
        if t.entries[i1].present() {
            return Err(MapError::AlreadyMapped { vpn });
        }
        t.entries[i1] = Pte::new(pfn, writable, false);
        t.present += 1;
        self.mapped_small += 1;
        Ok(())
    }

    /// Maps the 2MB page starting at `vpn` (must be huge-aligned) to a huge
    /// frame (must be huge-aligned).
    ///
    /// # Errors
    ///
    /// [`MapError::Misaligned`] for an unaligned base, and
    /// [`MapError::AlreadyMapped`] if any page in the range is mapped.
    pub fn map_huge(&mut self, vpn: Vpn, pfn: Pfn, writable: bool) -> Result<(), MapError> {
        if !vpn.is_huge_aligned() || !pfn.is_huge_aligned() {
            return Err(MapError::Misaligned { vpn });
        }
        let slot = self.slot_grow(vpn.0 >> 9);
        match slot {
            Slot::Empty => {}
            _ => return Err(MapError::AlreadyMapped { vpn }),
        }
        *slot = Slot::Huge(Pte::new(pfn, writable, true));
        self.mapped_huge += 1;
        Ok(())
    }

    /// Removes the leaf mapping covering `vpn` and returns it.
    ///
    /// For a huge leaf, `vpn` may be any page within the 2MB range.
    ///
    /// # Errors
    ///
    /// [`MapError::NotMapped`] if nothing covers `vpn`.
    pub fn unmap(&mut self, vpn: Vpn) -> Result<Mapping, MapError> {
        let Some(slot) = self.slot_mut(vpn.0 >> 9) else {
            return Err(MapError::NotMapped { vpn });
        };
        let i1 = (vpn.0 & 0x1ff) as usize;
        match slot {
            Slot::Empty => Err(MapError::NotMapped { vpn }),
            Slot::Huge(pte) => {
                let m = Mapping {
                    pte: *pte,
                    size: PageSize::Huge2M,
                    base_vpn: vpn.huge_base(),
                };
                *slot = Slot::Empty;
                self.mapped_huge -= 1;
                Ok(m)
            }
            Slot::Table(t) => {
                if !t.entries[i1].present() {
                    return Err(MapError::NotMapped { vpn });
                }
                let m = Mapping {
                    pte: t.entries[i1],
                    size: PageSize::Small4K,
                    base_vpn: vpn,
                };
                t.entries[i1] = Pte::empty();
                t.present -= 1;
                if t.present == 0 {
                    *slot = Slot::Empty;
                }
                self.mapped_small -= 1;
                Ok(m)
            }
        }
    }

    /// Looks up the leaf covering `vpn` without modifying anything.
    pub fn lookup(&self, vpn: Vpn) -> Option<Mapping> {
        match self.slot(vpn.0 >> 9)? {
            Slot::Empty => None,
            Slot::Huge(pte) => Some(Mapping {
                pte: *pte,
                size: PageSize::Huge2M,
                base_vpn: vpn.huge_base(),
            }),
            Slot::Table(t) => {
                let pte = t.entries[(vpn.0 & 0x1ff) as usize];
                pte.present().then_some(Mapping {
                    pte,
                    size: PageSize::Small4K,
                    base_vpn: vpn,
                })
            }
        }
    }

    /// Fused walk step: resolves the leaf covering `vpn` and sets its
    /// Accessed (and, for a write, Dirty) bit in one descent. The returned
    /// mapping is the pre-update copy, matching the
    /// `lookup` + `with_pte_mut` sequence it replaces on the simulator's
    /// TLB-miss path.
    #[inline]
    pub fn touch(&mut self, vpn: Vpn, write: bool) -> Option<Mapping> {
        match self.slot_mut(vpn.0 >> 9)? {
            Slot::Empty => None,
            Slot::Huge(pte) => {
                let m = Mapping {
                    pte: *pte,
                    size: PageSize::Huge2M,
                    base_vpn: vpn.huge_base(),
                };
                pte.set_accessed();
                if write {
                    pte.set_dirty();
                }
                Some(m)
            }
            Slot::Table(t) => {
                let e = &mut t.entries[(vpn.0 & 0x1ff) as usize];
                if !e.present() {
                    return None;
                }
                let m = Mapping {
                    pte: *e,
                    size: PageSize::Small4K,
                    base_vpn: vpn,
                };
                e.set_accessed();
                if write {
                    e.set_dirty();
                }
                Some(m)
            }
        }
    }

    /// Applies `f` to the leaf PTE covering `vpn` (huge or small), returning
    /// `f`'s result, or `None` when unmapped.
    ///
    /// This is how Thermostat poisons/unpoisons entries and how scan
    /// helpers clear A bits.
    pub fn with_pte_mut<R>(&mut self, vpn: Vpn, f: impl FnOnce(&mut Pte) -> R) -> Option<R> {
        match self.slot_mut(vpn.0 >> 9)? {
            Slot::Empty => None,
            Slot::Huge(pte) => Some(f(pte)),
            Slot::Table(t) => {
                let pte = &mut t.entries[(vpn.0 & 0x1ff) as usize];
                pte.present().then(|| f(pte))
            }
        }
    }

    /// Splits the huge page at huge-aligned `vpn` into 512 4KB PTEs mapping
    /// the same frames with the same flags (paper §3.2 step 1: "we split a
    /// random sample of huge pages into 4KB pages").
    ///
    /// The Accessed/Dirty/poison bits of the huge PTE are propagated to every
    /// child so no history is lost; callers typically clear child A bits
    /// right after splitting to start a monitoring interval.
    ///
    /// # Errors
    ///
    /// [`MapError::Misaligned`], [`MapError::NotMapped`], or
    /// [`MapError::WrongKind`] if the entry is not a huge leaf.
    pub fn split_huge(&mut self, vpn: Vpn) -> Result<(), MapError> {
        if !vpn.is_huge_aligned() {
            return Err(MapError::Misaligned { vpn });
        }
        let Some(slot) = self.slot_mut(vpn.0 >> 9) else {
            return Err(MapError::NotMapped { vpn });
        };
        let huge_pte = match slot {
            Slot::Empty => return Err(MapError::NotMapped { vpn }),
            Slot::Table(_) => {
                return Err(MapError::WrongKind {
                    vpn,
                    reason: "already split (4KB table)",
                })
            }
            Slot::Huge(pte) => *pte,
        };
        let mut t = Table::new();
        let base = huge_pte.pfn();
        for (i, entry) in t.entries.iter_mut().enumerate() {
            let mut child = Pte::new(base.offset(i as u64), huge_pte.writable(), false);
            child.0 |= huge_pte.0
                & (crate::pte::BIT_ACCESSED | crate::pte::BIT_DIRTY | crate::pte::BIT_POISON);
            *entry = child;
        }
        t.present = FANOUT as u16;
        *slot = Slot::Table(t);
        self.mapped_huge -= 1;
        self.mapped_small += FANOUT as u64;
        Ok(())
    }

    /// Collapses 512 4KB PTEs back into one huge leaf (the inverse of
    /// [`split_huge`](Self::split_huge); Linux's khugepaged-style collapse).
    ///
    /// Requires all 512 children to be present, physically contiguous
    /// starting at a huge-aligned frame, and to agree on writability and
    /// poison state. Accessed/Dirty bits are OR-folded into the huge PTE.
    ///
    /// # Errors
    ///
    /// [`MapError::Misaligned`], [`MapError::NotMapped`], or
    /// [`MapError::WrongKind`] when the children cannot form a huge page.
    pub fn collapse_huge(&mut self, vpn: Vpn) -> Result<(), MapError> {
        if !vpn.is_huge_aligned() {
            return Err(MapError::Misaligned { vpn });
        }
        let Some(slot) = self.slot_mut(vpn.0 >> 9) else {
            return Err(MapError::NotMapped { vpn });
        };
        let t = match slot {
            Slot::Empty => return Err(MapError::NotMapped { vpn }),
            Slot::Huge(_) => {
                return Err(MapError::WrongKind {
                    vpn,
                    reason: "already a huge page",
                })
            }
            Slot::Table(t) => t,
        };
        if t.present as usize != FANOUT {
            return Err(MapError::WrongKind {
                vpn,
                reason: "not all 512 children present",
            });
        }
        let first = t.entries[0];
        if !first.pfn().is_huge_aligned() {
            return Err(MapError::WrongKind {
                vpn,
                reason: "base frame not huge-aligned",
            });
        }
        let mut acc = first.0 & (crate::pte::BIT_ACCESSED | crate::pte::BIT_DIRTY);
        for (i, child) in t.entries.iter().enumerate() {
            if child.pfn() != first.pfn().offset(i as u64) {
                return Err(MapError::WrongKind {
                    vpn,
                    reason: "frames not contiguous",
                });
            }
            if child.writable() != first.writable() || child.poisoned() != first.poisoned() {
                return Err(MapError::WrongKind {
                    vpn,
                    reason: "children flags disagree",
                });
            }
            acc |= child.0 & (crate::pte::BIT_ACCESSED | crate::pte::BIT_DIRTY);
        }
        let mut huge = Pte::new(first.pfn(), first.writable(), true);
        huge.0 |= acc;
        if first.poisoned() {
            huge.poison();
        }
        *slot = Slot::Huge(huge);
        self.mapped_small -= FANOUT as u64;
        self.mapped_huge += 1;
        Ok(())
    }

    /// Visits every leaf PTE in `[start, start + n_pages)` (4KB page units),
    /// passing `(base_vpn, size, &mut pte)`.
    ///
    /// Huge leaves are visited once at their base. Unmapped holes are
    /// skipped.
    pub fn for_each_leaf_mut(
        &mut self,
        start: Vpn,
        n_pages: u64,
        mut f: impl FnMut(Vpn, PageSize, &mut Pte),
    ) {
        if n_pages == 0 || self.slots.is_empty() {
            return;
        }
        let end = start.0 + n_pages;
        let first_key = (start.0 >> 9).max(self.slot_base);
        let last_key = ((end - 1) >> 9).min(self.slot_base + self.slots.len() as u64 - 1);
        let mut key = first_key;
        while key <= last_key {
            let base = key << 9;
            match &mut self.slots[(key - self.slot_base) as usize] {
                Slot::Empty => {}
                Slot::Huge(pte) => f(Vpn(base), PageSize::Huge2M, pte),
                Slot::Table(t) => {
                    let lo = start.0.saturating_sub(base).min(FANOUT as u64) as usize;
                    let hi = (end - base).min(FANOUT as u64) as usize;
                    for (i, pte) in t.entries[lo..hi].iter_mut().enumerate() {
                        if pte.present() {
                            f(Vpn(base + (lo + i) as u64), PageSize::Small4K, pte);
                        }
                    }
                }
            }
            key += 1;
        }
    }

    /// Shared-borrow variant of [`for_each_leaf_mut`](Self::for_each_leaf_mut):
    /// visits every leaf PTE in `[start, start + n_pages)` read-only, passing
    /// `(base_vpn, size, &pte)`.
    ///
    /// Huge leaves are visited once at their base; unmapped holes are
    /// skipped. A policy snapshot (`thermo_sim::MemoryView`) walks each of
    /// its ranges with one call.
    pub fn for_each_leaf(&self, start: Vpn, n_pages: u64, mut f: impl FnMut(Vpn, PageSize, &Pte)) {
        if n_pages == 0 || self.slots.is_empty() {
            return;
        }
        let end = start.0 + n_pages;
        let first_key = (start.0 >> 9).max(self.slot_base);
        let last_key = ((end - 1) >> 9).min(self.slot_base + self.slots.len() as u64 - 1);
        let mut key = first_key;
        while key <= last_key {
            let base = key << 9;
            match &self.slots[(key - self.slot_base) as usize] {
                Slot::Empty => {}
                Slot::Huge(pte) => f(Vpn(base), PageSize::Huge2M, pte),
                Slot::Table(t) => {
                    let lo = start.0.saturating_sub(base).min(FANOUT as u64) as usize;
                    let hi = (end - base).min(FANOUT as u64) as usize;
                    for (i, pte) in t.entries[lo..hi].iter().enumerate() {
                        if pte.present() {
                            f(Vpn(base + (lo + i) as u64), PageSize::Small4K, pte);
                        }
                    }
                }
            }
            key += 1;
        }
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use thermo_mem::HUGE_PAGE_BYTES;

    const HUGE_VPN: Vpn = Vpn(512 * 3); // arbitrary aligned base

    #[test]
    fn map_lookup_unmap_small() {
        let mut pt = PageTable::new();
        pt.map_small(Vpn(42), Pfn(7), true).unwrap();
        let m = pt.lookup(Vpn(42)).unwrap();
        assert_eq!(m.size, PageSize::Small4K);
        assert_eq!(m.pte.pfn(), Pfn(7));
        assert_eq!(m.frame_for(Vpn(42)), Pfn(7));
        assert_eq!(pt.mapped_small_pages(), 1);
        let un = pt.unmap(Vpn(42)).unwrap();
        assert_eq!(un.pte.pfn(), Pfn(7));
        assert!(pt.lookup(Vpn(42)).is_none());
        assert_eq!(pt.mapped_small_pages(), 0);
    }

    #[test]
    fn map_lookup_huge_with_interior_frame() {
        let mut pt = PageTable::new();
        pt.map_huge(HUGE_VPN, Pfn(1024), true).unwrap();
        // Any interior page resolves to the offset frame.
        let probe = Vpn(HUGE_VPN.0 + 37);
        let m = pt.lookup(probe).unwrap();
        assert_eq!(m.size, PageSize::Huge2M);
        assert_eq!(m.base_vpn, HUGE_VPN);
        assert_eq!(m.frame_for(probe), Pfn(1024 + 37));
        assert_eq!(pt.mapped_bytes(), HUGE_PAGE_BYTES as u64);
    }

    #[test]
    fn overlapping_maps_rejected() {
        let mut pt = PageTable::new();
        pt.map_huge(HUGE_VPN, Pfn(1024), true).unwrap();
        assert!(matches!(
            pt.map_small(Vpn(HUGE_VPN.0 + 5), Pfn(9), true),
            Err(MapError::AlreadyMapped { .. })
        ));
        let mut pt = PageTable::new();
        pt.map_small(Vpn(HUGE_VPN.0 + 5), Pfn(9), true).unwrap();
        assert!(matches!(
            pt.map_huge(HUGE_VPN, Pfn(1024), true),
            Err(MapError::AlreadyMapped { .. })
        ));
    }

    #[test]
    fn misaligned_huge_rejected() {
        let mut pt = PageTable::new();
        assert!(matches!(
            pt.map_huge(Vpn(3), Pfn(1024), true),
            Err(MapError::Misaligned { .. })
        ));
        assert!(matches!(
            pt.map_huge(HUGE_VPN, Pfn(1000), true),
            Err(MapError::Misaligned { .. })
        ));
    }

    #[test]
    fn split_preserves_translation_and_flags() {
        let mut pt = PageTable::new();
        pt.map_huge(HUGE_VPN, Pfn(2048), true).unwrap();
        pt.with_pte_mut(HUGE_VPN, |p| p.set_accessed());
        pt.split_huge(HUGE_VPN).unwrap();
        assert_eq!(pt.mapped_small_pages(), 512);
        assert_eq!(pt.mapped_huge_pages(), 0);
        for i in [0u64, 1, 100, 511] {
            let m = pt.lookup(Vpn(HUGE_VPN.0 + i)).unwrap();
            assert_eq!(m.size, PageSize::Small4K);
            assert_eq!(m.pte.pfn(), Pfn(2048 + i));
            assert!(m.pte.accessed(), "A bit must propagate to children");
            assert!(m.pte.writable());
        }
    }

    #[test]
    fn collapse_restores_huge_and_folds_bits() {
        let mut pt = PageTable::new();
        pt.map_huge(HUGE_VPN, Pfn(2048), true).unwrap();
        pt.split_huge(HUGE_VPN).unwrap();
        // Touch one child's A bit and another's D bit.
        pt.with_pte_mut(Vpn(HUGE_VPN.0 + 3), |p| p.set_accessed());
        pt.with_pte_mut(Vpn(HUGE_VPN.0 + 9), |p| p.set_dirty());
        pt.collapse_huge(HUGE_VPN).unwrap();
        let m = pt.lookup(Vpn(HUGE_VPN.0 + 100)).unwrap();
        assert_eq!(m.size, PageSize::Huge2M);
        assert_eq!(m.pte.pfn(), Pfn(2048));
        assert!(m.pte.accessed() && m.pte.dirty(), "A/D bits must OR-fold");
    }

    #[test]
    fn collapse_rejects_non_contiguous() {
        let mut pt = PageTable::new();
        pt.map_huge(HUGE_VPN, Pfn(2048), true).unwrap();
        pt.split_huge(HUGE_VPN).unwrap();
        // Remap one child to a different frame.
        pt.unmap(Vpn(HUGE_VPN.0 + 5)).unwrap();
        pt.map_small(Vpn(HUGE_VPN.0 + 5), Pfn(9999), true).unwrap();
        assert!(matches!(
            pt.collapse_huge(HUGE_VPN),
            Err(MapError::WrongKind {
                reason: "frames not contiguous",
                ..
            })
        ));
    }

    #[test]
    fn collapse_rejects_holes() {
        let mut pt = PageTable::new();
        pt.map_huge(HUGE_VPN, Pfn(2048), true).unwrap();
        pt.split_huge(HUGE_VPN).unwrap();
        pt.unmap(Vpn(HUGE_VPN.0 + 5)).unwrap();
        assert!(matches!(
            pt.collapse_huge(HUGE_VPN),
            Err(MapError::WrongKind { .. })
        ));
    }

    #[test]
    fn split_of_split_or_missing_fails() {
        let mut pt = PageTable::new();
        assert!(matches!(
            pt.split_huge(HUGE_VPN),
            Err(MapError::NotMapped { .. })
        ));
        pt.map_huge(HUGE_VPN, Pfn(2048), true).unwrap();
        pt.split_huge(HUGE_VPN).unwrap();
        assert!(matches!(
            pt.split_huge(HUGE_VPN),
            Err(MapError::WrongKind { .. })
        ));
    }

    #[test]
    fn split_propagates_poison() {
        let mut pt = PageTable::new();
        pt.map_huge(HUGE_VPN, Pfn(2048), true).unwrap();
        pt.with_pte_mut(HUGE_VPN, |p| p.poison());
        pt.split_huge(HUGE_VPN).unwrap();
        assert!(pt.lookup(Vpn(HUGE_VPN.0 + 7)).unwrap().pte.poisoned());
        pt.collapse_huge(HUGE_VPN).unwrap();
        assert!(pt.lookup(HUGE_VPN).unwrap().pte.poisoned());
    }

    #[test]
    fn unmap_huge_by_interior_page() {
        let mut pt = PageTable::new();
        pt.map_huge(HUGE_VPN, Pfn(2048), true).unwrap();
        let m = pt.unmap(Vpn(HUGE_VPN.0 + 300)).unwrap();
        assert_eq!(m.size, PageSize::Huge2M);
        assert_eq!(m.base_vpn, HUGE_VPN);
        assert!(pt.lookup(HUGE_VPN).is_none());
    }

    #[test]
    fn for_each_leaf_visits_mixed_mappings() {
        let mut pt = PageTable::new();
        pt.map_huge(Vpn(0), Pfn(0), true).unwrap();
        pt.map_small(Vpn(512 + 4), Pfn(5000), true).unwrap();
        pt.map_small(Vpn(512 + 6), Pfn(5001), true).unwrap();
        pt.map_huge(Vpn(1024), Pfn(1024), true).unwrap();
        let mut seen = Vec::new();
        pt.for_each_leaf_mut(Vpn(0), 1536, |vpn, size, _| seen.push((vpn, size)));
        assert_eq!(
            seen,
            vec![
                (Vpn(0), PageSize::Huge2M),
                (Vpn(516), PageSize::Small4K),
                (Vpn(518), PageSize::Small4K),
                (Vpn(1024), PageSize::Huge2M),
            ]
        );
    }

    #[test]
    fn shared_walk_matches_mut_walk() {
        let mut pt = PageTable::new();
        pt.map_huge(Vpn(0), Pfn(0), true).unwrap();
        pt.map_small(Vpn(516), Pfn(516), true).unwrap();
        pt.map_small(Vpn(518), Pfn(518), false).unwrap();
        pt.map_huge(Vpn(1024), Pfn(1024), true).unwrap();
        let mut via_mut = Vec::new();
        pt.for_each_leaf_mut(Vpn(0), 1536, |vpn, size, pte| {
            via_mut.push((vpn, size, *pte))
        });
        let mut via_shared = Vec::new();
        pt.for_each_leaf(Vpn(0), 1536, |vpn, size, pte| {
            via_shared.push((vpn, size, *pte))
        });
        assert_eq!(via_mut, via_shared);
    }

    #[test]
    fn for_each_leaf_respects_range_bounds() {
        let mut pt = PageTable::new();
        for i in 0..10 {
            pt.map_small(Vpn(i), Pfn(100 + i), true).unwrap();
        }
        let mut seen = Vec::new();
        pt.for_each_leaf_mut(Vpn(2), 5, |vpn, _, _| seen.push(vpn.0));
        assert_eq!(seen, vec![2, 3, 4, 5, 6]);
    }

    #[test]
    fn for_each_leaf_mut_can_mutate() {
        let mut pt = PageTable::new();
        pt.map_small(Vpn(1), Pfn(1), true).unwrap();
        pt.for_each_leaf_mut(Vpn(0), 512, |_, _, pte| pte.set_accessed());
        assert!(pt.lookup(Vpn(1)).unwrap().pte.accessed());
    }

    #[test]
    fn for_each_leaf_skips_huge_gaps_across_table_levels() {
        // Pages in different PML4/PDPT/PD subtrees with vast holes between
        // them; the range walk must skip the holes without visiting them.
        let mut pt = PageTable::new();
        let far_apart = [
            Vpn(0),               // PML4 slot 0
            Vpn(1 << 18),         // next PDPT slot
            Vpn(1 << 27),         // next PML4 slot
            Vpn((1 << 27) + 512), // same PML4, next PD entry
        ];
        for (i, vpn) in far_apart.iter().enumerate() {
            pt.map_small(*vpn, Pfn(10 + i as u64), true).unwrap();
        }
        let mut seen = Vec::new();
        pt.for_each_leaf_mut(Vpn(0), (1 << 27) + 1024, |vpn, _, _| seen.push(vpn));
        assert_eq!(seen, far_apart.to_vec());
    }

    #[test]
    fn for_each_leaf_starting_mid_huge_page_visits_it_once() {
        let mut pt = PageTable::new();
        pt.map_huge(Vpn(0), Pfn(0), true).unwrap();
        let mut seen = Vec::new();
        // Start in the middle of the huge page.
        pt.for_each_leaf_mut(Vpn(100), 1000, |vpn, size, _| seen.push((vpn, size)));
        assert_eq!(seen, vec![(Vpn(0), PageSize::Huge2M)]);
    }

    #[test]
    fn with_pte_mut_none_for_unmapped() {
        let mut pt = PageTable::new();
        assert_eq!(pt.with_pte_mut(Vpn(9), |_| ()), None);
    }

    #[test]
    fn unmap_missing_errors() {
        let mut pt = PageTable::new();
        assert!(matches!(pt.unmap(Vpn(1)), Err(MapError::NotMapped { .. })));
    }

    #[test]
    fn touch_sets_flags_and_returns_pre_update_copy() {
        let mut pt = PageTable::new();
        pt.map_small(Vpn(42), Pfn(7), true).unwrap();
        let m = pt.touch(Vpn(42), false).unwrap();
        assert!(!m.pte.accessed(), "copy must predate the A-bit set");
        assert!(pt.lookup(Vpn(42)).unwrap().pte.accessed());
        assert!(!pt.lookup(Vpn(42)).unwrap().pte.dirty());
        let m2 = pt.touch(Vpn(42), true).unwrap();
        assert!(m2.pte.accessed(), "second copy sees the first touch");
        assert!(!m2.pte.dirty(), "copy must predate the D-bit set");
        assert!(pt.lookup(Vpn(42)).unwrap().pte.dirty());

        // Huge leaf: any interior page touches the single huge PTE.
        pt.map_huge(HUGE_VPN, Pfn(1024), true).unwrap();
        let probe = Vpn(HUGE_VPN.0 + 99);
        let m3 = pt.touch(probe, true).unwrap();
        assert_eq!(m3.base_vpn, HUGE_VPN);
        assert_eq!(m3.frame_for(probe), Pfn(1024 + 99));
        let after = pt.lookup(probe).unwrap().pte;
        assert!(after.accessed() && after.dirty());

        assert!(pt.touch(Vpn(9999), false).is_none());
    }

    #[test]
    fn touch_matches_lookup_then_with_pte_mut() {
        // `touch` must be observationally identical to the two-descent
        // sequence it replaces on the simulator walk path.
        let mut a = PageTable::new();
        let mut b = PageTable::new();
        for pt in [&mut a, &mut b] {
            pt.map_small(Vpn(5), Pfn(1), true).unwrap();
            pt.map_huge(HUGE_VPN, Pfn(1024), false).unwrap();
        }
        for (vpn, write) in [
            (Vpn(5), false),
            (Vpn(5), true),
            (Vpn(HUGE_VPN.0 + 3), false),
            (Vpn(HUGE_VPN.0 + 4), true),
        ] {
            let fused = a.touch(vpn, write);
            let looked = b.lookup(vpn);
            b.with_pte_mut(vpn, |pte| {
                pte.set_accessed();
                if write {
                    pte.set_dirty();
                }
            });
            assert_eq!(fused, looked);
            assert_eq!(a.lookup(vpn), b.lookup(vpn));
        }
    }

    #[test]
    fn sparse_low_then_high_mappings_resolve() {
        // Exercise the dense-window growth at both ends.
        let mut pt = PageTable::new();
        pt.map_small(Vpn(512 * 100), Pfn(1), true).unwrap();
        pt.map_small(Vpn(512 * 200 + 7), Pfn(2), true).unwrap(); // grow high
        pt.map_small(Vpn(512 * 2 + 3), Pfn(3), true).unwrap(); // grow low
        assert_eq!(pt.lookup(Vpn(512 * 100)).unwrap().pte.pfn(), Pfn(1));
        assert_eq!(pt.lookup(Vpn(512 * 200 + 7)).unwrap().pte.pfn(), Pfn(2));
        assert_eq!(pt.lookup(Vpn(512 * 2 + 3)).unwrap().pte.pfn(), Pfn(3));
        assert!(pt.lookup(Vpn(512 * 50)).is_none(), "hole stays unmapped");
        assert!(pt.lookup(Vpn(0)).is_none(), "below the window");
        assert!(pt.lookup(Vpn(512 * 300)).is_none(), "above the window");
        let mut seen = Vec::new();
        pt.for_each_leaf(Vpn(0), 512 * 400, |vpn, _, _| seen.push(vpn));
        assert_eq!(
            seen,
            vec![Vpn(512 * 2 + 3), Vpn(512 * 100), Vpn(512 * 200 + 7)],
            "ascending order across the grown window"
        );
    }

    #[test]
    fn map_error_display() {
        assert!(format!("{}", MapError::AlreadyMapped { vpn: Vpn(1) }).contains("already"));
        assert!(format!("{}", MapError::NotMapped { vpn: Vpn(1) }).contains("not mapped"));
        assert!(format!("{}", MapError::Misaligned { vpn: Vpn(1) }).contains("aligned"));
        assert!(format!(
            "{}",
            MapError::WrongKind {
                vpn: Vpn(1),
                reason: "x"
            }
        )
        .contains("x"));
    }
}
