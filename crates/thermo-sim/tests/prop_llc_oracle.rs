//! Differential oracle for the last-level cache.
//!
//! `RefLlc` below is a deliberately naive model of `thermo_sim::Llc`: a
//! `Vec` of ways per set with a valid flag and a last-use time each, a
//! linear probe, a victim that is the first invalid way or else the least
//! recently used one (first on ties), and invalidation that drops lines
//! immediately, frame by frame. Random streams of accesses and
//! invalidations drive both in lock-step, and every access must hit or
//! miss alike.
//!
//! The real cache differs from the model in exactly the places this test
//! aims at: fixed 16-tag rows with unused ways masked out, a per-set
//! recency order in place of use times (the rank-0 fast path, rank
//! promotion, the deepest rank as victim, the order word's identity
//! encoding), the immediate sweep of a long range, and the deferral of
//! whole 2MB regions to the next access. Invalidations come in three
//! kinds: whole aligned 2MB regions, unaligned multi-frame ranges, and
//! ranges shorter than the cache has sets. Geometries have power-of-two
//! and other set counts, from direct-mapped to the full 16-way row that
//! every shipped LLC uses, some small enough that a 2MB region takes a
//! sweep (deferred) and some with more sets than a region has lines
//! (per-frame probes).

use thermo_mem::{Pfn, PAGES_PER_HUGE};
use thermo_sim::{Llc, LlcConfig};
use thermo_util::forall;
use thermo_util::proptest_lite::{range, vec_of, weighted, Strategy};

const LINES_PER_FRAME: u64 = 64;

/// `(sets, ways)`. A 2MB region has 32768 lines, so `(65536, 1)` and
/// `(36864, 2)` take per-frame probes for it and the others a deferred
/// sweep. The last three fill whole or nearly whole rows.
const GEOMETRIES: [(u64, usize); 9] = [
    (8, 2),
    (12, 3),
    (1024, 2),
    (1000, 4),
    (65536, 1),
    (36864, 2),
    (1024, 16),
    (12, 16),
    (20, 15),
];

/// Physical 2MB regions the streams touch: the first four, and the last
/// one a 31-bit line number can name.
const REGIONS: [u64; 5] = [0, 1, 2, 3, 65535];

#[derive(Debug, Clone, Copy)]
struct Way {
    line: u64,
    valid: bool,
    last_use: u64,
}

struct RefLlc {
    sets: u64,
    ways: Vec<Vec<Way>>,
    now: u64,
}

impl RefLlc {
    fn new(sets: u64, ways: usize) -> Self {
        let empty = Way {
            line: 0,
            valid: false,
            last_use: 0,
        };
        Self {
            sets,
            ways: vec![vec![empty; ways]; sets as usize],
            now: 0,
        }
    }

    fn access(&mut self, line: u64) -> bool {
        self.now += 1;
        let set = &mut self.ways[(line % self.sets) as usize];
        if let Some(w) = set.iter_mut().find(|w| w.valid && w.line == line) {
            w.last_use = self.now;
            return true;
        }
        let victim = match set.iter().position(|w| !w.valid) {
            Some(i) => i,
            None => {
                let oldest = set.iter().map(|w| w.last_use).min().expect("ways > 0");
                set.iter()
                    .position(|w| w.last_use == oldest)
                    .expect("oldest exists")
            }
        };
        set[victim] = Way {
            line,
            valid: true,
            last_use: self.now,
        };
        false
    }

    fn invalidate_frame(&mut self, frame: u64) {
        for line in frame * LINES_PER_FRAME..(frame + 1) * LINES_PER_FRAME {
            for w in &mut self.ways[(line % self.sets) as usize] {
                if w.valid && w.line == line {
                    w.valid = false;
                }
            }
        }
    }
}

#[derive(Debug, Clone)]
enum Op {
    /// Line `off` of frame `frame` of region `REGIONS[region]`.
    Access {
        region: u8,
        frame: u16,
        off: u8,
    },
    InvalidateFrame {
        region: u8,
        frame: u16,
    },
    /// `n` whole regions starting at `REGIONS[region]` (one for the last).
    InvalidateRegions {
        region: u8,
        n: u8,
    },
    /// `n` frames from frame `frame` of region `region`: any alignment.
    InvalidateRange {
        region: u8,
        frame: u16,
        n: u16,
    },
}

fn frame_of(region: u8, frame: u16) -> u64 {
    REGIONS[region as usize] * PAGES_PER_HUGE as u64 + frame as u64
}

/// Frames mostly from a small hot pool per region so lines are reused and
/// sets fill up, sometimes from anywhere in the region.
fn frame_strategy() -> impl Strategy<Value = u16> {
    weighted(vec![
        (3, range(0u16..16).boxed()),
        (1, range(0u16..PAGES_PER_HUGE as u16).boxed()),
    ])
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let region = || range(0u8..REGIONS.len() as u8);
    weighted(vec![
        (
            24,
            (
                region(),
                frame_strategy(),
                range(0u8..LINES_PER_FRAME as u8),
            )
                .prop_map(|(region, frame, off)| Op::Access { region, frame, off })
                .boxed(),
        ),
        (
            2,
            (region(), frame_strategy())
                .prop_map(|(region, frame)| Op::InvalidateFrame { region, frame })
                .boxed(),
        ),
        (
            2,
            (range(0u8..4), range(1u8..3))
                .prop_map(|(region, n)| Op::InvalidateRegions {
                    region: if region == 3 { 4 } else { region },
                    n: if region >= 2 { 1 } else { n },
                })
                .boxed(),
        ),
        (
            2,
            (
                range(0u8..4),
                frame_strategy(),
                weighted(vec![
                    (1, range(1u16..4).boxed()),
                    (1, range(4u16..1100).boxed()),
                    (1, range(1u16..3).prop_map(|k| k * 512).boxed()),
                ]),
            )
                .prop_map(|(region, frame, n)| Op::InvalidateRange { region, frame, n })
                .boxed(),
        ),
    ])
}

#[test]
fn llc_matches_a_naive_lru_model() {
    forall!(
        cases = 192,
        (geometry in range(0usize..GEOMETRIES.len())),
        (ops in vec_of(op_strategy(), 1..400)) => {
        let (sets, ways) = GEOMETRIES[geometry];
        let mut llc = Llc::new(LlcConfig {
            size_bytes: sets * ways as u64 * 64,
            ways,
            hit_ns: 1,
        });
        let mut reference = RefLlc::new(sets, ways);
        for (i, op) in ops.iter().enumerate() {
            match *op {
                Op::Access { region, frame, off } => {
                    let line = frame_of(region, frame) * LINES_PER_FRAME + off as u64;
                    assert_eq!(
                        llc.access(line),
                        reference.access(line),
                        "op {i}: access to line {line} ({sets} sets x {ways} ways)"
                    );
                }
                Op::InvalidateFrame { region, frame } => {
                    let frame = frame_of(region, frame);
                    llc.invalidate_frame(Pfn(frame));
                    reference.invalidate_frame(frame);
                }
                Op::InvalidateRegions { region, n } => {
                    let first = frame_of(region, 0);
                    let frames = n as u64 * PAGES_PER_HUGE as u64;
                    llc.invalidate_frames(Pfn(first), frames);
                    for f in first..first + frames {
                        reference.invalidate_frame(f);
                    }
                }
                Op::InvalidateRange { region, frame, n } => {
                    let first = frame_of(region, frame);
                    llc.invalidate_frames(Pfn(first), n as u64);
                    for f in first..first + n as u64 {
                        reference.invalidate_frame(f);
                    }
                }
            }
        }
    });
}
