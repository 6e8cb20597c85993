//! Differential oracle for the wear tracker.
//!
//! The reference is the map the tracker used to be: a `BTreeMap<Pfn, u64>`
//! of bytes per written frame plus a running total, whose statistics are
//! the map's length and largest value. The real tracker keeps dense
//! per-region counter blocks and running aggregates instead. Random
//! streams of writes (zero-byte ones included, which still count a frame
//! as written) across several 2MB regions, interleaved with `reset`, drive
//! both; `stats()` and `frame_bytes` of every frame the streams can name
//! must be equal after every op.

use std::collections::BTreeMap;
use thermo_mem::{Pfn, WearStats, WearTracker, PAGES_PER_HUGE};
use thermo_util::forall;
use thermo_util::proptest_lite::{range, vec_of, weighted, Just, Strategy};

/// Regions the streams write: neighbours, a gap, and one far off.
const REGIONS: [u64; 4] = [0, 1, 3, 700];

#[derive(Debug, Clone)]
enum Op {
    Write { region: u8, frame: u16, bytes: u64 },
    Reset,
}

fn pfn(region: u8, frame: u16) -> Pfn {
    Pfn(REGIONS[region as usize] * PAGES_PER_HUGE as u64 + frame as u64)
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let frame = weighted(vec![
        (3, range(0u16..8).boxed()),
        (1, range(0u16..PAGES_PER_HUGE as u16).boxed()),
    ]);
    let bytes = weighted(vec![
        (1, Just(0u64).boxed()),
        (3, range(1u64..200).boxed()),
        (1, range(1u64..1 << 40).boxed()),
    ]);
    weighted(vec![
        (
            30,
            (range(0u8..REGIONS.len() as u8), frame, bytes)
                .prop_map(|(region, frame, bytes)| Op::Write {
                    region,
                    frame,
                    bytes,
                })
                .boxed(),
        ),
        (1, Just(Op::Reset).boxed()),
    ])
}

#[test]
fn wear_tracker_matches_a_frame_map() {
    forall!(cases = 128, (ops in vec_of(op_strategy(), 1..300)) => {
        let mut wear = WearTracker::new();
        let mut map: BTreeMap<Pfn, u64> = BTreeMap::new();
        let mut total = 0u64;
        for (i, op) in ops.iter().enumerate() {
            match *op {
                Op::Write { region, frame, bytes } => {
                    wear.record_write(pfn(region, frame), bytes);
                    *map.entry(pfn(region, frame)).or_insert(0) += bytes;
                    total += bytes;
                }
                Op::Reset => {
                    wear.reset();
                    map.clear();
                    total = 0;
                }
            }
            let expected = WearStats {
                total_bytes_written: total,
                frames_written: map.len() as u64,
                max_frame_bytes: map.values().copied().max().unwrap_or(0),
            };
            assert_eq!(wear.stats(), expected, "op {i}: stats after {op:?}");
            for region in 0..REGIONS.len() as u8 {
                for frame in (0..8).chain([PAGES_PER_HUGE as u16 - 1]) {
                    let p = pfn(region, frame);
                    assert_eq!(
                        wear.frame_bytes(p),
                        map.get(&p).copied().unwrap_or(0),
                        "op {i}: bytes of {p:?}"
                    );
                }
            }
            for (&p, &bytes) in &map {
                assert_eq!(wear.frame_bytes(p), bytes, "op {i}: bytes of {p:?}");
            }
        }
    });
}
