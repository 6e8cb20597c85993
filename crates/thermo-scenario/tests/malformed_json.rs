//! Fuzz of the scenario-JSON boundary: every library scenario's encoded
//! JSON, cut and spliced at random bytes, must come back from
//! `thermo_util::json::decode` and `ScenarioSpec::validate` as `Ok` or
//! `Err`, never as a panic.
//!
//! Only `validate` runs on a decoded spec, never `compile`: a mutated count
//! must not be able to size an allocation.

use std::cell::Cell;
use thermo_scenario::{library, ScenarioSpec};
use thermo_util::forall;
use thermo_util::json::{decode, encode};
use thermo_util::proptest_lite::{range, vec_of};

/// Bytes spliced in: JSON's structural characters plus the first bytes of
/// its literals, so a mutation can open, close or retype a value.
const SPLICE: &[u8] = b"{}[]:,\"\\ 0-.eE+tfn";

/// Applies one `(kind, at, byte)` mutation; `at` wraps to the length.
fn mutate(json: &mut Vec<u8>, (kind, at, byte): (u8, usize, usize)) {
    let at = at % (json.len() + 1);
    let byte = SPLICE[byte % SPLICE.len()];
    match kind {
        0 => json.truncate(at),
        1 if at < json.len() => {
            json.remove(at);
        }
        2 => json.insert(at, byte),
        _ if at < json.len() => json[at] = byte,
        _ => json.push(byte),
    }
}

#[test]
fn mutated_library_json_decodes_or_errs_without_panicking() {
    let encoded: Vec<String> = library::NAMES
        .iter()
        .map(|name| encode(&library::named(name).expect("library scenario exists")))
        .collect();
    for json in &encoded {
        let spec: ScenarioSpec = decode(json).expect("unmutated JSON decodes");
        spec.validate().expect("unmutated spec validates");
    }

    let (undecodable, invalid, valid) = (Cell::new(0u32), Cell::new(0u32), Cell::new(0u32));
    let mutation = (
        range(0u8..4),
        range(0usize..1 << 20),
        range(0usize..SPLICE.len()),
    );
    forall!(cases = 2000,
        (which in range(0usize..library::NAMES.len())),
        (mutations in vec_of(mutation, 1..4)) => {
        let mut json = encoded[which].clone().into_bytes();
        for m in mutations {
            mutate(&mut json, m);
        }
        let text = String::from_utf8_lossy(&json);
        let outcome = match decode::<ScenarioSpec>(&text) {
            Err(_) => &undecodable,
            Ok(spec) => match spec.validate() {
                Err(_) => &invalid,
                Ok(()) => &valid,
            },
        };
        outcome.set(outcome.get() + 1);
    });
    // Each outcome occurs, so the cases reach past the parser into
    // `validate` and into specs it accepts.
    for (what, n) in [
        ("undecodable", &undecodable),
        ("invalid", &invalid),
        ("valid", &valid),
    ] {
        assert!(n.get() > 0, "no mutated case was {what}");
    }
}
