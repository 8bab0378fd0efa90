//! The correctness gate: digests of mined results.
//!
//! A timed run must reproduce, at every threshold, the `M_ε` and the schema
//! set of an untimed sequential in-memory reference built over the same
//! generated input. The digest covers exactly those two sets (through their
//! stable wire form), not timings or counters, so it is the same whichever
//! backend, thread count or transport produced the result.

use crate::host::Fnv;
use maimon::wire::ToJson;
use maimon::{AcyclicSchema, Mvd};

/// Digest of one threshold's `M_ε` and schema set.
pub fn digest<'a>(mvds: &[Mvd], schemas: impl IntoIterator<Item = &'a AcyclicSchema>) -> u64 {
    let mut hash = Fnv::new();
    let mut mvds: Vec<String> = mvds.iter().map(|m| m.to_json().to_string()).collect();
    mvds.sort();
    for mvd in &mvds {
        hash.write(mvd.as_bytes());
        hash.write(b";");
    }
    hash.write(b"|");
    let mut schemas: Vec<String> = schemas.into_iter().map(|s| s.to_json().to_string()).collect();
    schemas.sort();
    for schema in &schemas {
        hash.write(schema.as_bytes());
        hash.write(b";");
    }
    hash.finish()
}

/// Digest of a whole sweep: one digest per threshold, in sweep order.
pub fn sweep_digest(per_epsilon: &[u64]) -> u64 {
    let mut hash = Fnv::new();
    for d in per_epsilon {
        hash.write(&d.to_le_bytes());
    }
    hash.finish()
}
