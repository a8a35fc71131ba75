//! Theorem 7's scrambled-provenance family, shared by the unit tests of
//! moc-checker's `fast` module (the theorem over `~H ∪ ~ww`) and the
//! workspace's `tests/theorem7.rs` (the same histories as `certify` hints):
//! both include this file with `#[path]`, so the two draw the same
//! histories from the same seeds.

use moc_core::history::{History, MOpIdx};
use moc_core::ids::{MOpId, ObjectId};
use moc_core::op::CompletedOp;
use moc_workload::histories::{serial_history, HistorySpec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A `serial_history` with scrambled read provenance, and its serial
/// order of updates as a `~ww` (consecutive pairs): each external read is,
/// with probability one half, rewired to a random other writer of its
/// object, value and version included. Theorem 7's test family: the pairs
/// put the history under the WW constraint, and the rewiring often leaves
/// it illegal, or makes `~H ∪ ~ww` cyclic (an update reading from a later
/// one).
pub fn scrambled_ww_history(seed: u64) -> (History, Vec<(MOpIdx, MOpIdx)>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let spec = HistorySpec {
        processes: 3,
        ops_per_process: 4,
        num_objects: 3,
        update_fraction: 0.6,
        ..HistorySpec::default()
    };
    let h = serial_history(&spec, &mut rng);

    let mut records = h.records().to_vec();
    let writers_of = |obj: ObjectId| -> Vec<(MOpId, i64, u64)> {
        h.writers_of(obj)
            .iter()
            .map(|&w| {
                let rec = h.record(w);
                let wr = rec
                    .final_writes()
                    .into_iter()
                    .find(|op| op.object == obj)
                    .unwrap();
                (rec.id, wr.value, wr.version)
            })
            .collect()
    };
    for rec in &mut records {
        let id = rec.id;
        for op in &mut rec.ops {
            if op.is_read() && op.writer != id && rng.gen_bool(0.5) {
                let cands: Vec<_> = writers_of(op.object)
                    .into_iter()
                    .filter(|(w, _, _)| *w != id)
                    .collect();
                if !cands.is_empty() {
                    let (w, v, ver) = cands[rng.gen_range(0..cands.len())];
                    *op = CompletedOp::read(op.object, v, w, ver);
                }
            }
        }
    }
    let scrambled = History::new(h.num_objects(), records).unwrap();

    let updates: Vec<_> = scrambled
        .iter()
        .filter(|(_, r)| r.is_update())
        .map(|(i, _)| i)
        .collect();
    let ww = updates.windows(2).map(|w| (w[0], w[1])).collect();
    (scrambled, ww)
}
