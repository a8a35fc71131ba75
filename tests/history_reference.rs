//! `History`'s derived tables against a reference computed directly from
//! the records, on the synthesis grammar's histories and on windows cut
//! out of them (sequence-number gaps, as the sentinel builds them).

use std::collections::BTreeSet;

use moc_core::history::{History, MOpIdx};
use moc_core::ids::{MOpId, ObjectId, ProcessId};
use moc_core::mop::MOpRecord;
use moc_core::op::CompletedOp;
use moc_workload::arb::{self, HistoryBounds};
use proptest::prelude::*;

const BOUNDS: HistoryBounds = HistoryBounds {
    processes: 4,
    mops_per_process: 5,
    objects: 5,
    max_span: 4,
    update_fraction: 0.6,
};

/// The records of `h` whose bit in `keep` is set, shuffled by `order`;
/// a read whose writer fell outside the window reads the initial value.
fn window(h: &History, keep: u32, order: u64) -> Vec<MOpRecord> {
    let mut records: Vec<MOpRecord> = h
        .records()
        .iter()
        .enumerate()
        .filter(|(i, _)| keep >> (i % 32) & 1 == 1)
        .map(|(_, r)| r.clone())
        .collect();
    let kept: BTreeSet<MOpId> = records.iter().map(|r| r.id).collect();
    for op in records.iter_mut().flat_map(|r| r.ops.iter_mut()) {
        if op.is_read() && !kept.contains(&op.writer) {
            *op = CompletedOp::read(op.object, 0, MOpId::INITIAL, 0);
        }
    }
    let n = records.len().max(1);
    for i in 0..records.len() {
        records.swap(i, (order >> (i % 48)) as usize % n);
    }
    records
}

fn set_of(rec: &MOpRecord, writes_only: bool) -> Vec<ObjectId> {
    let set: BTreeSet<ObjectId> = rec
        .ops
        .iter()
        .filter(|op| op.is_write() || !writes_only)
        .map(|op| op.object)
        .collect();
    set.into_iter().collect()
}

fn position(records: &[MOpRecord], id: MOpId) -> Option<MOpIdx> {
    records.iter().position(|r| r.id == id).map(MOpIdx)
}

fn reads(records: &[MOpRecord], i: usize) -> Vec<(ObjectId, Option<MOpIdx>)> {
    records[i]
        .external_reads()
        .map(|op| (op.object, position(records, op.writer)))
        .collect()
}

fn check_against_reference(records: Vec<MOpRecord>) {
    let h = History::new(BOUNDS.objects, records.clone()).expect("a window is well-formed");
    let n = records.len();
    assert_eq!(h.records(), &records[..]);

    for (i, rec) in records.iter().enumerate() {
        let idx = MOpIdx(i);
        assert_eq!(h.objects(idx), &set_of(rec, false)[..]);
        assert_eq!(h.wobjects(idx), &set_of(rec, true)[..]);
        assert_eq!(h.read_sources(idx), &reads(&records, i)[..]);
        assert_eq!(h.idx_of(rec.id), Some(idx));
    }
    for o in (0..BOUNDS.objects as u32).map(ObjectId::new) {
        let writers: Vec<MOpIdx> = (0..n)
            .filter(|&i| set_of(&records[i], true).contains(&o))
            .map(MOpIdx)
            .collect();
        assert_eq!(h.writers_of(o), &writers[..]);
    }

    let processes: BTreeSet<ProcessId> = records.iter().map(|r| r.process()).collect();
    assert_eq!(h.processes(), processes);
    for p in (0..=BOUNDS.processes as u32).map(ProcessId::new) {
        let mut own: Vec<usize> = (0..n).filter(|&i| records[i].process() == p).collect();
        own.sort_by_key(|&i| records[i].id.seq);
        let own: Vec<MOpIdx> = own.into_iter().map(MOpIdx).collect();
        assert_eq!(h.by_process(p), &own[..]);
        // Every id the window could have held, present or not.
        for seq in 0..=BOUNDS.mops_per_process as u32 {
            let id = MOpId::new(p, seq);
            assert_eq!(h.idx_of(id), position(&records, id), "{id}");
        }
    }

    let mut triples = BTreeSet::new();
    for a in 0..n {
        for b in 0..n {
            let (oa, ob) = (set_of(&records[a], false), set_of(&records[b], false));
            let (wa, wb) = (set_of(&records[a], true), set_of(&records[b], true));
            let conflict =
                a != b && (wa.iter().any(|o| ob.contains(o)) || wb.iter().any(|o| oa.contains(o)));
            assert_eq!(h.conflict(MOpIdx(a), MOpIdx(b)), conflict, "{a} {b}");
            for c in 0..n {
                let wc = set_of(&records[c], true);
                let reads_b_overwritten_by_c = reads(&records, a)
                    .iter()
                    .any(|&(o, w)| w == Some(MOpIdx(b)) && wc.contains(&o));
                assert_eq!(
                    h.interfere(MOpIdx(a), MOpIdx(b), MOpIdx(c)),
                    a != b && b != c && a != c && reads_b_overwritten_by_c,
                    "{a} {b} {c}"
                );
            }
        }
        for (o, w) in reads(&records, a) {
            for c in (0..n).filter(|&c| c != a && Some(MOpIdx(c)) != w) {
                if set_of(&records[c], true).contains(&o) {
                    triples.insert((MOpIdx(a), w, MOpIdx(c)));
                }
            }
        }
    }
    let triples: Vec<_> = triples.into_iter().collect();
    assert_eq!(h.interference_triples(), triples);

    // Equivalence looks at ids and operations, never at record order.
    let mut reversed = records.clone();
    reversed.reverse();
    assert!(h.equivalent(&History::new(BOUNDS.objects, reversed).unwrap()));
    if let Some(last) = records.last() {
        let mut shorter = records.clone();
        shorter.pop();
        // Dropping a record others read from leaves no history at all.
        if let Ok(other) = History::new(BOUNDS.objects, shorter.clone()) {
            assert!(!h.equivalent(&other) && !other.equivalent(&h));
        }
        let mut emptied = last.clone();
        emptied.ops.clear();
        shorter.push(emptied);
        if let Ok(other) = History::new(BOUNDS.objects, shorter) {
            assert_eq!(h.equivalent(&other), last.ops.is_empty());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn tables_match_the_records(seed in any::<u64>(), keep in any::<u32>(), order in any::<u64>()) {
        let h = arb::history_from_seed(seed, &BOUNDS);
        check_against_reference(h.records().to_vec());
        check_against_reference(window(&h, keep, order));
    }
}
