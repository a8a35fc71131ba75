//! The whole-configuration commutativity & mover pass.
//!
//! The conflict graph ([`crate::conflict`]) records which pairs of
//! programs *can* interact; this pass records the complement — which
//! pairs provably **commute** (neither may write an object the other may
//! touch, so both orders yield identical states and return values) — and
//! condenses each program's row into a Lipton-style [`MoverClass`]:
//!
//! * **read-only** — may write nothing; needs no sequencer stamp at all;
//! * **both-mover** — commutes with every other program;
//! * **right-mover** — commutes with every other *update*: its slot in
//!   the broadcast order is irrelevant to replica state, only query
//!   visibility pins it;
//! * **left-mover** — no query observes its writes: it must keep its
//!   update-order slot but can move freely past queries;
//! * **non-mover** — pinned by an update and a query.
//!
//! The emitted [`CommuteCert`] (format `moc-commute-cert` v1) carries the
//! full pairwise matrix in CSR form plus the per-program classes, bound
//! to the program set by fingerprint and independently re-validated by
//! `moc-audit` in O(pairs). Downstream, the checker's search engine uses
//! pairwise commutation to prune symmetric interleavings, and the sharded
//! broadcast applies commuting deliveries without cross-shard barrier
//! waits.

use moc_core::commute::{
    derive_class, CommuteMatrix, CommuteProgramEntry, MoverClass, COMMUTE_SIDE_CONDITIONS,
};
use moc_core::program::Program;
use moc_core::shard::{fingerprint_programs, ShardPlan};
use moc_core::CommuteCert;

use crate::conflict::SetAnalysis;
use crate::diagnostics::{Finding, Lint};
use crate::shard::{shard_set, ShardOptions};

/// The pass's result: the conflict analysis it builds on, the baseline
/// shard partition (for the MOC0014 cross-shard lint), the certificate,
/// and findings.
#[derive(Debug, Clone)]
pub struct MoverAnalysis {
    /// The underlying conflict-graph analysis (shared source of truth).
    pub set: SetAnalysis,
    /// The baseline shard partition the straddle lint is judged against.
    pub plan: ShardPlan,
    /// Shard spans of each program under `plan` (ascending, deduplicated).
    pub spans: Vec<Vec<u32>>,
    /// The proof document, independently re-validatable by `moc-audit`.
    pub cert: CommuteCert,
    /// Mover-specific findings (MOC0012–MOC0014 plus summaries), in
    /// addition to [`SetAnalysis::all_findings`].
    pub findings: Vec<Finding>,
}

impl MoverAnalysis {
    /// All findings: the set analysis's, then the mover pass's.
    pub fn all_findings(&self) -> Vec<Finding> {
        let mut out = self.set.all_findings();
        out.extend(self.findings.iter().cloned());
        out
    }
}

/// Runs the commutativity & mover pass over a program set.
///
/// `num_objects` sizes the object universe exactly as in
/// [`crate::shard::shard_set`] (extended to cover every referenced
/// object). The baseline shard partition — connected components of the
/// object-interaction graph, no size cap — anchors the MOC0014 lint.
pub fn commute_set(programs: &[&Program], num_objects: usize) -> MoverAnalysis {
    commute_set_with(programs, num_objects, ShardOptions::default())
}

/// [`commute_set`] against an explicit shard configuration — a capped
/// partition produces straddling programs, the input of MOC0014.
pub fn commute_set_with(
    programs: &[&Program],
    num_objects: usize,
    opts: ShardOptions,
) -> MoverAnalysis {
    let shard = shard_set(programs, num_objects, opts);
    let spans: Vec<Vec<u32>> = shard
        .cert
        .programs
        .iter()
        .map(|p| p.spans.clone())
        .collect();

    // The commute entries reuse the shard pass's claims verbatim, so the
    // two certificates of one configuration can never disagree about
    // what a program may touch.
    let mut entries: Vec<CommuteProgramEntry> = shard
        .cert
        .programs
        .iter()
        .map(|p| CommuteProgramEntry {
            claim: p.claim.clone(),
            class: MoverClass::NonMover, // placeholder, assigned below
        })
        .collect();
    for i in 0..entries.len() {
        entries[i].class = derive_class(&entries, i);
    }
    let matrix = CommuteMatrix::derive(&entries);

    let mut findings = Vec::new();
    let n = entries.len();
    if n >= 2 && matrix.num_distinct_commuting_pairs() == 0 {
        findings.push(Finding::new(
            Lint::AllPairsConflict,
            "",
            None,
            format!(
                "every distinct pair of the {n} programs conflicts: the commutativity \
                 fast path cannot apply anywhere in this configuration"
            ),
        ));
    }

    for (i, e) in entries.iter().enumerate() {
        if e.class == MoverClass::ReadOnly && programs[i].is_potential_update() {
            findings.push(Finding::new(
                Lint::ReadOnlyProgramInGlobalOrder,
                e.claim.name.clone(),
                None,
                "read-only after refinement but syntactically an update: the protocol \
                 would stamp it into the global broadcast order; the commute \
                 certificate lets it skip sequencer stamping entirely"
                    .to_string(),
            ));
        }
    }

    // MOC0014: a commuting pair with a straddling endpoint — the global
    // channel's barrier discipline orders the pair, but nothing requires
    // that order.
    for i in 0..n {
        for &j in matrix.row(i) {
            let j = j as usize;
            if j <= i {
                continue;
            }
            if spans[i].len() >= 2 || spans[j].len() >= 2 {
                findings.push(Finding::new(
                    Lint::CommutingPairStraddlesShards,
                    "",
                    None,
                    format!(
                        "programs '{}' and '{}' commute, yet one straddles shards: \
                         the cross-shard barrier between them is unnecessary",
                        entries[i].claim.name, entries[j].claim.name
                    ),
                ));
            }
        }
    }

    let classes = |class: MoverClass| entries.iter().filter(|e| e.class == class).count();
    findings.push(Finding::new(
        Lint::Certificate,
        "",
        None,
        format!(
            "commutativity: {}/{} unordered pairs commute; classes: {} read-only, \
             {} both-mover, {} right-mover, {} left-mover, {} non-mover",
            matrix.num_commuting_pairs(),
            n * (n + 1) / 2,
            classes(MoverClass::ReadOnly),
            classes(MoverClass::BothMover),
            classes(MoverClass::RightMover),
            classes(MoverClass::LeftMover),
            classes(MoverClass::NonMover),
        ),
    ));

    let cert = CommuteCert {
        num_objects: shard.cert.num_objects,
        programs_fp: fingerprint_programs(programs),
        programs: entries,
        matrix,
        side_conditions: COMMUTE_SIDE_CONDITIONS
            .iter()
            .map(|s| s.to_string())
            .collect(),
    };

    MoverAnalysis {
        set: shard.set,
        plan: shard.plan,
        spans,
        cert,
        findings,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moc_core::ids::ObjectId;
    use moc_core::program::{arg, imm, reg, ProgramBuilder};

    fn oid(i: u32) -> ObjectId {
        ObjectId::new(i)
    }

    fn write_prog(name: &str, objs: &[u32]) -> Program {
        let mut b = ProgramBuilder::new(name);
        for &o in objs {
            b.write(oid(o), arg(0));
        }
        b.ret(vec![]);
        b.build().unwrap()
    }

    fn read_prog(name: &str, objs: &[u32]) -> Program {
        let mut b = ProgramBuilder::new(name);
        for (i, &o) in objs.iter().enumerate() {
            b.read(oid(o), i as u8);
        }
        b.ret(vec![reg(0)]);
        b.build().unwrap()
    }

    #[test]
    fn disjoint_writers_commute_and_classify() {
        let w0 = write_prog("w0", &[0]);
        let w1 = write_prog("w1", &[1]);
        let q2 = read_prog("q2", &[2]);
        let a = commute_set(&[&w0, &w1, &q2], 3);
        assert!(a.cert.matrix.commutes(0, 1));
        assert!(a.cert.matrix.commutes(0, 2));
        assert!(!a.cert.matrix.commutes(0, 0), "self WW conflicts");
        assert!(a.cert.matrix.commutes(2, 2));
        assert_eq!(a.cert.programs[0].class, MoverClass::BothMover);
        assert_eq!(a.cert.programs[1].class, MoverClass::BothMover);
        assert_eq!(a.cert.programs[2].class, MoverClass::ReadOnly);
        assert!(a.findings.iter().all(|f| f.lint != Lint::AllPairsConflict));
    }

    #[test]
    fn all_conflicting_pairs_raise_moc0012() {
        let w = write_prog("wx", &[0]);
        let rmw = {
            let mut b = ProgramBuilder::new("rmw");
            b.read(oid(0), 0).write(oid(0), reg(0)).ret(vec![reg(0)]);
            b.build().unwrap()
        };
        let a = commute_set(&[&w, &rmw], 1);
        assert!(a.findings.iter().any(|f| f.lint == Lint::AllPairsConflict));
        assert_eq!(a.cert.matrix.num_commuting_pairs(), 0);
        assert_eq!(a.cert.programs[0].class, MoverClass::LeftMover);
        assert_eq!(a.cert.programs[1].class, MoverClass::LeftMover);
    }

    #[test]
    fn refined_read_only_update_raises_moc0013() {
        // A syntactic update whose only write is unreachable: read-only
        // after refinement, yet the conservative protocol would stamp it.
        let mut b = ProgramBuilder::new("dead-write");
        let end = b.fresh_label();
        b.read(oid(0), 0).jump(end);
        b.write(oid(1), imm(1));
        b.bind(end);
        b.ret(vec![reg(0)]);
        let dead = b.build().unwrap();
        assert!(dead.is_potential_update());
        let a = commute_set(&[&dead], 2);
        assert_eq!(a.cert.programs[0].class, MoverClass::ReadOnly);
        assert!(a.cert.programs[0].claim.refined);
        assert!(a
            .findings
            .iter()
            .any(|f| f.lint == Lint::ReadOnlyProgramInGlobalOrder && f.program == "dead-write"));
        // A plain query never triggers it: it was never in the order.
        let q = read_prog("q", &[0]);
        let a = commute_set(&[&q], 1);
        assert!(a
            .findings
            .iter()
            .all(|f| f.lint != Lint::ReadOnlyProgramInGlobalOrder));
    }

    #[test]
    fn commuting_pair_with_straddler_raises_moc0014() {
        // bridge spans objects {0,1} which split across the two baseline
        // components {0,1} (merged by bridge itself)... so build a real
        // straddler: components {0},{1} are merged by bridge — baseline
        // puts them in ONE shard then. Use disjoint pairs plus a bridge
        // over a third pair to get a genuine multi-shard baseline.
        let w0 = write_prog("w0", &[0]);
        let w1 = write_prog("w1", &[1]);
        let bridge = write_prog("bridge", &[2, 3]);
        let w4 = write_prog("w4", &[4]);
        // Baseline components: {0}, {1}, {2,3}, {4} — no straddler, so
        // no MOC0014 yet even though pairs commute.
        let a = commute_set(&[&w0, &w1, &bridge, &w4], 5);
        assert!(a
            .findings
            .iter()
            .all(|f| f.lint != Lint::CommutingPairStraddlesShards));
        // The pass only sees baseline partitions, so a straddler needs a
        // footprint bridging two *other* programs' components: w01 writes
        // {0,1}... that merges them. The honest straddle case comes from
        // capped shard plans; at baseline it is exactly the cross-shard
        // query: q02 reads objects of two write components, merging them
        // into one baseline shard — still no straddler. So: MOC0014 is
        // unreachable at baseline by construction (a footprint inside one
        // shard), EXCEPT via programs whose footprint is split by the
        // idle-shard boundary — e.g. a query over an idle object and a
        // live one? The idle shard gathers untouched objects only, so
        // that cannot happen either. The lint therefore fires through
        // the capped entry point below.
        let spans_multi = a.spans.iter().filter(|s| s.len() >= 2).count();
        assert_eq!(spans_multi, 0);
    }

    #[test]
    fn capped_commute_pass_flags_unnecessary_barriers() {
        let a = commute_set_with(
            &[
                &write_prog("w01", &[0, 1]),
                &write_prog("w12", &[1, 2]),
                &write_prog("w3", &[3]),
            ],
            4,
            ShardOptions {
                max_shard_size: Some(2),
            },
        );
        // Some writer straddles the capped split; w3 commutes with every
        // other program, so the barrier between w3 and the straddler is
        // unnecessary.
        assert!(a.spans.iter().any(|s| s.len() >= 2));
        assert!(a
            .findings
            .iter()
            .any(|f| f.lint == Lint::CommutingPairStraddlesShards));
    }

    #[test]
    fn cert_binds_to_the_program_set_and_round_trips() {
        let w0 = write_prog("w0", &[0]);
        let q1 = read_prog("q1", &[1]);
        let a = commute_set(&[&w0, &q1], 2);
        assert_eq!(a.cert.programs_fp, fingerprint_programs(&[&w0, &q1]));
        let text = a.cert.to_json();
        let back = CommuteCert::parse(&text).unwrap();
        assert_eq!(back, a.cert);
        assert_eq!(
            back.side_conditions,
            COMMUTE_SIDE_CONDITIONS
                .iter()
                .map(|s| s.to_string())
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn pass_is_deterministic() {
        let progs: Vec<Program> = (0..5)
            .map(|i| write_prog(&format!("w{i}"), &[i, (i + 1) % 5]))
            .collect();
        let refs: Vec<&Program> = progs.iter().collect();
        let a = commute_set(&refs, 5);
        let b = commute_set(&refs, 5);
        assert_eq!(a.cert, b.cert);
        assert_eq!(a.cert.to_json(), b.cert.to_json());
    }
}
