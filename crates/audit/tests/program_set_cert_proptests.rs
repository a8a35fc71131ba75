//! Property tests for the program-set certificate pipelines
//! (`moc-shard-cert` and `moc-commute-cert`).
//!
//! Random straight-line program sets exercise the contract between the
//! analyzer (`moc_analyze::shard_set`, `moc_analyze::commute_set`) and the
//! independent auditor (`moc_audit::audit_shard`,
//! `moc_audit::audit_commute`, which import only `moc-core`):
//!
//! * every certificate of either family the analyzer emits is accepted,
//!   and the audit verdict's census matches the certificate;
//! * programs with an empty write footprint are always classed
//!   read-only, and read-only programs commute with everything;
//! * guaranteed-invalid mutations are all rejected — for commute
//!   certificates fingerprint tampering, a version bump, a mover-class
//!   flip, an emptied matrix and a side-condition edit; for shard
//!   certificates a moved object, a dropped cross edge, a flipped
//!   composition verdict and a version bump.

use moc_analyze::{commute_set, shard_set, ShardOptions};
use moc_core::commute::MoverClass;
use moc_core::ids::ObjectId;
use moc_core::json::{self, Json};
use moc_core::program::{imm, reg, Program, ProgramBuilder};
use proptest::collection::vec;
use proptest::prelude::*;

const UNIVERSE: u32 = 4;

#[derive(Debug, Clone)]
enum Step {
    Read(u32),
    Write(u32, i64),
}

fn step() -> impl Strategy<Value = Step> {
    prop_oneof![
        (0..UNIVERSE).prop_map(Step::Read),
        (0..UNIVERSE, -4i64..4).prop_map(|(o, v)| Step::Write(o, v)),
    ]
}

fn program_set() -> impl Strategy<Value = Vec<Vec<Step>>> {
    vec(vec(step(), 0..4), 1..5)
}

/// A shard-size cap; `None` keeps the interaction components whole, a
/// small cap splits them and makes straddling programs.
fn cap() -> impl Strategy<Value = Option<usize>> {
    prop_oneof![Just(None), (1..3usize).prop_map(Some)]
}

fn build(name: &str, steps: &[Step]) -> Program {
    let mut b = ProgramBuilder::new(name);
    let mut regs = Vec::new();
    for (i, s) in steps.iter().enumerate() {
        match s {
            Step::Read(o) => {
                b.read(ObjectId::new(*o), i as u8);
                regs.push(reg(i as u8));
            }
            Step::Write(o, v) => {
                b.write(ObjectId::new(*o), imm(*v));
            }
        }
    }
    b.ret(regs);
    b.build().expect("generated programs are well-formed")
}

fn build_set(sets: &[Vec<Step>]) -> Vec<Program> {
    sets.iter()
        .enumerate()
        .map(|(i, steps)| build(&format!("p{i}"), steps))
        .collect()
}

/// Replaces the value at `path` (a chain of object keys) in a JSON
/// document, panicking if the path is absent — mutations must hit.
fn set_field(doc: &Json, path: &[&str], value: Json) -> Json {
    match doc {
        Json::Obj(fields) => {
            let (key, rest) = (path[0], &path[1..]);
            let mut out = Vec::with_capacity(fields.len());
            let mut hit = false;
            for (k, v) in fields {
                if k == key {
                    hit = true;
                    out.push((
                        k.clone(),
                        if rest.is_empty() {
                            value.clone()
                        } else {
                            set_field(v, rest, value.clone())
                        },
                    ));
                } else {
                    out.push((k.clone(), v.clone()));
                }
            }
            assert!(hit, "mutation path {path:?} missing from certificate");
            Json::Obj(out)
        }
        _ => panic!("mutation path {path:?} traverses a non-object"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn emitted_shard_certificates_pass_the_independent_audit(
        sets in program_set(),
        max_shard_size in cap(),
    ) {
        let programs = build_set(&sets);
        let refs: Vec<&Program> = programs.iter().collect();
        let cert = shard_set(&refs, UNIVERSE as usize, ShardOptions { max_shard_size }).cert;

        let v = moc_audit::audit_shard(&refs, &cert.to_json())
            .expect("analyzer-emitted certificate must audit");
        prop_assert_eq!(v.num_shards as usize, cert.shards.len());
        let single = cert.programs.iter().filter(|e| e.shard.is_some()).count();
        prop_assert_eq!(v.single_shard_programs, single);
        prop_assert_eq!(v.cross_edges, cert.cross_edges.len());
    }

    #[test]
    fn mutated_shard_certificates_are_rejected(
        sets in program_set(),
        max_shard_size in cap(),
    ) {
        let programs = build_set(&sets);
        let refs: Vec<&Program> = programs.iter().collect();
        let cert = shard_set(&refs, UNIVERSE as usize, ShardOptions { max_shard_size }).cert;
        let rejects = |bad: &str| moc_audit::audit_shard(&refs, bad).is_err();

        // Moved object: an object of a single-shard program changes
        // shard, so the program's footprint no longer closes in its own
        // (or the shard it left is empty, and the ids are not dense).
        let closed = cert.programs.iter().find_map(|e| {
            let first = e.claim.reads.iter().chain(&e.claim.writes).min()?;
            Some((e.shard?, *first))
        });
        if let Some((s, o)) = closed {
            let mut moved = cert.clone();
            moved.shards[s as usize].retain(|&x| x != o);
            let to = (s as usize + 1) % moved.shards.len();
            if to == s as usize {
                moved.shards.push(vec![o]);
            } else {
                moved.shards[to].push(o);
                moved.shards[to].sort_unstable();
            }
            prop_assert!(rejects(&moved.to_json()));
        }

        // Dropped cross edge: the auditor recomputes the full edge set.
        if !cert.cross_edges.is_empty() {
            let mut dropped = cert.clone();
            dropped.cross_edges.pop();
            prop_assert!(rejects(&dropped.to_json()));
        }

        // Flipped composition verdict: re-derived from the certificate.
        let mut flipped = cert.clone();
        flipped.composition.oo = !flipped.composition.oo;
        prop_assert!(rejects(&flipped.to_json()));

        // Version bump: unknown format versions are refused.
        let doc = json::parse(&cert.to_json()).unwrap();
        prop_assert!(rejects(&set_field(&doc, &["version"], Json::Num(2.0)).render()));
    }

    #[test]
    fn emitted_commute_certificates_pass_the_independent_audit(sets in program_set()) {
        let programs = build_set(&sets);
        let refs: Vec<&Program> = programs.iter().collect();
        let analysis = commute_set(&refs, UNIVERSE as usize);
        let cert = &analysis.cert;

        let v = moc_audit::audit_commute(&refs, &cert.to_json())
            .expect("analyzer-emitted certificate must audit");
        prop_assert_eq!(v.num_programs, programs.len());
        prop_assert_eq!(v.commuting_pairs, cert.matrix.num_commuting_pairs());
        let read_only = cert
            .programs
            .iter()
            .filter(|e| e.class == MoverClass::ReadOnly)
            .count();
        let non_movers = cert
            .programs
            .iter()
            .filter(|e| e.class == MoverClass::NonMover)
            .count();
        prop_assert_eq!(v.read_only, read_only);
        prop_assert_eq!(v.non_movers, non_movers);
    }

    #[test]
    fn read_only_programs_commute_with_everything(sets in program_set()) {
        let programs = build_set(&sets);
        let refs: Vec<&Program> = programs.iter().collect();
        let cert = commute_set(&refs, UNIVERSE as usize).cert;

        for (i, entry) in cert.programs.iter().enumerate() {
            prop_assert_eq!(
                entry.class == MoverClass::ReadOnly,
                entry.claim.writes.is_empty(),
                "read-only iff the write footprint is empty"
            );
            if entry.class == MoverClass::ReadOnly {
                for (j, other) in cert.programs.iter().enumerate() {
                    // Two queries always commute (including the
                    // self-pair), but a query still conflicts with
                    // writers of its read set — read-only is not
                    // both-mover.
                    if other.claim.writes.is_empty() {
                        prop_assert!(
                            cert.matrix.commutes(i, j),
                            "read-only programs must commute with each other"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn mutated_commute_certificates_are_rejected(sets in program_set()) {
        let programs = build_set(&sets);
        let refs: Vec<&Program> = programs.iter().collect();
        let cert = commute_set(&refs, UNIVERSE as usize).cert;
        let doc = json::parse(&cert.to_json()).unwrap();

        // Fingerprint tamper: the certificate no longer binds to the set.
        let bad = set_field(
            &doc,
            &["programs_fingerprint"],
            Json::Str("0000000000000000".into()),
        );
        prop_assert!(moc_audit::audit_commute(&refs, &bad.render()).is_err());

        // Version bump: unknown format versions are refused.
        let bad = set_field(&doc, &["version"], Json::Num(2.0));
        prop_assert!(moc_audit::audit_commute(&refs, &bad.render()).is_err());

        // Side-condition tamper: scoped semantics must survive verbatim.
        let bad = set_field(&doc, &["side_conditions"], Json::Arr(vec![]));
        prop_assert!(moc_audit::audit_commute(&refs, &bad.render()).is_err());

        // Mover-class flip: the classes are recomputed, so any flip hits.
        let mut flipped = cert.clone();
        for e in &mut flipped.programs {
            e.class = if e.class == MoverClass::NonMover {
                MoverClass::BothMover
            } else {
                MoverClass::NonMover
            };
        }
        prop_assert!(moc_audit::audit_commute(&refs, &flipped.to_json()).is_err());

        // Emptied matrix: every certificate commutes at least one pair
        // only when one exists; skip the (rare) fully-conflicting set.
        if !cert.matrix.cols.is_empty() {
            let zeros = vec![Json::Num(0.0); cert.programs.len() + 1];
            let empty = Json::Obj(vec![
                ("offsets".into(), Json::Arr(zeros)),
                ("cols".into(), Json::Arr(vec![])),
            ]);
            let bad = set_field(&doc, &["matrix"], empty);
            prop_assert!(moc_audit::audit_commute(&refs, &bad.render()).is_err());
        }
    }
}
