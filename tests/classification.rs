//! The protocol class `MOperation::new` gives a program against the
//! classification it had when every invocation ran the analyzer: the
//! refined write set decides, except past the analysis size limit, where
//! the syntactic one does. A program without a `Write` instruction is now
//! a query without analysis; nothing else may change.

use std::sync::Arc;

use moc_analyze::analyze_program;
use moc_core::ids::{MOpId, ObjectId, ProcessId};
use moc_core::mop::MOpClass;
use moc_core::program::{imm, reg, Instr, Program, ProgramBuilder};
use moc_protocol::MOperation;
use moc_workload::arb::{self, ProgramBounds};
use moc_workload::{scripts, WorkloadSpec};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Instruction count past which the protocols skip the analyzer
/// (`ANALYZE_LIMIT` in moc-protocol).
const ANALYZE_LIMIT: usize = 4096;

/// The classification before the syntactic shortcut: the analyzer for
/// every program within the limit, the syntactic write set past it.
fn reference_is_update(p: &Program) -> bool {
    if p.instrs().len() > ANALYZE_LIMIT {
        !p.potential_writes().is_empty()
    } else {
        analyze_program(p).summary.is_update()
    }
}

fn class_of(p: &Arc<Program>) -> MOpClass {
    MOperation::new(MOpId::new(ProcessId::new(0), 0), Arc::clone(p), vec![0; 8]).class()
}

fn assert_same_class(p: &Arc<Program>) {
    let expected = if reference_is_update(p) {
        MOpClass::Update
    } else {
        MOpClass::Query
    };
    assert_eq!(class_of(p), expected, "{}: {:?}", p.name(), p.instrs());
    let has_write = p.instrs().iter().any(|i| matches!(i, Instr::Write { .. }));
    assert_eq!(p.is_potential_update(), has_write, "{}", p.name());
    assert_eq!(p.is_potential_update(), !p.potential_writes().is_empty());
}

/// Every program the workload registry and the protocol workloads build.
#[test]
fn registry_programs_keep_their_class() {
    let (x, y, z) = (ObjectId::new(0), ObjectId::new(1), ObjectId::new(2));
    let mut programs = moc_workload::demo_programs();
    programs.extend(moc_workload::disjoint_programs());
    programs.extend(moc_workload::shardable_programs(3));
    programs.extend(moc_workload::hub_programs());
    programs.push(moc_workload::cross_shard_writer_program());
    programs.push(moc_workload::unreachable_write_program(z));
    for objects in [&[x][..], &[x, y], &[x, y, z], &[x, y, z, ObjectId::new(3)]] {
        programs.push(moc_workload::query_program(objects));
        programs.push(moc_workload::rmw_program(objects));
        programs.push(moc_workload::write_program(objects));
    }
    programs.push(moc_workload::dcas_program(x, y));
    for seed in 0..8 {
        let spec = WorkloadSpec {
            update_fraction: 0.5,
            max_span: 4,
            ..WorkloadSpec::default()
        };
        let mut rng = StdRng::seed_from_u64(seed);
        programs.extend(
            scripts(&spec, &mut rng)
                .into_iter()
                .flat_map(|s| s.ops)
                .map(|op| op.program),
        );
    }
    for p in &programs {
        assert_same_class(p);
    }
    let queries = programs
        .iter()
        .filter(|p| class_of(p) == MOpClass::Query)
        .count();
    assert!(
        queries > 0 && queries < programs.len(),
        "{queries} of {}",
        programs.len()
    );
}

/// A syntactic update whose writes are all jumped over is still refined
/// to a query: the analyzer still runs for every program that writes.
#[test]
fn the_refined_query_still_runs_the_analyzer() {
    let p = moc_workload::unreachable_write_program(ObjectId::new(0));
    assert!(p.is_potential_update());
    assert_eq!(class_of(&p), MOpClass::Query);
}

/// The grammar's programs within the limit, and long ones past it with and
/// without a write.
#[test]
fn arb_programs_keep_their_class() {
    let bounds = ProgramBounds::default();
    let mut queries = 0;
    for seed in 0..2_400u64 {
        let p = Arc::new(arb::program_from_seed(seed, &bounds));
        queries += usize::from(class_of(&p) == MOpClass::Query);
        assert_same_class(&p);
    }
    assert!(queries > 100, "{queries} queries of 2400");

    let long = ProgramBounds {
        objects: 4,
        max_len: 2 * ANALYZE_LIMIT,
    };
    for seed in 0..8u64 {
        assert_same_class(&Arc::new(arb::program_from_seed(seed, &long)));
    }
    for (write, class) in [(false, MOpClass::Query), (true, MOpClass::Update)] {
        let mut b = ProgramBuilder::new("long");
        for k in 0..=ANALYZE_LIMIT {
            b.read(ObjectId::new((k % 4) as u32), 0);
        }
        if write {
            b.write(ObjectId::new(1), reg(0));
        }
        b.ret(vec![imm(0)]);
        let p = Arc::new(b.build().expect("long program is well-formed"));
        assert!(p.instrs().len() > ANALYZE_LIMIT);
        assert_eq!(class_of(&p), class);
        assert_same_class(&p);
    }
}
