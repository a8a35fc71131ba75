//! # moc-workload
//!
//! Workload and history generators for exercising the multi-object
//! consistency protocols and checkers.
//!
//! * [`WorkloadSpec`] + [`scripts`] — randomized client scripts (mixes of
//!   multi-object queries, writes, read-modify-writes and DCAS, with a
//!   configurable update fraction, operation span and contention profile)
//!   for the protocol harness.
//! * [`histories`] — synthetic [`moc_core::History`] generators for the checker:
//!   serial (always admissible) and the adversarial reader/writer family
//!   whose brute-force verification cost grows combinatorially — the
//!   workloads behind the Theorem 1/2 benchmarks.
//! * [`arb`] — the one random grammar: programs, and histories with free
//!   read provenance (usually inadmissible), for the proptests, `moc
//!   synth` and `moc gen --kind random`.

use std::sync::Arc;

use moc_core::ids::ObjectId;
use moc_core::program::{arg, imm, reg, CmpOp, Program, ProgramBuilder};
use moc_protocol::{ClientScript, OpSpec};
use rand::rngs::StdRng;
use rand::Rng;

pub mod arb;
pub mod chaos;
pub mod histories;
pub mod skew;
pub mod synth;

/// Parameters of a randomized protocol workload.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadSpec {
    /// Number of processes (one script per process).
    pub processes: usize,
    /// m-operations per process.
    pub ops_per_process: usize,
    /// Size of the shared-object universe.
    pub num_objects: usize,
    /// Probability an operation is an update.
    pub update_fraction: f64,
    /// Maximum number of objects a single m-operation touches.
    pub max_span: usize,
    /// Fraction of object picks that hit the "hot" prefix of the universe.
    pub hot_fraction: f64,
    /// Size of the hot prefix.
    pub hot_objects: usize,
    /// Client think time between operations (ns of virtual time).
    pub think_ns: u64,
}

impl Default for WorkloadSpec {
    fn default() -> Self {
        WorkloadSpec {
            processes: 4,
            ops_per_process: 10,
            num_objects: 8,
            update_fraction: 0.5,
            max_span: 3,
            hot_fraction: 0.5,
            hot_objects: 2,
            think_ns: 100,
        }
    }
}

impl WorkloadSpec {
    /// Total m-operations the workload will issue.
    pub fn total_ops(&self) -> usize {
        self.processes * self.ops_per_process
    }
}

fn pick_object(spec: &WorkloadSpec, rng: &mut StdRng) -> ObjectId {
    let hot = spec.hot_objects.clamp(1, spec.num_objects);
    let idx = if rng.gen_bool(spec.hot_fraction.clamp(0.0, 1.0)) {
        rng.gen_range(0..hot)
    } else {
        rng.gen_range(0..spec.num_objects)
    };
    ObjectId::new(idx as u32)
}

fn pick_span(spec: &WorkloadSpec, rng: &mut StdRng) -> Vec<ObjectId> {
    let span = rng.gen_range(1..=spec.max_span.clamp(1, spec.num_objects));
    let mut objs = Vec::with_capacity(span);
    while objs.len() < span {
        let o = pick_object(spec, rng);
        if !objs.contains(&o) {
            objs.push(o);
        }
    }
    objs
}

/// A multi-object read program over the given objects.
pub fn query_program(objects: &[ObjectId]) -> Arc<Program> {
    let mut b = ProgramBuilder::new(format!("q{}", objects.len()));
    for (i, &o) in objects.iter().enumerate() {
        b.read(o, i as u8);
    }
    b.ret((0..objects.len()).map(|i| reg(i as u8)).collect());
    Arc::new(b.build().expect("query program is well-formed"))
}

/// A multi-object write program over the given objects (argument `i` goes
/// to object `i`).
pub fn write_program(objects: &[ObjectId]) -> Arc<Program> {
    let mut b = ProgramBuilder::new(format!("w{}", objects.len()));
    for (i, &o) in objects.iter().enumerate() {
        b.write(o, arg(i as u8));
    }
    b.ret(vec![]);
    Arc::new(b.build().expect("write program is well-formed"))
}

/// A read-modify-write incrementing every given object.
pub fn rmw_program(objects: &[ObjectId]) -> Arc<Program> {
    let mut b = ProgramBuilder::new(format!("rmw{}", objects.len()));
    for &o in objects {
        b.read(o, 0).add(0, reg(0), imm(1)).write(o, reg(0));
    }
    b.ret(vec![]);
    Arc::new(b.build().expect("rmw program is well-formed"))
}

/// A DCAS over two objects.
pub fn dcas_program(x: ObjectId, y: ObjectId) -> Arc<Program> {
    let mut b = ProgramBuilder::new("dcas");
    let fail = b.fresh_label();
    b.read(x, 0)
        .read(y, 1)
        .jump_if(reg(0), CmpOp::Ne, arg(0), fail)
        .jump_if(reg(1), CmpOp::Ne, arg(1), fail)
        .write(x, arg(2))
        .write(y, arg(3))
        .ret(vec![imm(1)]);
    b.bind(fail);
    b.ret(vec![imm(0)]);
    Arc::new(b.build().expect("dcas program is well-formed"))
}

/// A syntactic "update" whose only write is jumped over. The analyzer
/// flags the write as unreachable (MOC0001) and refines the whole program
/// to a query (MOC0006); the protocols then run it locally.
pub fn unreachable_write_program(x: ObjectId) -> Arc<Program> {
    let mut b = ProgramBuilder::new("dead-write");
    let end = b.fresh_label();
    b.read(x, 0).jump(end);
    b.write(x, imm(1));
    b.bind(end);
    b.ret(vec![reg(0)]);
    Arc::new(b.build().expect("dead-write program is well-formed"))
}

/// A program that stores a register no path has initialized — the
/// uninitialized-register-read (MOC0002) specimen. It still runs
/// (registers start at zero), which is exactly why it deserves a lint.
pub(crate) fn uninit_register_program(x: ObjectId) -> Arc<Program> {
    let mut b = ProgramBuilder::new("uninit-store");
    b.write(x, reg(4));
    b.ret(vec![]);
    Arc::new(b.build().expect("uninit-store program is well-formed"))
}

/// The example program set behind `moc analyze`: one representative of
/// each protocol workload shape plus two deliberately lint-triggering
/// specimens ([`unreachable_write_program`] and a program that reads an
/// uninitialised register).
pub fn demo_programs() -> Vec<Arc<Program>> {
    let x = ObjectId::new(0);
    let y = ObjectId::new(1);
    vec![
        query_program(&[x, y]),
        write_program(&[x, y]),
        rmw_program(&[x]),
        dcas_program(x, y),
        unreachable_write_program(x),
        uninit_register_program(y),
    ]
}

/// A program set with *disjoint* query and update footprints: the only
/// query reads object 0, and every update writes objects 1 and 2 only. No
/// conflicting pair ever involves a query, so the analyzer certifies all
/// three Section 4 constraints (OO, WW, WO) up front — contrast with
/// [`demo_programs`], whose query/update overlap makes OO uncertifiable.
/// The demo configuration behind `moc analyze --workload disjoint`.
pub fn disjoint_programs() -> Vec<Arc<Program>> {
    let x = ObjectId::new(0);
    let y = ObjectId::new(1);
    let z = ObjectId::new(2);
    vec![
        query_program(&[x]),
        write_program(&[y, z]),
        rmw_program(&[y]),
        dcas_program(y, z),
    ]
}

/// Programs for a cleanly shardable deployment: `num_shards` disjoint
/// object groups (objects `2s` and `2s+1` for group `s`), each with a
/// two-object writer, an rmw and a query, and no program bridging groups.
/// `moc shard` partitions this into exactly `num_shards` shards with no
/// cross-shard edges — the golden accept fixture of the shard gate.
pub fn shardable_programs(num_shards: usize) -> Vec<Arc<Program>> {
    let mut out = Vec::new();
    for s in 0..num_shards.max(1) {
        let x = ObjectId::new((2 * s) as u32);
        let y = ObjectId::new((2 * s + 1) as u32);
        let mut b = ProgramBuilder::new(format!("s{s}-w"));
        b.write(x, arg(0)).write(y, arg(1)).ret(vec![]);
        out.push(Arc::new(b.build().expect("shard writer is well-formed")));
        let mut b = ProgramBuilder::new(format!("s{s}-rmw"));
        b.read(x, 0)
            .add(0, reg(0), imm(1))
            .write(x, reg(0))
            .ret(vec![]);
        out.push(Arc::new(b.build().expect("shard rmw is well-formed")));
        let mut b = ProgramBuilder::new(format!("s{s}-q"));
        b.read(x, 0).read(y, 1).ret(vec![reg(0), reg(1)]);
        out.push(Arc::new(b.build().expect("shard query is well-formed")));
    }
    out
}

/// A blind cross-shard writer spanning the first two shards of the
/// [`shardable_programs`] layout (objects 0 and 2): it writes both and
/// reads nothing. Under a shard plan it routes to the global channel and
/// conflicts only with shards 0 and 1, so a commute certificate's
/// delivery plan lets replicas skip every other shard's barrier when
/// applying it — the fast-path fixture of the commute-gated delivery
/// tests. Being read-free matters: a cross-shard *reader* could observe
/// an IRIW-style split between shard channels, which is exactly what the
/// mover analysis (MOC0014 aside) refuses to certify away.
pub fn cross_shard_writer_program() -> Arc<Program> {
    let mut b = ProgramBuilder::new("x-w");
    b.write(ObjectId::new(0), arg(0))
        .write(ObjectId::new(2), arg(1))
        .ret(vec![]);
    Arc::new(b.build().expect("cross-shard writer is well-formed"))
}

/// Programs collapsed by one hub object: two otherwise-independent
/// groups ({0} and {1}) whose writers both also write the hub, object 2.
/// The interaction graph is a single component held together by the hub,
/// so `moc shard` finds one shard and flags MOC0010 — the reject fixture
/// of the shard gate. The hub is deliberately the *highest* object id:
/// under the sabotage [`moc_core::shard::RoutePolicy::FirstObject`] the
/// two writers' footprints start at different objects, so a mis-sharded
/// plan routes the conflicting hub writes into different channels.
pub fn hub_programs() -> Vec<Arc<Program>> {
    let a = ObjectId::new(0);
    let b_obj = ObjectId::new(1);
    let hub = ObjectId::new(2);
    let mut out = Vec::new();
    let mut b = ProgramBuilder::new("hub-w0");
    b.write(a, arg(0)).write(hub, arg(1)).ret(vec![]);
    out.push(Arc::new(b.build().expect("hub writer 0 is well-formed")));
    let mut b = ProgramBuilder::new("hub-w1");
    b.write(b_obj, arg(0)).write(hub, arg(1)).ret(vec![]);
    out.push(Arc::new(b.build().expect("hub writer 1 is well-formed")));
    let mut b = ProgramBuilder::new("hub-q0");
    b.read(a, 0).ret(vec![reg(0)]);
    out.push(Arc::new(b.build().expect("hub query 0 is well-formed")));
    let mut b = ProgramBuilder::new("hub-q1");
    b.read(b_obj, 0).ret(vec![reg(0)]);
    out.push(Arc::new(b.build().expect("hub query 1 is well-formed")));
    out
}

/// Process-confined client scripts over [`shardable_programs`]: process
/// `p` only ever touches shard `p % num_shards`'s objects. This is the
/// process-confinement side condition under which m-SC survives
/// per-shard sequencing (the certificate's `msc` verdict for multi-shard
/// plans); without it an IRIW-style split across shards is observable.
pub fn confined_scripts(
    num_shards: usize,
    processes: usize,
    ops_per_process: usize,
    think_ns: u64,
    rng: &mut StdRng,
) -> Vec<ClientScript> {
    let num_shards = num_shards.max(1);
    let programs = shardable_programs(num_shards);
    (0..processes)
        .map(|p| {
            let s = p % num_shards;
            let (w, rmw, q) = (&programs[3 * s], &programs[3 * s + 1], &programs[3 * s + 2]);
            let ops = (0..ops_per_process)
                .map(|_| match rng.gen_range(0..3u8) {
                    0 => OpSpec::new(
                        w.clone(),
                        vec![rng.gen_range(0..1_000), rng.gen_range(0..1_000)],
                    ),
                    1 => OpSpec::new(rmw.clone(), vec![]),
                    _ => OpSpec::new(q.clone(), vec![]),
                })
                .collect();
            ClientScript::new(ops).with_think_time(think_ns)
        })
        .collect()
}

/// [`confined_scripts`] with cross-shard traffic mixed in: each process
/// works its own shard but issues a [`cross_shard_writer_program`] write
/// every fourth operation. The cross writes route to the global channel
/// and conflict with shards 0 and 1 only, so with a commute plan
/// installed their delivery may bypass the barriers of shards `>= 2` —
/// the workload that exercises the certified delivery fast path while
/// keeping every data conflict barrier-ordered.
pub fn commuting_scripts(
    num_shards: usize,
    processes: usize,
    ops_per_process: usize,
    think_ns: u64,
    rng: &mut StdRng,
) -> Vec<ClientScript> {
    let num_shards = num_shards.max(1);
    let programs = shardable_programs(num_shards);
    let cross = cross_shard_writer_program();
    (0..processes)
        .map(|p| {
            let s = p % num_shards;
            let (w, rmw, q) = (&programs[3 * s], &programs[3 * s + 1], &programs[3 * s + 2]);
            let ops = (0..ops_per_process)
                .map(|i| {
                    if i % 4 == 3 {
                        OpSpec::new(
                            cross.clone(),
                            vec![rng.gen_range(0..1_000), rng.gen_range(0..1_000)],
                        )
                    } else {
                        match rng.gen_range(0..3u8) {
                            0 => OpSpec::new(
                                w.clone(),
                                vec![rng.gen_range(0..1_000), rng.gen_range(0..1_000)],
                            ),
                            1 => OpSpec::new(rmw.clone(), vec![]),
                            _ => OpSpec::new(q.clone(), vec![]),
                        }
                    }
                })
                .collect();
            ClientScript::new(ops).with_think_time(think_ns)
        })
        .collect()
}

/// Client scripts over [`hub_programs`] for the sabotage control: every
/// process alternates the two hub writers (whose hub-object writes
/// conflict) with a query on its own group.
pub fn hub_scripts(
    processes: usize,
    ops_per_process: usize,
    think_ns: u64,
    rng: &mut StdRng,
) -> Vec<ClientScript> {
    let programs = hub_programs();
    (0..processes)
        .map(|p| {
            let ops = (0..ops_per_process)
                .map(|i| match i % 3 {
                    0 => OpSpec::new(
                        programs[0].clone(),
                        vec![rng.gen_range(0..1_000), rng.gen_range(0..1_000)],
                    ),
                    1 => OpSpec::new(
                        programs[1].clone(),
                        vec![rng.gen_range(0..1_000), rng.gen_range(0..1_000)],
                    ),
                    _ => OpSpec::new(programs[2 + p % 2].clone(), vec![]),
                })
                .collect();
            ClientScript::new(ops).with_think_time(think_ns)
        })
        .collect()
}

/// Generates one random operation.
fn random_op(spec: &WorkloadSpec, rng: &mut StdRng) -> OpSpec {
    if rng.gen_bool(spec.update_fraction.clamp(0.0, 1.0)) {
        match rng.gen_range(0..3u8) {
            0 => {
                let objs = pick_span(spec, rng);
                let args = (0..objs.len()).map(|_| rng.gen_range(0..1_000)).collect();
                OpSpec::new(write_program(&objs), args)
            }
            1 => OpSpec::new(rmw_program(&pick_span(spec, rng)), vec![]),
            _ => {
                if spec.num_objects >= 2 {
                    let objs = loop {
                        let objs = pick_span(spec, rng);
                        if objs.len() >= 2 {
                            break objs;
                        }
                    };
                    OpSpec::new(
                        dcas_program(objs[0], objs[1]),
                        vec![
                            rng.gen_range(0..3),
                            rng.gen_range(0..3),
                            rng.gen_range(0..1_000),
                            rng.gen_range(0..1_000),
                        ],
                    )
                } else {
                    OpSpec::new(rmw_program(&pick_span(spec, rng)), vec![])
                }
            }
        }
    } else {
        OpSpec::new(query_program(&pick_span(spec, rng)), vec![])
    }
}

/// Generates randomized client scripts per `spec`, one per process.
pub fn scripts(spec: &WorkloadSpec, rng: &mut StdRng) -> Vec<ClientScript> {
    (0..spec.processes)
        .map(|_| {
            let ops = (0..spec.ops_per_process)
                .map(|_| random_op(spec, rng))
                .collect();
            ClientScript::new(ops).with_think_time(spec.think_ns)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn scripts_have_requested_shape() {
        let spec = WorkloadSpec {
            processes: 3,
            ops_per_process: 7,
            ..WorkloadSpec::default()
        };
        let mut rng = StdRng::seed_from_u64(1);
        let s = scripts(&spec, &mut rng);
        assert_eq!(s.len(), 3);
        assert!(s.iter().all(|c| c.ops.len() == 7));
        assert_eq!(spec.total_ops(), 21);
    }

    #[test]
    fn update_fraction_extremes() {
        let mut rng = StdRng::seed_from_u64(2);
        let all_updates = WorkloadSpec {
            update_fraction: 1.0,
            ..WorkloadSpec::default()
        };
        for s in scripts(&all_updates, &mut rng) {
            assert!(s.ops.iter().all(|o| o.program.is_potential_update()));
        }
        let all_queries = WorkloadSpec {
            update_fraction: 0.0,
            ..WorkloadSpec::default()
        };
        for s in scripts(&all_queries, &mut rng) {
            assert!(s.ops.iter().all(|o| !o.program.is_potential_update()));
        }
    }

    #[test]
    fn spans_respect_bounds() {
        let spec = WorkloadSpec {
            max_span: 2,
            num_objects: 4,
            ..WorkloadSpec::default()
        };
        let mut rng = StdRng::seed_from_u64(3);
        for s in scripts(&spec, &mut rng) {
            for op in &s.ops {
                assert!(op.program.referenced_objects().len() <= 2);
            }
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let spec = WorkloadSpec::default();
        let names = |seed: u64| -> Vec<String> {
            let mut rng = StdRng::seed_from_u64(seed);
            scripts(&spec, &mut rng)
                .into_iter()
                .flat_map(|s| s.ops.into_iter().map(|o| o.program.name().to_string()))
                .collect()
        };
        assert_eq!(names(7), names(7));
        assert_ne!(names(7), names(8));
    }

    #[test]
    fn demo_programs_are_valid_and_distinct() {
        let demos = demo_programs();
        assert!(demos.len() >= 6);
        let names: std::collections::BTreeSet<_> =
            demos.iter().map(|p| p.name().to_string()).collect();
        assert_eq!(names.len(), demos.len(), "demo program names are unique");
        // The two lint specimens look like updates to the syntactic rule.
        assert!(demos
            .iter()
            .any(|p| p.name() == "dead-write" && p.is_potential_update()));
        assert!(demos
            .iter()
            .any(|p| p.name() == "uninit-store" && p.is_potential_update()));
    }

    #[test]
    fn disjoint_programs_separate_query_and_update_footprints() {
        let progs = disjoint_programs();
        assert_eq!(progs.len(), 4);
        let queries: Vec<_> = progs.iter().filter(|p| !p.is_potential_update()).collect();
        let updates: Vec<_> = progs.iter().filter(|p| p.is_potential_update()).collect();
        assert!(!queries.is_empty() && !updates.is_empty());
        // No object referenced by a query is referenced by any update.
        let q_objs: std::collections::BTreeSet<_> = queries
            .iter()
            .flat_map(|p| p.referenced_objects())
            .collect();
        let u_objs: std::collections::BTreeSet<_> = updates
            .iter()
            .flat_map(|p| p.referenced_objects())
            .collect();
        assert!(q_objs.is_disjoint(&u_objs));
    }

    #[test]
    fn shardable_programs_keep_groups_disjoint() {
        let progs = shardable_programs(3);
        assert_eq!(progs.len(), 9);
        let names: std::collections::BTreeSet<_> =
            progs.iter().map(|p| p.name().to_string()).collect();
        assert_eq!(names.len(), progs.len(), "names are unique");
        // Group s touches exactly objects {2s, 2s+1}.
        for s in 0..3usize {
            let group: std::collections::BTreeSet<_> = progs[3 * s..3 * s + 3]
                .iter()
                .flat_map(|p| p.referenced_objects())
                .collect();
            let want: std::collections::BTreeSet<_> =
                [ObjectId::new(2 * s as u32), ObjectId::new(2 * s as u32 + 1)]
                    .into_iter()
                    .collect();
            assert_eq!(group, want);
        }
    }

    #[test]
    fn hub_programs_share_only_the_hub() {
        let progs = hub_programs();
        let hub = ObjectId::new(2);
        let writers: Vec<_> = progs.iter().filter(|p| p.is_potential_update()).collect();
        assert_eq!(writers.len(), 2);
        for w in &writers {
            assert!(w.potential_writes().contains(&hub));
        }
        // The writers' non-hub footprints are disjoint.
        let rest: Vec<std::collections::BTreeSet<_>> = writers
            .iter()
            .map(|w| {
                w.referenced_objects()
                    .into_iter()
                    .filter(|&o| o != hub)
                    .collect()
            })
            .collect();
        assert!(rest[0].is_disjoint(&rest[1]));
    }

    #[test]
    fn confined_scripts_respect_process_confinement() {
        let mut rng = StdRng::seed_from_u64(9);
        let s = confined_scripts(2, 4, 6, 100, &mut rng);
        assert_eq!(s.len(), 4);
        for (p, script) in s.iter().enumerate() {
            let shard = p % 2;
            let allowed: std::collections::BTreeSet<_> = [
                ObjectId::new(2 * shard as u32),
                ObjectId::new(2 * shard as u32 + 1),
            ]
            .into_iter()
            .collect();
            for op in &script.ops {
                assert!(op
                    .program
                    .referenced_objects()
                    .iter()
                    .all(|o| allowed.contains(o)));
            }
        }
    }

    #[test]
    fn single_object_universe_degenerates_gracefully() {
        let spec = WorkloadSpec {
            num_objects: 1,
            max_span: 3,
            update_fraction: 1.0,
            ..WorkloadSpec::default()
        };
        let mut rng = StdRng::seed_from_u64(4);
        let s = scripts(&spec, &mut rng);
        for c in &s {
            for op in &c.ops {
                assert!(op.program.referenced_objects().len() <= 1);
            }
        }
    }
}
