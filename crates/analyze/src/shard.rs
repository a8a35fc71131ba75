//! The whole-configuration shardability pass.
//!
//! The conflict graph ([`crate::conflict`]) already knows which objects a
//! deployment's programs can make interact: every program footprint is a
//! clique over the objects it may touch. This pass condenses that
//! interaction structure into **shards** — groups of objects no single
//! program bridges — and emits a versioned [`ShardCert`] carrying the
//! proof obligations a sharded ordering layer needs:
//!
//! * every single-shard program's read/write footprint is closed within
//!   its shard (so a per-shard sequencer sees every conflict it must
//!   order);
//! * every cross-shard program is enumerated together with the exact
//!   conflict edges (object + WW/RW kind) that force it onto the global
//!   order;
//! * a composition verdict states which constraint classes (OO/WW/WO,
//!   Theorem 7) remain enforced under per-shard sequencing, and under
//!   which dynamic side conditions m-SC and m-lin survive composition
//!   (Gotsman–Burckhardt: m-SC does *not* compose in general; m-lin does,
//!   by locality).
//!
//! The baseline partition is the connected components of the interaction
//! graph. When a component exceeds `max_shard_size`, a greedy min-cut
//! refinement splits it — deliberately trading cross-shard programs
//! (which fall back to the global order, lint MOC0009) for bounded shard
//! size. A *hub object* whose removal would disconnect its component is
//! flagged (MOC0010): one over-shared object is usually the single reason
//! a configuration cannot shard.

use std::collections::{BTreeMap, BTreeSet};

use moc_core::claim::ProgramClaim;
use moc_core::ids::ObjectId;
use moc_core::program::Program;
use moc_core::shard::{
    fingerprint_programs, ShardComposition, ShardCrossEdge, ShardEdgeKind, ShardPlan,
    ShardProgramEntry,
};
use moc_core::ShardCert;

use crate::conflict::{analyze_set, SetAnalysis};
use crate::diagnostics::{Finding, Lint};

/// Knobs of the shardability pass.
#[derive(Debug, Clone, Copy, Default)]
pub struct ShardOptions {
    /// When set, components larger than this are split by the greedy
    /// refinement, at the cost of cross-shard programs.
    pub max_shard_size: Option<usize>,
}

/// The pass's result: the partition, its certificate, and findings.
#[derive(Debug, Clone)]
pub struct ShardAnalysis {
    /// The underlying conflict-graph analysis (shared source of truth).
    pub set: SetAnalysis,
    /// The object partition.
    pub plan: ShardPlan,
    /// The proof document, independently re-validatable by `moc-audit`.
    pub cert: ShardCert,
    /// Shard-specific findings (MOC0009–MOC0011 plus summaries), in
    /// addition to [`SetAnalysis::all_findings`].
    pub findings: Vec<Finding>,
}

impl ShardAnalysis {
    /// All findings: the set analysis's, then the shard pass's.
    pub fn all_findings(&self) -> Vec<Finding> {
        let mut out = self.set.all_findings();
        out.extend(self.findings.iter().cloned());
        out
    }
}

struct UnionFind {
    parent: Vec<usize>,
}

impl UnionFind {
    fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n).collect(),
        }
    }

    fn find(&mut self, v: usize) -> usize {
        let mut root = v;
        while self.parent[root] != root {
            root = self.parent[root];
        }
        let mut cur = v;
        while self.parent[cur] != root {
            let next = self.parent[cur];
            self.parent[cur] = root;
            cur = next;
        }
        root
    }

    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            self.parent[ra.max(rb)] = ra.min(rb);
        }
    }
}

fn footprint(set: &SetAnalysis, i: usize) -> BTreeSet<ObjectId> {
    let s = &set.programs[i].summary;
    s.may_read.union(&s.may_write).copied().collect()
}

/// Connected components of the object-interaction graph induced by the
/// given footprints, over the objects in `universe`. Components are
/// ordered by smallest member; only touched objects appear.
fn interaction_components(
    universe: &BTreeSet<ObjectId>,
    footprints: &[BTreeSet<ObjectId>],
) -> Vec<Vec<ObjectId>> {
    let index: BTreeMap<ObjectId, usize> =
        universe.iter().enumerate().map(|(i, &o)| (o, i)).collect();
    let mut uf = UnionFind::new(universe.len());
    let mut touched = vec![false; universe.len()];
    for fp in footprints {
        let mut prev: Option<usize> = None;
        for o in fp {
            let Some(&i) = index.get(o) else { continue };
            touched[i] = true;
            if let Some(p) = prev {
                uf.union(p, i);
            }
            prev = Some(i);
        }
    }
    let mut by_root: BTreeMap<usize, Vec<ObjectId>> = BTreeMap::new();
    for (&o, &i) in &index {
        if touched[i] {
            by_root.entry(uf.find(i)).or_default().push(o);
        }
    }
    let mut comps: Vec<Vec<ObjectId>> = by_root.into_values().collect();
    comps.sort_by_key(|c| c[0]);
    comps
}

/// Greedy min-cut split of an oversized component into bins of at most
/// `cap` objects. Objects are placed highest-degree first, each into the
/// bin sharing the most program footprints with it — the placement that
/// adds the fewest newly-straddled programs at each step.
fn greedy_split(
    comp: &[ObjectId],
    footprints: &[BTreeSet<ObjectId>],
    cap: usize,
) -> Vec<Vec<ObjectId>> {
    let degree = |o: ObjectId| footprints.iter().filter(|fp| fp.contains(&o)).count();
    let mut order: Vec<ObjectId> = comp.to_vec();
    // Descending degree, ascending id for determinism.
    order.sort_by_key(|&o| (usize::MAX - degree(o), o));

    let mut bins: Vec<Vec<ObjectId>> = Vec::new();
    for &o in &order {
        let mut best: Option<(usize, usize)> = None; // (affinity, bin)
        for (b, bin) in bins.iter().enumerate() {
            if bin.len() >= cap {
                continue;
            }
            // Affinity: how many footprints join `o` with this bin.
            let affinity = footprints
                .iter()
                .filter(|fp| fp.contains(&o) && bin.iter().any(|x| fp.contains(x)))
                .count();
            let better = match best {
                None => true,
                Some((a, _)) => affinity > a,
            };
            if better {
                best = Some((affinity, b));
            }
        }
        match best {
            Some((_, b)) => bins[b].push(o),
            None => bins.push(vec![o]),
        }
    }
    for bin in &mut bins {
        bin.sort_unstable();
    }
    bins.sort_by_key(|b| b[0]);
    bins
}

/// Objects of `comp` whose removal disconnects the component's
/// interaction graph — the hub objects of MOC0010.
fn hub_objects(comp: &[ObjectId], footprints: &[BTreeSet<ObjectId>]) -> Vec<ObjectId> {
    if comp.len() < 3 {
        return Vec::new();
    }
    let comp_set: BTreeSet<ObjectId> = comp.iter().copied().collect();
    let mut hubs = Vec::new();
    for &o in comp {
        let rest: BTreeSet<ObjectId> = comp_set.iter().copied().filter(|&x| x != o).collect();
        let reduced: Vec<BTreeSet<ObjectId>> = footprints
            .iter()
            .map(|fp| fp.iter().copied().filter(|&x| x != o).collect())
            .collect();
        if interaction_components(&rest, &reduced).len() >= 2 {
            hubs.push(o);
        }
    }
    hubs
}

/// Runs the shardability pass over a program set.
///
/// `num_objects` sizes the object universe; it is extended to cover
/// every referenced object, and objects no program touches are gathered
/// into one trailing idle shard.
pub fn shard_set(programs: &[&Program], num_objects: usize, opts: ShardOptions) -> ShardAnalysis {
    let set = analyze_set(programs, &[]);
    let footprints: Vec<BTreeSet<ObjectId>> = (0..set.programs.len())
        .map(|i| footprint(&set, i))
        .collect();

    let max_ref = footprints
        .iter()
        .flat_map(|fp| fp.iter())
        .map(|o| o.index() + 1)
        .max()
        .unwrap_or(0);
    let num_objects = num_objects.max(max_ref).max(1);
    let universe: BTreeSet<ObjectId> = (0..num_objects).map(|i| ObjectId::new(i as u32)).collect();

    let mut findings = Vec::new();

    // Baseline: connected components of the interaction graph.
    let components = interaction_components(&universe, &footprints);

    // Hub diagnosis runs on the baseline components, before any split:
    // the hub is the *reason* the baseline could not do better.
    for comp in &components {
        for hub in hub_objects(comp, &footprints) {
            findings.push(Finding::new(
                Lint::HubObjectCollapsesPartition,
                "",
                None,
                format!(
                    "object {hub} is a hub: removing it would split its {}-object \
                     interaction component into independent shards",
                    comp.len()
                ),
            ));
        }
    }

    // Refinement: split components the cap forbids.
    let mut shards: Vec<Vec<ObjectId>> = Vec::new();
    for comp in &components {
        match opts.max_shard_size {
            Some(cap) if cap > 0 && comp.len() > cap => {
                shards.extend(greedy_split(comp, &footprints, cap));
            }
            _ => shards.push(comp.clone()),
        }
    }
    // Idle shard: objects no program touches.
    let touched: BTreeSet<ObjectId> = shards.iter().flatten().copied().collect();
    let idle: Vec<ObjectId> = universe.difference(&touched).copied().collect();
    if !idle.is_empty() {
        shards.push(idle);
    }

    let mut shard_of = vec![0u32; num_objects];
    for (s, objs) in shards.iter().enumerate() {
        for o in objs {
            shard_of[o.index()] = s as u32;
        }
    }
    let plan = ShardPlan::new(shard_of).expect("pass emits a dense total partition");

    // Program entries: claimed (refined) footprints, shard spans.
    let entries: Vec<ShardProgramEntry> = set
        .programs
        .iter()
        .enumerate()
        .map(|(i, p)| {
            let s = &p.summary;
            let spans: Vec<u32> = {
                let mut sp: Vec<u32> = footprints[i].iter().map(|&o| plan.shard_of(o)).collect();
                sp.sort_unstable();
                sp.dedup();
                sp
            };
            let prog = programs[i];
            let refined = s.may_read != prog.potential_reads()
                || s.may_write != prog.potential_writes()
                || s.is_update() != prog.is_potential_update();
            ShardProgramEntry {
                claim: ProgramClaim {
                    name: s.name.clone(),
                    update: s.is_update(),
                    refined,
                    reads: s.may_read.iter().copied().collect(),
                    writes: s.may_write.iter().copied().collect(),
                },
                shard: if spans.len() == 1 {
                    Some(spans[0])
                } else {
                    None
                },
                spans,
            }
        })
        .collect();

    // Cross-shard edges: every conflict edge touching a straddler needs
    // the global order; enumerate it object by object so the auditor can
    // check nothing was silently dropped.
    let straddles = |i: usize| entries[i].spans.len() >= 2;
    let mut cross_edges = Vec::new();
    for e in &set.graph.edges {
        if !(straddles(e.a) || straddles(e.b)) {
            continue;
        }
        for &obj in &e.write_write {
            cross_edges.push(ShardCrossEdge {
                a: e.a,
                b: e.b,
                object: obj,
                kind: ShardEdgeKind::Ww,
            });
        }
        for &obj in &e.read_write {
            cross_edges.push(ShardCrossEdge {
                a: e.a,
                b: e.b,
                object: obj,
                kind: ShardEdgeKind::Rw,
            });
        }
    }

    for (i, entry) in entries.iter().enumerate() {
        if straddles(i) {
            let spans = entry
                .spans
                .iter()
                .map(|s| s.to_string())
                .collect::<Vec<_>>()
                .join(", ");
            findings.push(Finding::new(
                Lint::ProgramStraddlesShards,
                entry.claim.name.clone(),
                None,
                format!(
                    "footprint spans shards {{{spans}}}: every instance falls back \
                     to the global order"
                ),
            ));
            if !entry.claim.update {
                findings.push(Finding::new(
                    Lint::QueryPinsTwoShards,
                    entry.claim.name.clone(),
                    None,
                    format!(
                        "query reads across shards {{{spans}}}: OO cannot be \
                         certified per-shard"
                    ),
                ));
            }
        }
    }

    let composition = ShardComposition::derive(plan.num_shards(), &entries, &cross_edges);
    let single = entries.iter().filter(|e| e.shard.is_some()).count();
    findings.push(Finding::new(
        Lint::Certificate,
        "",
        None,
        format!(
            "shard partition: {} shard{}, {}/{} programs single-shard, {} cross-shard \
             edge{}; per-shard enforcement: oo={} ww={} wo={}",
            plan.num_shards(),
            if plan.num_shards() == 1 { "" } else { "s" },
            single,
            entries.len(),
            cross_edges.len(),
            if cross_edges.len() == 1 { "" } else { "s" },
            composition.oo,
            composition.ww,
            composition.wo,
        ),
    ));

    let cert = ShardCert {
        num_objects,
        programs_fp: fingerprint_programs(programs),
        shards,
        programs: entries,
        cross_edges,
        composition,
    };

    ShardAnalysis {
        set,
        plan,
        cert,
        findings,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moc_core::program::{arg, reg, ProgramBuilder};
    use moc_core::shard::Route;

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
    fn disjoint_groups_become_shards() {
        let w0 = write_prog("w01", &[0, 1]);
        let q0 = read_prog("q0", &[0]);
        let w1 = write_prog("w23", &[2, 3]);
        let q1 = read_prog("q23", &[2, 3]);
        let a = shard_set(&[&w0, &q0, &w1, &q1], 4, ShardOptions::default());
        assert_eq!(a.plan.num_shards(), 2);
        assert_eq!(a.plan.route([oid(0), oid(1)]), Route::Shard(0));
        assert_eq!(a.plan.route([oid(2), oid(3)]), Route::Shard(1));
        assert!(a.cert.cross_edges.is_empty());
        assert!(a.cert.programs.iter().all(|p| p.shard.is_some()));
        assert!(a.cert.composition.ww && a.cert.composition.wo);
        // q0 conflicts with w01 → OO blocked, but not by sharding.
        assert!(!a.cert.composition.oo);
        assert!(a
            .findings
            .iter()
            .all(|f| f.lint != Lint::ProgramStraddlesShards));
    }

    #[test]
    fn bridging_program_merges_components() {
        let w0 = write_prog("w0", &[0]);
        let w1 = write_prog("w1", &[1]);
        let bridge = write_prog("bridge", &[0, 1]);
        let a = shard_set(&[&w0, &w1, &bridge], 2, ShardOptions::default());
        assert_eq!(a.plan.num_shards(), 1, "the bridge collapses the split");
        assert!(a.cert.cross_edges.is_empty());
    }

    #[test]
    fn max_shard_size_splits_and_enumerates_cross_edges() {
        // One chain component 0-1-2-3 via pairwise writers; cap at 2
        // forces a split, so some writer must straddle.
        let w01 = write_prog("w01", &[0, 1]);
        let w12 = write_prog("w12", &[1, 2]);
        let w23 = write_prog("w23", &[2, 3]);
        let a = shard_set(
            &[&w01, &w12, &w23],
            4,
            ShardOptions {
                max_shard_size: Some(2),
            },
        );
        assert!(a.plan.num_shards() >= 2);
        assert!(
            a.plan.shards().iter().all(|s| s.len() <= 2),
            "cap respected: {:?}",
            a.plan.shards()
        );
        let straddlers: Vec<_> = a
            .cert
            .programs
            .iter()
            .filter(|p| p.shard.is_none())
            .collect();
        assert!(!straddlers.is_empty());
        assert!(!a.cert.cross_edges.is_empty());
        assert!(!a.cert.composition.ww, "cross WW edges block per-shard WW");
        assert!(a
            .findings
            .iter()
            .any(|f| f.lint == Lint::ProgramStraddlesShards));
        // Every cross edge names a straddling endpoint.
        for e in &a.cert.cross_edges {
            assert!(a.cert.programs[e.a].shard.is_none() || a.cert.programs[e.b].shard.is_none());
        }
    }

    #[test]
    fn hub_object_is_flagged() {
        // Objects 1 and 2 only interact through hub object 0.
        let w01 = write_prog("w01", &[0, 1]);
        let w02 = write_prog("w02", &[0, 2]);
        let a = shard_set(&[&w01, &w02], 3, ShardOptions::default());
        assert_eq!(a.plan.num_shards(), 1);
        let hubs: Vec<_> = a
            .findings
            .iter()
            .filter(|f| f.lint == Lint::HubObjectCollapsesPartition)
            .collect();
        assert_eq!(hubs.len(), 1, "exactly the hub, not its spokes");
        assert!(hubs[0].message.contains('x'), "hub is object x (= 0)");
    }

    #[test]
    fn cross_shard_query_is_flagged_as_pinning() {
        let w0 = write_prog("w0", &[0]);
        let w1 = write_prog("w1", &[1]);
        let q = read_prog("q01", &[0, 1]);
        // The query's own footprint merges the component; force a split.
        let a = shard_set(
            &[&w0, &w1, &q],
            2,
            ShardOptions {
                max_shard_size: Some(1),
            },
        );
        assert!(a
            .findings
            .iter()
            .any(|f| f.lint == Lint::QueryPinsTwoShards && f.program == "q01"));
        assert!(!a.cert.composition.oo);
        // The query only reads: no cross WW edge, so WW still composes.
        assert!(a.cert.composition.ww);
    }

    #[test]
    fn idle_objects_form_a_trailing_shard() {
        let w = write_prog("w0", &[0]);
        let a = shard_set(&[&w], 4, ShardOptions::default());
        let shards = a.plan.shards();
        assert_eq!(shards[0], vec![oid(0)]);
        assert_eq!(shards.last().unwrap(), &vec![oid(1), oid(2), oid(3)]);
    }

    #[test]
    fn certificate_round_trips_and_rebuilds_the_plan() {
        let w0 = write_prog("w01", &[0, 1]);
        let w1 = write_prog("w23", &[2, 3]);
        let a = shard_set(&[&w0, &w1], 4, ShardOptions::default());
        let text = a.cert.to_json();
        let back = ShardCert::parse(&text).unwrap();
        assert_eq!(back, a.cert);
        assert_eq!(back.plan().unwrap(), a.plan);
    }

    #[test]
    fn pass_is_deterministic() {
        let progs: Vec<Program> = (0..6)
            .map(|i| write_prog(&format!("w{i}"), &[i, (i + 1) % 6]))
            .collect();
        let refs: Vec<&Program> = progs.iter().collect();
        let opts = ShardOptions {
            max_shard_size: Some(2),
        };
        let a = shard_set(&refs, 6, opts);
        let b = shard_set(&refs, 6, opts);
        assert_eq!(a.cert, b.cert);
        assert_eq!(a.plan, b.plan);
    }
}
