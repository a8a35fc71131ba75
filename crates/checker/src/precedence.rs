//! History-level precedence-graph analysis: the logical read-write
//! precedence `~rw` (D 4.11) and the extended relation `~H+` (D 4.12)
//! materialized over *any* history, with SCC condensation, forced-edge
//! derivation, and the statically-pruned admissibility search built on top.
//!
//! The paper uses `~rw` only on constraint-satisfying histories (where
//! Theorem 7 collapses admissibility to legality). This module applies the
//! same machinery to arbitrary histories:
//!
//! * Every pair in the saturated closure is a **forced edge** — ordered the
//!   same way in *every* legal linearization. The saturation iterates D 4.11
//!   to a fixpoint: each new `~rw` edge can order more `(β, γ)` pairs, which
//!   in turn force more `~rw` edges. One iteration is exactly the paper's
//!   `~H+`; the fixpoint is a sound superset.
//! * A cycle in the saturated graph is a **polynomial refutation**: the
//!   history is not admissible, and the cycle (with each `~rw` edge's
//!   interference justification) is an independently checkable core — the
//!   negative counterpart of a witness schedule.
//! * When the graph is acyclic, the search exploits it three ways: forced
//!   edges become extra precedence constraints (pruning interleavings),
//!   m-operations that neither share an object nor are `~H+`-related split
//!   into **independent components** searched separately (turning a product
//!   state space into a sum), and elements forced before everything else in
//!   their component are **peeled** as a fixed prefix without search.
//!
//! The graph costs what the history says, not what it implies: under
//! m-linearizability it holds the real-time order as its transitive
//! reduction (a few edges per record, not n/2), and `~H+` is its closure
//! all the same. A refutation core cites each run of reduction edges as the
//! one real-time pair it amounts to (`docs/CHECKER-PERF.md`).

use std::collections::{BTreeMap, HashMap};

use moc_core::bitset::BitSet;
use moc_core::csr::{predecessor_csr, Csr};
use moc_core::history::{History, MOpIdx};
use moc_core::ids::ObjectId;
use moc_core::mop::EventTime;
use moc_core::relations::{object_order, tarjan_scc, Relation};

use crate::admissible::{SearchLimits, SearchOutcome, SearchStats};
use crate::conditions::Condition;
use crate::engine::{self, BitRows, ComponentPlan, SearchProblem};

/// Why an edge is in the precedence graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EdgeKind {
    /// A pair the caller knows to be ordered (e.g. the atomic-broadcast
    /// order `~ww`), handed to [`crate::conditions::check_with_order`].
    Base,
    /// Process order `~p`: same process, consecutive sequence numbers.
    Process,
    /// Reads-from `~rf`: the target reads some object from the source.
    ReadsFrom,
    /// Real-time order `~t` (m-linearizability only).
    RealTime,
    /// Object order `~x` (m-normality only).
    ObjectOrder,
    /// Logical read-write precedence `~rw` (D 4.11): the source reads `obj`
    /// from `beta` (`None` = the initial m-operation) and the target also
    /// writes `obj`, with `beta` already ordered before the target.
    ReadWrite {
        /// The m-operation read from (`None` = initial).
        beta: Option<MOpIdx>,
        /// The object whose version would be overwritten.
        obj: ObjectId,
    },
}

/// A directed edge of the precedence graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Edge {
    /// Source m-operation.
    pub from: MOpIdx,
    /// Target m-operation.
    pub to: MOpIdx,
    /// Why the edge holds.
    pub kind: EdgeKind,
}

/// The saturated precedence graph of a history: base relation edges plus
/// all `~rw` edges derivable by iterating D 4.11 to a fixpoint.
#[derive(Debug, Clone)]
pub struct PrecedenceGraph {
    n: usize,
    edges: Vec<Edge>,
    /// Number of leading base (`~H`) edges in `edges`; the rest are `~rw`.
    base_edges: usize,
    /// The direct edge set.
    direct: Relation,
    /// Transitive closure of the direct edge set: `~H` itself until
    /// [`PrecedenceGraph::saturate`] runs, the fixpoint `~H+` after it.
    /// Every pair in here is forced in every legal linearization.
    closed: Relation,
    /// `~H` includes `~t`, of which the edges hold only the reduction; the
    /// pairs that implies are not held as edges.
    real_time: bool,
}

impl PrecedenceGraph {
    /// Builds and saturates the graph for a condition's base relation
    /// (process order and reads-from, plus real-time for m-linearizability
    /// or object order for m-normality). Edges carry auditable reasons.
    pub fn for_condition(h: &History, condition: Condition) -> Self {
        let mut graph = Self::unsaturated(h, condition, &[]);
        graph.saturate(h);
        graph
    }

    /// The graph of `~H` alone — the condition's base edges plus the pairs
    /// of `order` as [`EdgeKind::Base`] edges — closed once, before any
    /// `~rw` edge is derived.
    pub(crate) fn unsaturated(
        h: &History,
        condition: Condition,
        order: &[(MOpIdx, MOpIdx)],
    ) -> Self {
        let mut edges = Vec::new();
        for idxs in h.subhistories() {
            for w in idxs.windows(2) {
                edges.push(Edge {
                    from: w[0],
                    to: w[1],
                    kind: EdgeKind::Process,
                });
            }
        }
        for (alpha, _) in h.iter() {
            for (_, writer) in h.read_sources(alpha) {
                if let Some(beta) = writer {
                    if beta != alpha {
                        edges.push(Edge {
                            from: beta,
                            to: alpha,
                            kind: EdgeKind::ReadsFrom,
                        });
                    }
                }
            }
        }
        match condition {
            Condition::MSequentialConsistency => {}
            // `~t` as its reduction: the closure, and with it every verdict
            // and every `~rw` edge, is that of all the pairs.
            Condition::MLinearizability => real_time_reduction(h, &mut edges),
            Condition::MNormality => {
                edges.extend(edges_of(&object_order(h), EdgeKind::ObjectOrder))
            }
        }
        edges.extend(order.iter().map(|&(from, to)| Edge {
            from,
            to,
            kind: EdgeKind::Base,
        }));
        Self::from_edges(h.len(), edges, condition == Condition::MLinearizability)
    }

    /// The graph over `base` before saturation; `real_time` as the field.
    /// A repeated pair keeps its first edge.
    fn from_edges(n: usize, mut edges: Vec<Edge>, real_time: bool) -> Self {
        let mut direct = Relation::new(n);
        edges.retain(|e| {
            // A reflexive base edge is already a (degenerate) cycle; every
            // copy is kept so cycle detection reports it.
            let fresh = e.from == e.to || !direct.contains(e.from, e.to);
            direct.add(e.from, e.to);
            fresh
        });
        PrecedenceGraph {
            n,
            base_edges: edges.len(),
            edges,
            closed: direct.transitive_closure(),
            direct,
            real_time,
        }
    }

    /// Adds every `~rw` edge derivable by iterating D 4.11 to a fixpoint,
    /// starting from the closure the graph already holds.
    ///
    /// Each round adds every `α ~rw γ` whose premise `β ~H+ γ` held of the
    /// closure as the round found it, and closes the graph over each `α`'s
    /// new edges as it goes (`Relation::add_closed`). `~H+` only grows and
    /// an ordered pair stays ordered, so a candidate whose premise held a
    /// round earlier was decided then: round one asks all of `~H+` (and the
    /// reads of initial values, which have no premise), every later round
    /// only the pairs the round before added to it (semi-naive
    /// evaluation). The candidates of a read are one word expression,
    /// `writers(x) ∩ premises(β) ∖ (direct(α) ∪ later(α))` with `later` the
    /// records real time puts after `α`, read off in ascending order: edges
    /// come out in the order in which a rescan of every pair in every round
    /// derives them. Terminates because each round adds at least one of at
    /// most n² edges.
    pub(crate) fn saturate(&mut self, h: &History) {
        let writers = writer_masks(h);
        let later = self.real_time.then(|| LaterInRealTime::new(h));
        let words = self.n.div_ceil(64);
        let (mut candidates, mut targets) = (vec![0u64; words], vec![0u64; words]);
        // The pairs a round takes its premises from, held apart from
        // `closed`, which grows while the round runs, and the pairs it adds
        // to `closed`: the next round's premises.
        let (mut premises, mut gained) = (self.closed.clone(), Relation::new(self.n));
        for round in 1.. {
            let derived = self.edges.len();
            for (alpha, _) in h.iter() {
                let after = later.as_ref().map(|later| later.of(alpha));
                targets.fill(0);
                for (obj, writer) in h.read_sources(alpha) {
                    let premise = match writer {
                        None if round == 1 => None,
                        None => continue,
                        Some(beta) => Some(premises.row(beta)),
                    };
                    // No ~rw edge where the pair is ordered already.
                    let ordered = self.direct.row(alpha);
                    let of_x = writers.row(obj.index());
                    for (k, c) in candidates.iter_mut().enumerate() {
                        *c = of_x[k] & !ordered[k];
                        if let Some(premise) = premise {
                            *c &= premise[k];
                        }
                        if let Some(after) = after {
                            *c &= !after[k];
                        }
                    }
                    for u in std::iter::once(alpha).chain(writer) {
                        candidates[u.0 / 64] &= !(1u64 << (u.0 % 64));
                    }
                    for (k, mut word) in candidates.iter().copied().enumerate() {
                        targets[k] |= word;
                        while word != 0 {
                            let gamma = MOpIdx(k * 64 + word.trailing_zeros() as usize);
                            word &= word - 1;
                            self.direct.add(alpha, gamma);
                            self.edges.push(Edge {
                                from: alpha,
                                to: gamma,
                                kind: EdgeKind::ReadWrite { beta: writer, obj },
                            });
                        }
                    }
                }
                if targets.iter().any(|&word| word != 0) {
                    self.closed.add_closed(alpha, &targets, &mut gained);
                }
            }
            if self.edges.len() == derived {
                break;
            }
            std::mem::swap(&mut premises, &mut gained);
            gained.clear();
        }
    }

    /// Number of m-operations the graph ranges over.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the graph ranges over zero m-operations.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// All edges: base edges first, then the derived `~rw` edges in
    /// derivation order (an edge's premise is justified by strictly
    /// earlier edges).
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Number of `~rw` edges the saturation derived — orderings forced in
    /// every legal linearization beyond the base relation.
    pub(crate) fn forced_edge_count(&self) -> usize {
        self.edges.len() - self.base_edges
    }

    /// The fixpoint closure `~H+`: contains `(i, j)` iff `i` precedes `j`
    /// in every legal linearization derivable from the base relation.
    pub fn closed(&self) -> &Relation {
        &self.closed
    }

    /// Tarjan SCC condensation of the direct edge graph. Components are in
    /// topological order; a component with more than one member (or a
    /// self-loop) certifies that no legal linearization exists.
    pub(crate) fn condensation(&self) -> Condensation {
        let succs = self.successors();
        let mut members: Vec<Vec<usize>> = Vec::new();
        tarjan_scc(
            self.n,
            |v| succs.row(v as usize).iter().copied(),
            |comp| members.push(comp.iter().map(|&v| v as usize).collect()),
        );
        members.reverse(); // Tarjan emits reverse-topological.
        let mut comp_of = vec![0usize; self.n];
        for (c, comp) in members.iter().enumerate() {
            comp.iter().for_each(|&v| comp_of[v] = c);
        }
        Condensation { comp_of, members }
    }

    /// The edges' targets, grouped by source in edge order.
    fn successors(&self) -> Csr<u32> {
        let reversed = self.edges.iter().map(|e| (e.to.0 as u32, e.from.0 as u32));
        predecessor_csr(self.n, reversed)
    }

    /// An inadmissibility core: a cycle of the saturated graph as edge ids
    /// into [`PrecedenceGraph::edges`], or `None` if the graph is acyclic.
    pub(crate) fn find_cycle_edges(&self) -> Option<Vec<usize>> {
        // The closure has said already whether there is one to look for.
        if self.closed.is_irreflexive() {
            return None;
        }
        // Self-loops first (degenerate base cycles).
        if let Some(eid) = self.edges.iter().position(|e| e.from == e.to) {
            return Some(vec![eid]);
        }
        let cond = self.condensation();
        let comp = cond.members.iter().find(|ms| ms.len() > 1)?;
        // BFS inside the SCC from its first member back to itself.
        let start = comp[0];
        let in_comp = |v: usize| cond.comp_of[v] == cond.comp_of[start];
        let mut adj: Vec<Vec<(usize, usize)>> = vec![Vec::new(); self.n];
        for (eid, e) in self.edges.iter().enumerate() {
            if in_comp(e.from.0) && in_comp(e.to.0) {
                adj[e.from.0].push((e.to.0, eid));
            }
        }
        let mut parent: Vec<Option<(usize, usize)>> = vec![None; self.n];
        let mut queue = std::collections::VecDeque::new();
        queue.push_back(start);
        while let Some(u) = queue.pop_front() {
            for &(v, eid) in &adj[u] {
                if v == start {
                    // Unwind start -> ... -> u, then close with eid.
                    let mut rev = vec![eid];
                    let mut cur = u;
                    while cur != start {
                        let (p, pe) = parent[cur].expect("BFS parent");
                        rev.push(pe);
                        cur = p;
                    }
                    rev.reverse();
                    return Some(rev);
                }
                if parent[v].is_none() && v != start {
                    parent[v] = Some((u, eid));
                    queue.push_back(v);
                }
            }
        }
        unreachable!("a multi-member SCC always closes a cycle through any member")
    }

    /// A self-contained refutation core: the cycle plus, for every `~rw`
    /// edge involved, a justification path showing its premise `β ~ γ`
    /// using only strictly earlier edges. A run of `RealTime` edges, which
    /// the reduction chains through bystanders, is cited as the one
    /// real-time pair it amounts to (`~t` is transitive). Returns `None`
    /// when the graph is acyclic.
    pub fn cycle_proof(&self) -> Option<CycleProof> {
        let mut cycle = self.find_cycle_edges()?;
        // A run split across the ends of the cycle is turned to the front.
        let is_rt = |eid: &usize| self.edges[*eid].kind == EdgeKind::RealTime;
        if is_rt(&cycle[0]) {
            let wrapped = cycle.iter().rev().take_while(|eid| is_rt(eid)).count();
            cycle.rotate_right(wrapped);
        }
        let cycle = self.steps(&cycle);
        // Adjacency with edge ids, for premise-path reconstruction.
        let mut adj: Vec<Vec<(usize, usize)>> = vec![Vec::new(); self.n];
        for (eid, e) in self.edges.iter().enumerate() {
            adj[e.from.0].push((e.to.0, eid));
        }

        // Collect every step the proof depends on, resolving each ~rw
        // edge's premise to a path over strictly earlier edges.
        let mut needed: BTreeMap<Step, Vec<Step>> = BTreeMap::new();
        let mut work = cycle.clone();
        while let Some((eid, gamma)) = work.pop() {
            if needed.contains_key(&(eid, gamma)) {
                continue;
            }
            let mut via = Vec::new();
            if let EdgeKind::ReadWrite {
                beta: Some(beta), ..
            } = self.edges[eid].kind
            {
                let path = bfs_path(&adj, beta.0, gamma.0, eid)
                    .expect("premise held over earlier edges at derivation time");
                via = self.steps(&path);
                work.extend(via.iter().copied());
            }
            needed.insert((eid, gamma), via);
        }
        // In edge order, so a premise's steps come before the edge itself.
        let slot: HashMap<Step, usize> = needed.keys().copied().zip(0..).collect();
        let edges = needed
            .iter()
            .map(|(&(eid, to), via)| CycleProofEdge {
                edge: Edge {
                    from: self.edges[eid].from,
                    to,
                    kind: self.edges[eid].kind.clone(),
                },
                via: via.iter().map(|step| slot[step]).collect(),
            })
            .collect();
        Some(CycleProof {
            edges,
            cycle: cycle.iter().map(|step| slot[step]).collect(),
        })
    }

    /// A path of edge ids as proof steps, each run of `RealTime` edges one.
    fn steps(&self, path: &[usize]) -> Vec<Step> {
        let mut steps: Vec<Step> = Vec::new();
        let mut in_run = false;
        for &eid in path {
            let e = &self.edges[eid];
            let real_time = e.kind == EdgeKind::RealTime;
            match steps.last_mut() {
                Some(last) if in_run && real_time => last.1 = e.to,
                _ => steps.push((eid, e.to)),
            }
            in_run = real_time;
        }
        steps
    }

    /// Partitions the m-operations into *independent components*: two
    /// m-operations interact when they are related by any direct edge or
    /// touch a common object. Distinct components share no ordering
    /// constraints and no legality coupling, so admissibility decomposes
    /// into one search per component.
    pub fn interaction_components(&self, h: &History) -> Vec<Vec<usize>> {
        let mut uf = UnionFind::new(self.n);
        for e in &self.edges {
            uf.union(e.from.0, e.to.0);
        }
        let mut toucher: Vec<Option<usize>> = vec![None; h.num_objects()];
        for (idx, _) in h.iter() {
            for obj in h.objects(idx) {
                match toucher[obj.index()] {
                    Some(first) => {
                        uf.union(first, idx.0);
                    }
                    None => toucher[obj.index()] = Some(idx.0),
                }
            }
        }
        // A root is its component's least member, so the roots in
        // ascending order are the components ordered by least member, and
        // each root comes before the rest of its members. `slot` holds a
        // root's size until the root is reached, its component after.
        let mut slot = vec![0usize; self.n];
        (0..self.n).for_each(|v| slot[uf.find(v)] += 1);
        let mut comps: Vec<Vec<usize>> = Vec::new();
        for v in 0..self.n {
            let root = uf.find(v);
            if root == v {
                comps.push(Vec::with_capacity(slot[v]));
                slot[v] = comps.len() - 1;
            }
            comps[slot[root]].push(v);
        }
        comps
    }
}

/// The pairs of `order` as edges of one kind.
fn edges_of(order: &Relation, kind: EdgeKind) -> impl Iterator<Item = Edge> + '_ {
    let edge = move |(from, to)| Edge {
        from,
        to,
        kind: kind.clone(),
    };
    order.edges().map(edge)
}

/// Appends the transitive reduction of the real-time order `~t` (α before β
/// iff `resp(α) < inv(β)`), which is all of `~t` the closure needs. `~t` is
/// an interval order, so with the records sorted by invocation the
/// successors of α in the reduction are a contiguous run: those invoked
/// after `resp(α)` and no later than the earliest response among them —
/// anything invoked after that response follows the responder, which
/// follows α.
fn real_time_reduction(h: &History, edges: &mut Vec<Edge>) {
    let mut by_invocation: Vec<_> = h.iter().map(|(i, rec)| (rec.invoked_at, i)).collect();
    by_invocation.sort_unstable();
    // earliest_response[k]: over the records by_invocation[k..].
    let mut earliest_response = vec![EventTime(u64::MAX); h.len() + 1];
    for (k, &(_, i)) in by_invocation.iter().enumerate().rev() {
        earliest_response[k] = earliest_response[k + 1].min(h.record(i).responded_at);
    }
    for (from, rec) in h.iter() {
        let first = by_invocation.partition_point(|&(inv, _)| inv <= rec.responded_at);
        let later = by_invocation[first..].iter();
        let run = later.take_while(|&&(inv, _)| inv <= earliest_response[first]);
        edges.extend(run.map(|&(_, to)| Edge {
            from,
            to,
            kind: EdgeKind::RealTime,
        }));
    }
}

/// Per object, the history's writers of it as a row of bits over its
/// indices.
fn writer_masks(h: &History) -> BitRows {
    let mut masks = BitRows::new(h.num_objects(), h.len());
    for x in 0..h.num_objects() {
        let writers = h.writers_of(ObjectId::new(x as u32));
        writers.iter().for_each(|w| masks.insert(x, w.0));
    }
    masks
}

/// For each record α, the records real time puts after it — invoked after
/// `resp(α)` — as a bit mask. Each is a suffix of the records sorted by
/// invocation, so one mask per suffix serves every α.
struct LaterInRealTime {
    words: usize,
    /// Suffix `k` of the invocation order at `k * words`; the last is empty.
    suffixes: Vec<u64>,
    /// Per record, the suffix that follows its response.
    first: Vec<usize>,
}

impl LaterInRealTime {
    fn new(h: &History) -> Self {
        let (n, words) = (h.len(), h.len().div_ceil(64));
        let mut by_invocation: Vec<_> = h.iter().map(|(i, rec)| (rec.invoked_at, i.0)).collect();
        by_invocation.sort_unstable();
        let mut suffixes = vec![0u64; (n + 1) * words];
        for (k, &(_, i)) in by_invocation.iter().enumerate().rev() {
            let (head, tail) = suffixes.split_at_mut((k + 1) * words);
            let suffix = &mut head[k * words..];
            suffix.copy_from_slice(&tail[..words]);
            suffix[i / 64] |= 1u64 << (i % 64);
        }
        let first = h
            .iter()
            .map(|(_, rec)| by_invocation.partition_point(|&(inv, _)| inv <= rec.responded_at));
        LaterInRealTime {
            words,
            suffixes,
            first: first.collect(),
        }
    }

    fn of(&self, alpha: MOpIdx) -> &[u64] {
        &self.suffixes[self.first[alpha.0] * self.words..][..self.words]
    }
}

/// A step of a refutation core: edge `.0`, carried on to `.1` along the
/// `RealTime` edges that follow it (its own target otherwise).
type Step = (usize, MOpIdx);

/// SCC condensation of a [`PrecedenceGraph`].
#[derive(Debug, Clone)]
pub struct Condensation {
    /// Component id of each m-operation (ids follow topological order).
    pub comp_of: Vec<usize>,
    /// Members of each component, in topological order of the condensation
    /// DAG. All singletons iff the graph is acyclic (no self-loops).
    pub members: Vec<Vec<usize>>,
}

/// One edge of a [`CycleProof`], with its premise justification.
#[derive(Debug, Clone)]
pub struct CycleProofEdge {
    /// The edge itself.
    pub edge: Edge,
    /// For a `~rw` edge with a non-initial `beta`: indices (into
    /// [`CycleProof::edges`], all strictly smaller than this edge's own
    /// index) forming a path `beta → … → gamma` that justifies the premise.
    /// Empty for base edges and initial-`beta` `~rw` edges.
    pub via: Vec<usize>,
}

/// A polynomial refutation core: an explicit `~H+` cycle together with the
/// justification edges its `~rw` members depend on.
#[derive(Debug, Clone)]
pub struct CycleProof {
    /// All edges the proof mentions, in dependency order.
    pub edges: Vec<CycleProofEdge>,
    /// Indices into `edges` forming the cycle (each edge's target is the
    /// next edge's source, wrapping around).
    pub cycle: Vec<usize>,
}

/// BFS for a path `from → … → to` using only edges with id < `max_edge`,
/// returned as edge ids. `None` if unreachable under that restriction.
fn bfs_path(
    adj: &[Vec<(usize, usize)>],
    from: usize,
    to: usize,
    max_edge: usize,
) -> Option<Vec<usize>> {
    if from == to {
        return Some(Vec::new());
    }
    let mut parent: Vec<Option<(usize, usize)>> = vec![None; adj.len()];
    let mut queue = std::collections::VecDeque::new();
    queue.push_back(from);
    while let Some(u) = queue.pop_front() {
        for &(v, eid) in &adj[u] {
            if eid >= max_edge || parent[v].is_some() || v == from {
                continue;
            }
            parent[v] = Some((u, eid));
            if v == to {
                let mut rev = Vec::new();
                let mut cur = v;
                while cur != from {
                    let (p, pe) = parent[cur].unwrap();
                    rev.push(pe);
                    cur = p;
                }
                rev.reverse();
                return Some(rev);
            }
            queue.push_back(v);
        }
    }
    None
}

/// Whether the digraph given as an adjacency list contains a cycle
/// (including self-loops). The shared kernel behind the searches'
/// up-front acyclicity guard.
pub(crate) fn adjacency_has_cycle(succs: &[Vec<u32>]) -> bool {
    if succs
        .iter()
        .enumerate()
        .any(|(v, ws)| ws.iter().any(|&w| w as usize == v))
    {
        return true;
    }
    let mut cyclic = false;
    let of = |v: u32| succs[v as usize].iter().copied();
    tarjan_scc(succs.len(), of, |comp| cyclic |= comp.len() > 1);
    cyclic
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
            self.parent[rb.max(ra)] = rb.min(ra);
        }
    }
}

/// The statically-pruned admissibility search over a saturated graph:
/// refutes on a `~H+` cycle, then searches each independent component
/// separately with forced-prefix peeling. Returns the same verdict as
/// [`crate::admissible::find_legal_extension`] over the graph's base
/// relation on every input (witnesses may differ; both are valid).
///
/// Each interaction component is peeled to its forced prefix here; the
/// crate-internal search engine then searches what is left of each component
/// in turn.
pub fn pruned_search(
    h: &History,
    graph: &PrecedenceGraph,
    limits: SearchLimits,
) -> (SearchOutcome, SearchStats) {
    let n = h.len();
    let mut stats = SearchStats {
        forced_edges: graph.forced_edge_count() as u64,
        ..SearchStats::default()
    };
    if n == 0 {
        return (SearchOutcome::Admissible(Vec::new()), stats);
    }
    if graph.find_cycle_edges().is_some() {
        // A ~H+ cycle refutes admissibility outright (every legal
        // linearization would have to respect all forced edges).
        return (SearchOutcome::NotAdmissible, stats);
    }

    let edges: Vec<(u32, u32)> = graph
        .edges()
        .iter()
        .map(|e| (e.from.0 as u32, e.to.0 as u32))
        .collect();
    let problem = SearchProblem::new(h, &edges);

    let comps = graph.interaction_components(h);
    stats.components = comps.len() as u64;

    // Peel each component's forced prefix. Objects never span components,
    // so each component's last-writer state is independent of the others.
    let mut left = BitSet::new(n);
    let plans: Vec<ComponentPlan> = (comps.iter())
        .map(|comp| peel(comp, &graph.closed, &problem, &mut left))
        .collect();

    let (outcome, engine_stats) = engine::execute(&problem, &plans, limits);
    stats.nodes = engine_stats.nodes;
    stats.memo_hits = engine_stats.memo_hits;
    stats.memo_peak = engine_stats.memo_peak;
    stats.memo_saturated = engine_stats.memo_saturated;
    stats.symmetry_skips = engine_stats.symmetry_skips;
    stats.peeled = engine_stats.peeled;
    (outcome, stats)
}

/// Forced-prefix peeling of one component: an element ordered (in `~H+`)
/// before every other remaining member must come next in every witness —
/// schedule it without search, or refute if its reads cannot be legal.
/// `left` holds the remaining members as a mask; it is empty on entry and
/// on return.
fn peel(
    comp: &[usize],
    closed: &Relation,
    problem: &SearchProblem,
    left: &mut BitSet,
) -> ComponentPlan {
    let mut remaining = comp.to_vec();
    comp.iter().for_each(|&u| _ = left.insert(u));
    let mut peeled_order: Vec<u32> = Vec::new();
    let mut last_writer: Vec<u32> = vec![engine::NONE; problem.num_objects];
    let mut refuted = false;
    while let Some(pos) = (remaining.iter()).position(|&u| closed.precedes_all(MOpIdx(u), left)) {
        let u = remaining.swap_remove(pos);
        left.remove(u);
        if !problem
            .read_reqs
            .row(u)
            .iter()
            .all(|&(obj, w)| last_writer[obj as usize] == w)
        {
            refuted = true;
            break;
        }
        for &o in problem.write_sets.row(u) {
            last_writer[o as usize] = u as u32;
        }
        peeled_order.push(u as u32);
    }
    remaining.iter().for_each(|&u| _ = left.remove(u));
    remaining.sort_unstable();
    ComponentPlan {
        members: remaining.iter().map(|&u| u as u32).collect(),
        peeled_order,
        refuted_in_peel: refuted,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::admissible::find_legal_extension;
    use crate::certificate::{check_certified_on, Certificate, Proof};
    use crate::conditions::CheckReport;
    use moc_core::history::HistoryBuilder;
    use moc_core::ids::ProcessId;
    use moc_core::legality::sequence_witnesses_admissibility;
    use moc_core::mop::EventTime;
    use moc_core::relations::{process_order, reads_from, real_time};
    use moc_protocol::{run_cluster, ClusterConfig, MlinOverSequencer};
    use moc_workload::arb::{self, HistoryBounds};
    use moc_workload::{scripts, WorkloadSpec};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn pid(i: u32) -> ProcessId {
        ProcessId::new(i)
    }
    fn oid(i: u32) -> ObjectId {
        ObjectId::new(i)
    }
    fn m(i: usize) -> MOpIdx {
        MOpIdx(i)
    }

    /// Figure 2's WW edges α<γ<δ.
    const FIGURE2_WW: [(MOpIdx, MOpIdx); 2] = [(MOpIdx(0), MOpIdx(2)), (MOpIdx(2), MOpIdx(3))];

    /// The saturated m-SC graph with `order` among its base edges.
    fn sc_graph(h: &History, order: &[(MOpIdx, MOpIdx)]) -> PrecedenceGraph {
        let mut g = PrecedenceGraph::unsaturated(h, Condition::MSequentialConsistency, order);
        g.saturate(h);
        g
    }

    /// Figure 2's H1 (α, β on P1; γ, δ on P2), with `~p ∪ ~rf` and the WW
    /// edges as a dense relation, the reference.
    fn figure2() -> (History, Relation) {
        let x = oid(0);
        let y = oid(1);
        let mut b = HistoryBuilder::new(2);
        let alpha = b.mop(pid(1)).at(0, 10).read_init(x).write(y, 2).finish();
        b.mop(pid(1)).at(20, 60).read_from(y, 2, alpha).finish();
        b.mop(pid(2)).at(15, 25).write(x, 1).finish();
        b.mop(pid(2)).at(30, 40).write(y, 3).finish();
        let h = b.build().unwrap();
        let mut rel = process_order(&h).union(&reads_from(&h));
        FIGURE2_WW.iter().for_each(|&(a, b)| rel.add(a, b));
        (h, rel)
    }

    /// The classic SC litmus: its ~H+ fixpoint is cyclic.
    fn litmus() -> (History, Relation) {
        let x = oid(0);
        let y = oid(1);
        let mut b = HistoryBuilder::new(2);
        b.mop(pid(0)).at(0, 10).write(x, 1).finish();
        b.mop(pid(0)).at(20, 30).read_init(y).finish();
        b.mop(pid(1)).at(0, 10).write(y, 1).finish();
        b.mop(pid(1)).at(20, 30).read_init(x).finish();
        let h = b.build().unwrap();
        let rel = process_order(&h).union(&reads_from(&h));
        (h, rel)
    }

    #[test]
    fn figure2_derives_the_figure3_forced_edge() {
        let (h, _) = figure2();
        let g = sc_graph(&h, &FIGURE2_WW);
        // β ~rw δ: δ writes y, which β reads from α, and α ~H δ.
        assert!(g.closed().contains(m(1), m(3)));
        assert!(g.forced_edge_count() >= 1);
        assert!(g.find_cycle_edges().is_none());
        let cond = g.condensation();
        assert!(cond.members.iter().all(|c| c.len() == 1));
    }

    #[test]
    fn litmus_cycle_is_refuted_without_search() {
        let (h, _) = litmus();
        let g = sc_graph(&h, &[]);
        let cycle = g.find_cycle_edges().expect("litmus has a ~H+ cycle");
        assert!(cycle.len() >= 2);
        // The cycle is a closed walk over the graph's edges.
        for (k, &eid) in cycle.iter().enumerate() {
            let next = cycle[(k + 1) % cycle.len()];
            assert_eq!(g.edges()[eid].to, g.edges()[next].from);
        }
        let (out, stats) = pruned_search(&h, &g, SearchLimits::default());
        assert_eq!(out, SearchOutcome::NotAdmissible);
        assert_eq!(stats.nodes, 0, "refuted statically");
    }

    #[test]
    fn cycle_proof_justifies_rw_premises() {
        let (h, _) = litmus();
        let g = sc_graph(&h, &[]);
        let proof = g.cycle_proof().expect("cyclic");
        assert!(!proof.cycle.is_empty());
        for (slot, pe) in proof.edges.iter().enumerate() {
            for &dep in &pe.via {
                assert!(dep < slot, "justification must precede its use");
            }
            if let EdgeKind::ReadWrite {
                beta: Some(beta), ..
            } = pe.edge.kind
            {
                // The via path must chain beta -> ... -> gamma.
                let mut cur = beta;
                for &dep in &pe.via {
                    assert_eq!(proof.edges[dep].edge.from, cur);
                    cur = proof.edges[dep].edge.to;
                }
                assert_eq!(cur, pe.edge.to);
            }
        }
    }

    #[test]
    fn components_split_object_disjoint_subhistories() {
        // Two disjoint copies of a write/read pair.
        let mut b = HistoryBuilder::new(2);
        let w0 = b.mop(pid(0)).at(0, 10).write(oid(0), 1).finish();
        b.mop(pid(1)).at(20, 30).read_from(oid(0), 1, w0).finish();
        let w1 = b.mop(pid(2)).at(0, 10).write(oid(1), 5).finish();
        b.mop(pid(3)).at(20, 30).read_from(oid(1), 5, w1).finish();
        let h = b.build().unwrap();
        let rel = process_order(&h).union(&reads_from(&h));
        let g = sc_graph(&h, &[]);
        let comps = g.interaction_components(&h);
        assert_eq!(comps, vec![vec![0, 1], vec![2, 3]]);
        let (out, stats) = pruned_search(&h, &g, SearchLimits::default());
        let w = out.witness().expect("admissible").to_vec();
        assert!(sequence_witnesses_admissibility(&h, &rel, &w));
        assert_eq!(stats.components, 2);
        // Everything is forced here: both components peel completely.
        assert_eq!(stats.peeled as usize, 4);
        assert_eq!(stats.nodes, 0);
    }

    #[test]
    fn pruned_agrees_with_naive_on_figure2_and_litmus() {
        for ((h, rel), order) in [(figure2(), &FIGURE2_WW[..]), (litmus(), &[])] {
            let (naive, _) = find_legal_extension(&h, &rel, SearchLimits::default());
            let g = sc_graph(&h, order);
            let (pruned, _) = pruned_search(&h, &g, SearchLimits::default());
            assert_eq!(naive.is_admissible(), pruned.is_admissible());
            if let Some(w) = pruned.witness() {
                assert!(sequence_witnesses_admissibility(&h, &rel, w));
            }
        }
    }

    #[test]
    fn tarjan_finds_components_and_cycles() {
        // 0 -> 1 -> 2 -> 0 cycle, 3 isolated, 4 -> 3 edge.
        let succs = vec![vec![1], vec![2], vec![0], vec![], vec![3u32]];
        let mut comps: Vec<Vec<u32>> = Vec::new();
        let of = |v: u32| succs[v as usize].iter().copied();
        tarjan_scc(succs.len(), of, |comp| comps.push(comp.to_vec()));
        assert!(comps.contains(&vec![0, 1, 2]));
        assert!(adjacency_has_cycle(&succs));
        let dag = vec![vec![1], vec![2], vec![], vec![2u32]];
        assert!(!adjacency_has_cycle(&dag));
        assert!(adjacency_has_cycle(&[vec![0u32]])); // self-loop
    }

    /// Process order and reads-from as `for_condition` lays them down.
    fn program_edges(h: &History) -> Vec<Edge> {
        let sc = PrecedenceGraph::for_condition(h, Condition::MSequentialConsistency);
        sc.edges[..sc.base_edges].to_vec()
    }

    /// The m-lin graph as it was built before the reduction, the reference:
    /// every pair of `real_time(h)` an edge.
    fn all_pairs_graph(h: &History) -> PrecedenceGraph {
        let mut edges = program_edges(h);
        edges.extend(edges_of(&real_time(h), EdgeKind::RealTime));
        let mut g = PrecedenceGraph::from_edges(h.len(), edges, false);
        g.saturate(h);
        g
    }

    fn certify(h: &History, g: &PrecedenceGraph) -> (CheckReport, Certificate) {
        let fp = moc_core::codec::fingerprint(h);
        let limits = SearchLimits::default();
        check_certified_on(h, Condition::MLinearizability, g, fp, limits)
            .expect("within the default budget")
    }

    /// Everything the reduction must leave as it was, on one history.
    /// Returns the verdict.
    fn assert_same_as_all_pairs(h: &History, what: &str) -> bool {
        let new = PrecedenceGraph::for_condition(h, Condition::MLinearizability);
        let old = all_pairs_graph(h);
        assert_eq!(new.closed(), old.closed(), "{what}: ~H+");
        assert_eq!(new.forced_edge_count(), old.forced_edge_count(), "{what}");
        assert_eq!(
            new.edges()[new.base_edges..],
            old.edges()[old.base_edges..],
            "{what}: ~rw edges, in derivation order"
        );
        let closed_base = |g: &PrecedenceGraph| {
            let mut base = Relation::new(h.len());
            g.edges()[..g.base_edges]
                .iter()
                .for_each(|e| base.add(e.from, e.to));
            base.transitive_closure()
        };
        assert_eq!(closed_base(&new), closed_base(&old), "{what}: ~H");
        let real_time_pair = |e: &Edge| {
            e.kind != EdgeKind::RealTime
                || h.record(e.from).responded_at < h.record(e.to).invoked_at
        };
        assert!(new.edges().iter().all(real_time_pair), "{what}");

        let ((new_report, new_cert), (old_report, old_cert)) = (certify(h, &new), certify(h, &old));
        assert_eq!(new_report.satisfied, old_report.satisfied, "{what}");
        let Proof::Cycle(core) = &new_cert.proof else {
            assert_eq!(new_cert.to_text(), old_cert.to_text(), "{what}");
            return new_report.satisfied;
        };
        // Refuted by a cycle, which need not be the one found over all the
        // pairs: it audits, and cites real-time pairs, not chains of them.
        assert!(
            core.edges.iter().all(|pe| real_time_pair(&pe.edge)),
            "{what}"
        );
        let rt = |slot: usize| core.edges[slot].edge.kind == EdgeKind::RealTime;
        let no_run = |path: &[usize]| path.windows(2).all(|w| !(rt(w[0]) && rt(w[1])));
        let (first, last) = (core.cycle[0], core.cycle[core.cycle.len() - 1]);
        assert!(
            no_run(&core.cycle) && no_run(&[last, first]),
            "{what}: rt run"
        );
        assert!(
            core.edges.iter().all(|pe| no_run(&pe.via)),
            "{what}: rt run"
        );
        let verdict = moc_audit::audit(h, &new_cert.to_text());
        assert!(
            matches!(&verdict, Ok(v) if v.is_verified()),
            "{what}: {verdict:?}"
        );
        false
    }

    const GRAMMAR: HistoryBounds = HistoryBounds {
        processes: 4,
        mops_per_process: 6,
        objects: 4,
        max_span: 3,
        update_fraction: 0.5,
    };

    #[test]
    fn reduction_changes_nothing_on_grammar_histories() {
        let mut admissible = 0;
        for seed in 0..300 {
            let h = arb::history_from_seed(seed, &GRAMMAR);
            admissible += usize::from(assert_same_as_all_pairs(&h, &format!("seed {seed}")));
        }
        assert!((10..290).contains(&admissible), "{admissible} of 300");
    }

    /// `h` with its times made to collide: the invocations of one rank
    /// coincide, and a response meets its own invocation (zero length),
    /// nothing, or the next rank's invocations — which `~t`, being strict,
    /// does not order, and which sets a process's records back to back.
    fn with_ties(h: &History) -> History {
        let mut records = h.records().to_vec();
        for (i, rec) in records.iter_mut().enumerate() {
            let rank = rec.invoked_at.as_nanos() / 100 * 100;
            rec.invoked_at = EventTime(rank);
            rec.responded_at = EventTime(rank + [0, 50, 100][i % 3]);
        }
        History::new(h.num_objects(), records).expect("still one record at a time per process")
    }

    #[test]
    fn reduction_changes_nothing_where_times_tie() {
        let mut admissible = 0;
        for seed in 0..300 {
            let h = with_ties(&arb::history_from_seed(seed, &GRAMMAR));
            admissible += usize::from(assert_same_as_all_pairs(&h, &format!("tied seed {seed}")));
        }
        assert!((10..290).contains(&admissible), "{admissible} of 300");

        // By hand, each tie once: b has zero length and follows a back to
        // back; c is invoked as a responds, so only b ~t d and a ~t d hold
        // of the pairs across processes; c and e are invoked together.
        let x = oid(0);
        for stale in [false, true] {
            let mut b = HistoryBuilder::new(1);
            let a = b.mop(pid(0)).at(0, 10).write(x, 1).finish();
            b.mop(pid(0)).at(10, 10).read_from(x, 1, a).finish();
            let c = b.mop(pid(1)).at(10, 20).write(x, 2).finish();
            let d = b.mop(pid(1)).at(20, 30);
            if stale {
                d.read_init(x).finish();
            } else {
                d.read_from(x, 2, c).finish();
            }
            b.mop(pid(2)).at(10, 40).read_init(x).finish();
            let h = b.build().unwrap();
            let mut rt = Vec::new();
            real_time_reduction(&h, &mut rt);
            let rt: Vec<(usize, usize)> = rt.iter().map(|e| (e.from.0, e.to.0)).collect();
            assert_eq!(rt, vec![(0, 3), (1, 3)], "a and b before d, nothing else");
            assert_eq!(assert_same_as_all_pairs(&h, "by hand"), !stale);
        }
    }

    /// The peel this module used to run, kept as the reference: each
    /// candidate tested against every remaining member, pair by pair.
    fn peel_pairwise(comp: &[usize], closed: &Relation, problem: &SearchProblem) -> ComponentPlan {
        let mut remaining: Vec<usize> = comp.to_vec();
        let mut peeled_order: Vec<u32> = Vec::new();
        let mut last_writer: Vec<u32> = vec![engine::NONE; problem.num_objects];
        let mut refuted = false;
        while let Some(pos) = remaining.iter().position(|&u| {
            remaining
                .iter()
                .all(|&v| v == u || closed.contains(MOpIdx(u), MOpIdx(v)))
        }) {
            let u = remaining.swap_remove(pos);
            if !problem
                .read_reqs
                .row(u)
                .iter()
                .all(|&(obj, w)| last_writer[obj as usize] == w)
            {
                refuted = true;
                break;
            }
            for &o in problem.write_sets.row(u) {
                last_writer[o as usize] = u as u32;
            }
            peeled_order.push(u as u32);
            if remaining.is_empty() {
                break;
            }
        }
        remaining.sort_unstable();
        ComponentPlan {
            members: remaining.iter().map(|&u| u as u32).collect(),
            peeled_order,
            refuted_in_peel: refuted,
        }
    }

    /// A Figure 6 run of `mops` m-operations over `processes` always-busy
    /// processes on the deterministic simulator, half of them updates.
    fn figure6(processes: usize, mops: usize, seed: u64) -> History {
        let spec = WorkloadSpec {
            processes,
            ops_per_process: mops / processes,
            update_fraction: 0.5,
            ..WorkloadSpec::default()
        };
        let mut rng = StdRng::seed_from_u64(seed);
        let config = ClusterConfig::new(spec.num_objects, seed);
        run_cluster::<MlinOverSequencer>(&config, scripts(&spec, &mut rng)).history
    }

    /// Rows of 100 to 240 records span two to four words. Four concurrent
    /// processes stop the peel early; one process peels all the way down.
    #[test]
    fn peel_matches_the_pairwise_reference_on_figure6_histories() {
        let mut peeled = 0;
        let runs = [
            (4, 100, 1),
            (4, 160, 2),
            (4, 240, 3),
            (1, 130, 5),
            (1, 200, 7),
        ];
        for (processes, mops, seed) in runs {
            let h = figure6(processes, mops, seed);
            for condition in [
                Condition::MSequentialConsistency,
                Condition::MLinearizability,
                Condition::MNormality,
            ] {
                let graph = PrecedenceGraph::for_condition(&h, condition);
                if graph.find_cycle_edges().is_some() {
                    continue;
                }
                let edges: Vec<(u32, u32)> = (graph.edges().iter())
                    .map(|e| (e.from.0 as u32, e.to.0 as u32))
                    .collect();
                let problem = SearchProblem::new(&h, &edges);
                let mut left = BitSet::new(h.len());
                for comp in graph.interaction_components(&h) {
                    let plan = peel(&comp, graph.closed(), &problem, &mut left);
                    let reference = peel_pairwise(&comp, graph.closed(), &problem);
                    let what = format!("{mops} m-ops, seed {seed}, {condition}");
                    assert_eq!(plan.peeled_order, reference.peeled_order, "{what}");
                    assert_eq!(plan.members, reference.members, "{what}");
                    assert_eq!(plan.refuted_in_peel, reference.refuted_in_peel, "{what}");
                    assert_eq!(left.count(), 0, "{what}");
                    peeled += plan.peeled_order.len();
                }
            }
        }
        assert!(peeled > 3 * 330, "{peeled} peeled");
    }

    /// The saturation this module used to run, kept as the reference: every
    /// round tests every (read, writer) pair against the closure the round
    /// found, then closes the whole graph again from nothing.
    fn saturate_by_rounds(g: &mut PrecedenceGraph, h: &History) {
        loop {
            let mut added = false;
            for (alpha, _) in h.iter() {
                for (obj, writer) in h.read_sources(alpha) {
                    for &gamma in h.writers_of(obj) {
                        if gamma == alpha || Some(gamma) == writer {
                            continue;
                        }
                        if g.direct.contains(alpha, gamma)
                            || (g.real_time
                                && h.record(alpha).responded_at < h.record(gamma).invoked_at)
                        {
                            continue;
                        }
                        let premise = match writer {
                            None => true,
                            Some(beta) => g.closed.contains(beta, gamma),
                        };
                        if premise {
                            g.direct.add(alpha, gamma);
                            g.edges.push(Edge {
                                from: alpha,
                                to: gamma,
                                kind: EdgeKind::ReadWrite { beta: writer, obj },
                            });
                            added = true;
                        }
                    }
                }
            }
            if !added {
                break;
            }
            g.closed = g.direct.transitive_closure();
        }
    }

    /// Saturates the graph of `~H` (plus `order`) both ways and holds
    /// everything that leaves the graph to the reference. Returns the
    /// `~rw` edge count and whether the graph is cyclic.
    fn assert_saturates_as_by_rounds(
        h: &History,
        condition: Condition,
        order: &[(MOpIdx, MOpIdx)],
        what: &str,
    ) -> (usize, bool) {
        let mut new = PrecedenceGraph::unsaturated(h, condition, order);
        let mut old = new.clone();
        new.saturate(h);
        saturate_by_rounds(&mut old, h);
        assert_eq!(
            new.edges(),
            old.edges(),
            "{what}: edges in derivation order"
        );
        assert_eq!(new.closed(), old.closed(), "{what}: ~H+");
        assert_eq!(new.forced_edge_count(), old.forced_edge_count(), "{what}");
        let (core, reference) = (new.cycle_proof(), old.cycle_proof());
        assert_eq!(
            format!("{core:?}"),
            format!("{reference:?}"),
            "{what}: core"
        );
        (new.forced_edge_count(), core.is_some())
    }

    const CONDITIONS: [Condition; 3] = [
        Condition::MSequentialConsistency,
        Condition::MLinearizability,
        Condition::MNormality,
    ];

    #[test]
    fn saturation_matches_the_round_based_reference_on_grammar_histories() {
        let (mut forced, mut cyclic) = (0, 0);
        for seed in 0..300 {
            let h = arb::history_from_seed(seed, &GRAMMAR);
            for condition in CONDITIONS {
                let what = format!("seed {seed}, {condition}");
                let (edges, cycle) = assert_saturates_as_by_rounds(&h, condition, &[], &what);
                forced += edges;
                cyclic += usize::from(cycle);
            }
            let tied = with_ties(&h);
            let what = format!("tied seed {seed}");
            assert_saturates_as_by_rounds(&tied, Condition::MLinearizability, &[], &what);
        }
        assert!(
            forced > 3000 && (300..880).contains(&cyclic),
            "{forced} / {cyclic}"
        );
    }

    /// The `check_with_order` route: m-SC over `~p ∪ ~rf` and a caller's
    /// order, here each object's writers chained in index order (as an
    /// atomic broadcast orders updates) or against it.
    #[test]
    fn saturation_matches_the_round_based_reference_with_caller_order() {
        let (mut forced, mut cyclic) = (0, 0);
        for seed in 0..300 {
            let h = arb::history_from_seed(seed, &GRAMMAR);
            let mut order = Vec::new();
            for x in (0..h.num_objects()).map(|x| ObjectId::new(x as u32)) {
                for w in h.writers_of(x).windows(2) {
                    order.push(if seed % 2 == 0 {
                        (w[0], w[1])
                    } else {
                        (w[1], w[0])
                    });
                }
            }
            let what = format!("seed {seed}, {} order pairs", order.len());
            let condition = Condition::MSequentialConsistency;
            let (edges, cycle) = assert_saturates_as_by_rounds(&h, condition, &order, &what);
            forced += edges;
            cyclic += usize::from(cycle);
        }
        assert!(
            forced > 1000 && (10..290).contains(&cyclic),
            "{forced} / {cyclic}"
        );
    }

    /// Rows of 60 to 200 records: premises, writer masks and real-time
    /// suffixes across the 64-bit word boundary.
    #[test]
    fn saturation_matches_the_round_based_reference_on_figure6_histories() {
        let mut forced = 0;
        for (processes, mops, seed) in [(4, 60, 1), (4, 100, 2), (3, 150, 3), (4, 200, 4)] {
            let h = figure6(processes, mops, seed);
            for condition in CONDITIONS {
                let what = format!("{mops} m-ops, seed {seed}, {condition}");
                forced += assert_saturates_as_by_rounds(&h, condition, &[], &what).0;
            }
        }
        assert!(forced > 2000, "{forced}");
    }

    #[test]
    fn empty_history_is_trivially_admissible() {
        let h = HistoryBuilder::new(1).build().unwrap();
        let g = sc_graph(&h, &[]);
        let (out, _) = pruned_search(&h, &g, SearchLimits::default());
        assert_eq!(out, SearchOutcome::Admissible(vec![]));
    }
}
