//! The allocation-lean admissibility engine.
//!
//! Both public searches ([`crate::precedence::pruned_search`], behind every
//! verdict, and [`crate::admissible::find_legal_extension`], the naive
//! reference) compile their input down to a [`SearchProblem`] — CSR
//! adjacency, CSR read requirements and write sets, plus Zobrist keys — and
//! a list of [`ComponentPlan`]s, then hand both to [`execute`], which owns
//! everything from there:
//!
//! * **One depth-first search per component.** [`execute`] walks the plans
//!   in order and searches each from its post-peel state; the first refuted
//!   component (or the node budget) ends the run, and the witness is the
//!   concatenation of every component's forced prefix and schedule.
//! * **Zobrist transposition table.** Search states are pairs of
//!   (scheduled set, last-writer map). Instead of cloning that pair into a
//!   `HashSet` per DFS node, the engine maintains a 64-bit Zobrist hash
//!   incrementally — XOR one key per scheduled m-operation and one per
//!   (object, writer) assignment — and memoizes fingerprints in an
//!   open-addressed table with a configurable capacity bound
//!   (`SearchLimits::max_memo_entries`) and O(1) generation-based eviction.
//!   One table serves a whole component (a state refuted under one first
//!   move is never re-explored under another) and is reset between
//!   components, whose states cannot coincide.
//! * **Allocation-lean state.** The scheduled set is a fixed-width
//!   [`BitSet`], adjacency lives in [`Csr`] arenas, and undo information
//!   goes through one reusable stack: the DFS hot path performs no heap
//!   allocation. Compiling the problem allocates per table, not per row:
//!   the rows are appended into their arenas, and the independence matrix
//!   is one block of bit rows ([`BitRows`]).
//! * **Commutativity symmetry reduction.** From the history's concrete
//!   footprints the problem precomputes a pairwise *independence* matrix
//!   (no relation edge either way, commuting footprints). The DFS then
//!   explores only the canonical ascending order of adjacent independent
//!   m-operations: with `p` scheduled last, a schedulable `j < p`
//!   independent of `p` is skipped, because the schedule continuing
//!   `…, j, p` reaches the identical state and is explored instead. To keep
//!   memoization sound under the skip rule (whose successor set depends on
//!   the last move), the identity of the last scheduled m-operation is
//!   folded into the state hash via a third Zobrist key family.
//!
//! ## Determinism
//!
//! The search is sequential and candidates are tried in ascending index
//! order, so verdicts, witnesses and statistics are a pure function of the
//! problem and the limits. Memoization never changes the outcome, only the
//! node count: a memo hit prunes a sub-tree that was already explored to
//! refutation (an admissible sub-tree ends the search on the spot), so the
//! first witness found is the one the unmemoized search finds.
//!
//! The lone theoretical caveat is shared with every Zobrist-keyed checker
//! (Wing–Gong descendants included): two distinct states may collide in 64
//! bits. The keys come from a fixed-seed SplitMix64 stream, so a collision
//! — vanishingly unlikely at reachable node counts — would at least be the
//! same collision in every run.

use moc_core::bitset::BitSet;
use moc_core::csr::{predecessor_csr, Csr};
use moc_core::history::{History, MOpIdx};

use crate::admissible::{SearchLimits, SearchOutcome, SearchStats};

/// "No writer yet" marker in last-writer maps and read requirements.
pub(crate) const NONE: u32 = u32::MAX;

/// Fixed seed for the Zobrist key stream: keys must be identical across
/// runs and processes for certificates to be reproducible.
const ZOBRIST_SEED: u64 = 0x6d6f_632d_6571_7531; // "moc-equ1"

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Precomputed Zobrist keys: one per m-operation (membership in the
/// scheduled set) and one per (object, writer) pair, where "writer" ranges
/// over every m-operation plus the initial no-writer state.
pub(crate) struct ZobristKeys {
    op_keys: Vec<u64>,
    writer_keys: Vec<u64>,
    /// Keys for "scheduled last": one per m-operation. Folded into the
    /// hash only under the symmetry reduction, whose skip set depends on
    /// the last scheduled m-operation — without them, two states equal in
    /// (scheduled set, last-writer map) but reached through different
    /// last moves would share a memo entry despite exploring different
    /// successor sets, and a memo hit would be unsound.
    last_keys: Vec<u64>,
    /// Keys per object: one per m-operation plus the trailing NONE slot.
    stride: usize,
}

impl ZobristKeys {
    pub(crate) fn new(n: usize, num_objects: usize) -> Self {
        let mut state = ZOBRIST_SEED;
        let stride = n + 1;
        let op_keys = (0..n).map(|_| splitmix64(&mut state)).collect();
        let writer_keys = (0..num_objects * stride)
            .map(|_| splitmix64(&mut state))
            .collect();
        // Drawn after the op/writer keys so those streams are unchanged.
        let last_keys = (0..n).map(|_| splitmix64(&mut state)).collect();
        ZobristKeys {
            op_keys,
            writer_keys,
            last_keys,
            stride,
        }
    }

    #[inline]
    pub(crate) fn op(&self, i: usize) -> u64 {
        self.op_keys[i]
    }

    #[inline]
    pub(crate) fn last_op(&self, i: u32) -> u64 {
        self.last_keys[i as usize]
    }

    #[inline]
    pub(crate) fn writer(&self, obj: u32, writer: u32) -> u64 {
        let w = if writer == NONE {
            self.stride - 1
        } else {
            writer as usize
        };
        self.writer_keys[obj as usize * self.stride + w]
    }
}

/// Open-addressed set of 64-bit state fingerprints with a capacity bound
/// and generation-based eviction.
///
/// A slot is live iff its generation tag equals the current generation, so
/// both eviction (at the capacity bound) and per-component reuse are O(1)
/// generation bumps — no memset on the hot path. The table starts small
/// and doubles (rehashing live entries) until the slot count covers
/// `max_entries` at a ≤ 7/8 load factor; past the bound it evicts instead
/// of growing, and records that it saturated.
pub(crate) struct TranspositionTable {
    fingerprints: Vec<u64>,
    generations: Vec<u32>,
    generation: u32,
    mask: usize,
    occupancy: usize,
    target_len: usize,
    capacity_limit: usize,
    hits: u64,
    peak_occupancy: usize,
    saturated: bool,
}

impl TranspositionTable {
    pub(crate) fn new(max_entries: u64) -> Self {
        let capacity_limit = usize::try_from(max_entries).unwrap_or(usize::MAX).max(16);
        let target_len = capacity_limit
            .saturating_add(capacity_limit / 4)
            .saturating_add(16)
            .checked_next_power_of_two()
            .unwrap_or(1 << 62);
        let initial = 1024.min(target_len);
        TranspositionTable {
            fingerprints: vec![0; initial],
            generations: vec![0; initial],
            generation: 1,
            mask: initial - 1,
            occupancy: 0,
            target_len,
            capacity_limit,
            hits: 0,
            peak_occupancy: 0,
            saturated: false,
        }
    }

    /// Returns whether `hash` was already present (a memo hit); records it
    /// otherwise.
    pub(crate) fn check_and_insert(&mut self, hash: u64) -> bool {
        let mut idx = (hash as usize) & self.mask;
        loop {
            if self.generations[idx] != self.generation {
                self.fingerprints[idx] = hash;
                self.generations[idx] = self.generation;
                self.occupancy += 1;
                if self.occupancy > self.peak_occupancy {
                    self.peak_occupancy = self.occupancy;
                }
                if self.occupancy >= self.insert_threshold() {
                    self.grow_or_evict();
                }
                return false;
            }
            if self.fingerprints[idx] == hash {
                self.hits += 1;
                return true;
            }
            idx = (idx + 1) & self.mask;
        }
    }

    fn insert_threshold(&self) -> usize {
        let len = self.fingerprints.len();
        (len - len / 8).min(self.capacity_limit)
    }

    fn grow_or_evict(&mut self) {
        let len = self.fingerprints.len();
        if self.occupancy >= self.capacity_limit || len >= self.target_len {
            // Generation-based eviction: the table is logically cleared in
            // O(1); stale slots are overwritten lazily.
            self.saturated = true;
            self.bump_generation();
            return;
        }
        let new_len = len * 2;
        let new_mask = new_len - 1;
        let mut fingerprints = vec![0u64; new_len];
        let mut generations = vec![0u32; new_len];
        for i in 0..len {
            if self.generations[i] == self.generation {
                let h = self.fingerprints[i];
                let mut idx = (h as usize) & new_mask;
                while generations[idx] == self.generation {
                    idx = (idx + 1) & new_mask;
                }
                fingerprints[idx] = h;
                generations[idx] = self.generation;
            }
        }
        self.fingerprints = fingerprints;
        self.generations = generations;
        self.mask = new_mask;
    }

    fn bump_generation(&mut self) {
        self.occupancy = 0;
        if self.generation == u32::MAX {
            self.generations.fill(0);
            self.generation = 1;
        } else {
            self.generation += 1;
        }
    }

    /// Clears the table and its stats for the next component.
    pub(crate) fn reset(&mut self) {
        self.bump_generation();
        self.hits = 0;
        self.peak_occupancy = 0;
        self.saturated = false;
    }

    pub(crate) fn hits(&self) -> u64 {
        self.hits
    }

    pub(crate) fn peak_occupancy(&self) -> usize {
        self.peak_occupancy
    }

    pub(crate) fn saturated(&self) -> bool {
        self.saturated
    }
}

/// A matrix of bits in one block: row `i` is a set over `0..width`, held in
/// the words from `i * words` on. One allocation where a [`BitSet`] per row
/// (per record, per object) takes one each.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct BitRows {
    words: usize,
    bits: Vec<u64>,
}

impl BitRows {
    /// `rows` empty rows over `0..width`.
    pub(crate) fn new(rows: usize, width: usize) -> Self {
        let words = width.div_ceil(64);
        BitRows {
            words,
            bits: vec![0; rows * words],
        }
    }

    /// Row `i` as words, least-significant index first.
    #[inline]
    pub(crate) fn row(&self, i: usize) -> &[u64] {
        &self.bits[i * self.words..][..self.words]
    }

    fn row_mut(&mut self, i: usize) -> &mut [u64] {
        &mut self.bits[i * self.words..][..self.words]
    }

    /// Adds `j` to row `i`.
    #[inline]
    pub(crate) fn insert(&mut self, i: usize, j: usize) {
        self.bits[i * self.words + j / 64] |= 1u64 << (j % 64);
    }

    /// Whether row `i` holds `j`.
    #[inline]
    pub(crate) fn contains(&self, i: usize, j: usize) -> bool {
        self.bits[i * self.words + j / 64] & (1u64 << (j % 64)) != 0
    }
}

/// The immutable compilation of one admissibility question.
pub(crate) struct SearchProblem {
    pub(crate) n: usize,
    pub(crate) num_objects: usize,
    /// Direct predecessors per m-operation under the search relation.
    pub(crate) preds: Csr<u32>,
    /// External read requirements per m-operation: (object, writer|NONE).
    pub(crate) read_reqs: Csr<(u32, u32)>,
    /// Objects written per m-operation.
    pub(crate) write_sets: Csr<u32>,
    /// Pairwise independence for the symmetry reduction: row `i` holds
    /// `j` iff `i != j`, no direct relation edge connects them in
    /// either direction, and their footprints commute (disjoint writes,
    /// neither writing what the other reads). Swapping an adjacent
    /// independent pair in a schedule preserves both legality and the
    /// resulting last-writer state, so only the ascending order of such a
    /// pair needs exploring.
    pub(crate) indep: BitRows,
    pub(crate) keys: ZobristKeys,
}

impl SearchProblem {
    /// Compiles `h` and a relation edge list into CSR form plus keys. The
    /// history's read and write tables are copied row by row into arenas
    /// sized from them.
    pub(crate) fn new(h: &History, edges: &[(u32, u32)]) -> Self {
        let n = h.len();
        let preds = predecessor_csr(n, edges.iter().copied());
        let reads = (0..n).map(|i| h.read_sources(MOpIdx(i)).len()).sum();
        let mut read_reqs = Csr::with_capacity(n, reads);
        let writes = (0..n).map(|i| h.wobjects(MOpIdx(i)).len()).sum();
        let mut write_sets = Csr::with_capacity(n, writes);
        for i in (0..n).map(MOpIdx) {
            let source = |w: Option<MOpIdx>| w.map_or(NONE, |w| w.0 as u32);
            read_reqs.push_row(
                h.read_sources(i)
                    .map(|(o, w)| (o.index() as u32, source(w))),
            );
            write_sets.push_row(h.wobjects(i).iter().map(|o| o.index() as u32));
        }
        let indep = independence(h.num_objects(), n, &read_reqs, &write_sets, edges);
        let keys = ZobristKeys::new(n, h.num_objects());
        SearchProblem {
            n,
            num_objects: h.num_objects(),
            preds,
            read_reqs,
            write_sets,
            indep,
            keys,
        }
    }
}

/// Builds the independence matrix (see [`SearchProblem::indep`]) from
/// per-object masks: `i` depends on `j` when an edge relates them, when `j`
/// touches an object `i` writes, or when `j` writes an object `i` reads (an
/// object both write falls under the first). Row `i` is the complement of
/// that union and `{i}`: O(n · footprint · n/64), not a test per pair, in
/// three blocks of rows.
/// Footprints here are the *history's* concrete footprints — external read
/// requirements plus write sets — so the reduction is exact, not an
/// over-approximation.
fn independence(
    num_objects: usize,
    n: usize,
    read_reqs: &Csr<(u32, u32)>,
    write_sets: &Csr<u32>,
    edges: &[(u32, u32)],
) -> BitRows {
    let mut touchers = BitRows::new(num_objects, n);
    let mut writers = BitRows::new(num_objects, n);
    for i in 0..n {
        for &(o, _) in read_reqs.row(i) {
            touchers.insert(o as usize, i);
        }
        for &o in write_sets.row(i) {
            touchers.insert(o as usize, i);
            writers.insert(o as usize, i);
        }
    }
    let mut indep = BitRows::new(n, n);
    for &(a, b) in edges {
        indep.insert(a as usize, b as usize);
        indep.insert(b as usize, a as usize);
    }
    let union = |row: &mut [u64], with: &[u64]| row.iter_mut().zip(with).for_each(|(a, b)| *a |= b);
    let tail = n % 64;
    for i in 0..n {
        indep.insert(i, i);
        let row = indep.row_mut(i);
        for &o in write_sets.row(i) {
            union(row, touchers.row(o as usize));
        }
        for &(o, _) in read_reqs.row(i) {
            union(row, writers.row(o as usize));
        }
        row.iter_mut().for_each(|w| *w = !*w);
        if let Some(last) = row.last_mut().filter(|_| tail > 0) {
            *last &= (1u64 << tail) - 1;
        }
    }
    indep
}

/// One interaction component: its forced prefix and what is left to
/// search. Built by the callers (which own the peeling policy), executed
/// by [`execute`].
pub(crate) struct ComponentPlan {
    /// Members left to schedule after peeling, ascending.
    pub(crate) members: Vec<u32>,
    /// The forced prefix, in the order it was peeled.
    pub(crate) peeled_order: Vec<u32>,
    /// The peel refuted the component (a forced-next op has illegal reads).
    pub(crate) refuted_in_peel: bool,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Step {
    Admissible,
    Refuted,
    Limit,
}

/// The mutable search state, reused across components.
struct SearchContext<'p> {
    p: &'p SearchProblem,
    scheduled: BitSet,
    last_writer: Vec<u32>,
    order: Vec<u32>,
    undo: Vec<(u32, u32)>,
    hash: u64,
    table: TranspositionTable,
    memoize: bool,
    symmetry: bool,
    symmetry_skips: u64,
    /// Nodes expanded so far, over every component: the budget is global.
    nodes: u64,
    max_nodes: u64,
    remaining: usize,
}

impl<'p> SearchContext<'p> {
    fn new(p: &'p SearchProblem, limits: SearchLimits) -> Self {
        SearchContext {
            p,
            scheduled: BitSet::new(p.n),
            last_writer: vec![NONE; p.num_objects],
            order: Vec::with_capacity(p.n),
            undo: Vec::with_capacity(p.n),
            hash: 0,
            table: TranspositionTable::new(limits.max_memo_entries),
            memoize: limits.memoize,
            symmetry: limits.symmetry,
            symmetry_skips: 0,
            nodes: 0,
            max_nodes: limits.max_nodes,
            remaining: 0,
        }
    }

    /// Enters `plan`'s post-peel state: its forced prefix scheduled, the
    /// schedule empty (so the skip rule is inactive at the component
    /// root), the table cleared.
    fn load(&mut self, plan: &ComponentPlan) {
        self.scheduled.clear();
        self.last_writer.fill(NONE);
        self.hash = 0;
        for &u in &plan.peeled_order {
            self.scheduled.insert(u as usize);
            self.hash ^= self.p.keys.op(u as usize);
            for &o in self.p.write_sets.row(u as usize) {
                let old = self.last_writer[o as usize];
                self.hash ^= self.p.keys.writer(o, old) ^ self.p.keys.writer(o, u);
                self.last_writer[o as usize] = u;
            }
        }
        self.order.clear();
        self.undo.clear();
        self.table.reset();
        self.remaining = plan.members.len();
    }

    /// Key of the last m-operation this component's search scheduled (0 at
    /// the component root, where the skip rule is inactive anyway).
    #[inline]
    fn last_op_key(&self) -> u64 {
        self.order.last().map_or(0, |&p| self.p.keys.last_op(p))
    }

    #[inline]
    fn schedule(&mut self, i: usize) {
        if self.symmetry {
            self.hash ^= self.last_op_key() ^ self.p.keys.last_op(i as u32);
        }
        self.scheduled.insert(i);
        self.remaining -= 1;
        self.order.push(i as u32);
        self.hash ^= self.p.keys.op(i);
        for &o in self.p.write_sets.row(i) {
            let old = self.last_writer[o as usize];
            self.undo.push((o, old));
            self.hash ^= self.p.keys.writer(o, old) ^ self.p.keys.writer(o, i as u32);
            self.last_writer[o as usize] = i as u32;
        }
    }

    #[inline]
    fn unschedule(&mut self, i: usize, undo_mark: usize) {
        while self.undo.len() > undo_mark {
            let (o, old) = self.undo.pop().expect("undo frame");
            let cur = self.last_writer[o as usize];
            self.hash ^= self.p.keys.writer(o, cur) ^ self.p.keys.writer(o, old);
            self.last_writer[o as usize] = old;
        }
        self.hash ^= self.p.keys.op(i);
        self.order.pop();
        self.remaining += 1;
        self.scheduled.remove(i);
        if self.symmetry {
            self.hash ^= self.p.keys.last_op(i as u32) ^ self.last_op_key();
        }
    }

    fn dfs(&mut self, members: &[u32]) -> Step {
        if self.remaining == 0 {
            return Step::Admissible;
        }
        self.nodes += 1;
        if self.nodes > self.max_nodes {
            return Step::Limit;
        }
        if self.memoize && self.table.check_and_insert(self.hash) {
            return Step::Refuted;
        }
        // Symmetry reduction: with `p` scheduled last, a schedulable `j < p`
        // independent of `p` is skipped — the schedule continuing `…, j, p`
        // (identical state, canonical order) covers it.
        let last = if self.symmetry {
            self.order.last().copied()
        } else {
            None
        };
        for &iu in members {
            let i = iu as usize;
            if self.scheduled.contains(i) {
                continue;
            }
            if !self
                .p
                .preds
                .row(i)
                .iter()
                .all(|&q| self.scheduled.contains(q as usize))
            {
                continue;
            }
            if !self
                .p
                .read_reqs
                .row(i)
                .iter()
                .all(|&(o, w)| self.last_writer[o as usize] == w)
            {
                continue;
            }
            if let Some(p) = last {
                if iu < p && self.p.indep.contains(p as usize, i) {
                    self.symmetry_skips += 1;
                    continue;
                }
            }
            let mark = self.undo.len();
            self.schedule(i);
            match self.dfs(members) {
                Step::Refuted => self.unschedule(i, mark),
                done => return done,
            }
        }
        Step::Refuted
    }
}

/// Runs the component plans, in order, to a verdict. Returns the engine's
/// share of the statistics (`nodes`, `memo_hits`, `memo_peak`,
/// `memo_saturated`, `symmetry_skips`, `peeled`); callers fill in
/// `components` and `forced_edges`.
pub(crate) fn execute(
    problem: &SearchProblem,
    plans: &[ComponentPlan],
    limits: SearchLimits,
) -> (SearchOutcome, SearchStats) {
    let mut ctx = SearchContext::new(problem, limits);
    let mut stats = SearchStats::default();
    let mut witness: Vec<u32> = Vec::with_capacity(problem.n);
    let verdict = 'plans: {
        for plan in plans {
            stats.peeled += plan.peeled_order.len() as u64;
            if plan.refuted_in_peel {
                break 'plans Step::Refuted;
            }
            witness.extend(&plan.peeled_order);
            if plan.members.is_empty() {
                continue;
            }
            ctx.load(plan);
            let step = ctx.dfs(&plan.members);
            stats.memo_hits += ctx.table.hits();
            stats.memo_peak = stats.memo_peak.max(ctx.table.peak_occupancy() as u64);
            stats.memo_saturated |= ctx.table.saturated();
            match step {
                Step::Admissible => witness.extend(&ctx.order),
                stop => break 'plans stop,
            }
        }
        Step::Admissible
    };
    stats.nodes = ctx.nodes;
    stats.symmetry_skips = ctx.symmetry_skips;
    let outcome = match verdict {
        Step::Admissible => {
            SearchOutcome::Admissible(witness.into_iter().map(|u| MOpIdx(u as usize)).collect())
        }
        Step::Refuted => SearchOutcome::NotAdmissible,
        Step::Limit => SearchOutcome::LimitExceeded,
    };
    (outcome, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conditions::Condition;
    use crate::precedence::PrecedenceGraph;
    use moc_workload::arb::{self, HistoryBounds};

    /// The per-row-vector constructors `Csr` offered before rows were
    /// appended into its arena in place, for the tests that build their
    /// footprints that way.
    trait FromRows<T>: Sized {
        fn from_fn(n: usize, row: impl FnMut(usize) -> Vec<T>) -> Self;
        fn from_rows(rows: &[Vec<T>]) -> Self
        where
            T: Clone,
        {
            Self::from_fn(rows.len(), |i| rows[i].clone())
        }
    }

    impl<T> FromRows<T> for Csr<T> {
        fn from_fn(n: usize, mut row: impl FnMut(usize) -> Vec<T>) -> Self {
            let mut csr = Csr::with_capacity(n, 0);
            (0..n).for_each(|i| csr.push_row(row(i)));
            csr
        }
    }

    /// The matrix this module used to build, kept as the reference: every
    /// pair tested, two footprint intersections each.
    fn independence_pairwise(
        num_objects: usize,
        n: usize,
        read_reqs: &Csr<(u32, u32)>,
        write_sets: &Csr<u32>,
        edges: &[(u32, u32)],
    ) -> BitRows {
        let mut touch: Vec<BitSet> = (0..n).map(|_| BitSet::new(num_objects)).collect();
        let mut writes: Vec<BitSet> = (0..n).map(|_| BitSet::new(num_objects)).collect();
        for i in 0..n {
            for &(o, _) in read_reqs.row(i) {
                touch[i].insert(o as usize);
            }
            for &o in write_sets.row(i) {
                touch[i].insert(o as usize);
                writes[i].insert(o as usize);
            }
        }
        let mut related: Vec<BitSet> = (0..n).map(|_| BitSet::new(n)).collect();
        for &(a, b) in edges {
            related[a as usize].insert(b as usize);
            related[b as usize].insert(a as usize);
        }
        let disjoint =
            |a: &BitSet, b: &BitSet| a.words().iter().zip(b.words()).all(|(&x, &y)| x & y == 0);
        let mut indep = BitRows::new(n, n);
        for i in 0..n {
            for j in i + 1..n {
                if !related[i].contains(j)
                    && disjoint(&writes[i], &touch[j])
                    && disjoint(&writes[j], &touch[i])
                {
                    indep.insert(i, j);
                    indep.insert(j, i);
                }
            }
        }
        indep
    }

    /// Random footprints and edges at widths around the word boundary: the
    /// tail word is where a mask bug hides.
    #[test]
    fn independence_matches_the_pairwise_reference_at_word_boundaries() {
        let mut state = 0x696e_6465_7065_6e64u64;
        let mut next = move |bound: usize| splitmix64(&mut state) as usize % bound;
        for n in [1, 63, 64, 65, 130] {
            for round in 0..12 {
                let objects = 1 + next(6);
                let mut footprint = |len: usize| -> Vec<u32> {
                    let mut objs: Vec<u32> = (0..len).map(|_| next(objects) as u32).collect();
                    objs.sort_unstable();
                    objs.dedup();
                    objs
                };
                let reads: Vec<Vec<u32>> = (0..n).map(|_| footprint(round % 3)).collect();
                let writes: Vec<Vec<u32>> = (0..n).map(|_| footprint(round % 2 + 1)).collect();
                let read_reqs = Csr::from_fn(n, |i| reads[i].iter().map(|&o| (o, NONE)).collect());
                let write_sets = Csr::from_rows(&writes);
                let edges: Vec<(u32, u32)> = (0..next(3 * n + 1))
                    .map(|_| (next(n) as u32, next(n) as u32))
                    .collect();
                assert_eq!(
                    independence(objects, n, &read_reqs, &write_sets, &edges),
                    independence_pairwise(objects, n, &read_reqs, &write_sets, &edges),
                    "n {n}, round {round}"
                );
            }
        }
    }

    #[test]
    fn independence_matches_the_pairwise_reference_on_grammar_histories() {
        let bounds = HistoryBounds {
            processes: 5,
            mops_per_process: 15,
            objects: 5,
            max_span: 3,
            update_fraction: 0.5,
        };
        let mut independent = 0;
        for seed in 0..120 {
            let h = arb::history_from_seed(seed, &bounds);
            let graph = PrecedenceGraph::for_condition(&h, Condition::MSequentialConsistency);
            let edges: Vec<(u32, u32)> = (graph.edges().iter())
                .map(|e| (e.from.0 as u32, e.to.0 as u32))
                .collect();
            let p = SearchProblem::new(&h, &edges);
            let reference =
                independence_pairwise(p.num_objects, p.n, &p.read_reqs, &p.write_sets, &edges);
            assert_eq!(p.indep, reference, "seed {seed}");
            independent += p
                .indep
                .bits
                .iter()
                .map(|w| w.count_ones() as usize)
                .sum::<usize>();
        }
        assert!(independent > 0, "no independent pair to compare");
    }

    #[test]
    fn zobrist_keys_are_deterministic_and_distinct() {
        let a = ZobristKeys::new(8, 3);
        let b = ZobristKeys::new(8, 3);
        for i in 0..8 {
            assert_eq!(a.op(i), b.op(i));
        }
        assert_eq!(a.writer(2, NONE), b.writer(2, NONE));
        let mut all: Vec<u64> = (0..8).map(|i| a.op(i)).collect();
        for obj in 0..3u32 {
            all.push(a.writer(obj, NONE));
            for w in 0..8u32 {
                all.push(a.writer(obj, w));
            }
        }
        let n = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), n, "keys collide");
    }

    #[test]
    fn transposition_table_hits_on_reinsert() {
        let mut t = TranspositionTable::new(1 << 10);
        assert!(!t.check_and_insert(42));
        assert!(t.check_and_insert(42));
        assert_eq!(t.hits(), 1);
        assert!(!t.check_and_insert(43));
        assert_eq!(t.peak_occupancy(), 2);
        assert!(!t.saturated());
    }

    #[test]
    fn transposition_table_grows_then_evicts_at_cap() {
        let mut t = TranspositionTable::new(64);
        for h in 0..64u64 {
            assert!(!t.check_and_insert(h.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1));
        }
        assert!(t.saturated(), "cap of 64 entries forces eviction");
        // Post-eviction the table is logically empty again.
        assert!(!t.check_and_insert(12345));
        assert!(t.check_and_insert(12345));
    }

    #[test]
    fn table_reset_clears_stats_and_entries() {
        let mut t = TranspositionTable::new(1 << 10);
        t.check_and_insert(7);
        t.check_and_insert(7);
        t.reset();
        assert_eq!(t.hits(), 0);
        assert_eq!(t.peak_occupancy(), 0);
        assert!(!t.check_and_insert(7), "entries evicted by reset");
    }

    #[test]
    fn generation_eviction_survives_many_resets() {
        let mut t = TranspositionTable::new(32);
        for round in 0..100u64 {
            t.reset();
            for h in 0..16u64 {
                assert!(!t.check_and_insert((round << 32) | (h + 1)));
            }
        }
    }
}
