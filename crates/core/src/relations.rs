//! Relations over the m-operations of a history.
//!
//! A history `H = (op(H), ~H)` pairs the set of m-operations with an
//! irreflexive transitive relation that includes the process orders and the
//! reads-from relation (Section 2.2) — and, depending on the consistency
//! condition under consideration, the real-time order `~t` or the object
//! order `~x` (Section 2.3). [`Relation`] is a dense bitset digraph over
//! history indices with the closure, acyclicity and linear-extension
//! operations the checker needs.

use std::fmt;

use crate::bitset::BitSet;
use crate::history::{History, MOpIdx};

/// A binary relation over `n` m-operations, stored as a dense bit matrix.
#[derive(Clone, PartialEq, Eq)]
pub struct Relation {
    n: usize,
    words_per_row: usize,
    bits: Vec<u64>,
}

impl Relation {
    /// Creates an empty relation over `n` elements.
    pub fn new(n: usize) -> Self {
        let words_per_row = n.div_ceil(64);
        Relation {
            n,
            words_per_row,
            bits: vec![0; n * words_per_row],
        }
    }

    /// Number of elements the relation ranges over.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Returns `true` if the relation ranges over zero elements.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Adds the pair `(i, j)` — "i is ordered before j".
    ///
    /// # Panics
    ///
    /// Panics if `i` or `j` is out of range.
    pub fn add(&mut self, i: MOpIdx, j: MOpIdx) {
        assert!(i.0 < self.n && j.0 < self.n, "relation index out of range");
        let base = i.0 * self.words_per_row;
        self.bits[base + j.0 / 64] |= 1u64 << (j.0 % 64);
    }

    /// Whether the pair `(i, j)` is in the relation.
    pub fn contains(&self, i: MOpIdx, j: MOpIdx) -> bool {
        let base = i.0 * self.words_per_row;
        self.bits[base + j.0 / 64] & (1u64 << (j.0 % 64)) != 0
    }

    /// The successors of `i` as bit words, least-significant index first;
    /// bits at and above `n` in the last word are clear.
    pub fn row(&self, i: MOpIdx) -> &[u64] {
        let base = i.0 * self.words_per_row;
        &self.bits[base..base + self.words_per_row]
    }

    /// Whether `i` is related to every member of `set` other than itself:
    /// `set ⊆ row(i) ∪ {i}`, a word at a time. The peeling test of the
    /// pruned search and the sentinel.
    pub fn precedes_all(&self, i: MOpIdx, set: &BitSet) -> bool {
        let own = (i.0 / 64, 1u64 << (i.0 % 64));
        let mut pairs = self.row(i).iter().zip(set.words()).enumerate();
        pairs.all(|(k, (&row, &word))| {
            let others = if k == own.0 { word & !own.1 } else { word };
            others & !row == 0
        })
    }

    /// Whether `i` and `j` are ordered one way or the other.
    pub fn ordered(&self, i: MOpIdx, j: MOpIdx) -> bool {
        self.contains(i, j) || self.contains(j, i)
    }

    /// Union with another relation over the same elements.
    ///
    /// # Panics
    ///
    /// Panics if the relations range over different numbers of elements.
    pub fn union(&self, other: &Relation) -> Relation {
        assert_eq!(self.n, other.n, "relation size mismatch");
        let mut out = self.clone();
        for (a, b) in out.bits.iter_mut().zip(&other.bits) {
            *a |= *b;
        }
        out
    }

    /// Removes every pair, keeping the storage.
    pub fn clear(&mut self) {
        self.bits.fill(0);
    }

    /// Merges `other` into `self`.
    pub fn union_in_place(&mut self, other: &Relation) {
        assert_eq!(self.n, other.n, "relation size mismatch");
        for (a, b) in self.bits.iter_mut().zip(&other.bits) {
            *a |= *b;
        }
    }

    /// Number of pairs in the relation.
    pub fn edge_count(&self) -> usize {
        self.bits.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Iterates over all pairs `(i, j)` in the relation.
    pub fn edges(&self) -> impl Iterator<Item = (MOpIdx, MOpIdx)> + '_ {
        (0..self.n).flat_map(move |i| self.successors(MOpIdx(i)).map(move |j| (MOpIdx(i), j)))
    }

    /// Iterates over the successors of `i`.
    pub fn successors(&self, i: MOpIdx) -> impl Iterator<Item = MOpIdx> + '_ {
        BitIter::words(self.row(i)).map(MOpIdx)
    }

    /// The predecessors of `j` (linear scan over rows).
    pub fn predecessors(&self, j: MOpIdx) -> Vec<MOpIdx> {
        (0..self.n)
            .map(MOpIdx)
            .filter(|&i| self.contains(i, j))
            .collect()
    }

    /// Reflexive-free transitive closure, closed along the condensation:
    /// [`tarjan_scc`] hands over the strongly connected components in reverse
    /// topological order, so a component's row is its members' successors
    /// plus the finished rows of the components those lie in — O((n + E) ·
    /// n/64) for E pairs.
    ///
    /// The members of a cyclic component share one row that contains
    /// themselves (each is some member's successor): the closure of a cyclic
    /// relation is *not* irreflexive; use [`Relation::is_irreflexive`]
    /// afterwards to detect that case.
    pub fn transitive_closure(&self) -> Relation {
        let wpr = self.words_per_row;
        let mut out = Relation::new(self.n);
        // Whether a vertex's component, and with it its row, is finished.
        let mut closed = vec![false; self.n];
        let mut row = vec![0u64; wpr];
        let succs = |v: u32| self.successors(MOpIdx(v as usize)).map(|w| w.0 as u32);
        tarjan_scc(self.n, succs, |members| {
            row.fill(0);
            for w in members.iter().flat_map(|&m| succs(m)).map(|w| w as usize) {
                // One already in the row came with a row that covers its own.
                if row[w / 64] & (1u64 << (w % 64)) == 0 {
                    row[w / 64] |= 1u64 << (w % 64);
                    if closed[w] {
                        let reach = &out.bits[w * wpr..][..wpr];
                        row.iter_mut().zip(reach).for_each(|(x, y)| *x |= *y);
                    }
                }
            }
            for &m in members {
                out.bits[m as usize * wpr..][..wpr].copy_from_slice(&row);
                closed[m as usize] = true;
            }
        });
        out
    }

    /// Adds `(i, j)` for every `j` in `targets`, a row's worth of bit words,
    /// to a relation that is its own transitive closure, and closes it
    /// again: every `u` with `u = i` or `u ~ i` gains each `j` and `j`'s
    /// successors, and every pair that enters is also added to `gained`.
    /// Pairs out of `i` never change who reaches `i`, so one scan for those
    /// `u` serves all of `targets`. The closure of a relation grown this
    /// way, from empty, is [`Relation::transitive_closure`]'s, cycles
    /// included.
    ///
    /// What `i` lacks is gathered on the stack when the rows are at most
    /// 512 elements long (a sentinel window's), so that growing the closure
    /// allocates nothing; a longer row gathers it on the heap.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range, `targets` is not one row long, or the
    /// relations range over different numbers of elements.
    pub fn add_closed(&mut self, i: MOpIdx, targets: &[u64], gained: &mut Relation) {
        assert!(i.0 < self.n, "relation index out of range");
        assert_eq!(targets.len(), self.words_per_row, "not a row");
        assert_eq!(self.n, gained.n, "relation size mismatch");
        let wpr = self.words_per_row;
        let mut small = ([0u64; 8], [0usize; 8]);
        let mut large = (Vec::new(), Vec::new());
        let (lacks, at) = if wpr <= small.0.len() {
            (&mut small.0[..wpr], &mut small.1[..wpr])
        } else {
            large.0.resize(wpr, 0);
            large.1.resize(wpr, 0);
            (&mut large.0[..], &mut large.1[..])
        };
        // What `i` lacks. A `j` it has came with its successors, as did one
        // an earlier `j` brought, and a row that reaches `i` has all `i`
        // has: the rest, as words `lacks[..m]` at `at[..m]`, is usually a
        // word or two of a long row, or nothing.
        for j in BitIter::words(targets) {
            let bit = 1u64 << (j % 64);
            if self.contains(i, MOpIdx(j)) || lacks[j / 64] & bit != 0 {
                continue;
            }
            lacks
                .iter_mut()
                .zip(self.row(MOpIdx(j)))
                .for_each(|(l, r)| *l |= r);
            lacks[j / 64] |= bit;
        }
        let mut m = 0;
        for k in 0..wpr {
            let bits = lacks[k] & !self.bits[i.0 * wpr + k];
            if bits != 0 {
                (lacks[m], at[m]) = (bits, k);
                m += 1;
            }
        }
        if m == 0 {
            return;
        }
        for u in 0..self.n {
            if u != i.0 && !self.contains(MOpIdx(u), i) {
                continue;
            }
            for (&k, &bits) in at[..m].iter().zip(&lacks[..m]) {
                let own = &mut self.bits[u * wpr + k];
                gained.bits[u * wpr + k] |= bits & !*own;
                *own |= bits;
            }
        }
    }

    /// Whether no element is related to itself.
    pub fn is_irreflexive(&self) -> bool {
        (0..self.n).all(|i| !self.contains(MOpIdx(i), MOpIdx(i)))
    }

    /// Whether the relation, viewed as a digraph, contains a cycle
    /// (Kahn's algorithm; self-loops count as cycles).
    pub fn has_cycle(&self) -> bool {
        self.topological_sort().is_none()
    }

    /// An explicit cycle in the digraph — the visited vertices in order,
    /// each related to the next and the last related to the first — or
    /// `None` if the relation is acyclic. Self-loops yield a 1-cycle.
    pub fn find_cycle(&self) -> Option<Vec<MOpIdx>> {
        // Iterative coloring DFS: 0 = white, 1 = on stack, 2 = done.
        let mut color = vec![0u8; self.n];
        let mut parent = vec![usize::MAX; self.n];
        for root in 0..self.n {
            if color[root] != 0 {
                continue;
            }
            let mut stack = vec![(root, self.successors(MOpIdx(root)))];
            color[root] = 1;
            while let Some((v, succ)) = stack.last_mut() {
                let v = *v;
                match succ.next() {
                    Some(MOpIdx(w)) if color[w] == 1 => {
                        // Back edge v -> w: unwind the chain w .. v.
                        let mut cycle = vec![MOpIdx(v)];
                        let mut cur = v;
                        while cur != w {
                            cur = parent[cur];
                            cycle.push(MOpIdx(cur));
                        }
                        cycle.reverse();
                        return Some(cycle);
                    }
                    Some(MOpIdx(w)) if color[w] == 0 => {
                        color[w] = 1;
                        parent[w] = v;
                        stack.push((w, self.successors(MOpIdx(w))));
                    }
                    Some(_) => {}
                    None => {
                        color[v] = 2;
                        stack.pop();
                    }
                }
            }
        }
        None
    }

    /// A topological order of the digraph, or `None` if it is cyclic.
    /// Deterministic: among ready elements, the smallest index goes first.
    pub fn topological_sort(&self) -> Option<Vec<MOpIdx>> {
        let mut indegree = vec![0usize; self.n];
        for (_, j) in self.edges() {
            indegree[j.0] += 1;
        }
        let mut ready: std::collections::BinaryHeap<std::cmp::Reverse<usize>> = (0..self.n)
            .filter(|&i| indegree[i] == 0)
            .map(std::cmp::Reverse)
            .collect();
        let mut order = Vec::with_capacity(self.n);
        while let Some(std::cmp::Reverse(i)) = ready.pop() {
            order.push(MOpIdx(i));
            for j in self.successors(MOpIdx(i)) {
                indegree[j.0] -= 1;
                if indegree[j.0] == 0 {
                    ready.push(std::cmp::Reverse(j.0));
                }
            }
        }
        (order.len() == self.n).then_some(order)
    }

    /// Whether this relation is a strict total order (every distinct pair
    /// ordered, irreflexive, acyclic).
    pub fn is_total_order(&self) -> bool {
        if !self.is_irreflexive() || self.has_cycle() {
            return false;
        }
        for i in 0..self.n {
            for j in (i + 1)..self.n {
                if !self.ordered(MOpIdx(i), MOpIdx(j)) {
                    return false;
                }
            }
        }
        true
    }

    /// Builds the total order induced by a sequence (each element before all
    /// later ones).
    ///
    /// # Panics
    ///
    /// Panics if `sequence` is not a permutation of `0..n`.
    pub fn from_sequence(n: usize, sequence: &[MOpIdx]) -> Relation {
        assert_eq!(sequence.len(), n, "sequence must cover all elements");
        let mut seen = vec![false; n];
        for &i in sequence {
            assert!(!seen[i.0], "sequence repeats an element");
            seen[i.0] = true;
        }
        let mut rel = Relation::new(n);
        for (a, &i) in sequence.iter().enumerate() {
            for &j in &sequence[a + 1..] {
                rel.add(i, j);
            }
        }
        rel
    }

    /// Whether `other ⊆ self` as sets of pairs.
    pub fn includes(&self, other: &Relation) -> bool {
        assert_eq!(self.n, other.n, "relation size mismatch");
        self.bits.iter().zip(&other.bits).all(|(a, b)| b & !a == 0)
    }
}

impl fmt::Debug for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Relation({} elems, {} edges: ",
            self.n,
            self.edge_count()
        )?;
        let mut first = true;
        for (i, j) in self.edges() {
            if !first {
                f.write_str(", ")?;
            }
            first = false;
            write!(f, "{}<{}", i.0, j.0)?;
        }
        f.write_str(")")
    }
}

struct BitIter {
    word: u64,
    offset: usize,
}

impl BitIter {
    /// The indices of the bits set in `words`, ascending.
    fn words(words: &[u64]) -> impl Iterator<Item = usize> + '_ {
        let word_at = |(w, &word)| BitIter {
            word,
            offset: w * 64,
        };
        words.iter().enumerate().flat_map(word_at)
    }
}

impl Iterator for BitIter {
    type Item = usize;
    fn next(&mut self) -> Option<usize> {
        if self.word == 0 {
            return None;
        }
        let tz = self.word.trailing_zeros() as usize;
        self.word &= self.word - 1;
        Some(self.offset + tz)
    }
}

/// Tarjan's strongly-connected components of the digraph on `0..n` whose
/// successors `succs` yields, iterative (no recursion), each handed to
/// `component` in reverse topological order, ascending.
///
/// A component is handed over where it lies, on top of Tarjan's stack
/// (sorted there, then popped): finding every component costs the five
/// tables the search keeps, whatever their number.
///
/// This is the workspace's one shared cycle-detection kernel: the closure
/// above, the admissibility search, the condensation and the
/// refutation-core extraction all go through it.
pub fn tarjan_scc<I>(n: usize, succs: impl Fn(u32) -> I, mut component: impl FnMut(&[u32]))
where
    I: Iterator<Item = u32>,
{
    const UNSET: u32 = u32::MAX;
    let mut index = vec![UNSET; n];
    let mut lowlink = vec![0u32; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<u32> = Vec::new();
    let mut next_index = 0u32;

    // Explicit DFS frames: (vertex, its successors not yet looked at).
    let mut frames = Vec::new();
    for root in 0..n as u32 {
        let mut enter = (index[root as usize] == UNSET).then_some(root);
        loop {
            if let Some(v) = enter.take() {
                index[v as usize] = next_index;
                lowlink[v as usize] = next_index;
                next_index += 1;
                stack.push(v);
                on_stack[v as usize] = true;
                frames.push((v as usize, succs(v)));
            }
            let Some((v, rest)) = frames.last_mut() else {
                break;
            };
            let v = *v;
            match rest.next().map(|w| w as usize) {
                Some(w) if index[w] == UNSET => enter = Some(w as u32),
                Some(w) if on_stack[w] => lowlink[v] = lowlink[v].min(index[w]),
                Some(_) => {}
                None => {
                    frames.pop();
                    if let Some(&(parent, _)) = frames.last() {
                        lowlink[parent] = lowlink[parent].min(lowlink[v]);
                    }
                    if lowlink[v] == index[v] {
                        // `v` roots a component: it and all above it.
                        let first = stack.iter().rposition(|&u| u as usize == v);
                        let first = first.expect("tarjan stack");
                        let comp = &mut stack[first..];
                        comp.iter().for_each(|&w| on_stack[w as usize] = false);
                        comp.sort_unstable();
                        component(comp);
                        stack.truncate(first);
                    }
                }
            }
        }
    }
}

/// Process order `~p`: α before β iff both are issued by the same process
/// and α's per-process sequence number is smaller (Section 2.1).
pub fn process_order(h: &History) -> Relation {
    let mut rel = Relation::new(h.len());
    for idxs in h.subhistories() {
        for (a, &i) in idxs.iter().enumerate() {
            for &j in &idxs[a + 1..] {
                rel.add(i, j);
            }
        }
    }
    rel
}

/// Reads-from `~rf`: β before α iff some read of α reads from some write of
/// β (Section 2.1). Reads from the imaginary initial m-operation contribute
/// no pair.
pub fn reads_from(h: &History) -> Relation {
    let mut rel = Relation::new(h.len());
    for (alpha, _) in h.iter() {
        for (_, writer) in h.read_sources(alpha) {
            if let Some(beta) = writer {
                if beta != alpha {
                    rel.add(beta, alpha);
                }
            }
        }
    }
    rel
}

/// Real-time order `~t`: α before β iff `resp(α) < inv(β)` (Section 2.3).
pub fn real_time(h: &History) -> Relation {
    let mut rel = Relation::new(h.len());
    for (a, ra) in h.iter() {
        for (b, rb) in h.iter() {
            if a != b && ra.responded_at < rb.invoked_at {
                rel.add(a, b);
            }
        }
    }
    rel
}

/// Object order `~x`: α before β iff they share an object *and*
/// `resp(α) < inv(β)` (Section 2.3; used by m-normality).
pub fn object_order(h: &History) -> Relation {
    let mut rel = Relation::new(h.len());
    for (a, ra) in h.iter() {
        for (b, rb) in h.iter() {
            if a != b
                && ra.responded_at < rb.invoked_at
                && h.objects(a).iter().any(|o| h.objects(b).contains(o))
            {
                rel.add(a, b);
            }
        }
    }
    rel
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::HistoryBuilder;
    use crate::ids::{ObjectId, ProcessId};

    fn pid(i: u32) -> ProcessId {
        ProcessId::new(i)
    }
    fn oid(i: u32) -> ObjectId {
        ObjectId::new(i)
    }
    fn m(i: usize) -> MOpIdx {
        MOpIdx(i)
    }

    #[test]
    fn add_contains_union() {
        let mut a = Relation::new(3);
        a.add(m(0), m(1));
        let mut b = Relation::new(3);
        b.add(m(1), m(2));
        assert!(a.contains(m(0), m(1)));
        assert!(!a.contains(m(1), m(0)));
        let u = a.union(&b);
        assert!(u.contains(m(0), m(1)) && u.contains(m(1), m(2)));
        assert_eq!(u.edge_count(), 2);
        assert!(u.includes(&a) && u.includes(&b));
        assert!(!a.includes(&b));
    }

    #[test]
    fn closure_chains() {
        let mut r = Relation::new(4);
        r.add(m(0), m(1));
        r.add(m(1), m(2));
        r.add(m(2), m(3));
        let c = r.transitive_closure();
        assert!(c.contains(m(0), m(3)));
        assert!(c.is_irreflexive());
        assert!(!c.contains(m(3), m(0)));
    }

    #[test]
    fn closure_exposes_cycles_as_self_loops() {
        let mut r = Relation::new(2);
        r.add(m(0), m(1));
        r.add(m(1), m(0));
        let c = r.transitive_closure();
        assert!(!c.is_irreflexive());
        assert!(r.has_cycle());
    }

    /// The closure this crate used to compute, kept as the reference:
    /// Warshall, here pair by pair.
    fn warshall(r: &Relation) -> Relation {
        let mut out = r.clone();
        for k in 0..r.n {
            for i in 0..r.n {
                if out.contains(m(i), m(k)) {
                    for j in 0..r.n {
                        if out.contains(m(k), m(j)) {
                            out.add(m(i), m(j));
                        }
                    }
                }
            }
        }
        out
    }

    #[test]
    fn closure_equals_warshall_on_random_relations() {
        // SplitMix64: sizes across the word boundary, densities from a few
        // pairs (forests, long chains) to most of them (one big component),
        // self-loops included.
        let mut state = 0x6d6f_632d_636c_6f73u64;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let (mut cyclic, mut multi_member) = (0, 0);
        for case in 0..400 {
            let n = [1, 2, 5, 17, 63, 64, 65, 130][case % 8];
            let pairs = next() as usize % (3 * n + 1);
            let mut r = Relation::new(n);
            for _ in 0..pairs {
                r.add(m(next() as usize % n), m(next() as usize % n));
            }
            let closed = r.transitive_closure();
            assert_eq!(closed, warshall(&r), "case {case}: {r:?}");
            cyclic += usize::from(!closed.is_irreflexive());
            multi_member += usize::from((0..n).any(|i| {
                (0..i).any(|j| closed.contains(m(i), m(j)) && closed.contains(m(j), m(i)))
            }));
        }
        assert!(
            cyclic > 100 && multi_member > 100,
            "{cyclic} / {multi_member}"
        );
    }

    /// The closure grown a few pairs out of one element at a time, as the
    /// saturation grows `~H+`, against the closure of all the pairs at once
    /// after every step, with `gained` holding exactly what each step added.
    #[test]
    fn add_closed_equals_the_closure_on_random_relations() {
        let mut state = 0x6164_645f_636c_6f73u64;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let (mut cyclic, mut no_ops) = (0, 0);
        for case in 0..300 {
            let n = [1, 2, 5, 17, 63, 64, 65, 130][case % 8];
            let steps = next() as usize % (2 * n + 1);
            let (mut r, mut closed) = (Relation::new(n), Relation::new(n));
            for k in 0..steps {
                // One to three targets, repeats and `i` itself allowed.
                let i = m(next() as usize % n);
                let mut targets = Relation::new(n);
                for _ in 0..1 + next() % 3 {
                    let j = m(next() as usize % n);
                    targets.add(i, j);
                    r.add(i, j);
                }
                let before = closed.clone();
                let mut gained = Relation::new(n);
                closed.add_closed(i, targets.row(i), &mut gained);
                assert_eq!(closed, r.transitive_closure(), "case {case}, step {k}");
                let mut fresh = before.clone();
                fresh.union_in_place(&gained);
                assert_eq!(fresh, closed, "case {case}, step {k}: gained");
                assert!(
                    (0..n).all(|u| before
                        .row(m(u))
                        .iter()
                        .zip(gained.row(m(u)))
                        .all(|(b, g)| b & g == 0)),
                    "case {case}, step {k}: gained only what is new"
                );
                no_ops += usize::from(gained.edge_count() == 0);
            }
            cyclic += usize::from(!closed.is_irreflexive());
        }
        assert!(cyclic > 80 && no_ops > 100, "{cyclic} / {no_ops}");
    }

    /// The Tarjan this crate used to run, kept as the reference: each
    /// component split off the stack into a vector of its own.
    fn tarjan_scc_vecs<I>(n: usize, succs: impl Fn(u32) -> I) -> Vec<Vec<u32>>
    where
        I: Iterator<Item = u32>,
    {
        const UNSET: u32 = u32::MAX;
        let mut index = vec![UNSET; n];
        let mut lowlink = vec![0u32; n];
        let mut on_stack = vec![false; n];
        let mut stack: Vec<u32> = Vec::new();
        let mut next_index = 0u32;
        let mut comps = Vec::new();
        let mut frames = Vec::new();
        for root in 0..n as u32 {
            let mut enter = (index[root as usize] == UNSET).then_some(root);
            loop {
                if let Some(v) = enter.take() {
                    index[v as usize] = next_index;
                    lowlink[v as usize] = next_index;
                    next_index += 1;
                    stack.push(v);
                    on_stack[v as usize] = true;
                    frames.push((v as usize, succs(v)));
                }
                let Some((v, rest)) = frames.last_mut() else {
                    break;
                };
                let v = *v;
                match rest.next().map(|w| w as usize) {
                    Some(w) if index[w] == UNSET => enter = Some(w as u32),
                    Some(w) if on_stack[w] => lowlink[v] = lowlink[v].min(index[w]),
                    Some(_) => {}
                    None => {
                        frames.pop();
                        if let Some(&(parent, _)) = frames.last() {
                            lowlink[parent] = lowlink[parent].min(lowlink[v]);
                        }
                        if lowlink[v] == index[v] {
                            let first = stack.iter().rposition(|&u| u as usize == v);
                            let mut comp = stack.split_off(first.expect("tarjan stack"));
                            comp.iter().for_each(|&w| on_stack[w as usize] = false);
                            comp.sort_unstable();
                            comps.push(comp);
                        }
                    }
                }
            }
        }
        comps
    }

    /// Components handed over in place against the split-off reference, on
    /// random digraphs from forests to one big cycle, self-loops included:
    /// the same components in the same order, members ascending.
    #[test]
    fn tarjan_in_place_equals_the_split_off_reference() {
        let mut state = 0x7461_726a_616e_2121u64;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let (mut cyclic, mut components) = (0, 0);
        for case in 0..400 {
            let n = [1, 2, 5, 17, 63, 64, 65, 130][case % 8];
            let mut succs: Vec<Vec<u32>> = vec![Vec::new(); n];
            for _ in 0..next() as usize % (3 * n + 1) {
                succs[next() as usize % n].push((next() as usize % n) as u32);
            }
            let of = |v: u32| succs[v as usize].iter().copied();
            let mut emitted: Vec<Vec<u32>> = Vec::new();
            tarjan_scc(n, of, |comp| emitted.push(comp.to_vec()));
            assert_eq!(emitted, tarjan_scc_vecs(n, of), "case {case}: {succs:?}");
            assert!(emitted.iter().all(|c| c.is_sorted()), "case {case}");
            cyclic += usize::from(emitted.iter().any(|c| c.len() > 1));
            components += emitted.len();
        }
        assert!(cyclic > 100 && components > 4000, "{cyclic} / {components}");
    }

    #[test]
    fn closure_of_a_cycle_feeding_a_chain() {
        // 0 -> 1 -> 2 -> 0 is one component; it reaches 3 -> 4; 5 loops on
        // itself and reaches the cycle.
        let mut r = Relation::new(6);
        for (i, j) in [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (5, 5), (5, 1)] {
            r.add(m(i), m(j));
        }
        let c = r.transitive_closure();
        for i in 0..3 {
            let row: Vec<usize> = c.successors(m(i)).map(|j| j.0).collect();
            assert_eq!(
                row,
                vec![0, 1, 2, 3, 4],
                "member {i} shares the component's row"
            );
        }
        assert_eq!(c.successors(m(3)).collect::<Vec<_>>(), vec![m(4)]);
        assert_eq!(c.successors(m(4)).count(), 0);
        let row: Vec<usize> = c.successors(m(5)).map(|j| j.0).collect();
        assert_eq!(row, vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(c, warshall(&r));
    }

    #[test]
    fn find_cycle_returns_a_closed_walk() {
        let mut r = Relation::new(5);
        r.add(m(0), m(1));
        r.add(m(1), m(2));
        r.add(m(2), m(3));
        r.add(m(3), m(1));
        let cycle = r.find_cycle().expect("cyclic");
        assert!(cycle.len() >= 2);
        for (k, &v) in cycle.iter().enumerate() {
            let w = cycle[(k + 1) % cycle.len()];
            assert!(r.contains(v, w), "{v:?} -> {w:?} missing");
        }
        let mut acyclic = Relation::new(3);
        acyclic.add(m(0), m(1));
        assert_eq!(acyclic.find_cycle(), None);
        let mut selfloop = Relation::new(1);
        selfloop.add(m(0), m(0));
        assert_eq!(selfloop.find_cycle(), Some(vec![m(0)]));
    }

    #[test]
    fn topological_sort_deterministic() {
        let mut r = Relation::new(4);
        r.add(m(2), m(0));
        r.add(m(2), m(1));
        let order = r.topological_sort().unwrap();
        assert_eq!(order, vec![m(2), m(0), m(1), m(3)]);
    }

    #[test]
    fn total_order_checks() {
        let seq = [m(2), m(0), m(1)];
        let r = Relation::from_sequence(3, &seq);
        assert!(r.is_total_order());
        let mut partial = Relation::new(3);
        partial.add(m(0), m(1));
        assert!(!partial.is_total_order());
    }

    #[test]
    #[should_panic(expected = "sequence repeats")]
    fn from_sequence_rejects_duplicates() {
        let _ = Relation::from_sequence(2, &[m(0), m(0)]);
    }

    #[test]
    fn successors_across_word_boundaries() {
        let mut r = Relation::new(130);
        r.add(m(0), m(1));
        r.add(m(0), m(64));
        r.add(m(0), m(129));
        let succ: Vec<usize> = r.successors(m(0)).map(|x| x.0).collect();
        assert_eq!(succ, vec![1, 64, 129]);
        assert_eq!(r.predecessors(m(129)), vec![m(0)]);
    }

    fn two_process_history() -> crate::history::History {
        // P0: α=w(x)1 [0..10], β=r(y)2 [40..50]
        // P1: γ=w(y)2 [20..30] reading x from α.
        let x = oid(0);
        let y = oid(1);
        let mut b = HistoryBuilder::new(2);
        let alpha = b.mop(pid(0)).at(0, 10).write(x, 1).finish();
        let gamma = b
            .mop(pid(1))
            .at(20, 30)
            .read_from(x, 1, alpha)
            .write(y, 2)
            .finish();
        b.mop(pid(0)).at(40, 50).read_from(y, 2, gamma).finish();
        b.build().unwrap()
    }

    #[test]
    fn builders_produce_expected_orders() {
        let h = two_process_history();
        let alpha = m(0);
        let gamma = m(1);
        let beta = m(2);

        let po = process_order(&h);
        assert!(po.contains(alpha, beta));
        assert!(!po.contains(alpha, gamma));

        let rf = reads_from(&h);
        assert!(rf.contains(alpha, gamma)); // γ reads x from α
        assert!(rf.contains(gamma, beta)); // β reads y from γ
        assert!(!rf.contains(beta, gamma));

        let rt = real_time(&h);
        assert!(rt.contains(alpha, gamma));
        assert!(rt.contains(gamma, beta));
        assert!(rt.contains(alpha, beta));

        let oo = object_order(&h);
        assert!(oo.contains(alpha, gamma)); // share x
        assert!(oo.contains(gamma, beta)); // share y
        assert!(!oo.contains(alpha, beta)); // α on x, β on y: no shared object
    }
}
