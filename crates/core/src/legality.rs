//! Legality of histories, the read-write precedence `~rw`, and the extended
//! relation `~H+`.
//!
//! Intuitively a read is *legal* if it does not read from an overwritten
//! write (Section 2.2). Over a transitive relation `~H` this is D 4.6:
//!
//! ```text
//! legal(H) ≡ ∀ α,β,γ interfering in H : ¬(β ~H γ) ∨ ¬(γ ~H α)
//! ```
//!
//! i.e. no m-operation `γ` that writes an object `α` reads from `β` is
//! ordered *between* `β` and `α`.
//!
//! The imaginary initial m-operation (which writes every object before
//! anything else executes) participates as a `β` ordered before every other
//! m-operation; for a read of the initial value the condition degenerates to
//! "no writer of the object is ordered before the reader".

use crate::history::{History, MOpIdx};
use crate::relations::Relation;

/// A witness that a history relation is not legal: `gamma` is ordered
/// between `beta` (`None` = the initial m-operation) and the reader `alpha`,
/// yet `gamma` overwrites an object `alpha` reads from `beta`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IllegalRead {
    /// The reading m-operation.
    pub alpha: MOpIdx,
    /// The m-operation read from (`None` = the imaginary initial one).
    pub beta: Option<MOpIdx>,
    /// The intervening writer.
    pub gamma: MOpIdx,
}

/// Checks legality of `h` with respect to `order` (D 4.6).
///
/// `order` must be transitive (pass a closure of the raw relation); the
/// result is otherwise meaningless because `~H` is transitive by definition.
pub fn is_legal(h: &History, order: &Relation) -> bool {
    first_illegal_read(h, order).is_none()
}

/// Like [`is_legal`] but returns the first offending triple for diagnostics.
pub fn first_illegal_read(h: &History, order: &Relation) -> Option<IllegalRead> {
    for (alpha, beta, gamma) in h.interference_triples() {
        let between = match beta {
            Some(beta) => order.contains(beta, gamma) && order.contains(gamma, alpha),
            // The initial m-operation is before everything, so the first
            // conjunct holds vacuously.
            None => order.contains(gamma, alpha),
        };
        if between {
            return Some(IllegalRead { alpha, beta, gamma });
        }
    }
    None
}

/// The logical read-write precedence `~rw` (D 4.11):
///
/// ```text
/// α ~rw γ  ≝  ∃β : interfere(H, α, β, γ) : β ~H γ
/// ```
///
/// The intuition: in any legal sequential history equivalent to `H`, `γ`
/// must occur after `α` — otherwise it would overwrite the version of the
/// object `α` reads from `β`. `order` must be transitive.
pub fn read_write_precedence(h: &History, order: &Relation) -> Relation {
    let mut rw = Relation::new(h.len());
    for (alpha, beta, gamma) in h.interference_triples() {
        let beta_before_gamma = match beta {
            Some(beta) => order.contains(beta, gamma),
            // The initial m-operation precedes every other m-operation.
            None => true,
        };
        if beta_before_gamma && alpha != gamma {
            rw.add(alpha, gamma);
        }
    }
    rw
}

/// The extended relation `~H+ = (~H ∪ ~rw)+` (D 4.12).
///
/// `relation` need not be transitive; it is closed internally. Lemmas 3 and
/// 4 of the paper show `~H+` is irreflexive whenever `h` is legal and under
/// the OO- or WW-constraint; in general it may contain cycles (check with
/// [`Relation::is_irreflexive`] after closure, or via
/// [`Relation::has_cycle`] on the returned relation).
pub fn extended_relation(h: &History, relation: &Relation) -> Relation {
    let closed = relation.transitive_closure();
    let rw = read_write_precedence(h, &closed);
    closed.union(&rw).transitive_closure()
}

/// Checks whether a proposed total order (a permutation of all m-operations)
/// yields a *legal sequential history*: replaying the sequence, every
/// external read of each m-operation must observe the most recent write to
/// its object (D 4.6 restricted to total orders). This is the polynomial
/// verifier that places the membership side of Theorems 1 and 2 in NP.
pub fn sequence_is_legal(h: &History, sequence: &[MOpIdx]) -> bool {
    if sequence.len() != h.len() {
        return false;
    }
    let mut last_writer: Vec<Option<MOpIdx>> = vec![None; h.num_objects()];
    let mut seen = vec![false; h.len()];
    for &idx in sequence {
        if seen[idx.0] {
            return false;
        }
        seen[idx.0] = true;
        for (obj, writer) in h.read_sources(idx) {
            if last_writer[obj.index()] != writer {
                return false;
            }
        }
        for &obj in h.wobjects(idx) {
            last_writer[obj.index()] = Some(idx);
        }
    }
    true
}

/// Checks that a proposed sequence both respects `relation` (is a linear
/// extension of it) and is legal — i.e. that it witnesses admissibility of
/// `(op(H), relation)` (D 4.7).
pub fn sequence_witnesses_admissibility(
    h: &History,
    relation: &Relation,
    sequence: &[MOpIdx],
) -> bool {
    if sequence.len() != h.len() {
        return false;
    }
    let mut position = vec![usize::MAX; h.len()];
    for (pos, &idx) in sequence.iter().enumerate() {
        if idx.0 >= h.len() || position[idx.0] != usize::MAX {
            return false;
        }
        position[idx.0] = pos;
    }
    for (i, j) in relation.edges() {
        if position[i.0] >= position[j.0] {
            return false;
        }
    }
    sequence_is_legal(h, sequence)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::{History, HistoryBuilder};
    use crate::ids::{ObjectId, ProcessId};
    use crate::relations::{process_order, reads_from};

    fn pid(i: u32) -> ProcessId {
        ProcessId::new(i)
    }
    fn oid(i: u32) -> ObjectId {
        ObjectId::new(i)
    }
    fn m(i: usize) -> MOpIdx {
        MOpIdx(i)
    }

    /// Figure 2 of the paper: history H1 under WW-constraint.
    ///
    /// P1: α = r(x)0 w(y)2 then β = r(y)2
    /// P2: γ = w(x)1 then δ = w(y)3
    /// WW order: α < γ < δ (updates globally ordered).
    /// Index map: α=0, β=1, γ=2, δ=3.
    fn figure2() -> (History, Relation) {
        let x = oid(0);
        let y = oid(1);
        let mut b = HistoryBuilder::new(2);
        let alpha = b.mop(pid(1)).at(0, 10).read_init(x).write(y, 2).finish();
        b.mop(pid(1)).at(20, 60).read_from(y, 2, alpha).finish();
        b.mop(pid(2)).at(15, 25).write(x, 1).finish();
        b.mop(pid(2)).at(30, 40).write(y, 3).finish();
        let h = b.build().unwrap();

        // ~H = process order ∪ reads-from ∪ ww (α<γ<δ).
        let mut rel = process_order(&h).union(&reads_from(&h));
        rel.add(m(0), m(2));
        rel.add(m(2), m(3));
        (h, rel)
    }

    #[test]
    fn figure2_is_legal() {
        let (h, rel) = figure2();
        let closed = rel.transitive_closure();
        assert!(is_legal(&h, &closed));
    }

    #[test]
    fn figure3_extension_is_not_legal() {
        // Figure 3: S1 = α γ δ β is sequential but not legal: β reads y
        // from α, yet δ (which writes y) is ordered between them.
        let (h, _) = figure2();
        let s1 = [m(0), m(2), m(3), m(1)];
        assert!(!sequence_is_legal(&h, &s1));
        let total = Relation::from_sequence(4, &s1);
        assert!(!is_legal(&h, &total));
        assert_eq!(
            first_illegal_read(&h, &total),
            Some(IllegalRead {
                alpha: m(1),
                beta: Some(m(0)),
                gamma: m(3),
            })
        );
    }

    #[test]
    fn rw_precedence_repairs_figure2() {
        // δ writes y which β reads from α; with α ~H δ the rw edge β ~rw δ
        // forces β before δ, ruling out the illegal extension of Figure 3.
        let (h, rel) = figure2();
        let closed = rel.transitive_closure();
        let rw = read_write_precedence(&h, &closed);
        assert!(rw.contains(m(1), m(3)));
        let ext = extended_relation(&h, &rel);
        assert!(ext.is_irreflexive());
        assert!(ext.contains(m(1), m(3)));
        // Any linear extension of ext is legal: take the topological sort.
        let order = ext.topological_sort().unwrap();
        assert!(sequence_is_legal(&h, &order));
        assert!(sequence_witnesses_admissibility(&h, &rel, &order));
    }

    #[test]
    fn initial_reads_generate_rw_edges() {
        // α reads the initial value of x; γ writes x. In any legal
        // sequential history α must precede γ.
        let x = oid(0);
        let mut b = HistoryBuilder::new(1);
        b.mop(pid(0)).at(0, 10).read_init(x).finish();
        b.mop(pid(1)).at(0, 10).write(x, 1).finish();
        let h = b.build().unwrap();
        let empty = Relation::new(2);
        let rw = read_write_precedence(&h, &empty);
        assert!(rw.contains(m(0), m(1)));
        assert!(!rw.contains(m(1), m(0)));
        // Sequence γ then α is illegal; α then γ is legal.
        assert!(!sequence_is_legal(&h, &[m(1), m(0)]));
        assert!(sequence_is_legal(&h, &[m(0), m(1)]));
    }

    #[test]
    fn sequence_checks_reject_malformed_sequences() {
        let (h, rel) = figure2();
        assert!(!sequence_is_legal(&h, &[m(0), m(0), m(1), m(2)]));
        assert!(!sequence_is_legal(&h, &[m(0)]));
        // Correct set but violates the relation (β before α's process order).
        assert!(!sequence_witnesses_admissibility(
            &h,
            &rel,
            &[m(1), m(0), m(2), m(3)]
        ));
    }

    #[test]
    fn legal_sequence_replays_versions() {
        let (h, _) = figure2();
        // α β would leave γ δ; full order α γ β δ: β reads y from α — legal
        // since δ (writer of y) comes after β.
        assert!(sequence_is_legal(&h, &[m(0), m(2), m(1), m(3)]));
        // γ first: α reads initial x but γ already wrote x — illegal.
        assert!(!sequence_is_legal(&h, &[m(2), m(0), m(1), m(3)]));
    }
}
