//! A tour of the consistency checker on the paper's worked examples.
//!
//! Recreates Figure 2's history `H1` (under the WW-constraint), shows that
//! the naive extension of Figure 3 is sequential but *not* legal, and that
//! the read-write precedence `~rw` (D 4.11) repairs the problem — then
//! contrasts the NP-complete brute-force checker with the polynomial
//! Theorem 7 path, and finishes with the database-schedule reduction of
//! Theorem 2.
//!
//! Run with: `cargo run --example checker_tour`

use moc_checker::certificate::{certify, check_certified};
use moc_checker::conditions::Condition;
use moc_checker::serializability::{Action, Schedule};
use moc_checker::SearchLimits;
use moc_core::history::{HistoryBuilder, MOpIdx};
use moc_core::ids::{ObjectId, ProcessId};
use moc_core::legality::{extended_relation, sequence_is_legal};
use moc_core::relations::{process_order, reads_from};

fn main() {
    let x = ObjectId::new(0);
    let y = ObjectId::new(1);

    // ── Figure 2: H1 under WW-constraint ────────────────────────────────
    //   P1: α = r(x)0 w(y)2   then   β = r(y)2
    //   P2: γ = w(x)1         then   δ = w(y)3
    //   WW order: α < γ < δ
    let mut b = HistoryBuilder::new(2);
    let alpha = b
        .mop(ProcessId::new(1))
        .at(0, 10)
        .read_init(x)
        .write(y, 2)
        .finish();
    b.mop(ProcessId::new(1))
        .at(20, 60)
        .read_from(y, 2, alpha)
        .finish();
    b.mop(ProcessId::new(2)).at(15, 25).write(x, 1).finish();
    b.mop(ProcessId::new(2)).at(30, 40).write(y, 3).finish();
    let h1 = b.build().expect("H1 is well-formed");
    println!("H1 (Figure 2):");
    for rec in h1.records() {
        println!("  {}", rec.notation());
    }

    let (a, be, g, d) = (MOpIdx(0), MOpIdx(1), MOpIdx(2), MOpIdx(3));
    let ww = [(a, g), (g, d)]; // α < γ < δ
    let mut rel = process_order(&h1).union(&reads_from(&h1));
    ww.iter().for_each(|&(i, j)| rel.add(i, j));

    // ── Figure 3: the extension S1 = α γ δ β is not legal ───────────────
    let s1 = [a, g, d, be];
    println!(
        "\nS1 = α γ δ β  (Figure 3): sequential extension, legal = {}",
        sequence_is_legal(&h1, &s1)
    );
    assert!(!sequence_is_legal(&h1, &s1));

    // ── D 4.11/4.12: ~rw forces β before δ ───────────────────────────────
    let ext = extended_relation(&h1, &rel);
    println!(
        "extended relation ~H+ orders β before δ: {}",
        ext.contains(be, d)
    );
    let witness = ext.topological_sort().expect("~H+ is acyclic (Lemma 4)");
    let names = ["α", "β", "γ", "δ"];
    let rendered: Vec<&str> = witness.iter().map(|i| names[i.0]).collect();
    println!("legal witness from ~H+: {}", rendered.join(" "));
    assert!(sequence_is_legal(&h1, &witness));

    // ── Theorem 7 fast path (the WW order as the hint) vs the search ─────
    let sc = Condition::MSequentialConsistency;
    let (fast, _) = certify(&h1, sc, Some(&ww), SearchLimits::default()).expect("within budget");
    let (brute, _) = check_certified(&h1, sc, SearchLimits::default()).expect("within budget");
    println!(
        "\nTheorem 7 fast path: admissible = {} | search without the hint: admissible = {} ({} nodes)",
        fast.satisfied, brute.satisfied, brute.stats.nodes
    );
    assert!(fast.satisfied && fast.by_theorem7 && brute.satisfied);

    // ── Theorem 2: strict view serializability via m-linearizability ─────
    // r3(x) w1(x) w2(y) r3(y): view serializable but not strict view
    // serializable (the only serial order inverts the non-overlapping
    // T1 < T2).
    let e0 = ObjectId::new(0);
    let e1 = ObjectId::new(1);
    let schedule = Schedule::new(
        2,
        3,
        vec![
            Action::read(2, e0),
            Action::write(0, e0),
            Action::write(1, e1),
            Action::read(2, e1),
        ],
    )
    .expect("schedule is well-formed");
    let view = schedule
        .is_view_serializable(SearchLimits::default())
        .unwrap();
    let strict = schedule
        .is_strict_view_serializable(SearchLimits::default())
        .unwrap();
    println!(
        "\nTheorem 2 reduction: view serializable = {view}, strict view serializable = {strict}"
    );
    assert!(view && !strict);

    // ── Negative control: cyclic reads-from ──────────────────────────────
    let mut b = HistoryBuilder::new(2);
    let w1 = b.mop(ProcessId::new(0)).at(0, 10).write(x, 1).finish();
    let w2 = b
        .mop(ProcessId::new(1))
        .at(0, 10)
        .read_from(x, 1, w1)
        .write(y, 2)
        .finish();
    b.mop(ProcessId::new(0))
        .at(20, 30)
        .read_from(y, 2, w2)
        .read_init(x)
        .finish();
    let bad = b.build().expect("well-formed");
    let (verdict, _) = check_certified(&bad, sc, SearchLimits::default()).expect("within budget");
    println!(
        "\nstale multi-object read admissible? {} ({})",
        verdict.satisfied,
        verdict.reason.as_deref().unwrap_or("witness found")
    );
    assert!(!verdict.satisfied);

    println!("\nchecker tour complete");
}
