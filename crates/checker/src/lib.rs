//! # moc-checker
//!
//! Deciding the consistency conditions of Mittal & Garg (1998) for executed
//! histories of multi-object operations.
//!
//! A history satisfies a consistency condition iff it is *admissible* with
//! respect to the condition's relation (D 4.7): there must exist a legal
//! sequential history equivalent to it that respects the relation.
//!
//! * [`certificate`] — the one verdict path, [`certify`]: every verdict
//!   comes with a versioned JSON certificate (witness + legality trace,
//!   `~H+` refutation cycle, or search-exhaustion attestation) that the
//!   independent `moc-audit` crate re-validates against the raw history.
//!   Given a hint (a protocol's arbitration order, a broadcast's `~ww`),
//!   the polynomial path of Theorem 7 runs first over the closure of `~H`
//!   and the hint: under the OO- or WW-constraint, admissibility collapses
//!   to legality, and a witness falls out of a topological sort of `~H+`.
//!   The hint is a candidate, never evidence: any other outcome is decided
//!   over `~H` alone, where a `~H+` cycle refutes and otherwise the pruned
//!   search decides. [`check_certified`] is the route without a hint.
//! * [`conditions`] — the conditions and their relations, and
//!   [`conditions::check`], the report of [`certify`] with an empty hint,
//!   with no certificate built.
//! * [`precedence`] — the one construction of `~H` every route decides
//!   over: the condition's edges (`~t` as its transitive reduction), closed
//!   once, then saturated with `~rw` to `~H+` — SCC condensation, forced
//!   edges, cycle refutation, and the statically-pruned search.
//! * [`admissible`] — the naive decision procedure over a dense relation:
//!   a memoized backtracking search for a legal linear extension, the
//!   reference the pruned search is tested against and the bench's naive
//!   baseline, on no verdict path. Worst-case exponential, necessarily so:
//!   Theorems 1 and 2 show the problem is NP-complete (for
//!   m-linearizability, even with a known reads-from relation).
//! * [`serializability`] — database schedules and the Theorem 2 reduction:
//!   strict view serializability ⇔ m-linearizability, view serializability
//!   ⇔ m-sequential consistency, for one-transaction-per-process histories,
//!   each decided by the search over that condition's relation (with the
//!   "T∞ last" pairs), as is each process's sub-history of [`causal`]
//!   m-causal consistency (with the causality through dropped queries).
//!
//! ## Example
//!
//! ```
//! use moc_checker::{certify, Condition, Proof, SearchLimits};
//! use moc_core::history::{HistoryBuilder, MOpIdx};
//! use moc_core::ids::{ObjectId, ProcessId};
//!
//! let x = ObjectId::new(0);
//! let mut b = HistoryBuilder::new(1);
//! let w = b.mop(ProcessId::new(0)).at(0, 10).write(x, 1).finish();
//! b.mop(ProcessId::new(1)).at(20, 30).read_from(x, 1, w).finish();
//! let h = b.build()?;
//! // Real time orders the write before the read: Theorem 7 admits.
//! let (report, cert) = certify(&h, Condition::MLinearizability, Some(&[]), SearchLimits::default())?;
//! assert!(report.satisfied && report.by_theorem7);
//! assert!(matches!(cert.proof, Proof::Witness { .. }));
//! // A hint that puts the read first contradicts `~H`: no Theorem 7
//! // witness, so the search over `~H` alone decides, and admits.
//! let hint = [(MOpIdx(1), MOpIdx(0))];
//! let (report, _) = certify(&h, Condition::MLinearizability, Some(&hint), SearchLimits::default())?;
//! assert!(report.satisfied && !report.by_theorem7);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod admissible;
pub mod causal;
pub mod certificate;
pub mod conditions;
pub(crate) mod engine;
pub(crate) mod fast;
pub mod minimize;
pub mod precedence;
pub mod serializability;
pub mod witness;

pub use admissible::{find_legal_extension, SearchLimits, SearchOutcome, SearchStats};
pub use causal::{check_m_causal, CausalReport};
pub use certificate::{certify, check_certified, Certificate, Proof};
pub use conditions::{check, CheckError, CheckReport, Condition, Strategy};
pub use minimize::{minimize_violation, Minimized};
pub use precedence::PrecedenceGraph;
pub use serializability::Schedule;
pub use witness::{is_sequential, make_sequential_history};
