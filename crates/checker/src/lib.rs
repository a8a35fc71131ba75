//! # moc-checker
//!
//! Deciding the consistency conditions of Mittal & Garg (1998) for executed
//! histories of multi-object operations.
//!
//! A history satisfies a consistency condition iff it is *admissible* with
//! respect to the condition's relation (D 4.7): there must exist a legal
//! sequential history equivalent to it that respects the relation.
//!
//! * [`conditions`] — the user-facing entry point:
//!   [`conditions::check`] decides m-sequential consistency,
//!   m-linearizability or m-normality using a chosen [`conditions::Strategy`].
//! * [`admissible`] — the general decision procedure: a memoized
//!   backtracking search for a legal linear extension. Worst-case
//!   exponential, necessarily so: Theorems 1 and 2 show the problem is
//!   NP-complete (for m-linearizability, even with a known reads-from
//!   relation).
//! * [`fast`] — the polynomial path of Theorem 7: under the OO- or
//!   WW-constraint, admissibility collapses to legality, and a witness
//!   falls out of a topological sort of the extended relation `~H+`.
//! * [`serializability`] — database schedules and the Theorem 2 reduction:
//!   strict view serializability ⇔ m-linearizability, view serializability
//!   ⇔ m-sequential consistency, for one-transaction-per-process histories.
//! * [`precedence`] — the `~rw`/`~H+` precedence graph over arbitrary
//!   histories: SCC condensation, forced edges, cycle refutation, and the
//!   statically-pruned search the conditions module now runs by default.
//! * [`certificate`] — proof-producing verdicts: every check result
//!   serializes to a versioned JSON certificate (witness + legality trace,
//!   `~H+` refutation cycle, or search-exhaustion attestation) that the
//!   independent `moc-audit` crate re-validates against the raw history.
//!
//! ## Example
//!
//! ```
//! use moc_checker::conditions::{check, Condition, Strategy};
//! use moc_core::history::HistoryBuilder;
//! use moc_core::ids::{ObjectId, ProcessId};
//!
//! let x = ObjectId::new(0);
//! let mut b = HistoryBuilder::new(1);
//! let w = b.mop(ProcessId::new(0)).at(0, 10).write(x, 1).finish();
//! b.mop(ProcessId::new(1)).at(20, 30).read_from(x, 1, w).finish();
//! let h = b.build()?;
//! let report = check(&h, Condition::MLinearizability, Strategy::Auto)?;
//! assert!(report.satisfied);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod admissible;
pub mod causal;
pub mod certificate;
pub mod conditions;
pub(crate) mod engine;
pub mod fast;
pub mod minimize;
pub mod precedence;
pub mod serializability;
pub mod witness;

pub use admissible::{find_legal_extension, SearchLimits, SearchOutcome, SearchStats};
pub use causal::{check_m_causal, CausalReport};
pub use certificate::{check_certified, Certificate, Proof};
pub use conditions::{check, CheckError, CheckReport, Condition, Strategy};
pub use fast::{check_under_constraint, FastOutcome};
pub use minimize::{minimize_violation, Minimized};
pub use precedence::{find_legal_extension_pruned, PrecedenceGraph};
pub use serializability::Schedule;
pub use witness::{is_sequential, make_sequential_history};
