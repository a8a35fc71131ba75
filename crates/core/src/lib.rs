//! # moc-core
//!
//! Core model for *multi-object distributed operations*, after Mittal &
//! Garg, "Consistency Conditions for Multi-Object Distributed Operations"
//! (TR-PDS-1998-005 / ICDCS 1998).
//!
//! The traditional distributed-shared-memory model provides atomicity at the
//! level of a read or write on a *single* object. This crate implements the
//! paper's generalized model in which a process applies *m-operations* —
//! deterministic procedures of read and write operations that may span
//! several objects — and defines the machinery needed to state and check the
//! generalized consistency conditions:
//!
//! * [`ids`] — strongly-typed process / object / m-operation identifiers.
//! * [`value`] — object values and write provenance ([`value::Versioned`]).
//! * [`vv`] — per-object [`vv::VersionVector`] timestamps (the paper's `ts`).
//! * [`program`] — the m-operation DSL: a small deterministic register
//!   machine over shared-object reads and writes, with static write-set
//!   analysis.
//! * [`op`], [`mop`] — completed operations `r(x)v` / `w(x)v` and executed
//!   m-operation records with invocation/response events.
//! * [`history`] — execution histories, process subhistories, reads-from,
//!   conflict and interference predicates (D 4.1–4.3).
//! * [`relations`] — dense relations over m-operations with closure, cycle
//!   detection and topological sorting; builders for process order `~p`,
//!   reads-from `~rf`, real-time order `~t`, and object order `~x`.
//! * [`legality`] — legal histories (D 4.6), the logical read-write
//!   precedence `~rw` (D 4.11), and the extended relation `~H+` (D 4.12).
//! * [`constraints`] — the OO-, WW- and WO-constraints (D 4.8–4.10).
//! * [`bitset`], [`csr`] — fixed-width bitsets and compressed sparse row
//!   adjacency, the allocation-lean layouts behind the checker's search
//!   engine.
//! * [`inline`] — the list a record keeps its operations and outputs in:
//!   in place up to four items, so a small m-operation owns no heap block.
//! * [`codec`], [`json`] — the `history v1` text format plus a minimal
//!   JSON codec for the checker/auditor certificate pipeline.
//!
//! Higher layers build on this crate: `moc-checker` decides admissibility
//! (m-sequential consistency, m-linearizability, m-normality), and
//! `moc-protocol` implements the paper's Figure 4 and Figure 6 protocols.
//!
//! ## Example
//!
//! ```
//! use moc_core::history::HistoryBuilder;
//! use moc_core::ids::{ObjectId, ProcessId};
//!
//! // Two processes, two objects. P0 writes x=1 and y=2 atomically; P1 reads
//! // both.
//! let x = ObjectId::new(0);
//! let y = ObjectId::new(1);
//! let mut h = HistoryBuilder::new(2);
//! let w = h
//!     .mop(ProcessId::new(0))
//!     .at(0, 10)
//!     .write(x, 1)
//!     .write(y, 2)
//!     .finish();
//! h.mop(ProcessId::new(1))
//!     .at(20, 30)
//!     .read_from(x, 1, w)
//!     .read_from(y, 2, w)
//!     .finish();
//! let history = h.build().expect("well-formed");
//! assert_eq!(history.len(), 2);
//! ```

#![warn(missing_docs)]

pub mod bitset;
pub mod claim;
pub mod codec;
pub mod commute;
pub mod constraints;
pub mod csr;
pub mod error;
pub mod history;
pub mod ids;
pub mod inline;
pub mod json;
pub mod legality;
pub mod mop;
pub mod op;
pub mod program;
pub mod relations;
pub mod render;
pub mod shard;
pub mod value;
pub mod vv;

pub use commute::{CommuteCert, CommuteMatrix, CommutePlan, MoverClass};
pub use error::CoreError;
pub use history::History;
pub use ids::{MOpId, ObjectId, ProcessId};
pub use inline::InlineList;
pub use mop::MOpRecord;
pub use op::{CompletedOp, OpKind};
pub use program::Program;
pub use relations::Relation;
pub use shard::{Footprinted, Route, RoutePolicy, ShardCert, ShardPlan};
pub use value::{Value, Versioned};
pub use vv::VersionVector;
