//! # moc-dsm
//!
//! A distributed shared memory with **multi-object operations** — the
//! user-facing API of this reproduction of Mittal & Garg (1998).
//!
//! The traditional DSM provides atomicity only for single-object reads and
//! writes; this one lets an operation span several objects atomically:
//! [`Dsm::dcas`] (double compare-and-swap), [`Dsm::m_assign`] (atomic
//! m-register assignment), [`Dsm::snapshot`], [`Dsm::sum`],
//! [`Dsm::transfer`] and arbitrary user [`moc_core::Program`]s via
//! [`Dsm::invoke`].
//!
//! Pick the consistency condition at construction time:
//!
//! * [`Consistency::MSequential`] — the Figure 4 protocol: cheap local
//!   queries, updates pay one atomic broadcast.
//! * [`Consistency::MLinearizable`] — the Figure 6 protocol: queries also
//!   reflect real time, at the cost of one request/response round to all
//!   processes.
//! * [`Consistency::Aggregate`] — the "one big object" baseline from the
//!   paper's introduction, for comparison.
//!
//! Every execution is recorded; [`Dsm::finish`] returns the history and
//! the run's broadcast order, and [`DsmReport::check`] verifies the
//! promised condition by Theorem 7 with that order, or by the search.
//!
//! ```
//! use moc_dsm::{Consistency, DsmBuilder};
//! use moc_core::ids::{ObjectId, ProcessId};
//!
//! let x = ObjectId::new(0);
//! let y = ObjectId::new(1);
//! let dsm = DsmBuilder::new()
//!     .processes(2)
//!     .objects(2)
//!     .consistency(Consistency::MLinearizable)
//!     .build();
//! let p0 = ProcessId::new(0);
//! let p1 = ProcessId::new(1);
//!
//! // Atomic multi-object assignment, then a DCAS from another process.
//! dsm.m_assign(p0, &[(x, 1), (y, 2)]);
//! assert!(dsm.dcas(p1, (x, 1, 10), (y, 2, 20)));
//! assert_eq!(dsm.snapshot(p0, &[x, y]), vec![10, 20]);
//!
//! let report = dsm.finish();
//! assert!(report.check(moc_checker::Condition::MLinearizability).satisfied);
//! ```

pub mod methods;

use std::sync::Arc;

use moc_checker::{certify, CheckReport, Condition, SearchLimits};
use moc_core::history::{History, MOpIdx};
use moc_core::ids::{ObjectId, ProcessId};
use moc_core::program::Program;
use moc_core::value::Value;
use moc_protocol::{AggregateOverSequencer, MlinOverSequencer, MscOverSequencer};
use moc_runtime::{LiveCluster, Reply, RuntimeConfig};
use moc_sim::DelayModel;

/// The consistency condition a [`Dsm`] provides, selecting the protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Consistency {
    /// Figure 4: m-sequential consistency.
    MSequential,
    /// Figure 6: m-linearizability (default).
    #[default]
    MLinearizable,
    /// The aggregate-object baseline (m-linearizable, but every operation
    /// pays the broadcast).
    Aggregate,
}

impl Consistency {
    /// The checker condition this protocol guarantees.
    pub fn guaranteed_condition(self) -> Condition {
        match self {
            Consistency::MSequential => Condition::MSequentialConsistency,
            Consistency::MLinearizable | Consistency::Aggregate => Condition::MLinearizability,
        }
    }
}

/// Builder for [`Dsm`] clusters.
#[derive(Debug, Clone)]
pub struct DsmBuilder {
    processes: usize,
    objects: usize,
    consistency: Consistency,
    delay: Option<DelayModel>,
    seed: u64,
}

impl Default for DsmBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl DsmBuilder {
    /// Starts a builder with 2 processes, 8 objects, m-linearizability.
    pub fn new() -> Self {
        DsmBuilder {
            processes: 2,
            objects: 8,
            consistency: Consistency::default(),
            delay: None,
            seed: 0,
        }
    }

    /// Sets the number of processes (replicas).
    pub fn processes(mut self, n: usize) -> Self {
        self.processes = n;
        self
    }

    /// Sets the number of shared objects.
    pub fn objects(mut self, n: usize) -> Self {
        self.objects = n;
        self
    }

    /// Sets the consistency condition (protocol).
    pub fn consistency(mut self, c: Consistency) -> Self {
        self.consistency = c;
        self
    }

    /// Injects artificial network delay/reordering.
    pub fn artificial_delay(mut self, delay: DelayModel) -> Self {
        self.delay = Some(delay);
        self
    }

    /// Seeds the delay sampler.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Starts the cluster.
    pub fn build(self) -> Dsm {
        let mut config = RuntimeConfig::new(self.objects);
        config.seed = self.seed;
        if let Some(d) = self.delay {
            config = config.with_artificial_delay(d);
        }
        let cluster = match self.consistency {
            Consistency::MSequential => {
                ClusterKind::Msc(LiveCluster::start(self.processes, config))
            }
            Consistency::MLinearizable => {
                ClusterKind::Mlin(LiveCluster::start(self.processes, config))
            }
            Consistency::Aggregate => {
                ClusterKind::Aggregate(LiveCluster::start(self.processes, config))
            }
        };
        Dsm {
            cluster,
            consistency: self.consistency,
            num_objects: self.objects,
        }
    }
}

enum ClusterKind {
    Msc(LiveCluster<MscOverSequencer>),
    Mlin(LiveCluster<MlinOverSequencer>),
    Aggregate(LiveCluster<AggregateOverSequencer>),
}

/// A running multi-object DSM cluster.
///
/// All operations are issued *as* a given process; concurrent calls on the
/// same process serialize (processes are sequential in the model), while
/// different processes proceed concurrently.
pub struct Dsm {
    cluster: ClusterKind,
    consistency: Consistency,
    num_objects: usize,
}

impl Dsm {
    /// The configured consistency condition.
    pub fn consistency(&self) -> Consistency {
        self.consistency
    }

    /// Number of processes.
    pub fn num_processes(&self) -> usize {
        match &self.cluster {
            ClusterKind::Msc(c) => c.num_processes(),
            ClusterKind::Mlin(c) => c.num_processes(),
            ClusterKind::Aggregate(c) => c.num_processes(),
        }
    }

    /// Number of shared objects.
    pub fn num_objects(&self) -> usize {
        self.num_objects
    }

    /// Invokes an arbitrary m-operation program as `process`, blocking
    /// until its response.
    pub fn invoke(&self, process: ProcessId, program: Arc<Program>, args: Vec<Value>) -> Reply {
        match &self.cluster {
            ClusterKind::Msc(c) => c.invoke(process, program, args),
            ClusterKind::Mlin(c) => c.invoke(process, program, args),
            ClusterKind::Aggregate(c) => c.invoke(process, program, args),
        }
    }

    /// Reads one object.
    pub fn read(&self, process: ProcessId, object: ObjectId) -> Value {
        self.invoke(process, methods::read_many(&[object]), vec![])
            .outputs[0]
    }

    /// Writes one object.
    pub fn write(&self, process: ProcessId, object: ObjectId, value: Value) {
        self.invoke(process, methods::m_assign(&[object]), vec![value]);
    }

    /// Atomically reads several objects — a consistent multi-object
    /// snapshot.
    pub fn snapshot(&self, process: ProcessId, objects: &[ObjectId]) -> Vec<Value> {
        self.invoke(process, methods::read_many(objects), vec![])
            .outputs
            .to_vec()
    }

    /// Atomic m-register assignment: writes `value_i` to `object_i`, all
    /// atomically.
    pub fn m_assign(&self, process: ProcessId, writes: &[(ObjectId, Value)]) {
        let objects: Vec<ObjectId> = writes.iter().map(|&(o, _)| o).collect();
        let args: Vec<Value> = writes.iter().map(|&(_, v)| v).collect();
        self.invoke(process, methods::m_assign(&objects), args);
    }

    /// Double compare-and-swap (the paper's motivating DCAS): if `x == old_x`
    /// and `y == old_y`, atomically set `x = new_x`, `y = new_y`. Returns
    /// whether the swap happened.
    pub fn dcas(
        &self,
        process: ProcessId,
        (x, old_x, new_x): (ObjectId, Value, Value),
        (y, old_y, new_y): (ObjectId, Value, Value),
    ) -> bool {
        self.invoke(
            process,
            methods::dcas(x, y),
            vec![old_x, old_y, new_x, new_y],
        )
        .outputs[0]
            == 1
    }

    /// k-CAS: atomically replaces every `(object, old, new)` entry iff all
    /// `old` values match. Generalizes [`Dsm::dcas`].
    pub fn kcas(&self, process: ProcessId, entries: &[(ObjectId, Value, Value)]) -> bool {
        let objects: Vec<ObjectId> = entries.iter().map(|&(o, _, _)| o).collect();
        let mut args: Vec<Value> = entries.iter().map(|&(_, old, _)| old).collect();
        args.extend(entries.iter().map(|&(_, _, new)| new));
        self.invoke(process, methods::kcas(&objects), args).outputs[0] == 1
    }

    /// Single-object compare-and-swap; returns `(succeeded, observed)`.
    pub fn cas(
        &self,
        process: ProcessId,
        object: ObjectId,
        old: Value,
        new: Value,
    ) -> (bool, Value) {
        let out = self
            .invoke(process, methods::cas(object), vec![old, new])
            .outputs;
        (out[0] == 1, out[1])
    }

    /// Atomically adds `delta` to `object`, returning the previous value.
    pub fn fetch_add(&self, process: ProcessId, object: ObjectId, delta: Value) -> Value {
        self.invoke(process, methods::fetch_add(object), vec![delta])
            .outputs[0]
    }

    /// Atomically exchanges the contents of two objects.
    pub fn swap_objects(&self, process: ProcessId, x: ObjectId, y: ObjectId) {
        self.invoke(process, methods::swap_objects(x, y), vec![]);
    }

    /// Atomically sums several objects (the paper's `sum` multi-method).
    pub fn sum(&self, process: ProcessId, objects: &[ObjectId]) -> Value {
        self.invoke(process, methods::sum(objects), vec![]).outputs[0]
    }

    /// Transfers `amount` from `from` to `to` iff the balance suffices;
    /// returns whether the transfer happened. The two balances change
    /// atomically — no observer ever sees money in flight.
    pub fn transfer(
        &self,
        process: ProcessId,
        from: ObjectId,
        to: ObjectId,
        amount: Value,
    ) -> bool {
        self.invoke(process, methods::transfer(from, to), vec![amount])
            .outputs[0]
            == 1
    }

    /// Shuts the cluster down and returns the recorded execution.
    pub fn finish(self) -> DsmReport {
        let report = match self.cluster {
            ClusterKind::Msc(c) => c.shutdown(),
            ClusterKind::Mlin(c) => c.shutdown(),
            ClusterKind::Aggregate(c) => c.shutdown(),
        };
        DsmReport {
            ww_order: report.ww_order(),
            history: report.history,
            consistency: self.consistency,
        }
    }
}

/// The recorded execution of a finished [`Dsm`].
#[derive(Debug)]
pub struct DsmReport {
    /// The validated history of every m-operation issued.
    pub history: History,
    /// The consistency the cluster was configured with.
    pub consistency: Consistency,
    /// The broadcast order the run ran (`moc_protocol::RunReport::ww_order`).
    pub ww_order: Vec<(MOpIdx, MOpIdx)>,
}

impl DsmReport {
    /// Checks the history against `condition` (e.g. the configured
    /// guarantee, [`Consistency::guaranteed_condition`]), with the run's
    /// order as the hint Theorem 7 tries.
    ///
    /// # Panics
    ///
    /// Panics if the checker exhausts its budget — with the run's order
    /// the polynomial path almost always applies; reach for
    /// [`moc_checker::certify`] directly to control limits.
    pub fn check(&self, condition: Condition) -> CheckReport {
        let hint = Some(self.ww_order.as_slice());
        certify(&self.history, condition, hint, SearchLimits::default())
            .expect("checker budget exhausted")
            .0
    }

    /// Checks the weaker m-causal consistency condition (implied by every
    /// protocol this crate offers, exposed for spectrum comparisons).
    pub fn check_causal(&self) -> moc_checker::causal::CausalReport {
        moc_checker::causal::check_m_causal(&self.history, moc_checker::SearchLimits::default())
            .expect("checker budget exhausted")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn oid(i: u32) -> ObjectId {
        ObjectId::new(i)
    }
    fn pid(i: u32) -> ProcessId {
        ProcessId::new(i)
    }

    fn dsm(c: Consistency) -> Dsm {
        DsmBuilder::new()
            .processes(3)
            .objects(4)
            .consistency(c)
            .build()
    }

    #[test]
    fn basic_ops_mlin() {
        let d = dsm(Consistency::MLinearizable);
        d.write(pid(0), oid(0), 5);
        assert_eq!(d.read(pid(1), oid(0)), 5);
        assert_eq!(d.fetch_add(pid(2), oid(0), 3), 5);
        assert_eq!(d.read(pid(0), oid(0)), 8);
        let (ok, seen) = d.cas(pid(1), oid(0), 8, 100);
        assert!(ok);
        assert_eq!(seen, 8);
        let (ok, seen) = d.cas(pid(1), oid(0), 8, 200);
        assert!(!ok);
        assert_eq!(seen, 100);
        let report = d.finish();
        assert!(report.check(Condition::MLinearizability).satisfied);
    }

    #[test]
    fn multi_object_ops() {
        let d = dsm(Consistency::MLinearizable);
        d.m_assign(pid(0), &[(oid(0), 1), (oid(1), 2), (oid(2), 3)]);
        assert_eq!(d.snapshot(pid(1), &[oid(0), oid(1), oid(2)]), vec![1, 2, 3]);
        assert_eq!(d.sum(pid(2), &[oid(0), oid(1), oid(2)]), 6);
        d.swap_objects(pid(0), oid(0), oid(2));
        assert_eq!(d.snapshot(pid(1), &[oid(0), oid(2)]), vec![3, 1]);
        assert!(d.dcas(pid(2), (oid(0), 3, 30), (oid(2), 1, 10)));
        assert!(!d.dcas(pid(2), (oid(0), 3, 0), (oid(2), 10, 0)));
        let report = d.finish();
        assert!(report.check(Condition::MLinearizability).satisfied);
    }

    #[test]
    fn transfers_preserve_total() {
        let d = dsm(Consistency::MSequential);
        d.m_assign(pid(0), &[(oid(0), 100), (oid(1), 100)]);
        assert!(d.transfer(pid(1), oid(0), oid(1), 30));
        assert!(!d.transfer(pid(2), oid(0), oid(1), 1_000), "insufficient");
        let snap = d.snapshot(pid(0), &[oid(0), oid(1)]);
        assert_eq!(snap.iter().sum::<i64>(), 200);
        assert_eq!(snap, vec![70, 130]);
        let report = d.finish();
        assert!(report.check(Condition::MSequentialConsistency).satisfied);
    }

    #[test]
    fn aggregate_baseline_works() {
        let d = dsm(Consistency::Aggregate);
        d.write(pid(0), oid(0), 1);
        assert_eq!(d.read(pid(1), oid(0)), 1);
        let report = d.finish();
        assert!(report.check(Condition::MLinearizability).satisfied);
        assert_eq!(
            Consistency::Aggregate.guaranteed_condition(),
            Condition::MLinearizability
        );
    }

    #[test]
    fn kcas_end_to_end() {
        let d = dsm(Consistency::MLinearizable);
        d.m_assign(pid(0), &[(oid(0), 1), (oid(1), 2), (oid(2), 3)]);
        assert!(d.kcas(pid(1), &[(oid(0), 1, 10), (oid(1), 2, 20), (oid(2), 3, 30)]));
        assert!(!d.kcas(pid(2), &[(oid(0), 1, 0), (oid(1), 20, 0)]));
        assert_eq!(
            d.snapshot(pid(0), &[oid(0), oid(1), oid(2)]),
            vec![10, 20, 30]
        );
        let report = d.finish();
        assert!(report.check(Condition::MLinearizability).satisfied);
    }

    #[test]
    fn causal_check_on_reports() {
        let d = dsm(Consistency::MSequential);
        d.write(pid(0), oid(0), 1);
        d.read(pid(1), oid(0));
        let report = d.finish();
        assert!(report.check_causal().satisfied);
    }

    #[test]
    fn builder_defaults() {
        let d = DsmBuilder::new().build();
        assert_eq!(d.num_processes(), 2);
        assert_eq!(d.num_objects(), 8);
        assert_eq!(d.consistency(), Consistency::MLinearizable);
        d.finish();
    }
}
