//! Executed m-operation records.
//!
//! Execution of an m-operation is modeled by two events, an *invocation*
//! and a *response* (Section 2.1). An [`MOpRecord`] captures both event
//! times plus the sequence of completed single-object operations the
//! m-operation performed and the output values it returned.

use std::fmt;
use std::sync::Arc;

use crate::ids::{MOpId, ObjectId, ProcessId};
use crate::inline::InlineList;
use crate::op::{CompletedOp, OpKind};
use crate::value::Value;

/// A point on the global real-time axis at which an invocation or response
/// event occurred.
///
/// In the simulator this is virtual time in nanoseconds; in the live thread
/// runtime it is nanoseconds since a cluster-wide epoch. Only the order of
/// event times matters to the model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct EventTime(pub u64);

impl EventTime {
    /// The zero of the time axis.
    pub const ZERO: EventTime = EventTime(0);

    /// Creates an event time from raw nanoseconds.
    pub const fn from_nanos(nanos: u64) -> Self {
        EventTime(nanos)
    }

    /// Raw nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }
}

impl fmt::Display for EventTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// Classification of an m-operation.
///
/// An m-operation is an *update* iff it writes to some object, and a *query*
/// otherwise (Section 4). The protocols take the paper's conservative
/// stance: an m-operation whose program *potentially* writes is treated as
/// an update even if, on the values it read, it ended up writing nothing
/// (e.g. a failed DCAS). [`MOpRecord::treated_as`] records the protocol's
/// classification, while [`MOpRecord::is_update`] reports the actual
/// behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MOpClass {
    /// Performs no write operation.
    Query,
    /// Performs (or may perform) at least one write operation.
    Update,
}

impl fmt::Display for MOpClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MOpClass::Query => f.write_str("query"),
            MOpClass::Update => f.write_str("update"),
        }
    }
}

/// The record of one executed m-operation.
///
/// `ops` and `outputs` keep up to [`crate::inline::INLINE`] items in
/// place, so the record of a small m-operation is one fixed-size block
/// with no heap block of its own (the label is shared with its program).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MOpRecord {
    /// Identifier (issuing process + per-process sequence number).
    pub id: MOpId,
    /// Real time of the invocation event.
    pub invoked_at: EventTime,
    /// Real time of the response event.
    pub responded_at: EventTime,
    /// The completed operations, in program order.
    pub ops: InlineList<CompletedOp>,
    /// Output values returned by the m-operation (`res` in `α(arg, res)`).
    pub outputs: InlineList<Value>,
    /// How the protocol that executed this m-operation classified it
    /// (conservatively, based on the program's potential write set).
    pub treated_as: MOpClass,
    /// Human-readable label (e.g. the program name), for diagnostics.
    pub label: Arc<str>,
}

impl MOpRecord {
    /// The issuing process, `proc(α)`.
    pub fn process(&self) -> ProcessId {
        self.id.process
    }

    /// Whether this m-operation actually performed a write.
    pub fn is_update(&self) -> bool {
        self.ops.iter().any(|op| op.is_write())
    }

    /// The *external* reads of this m-operation: reads whose value was not
    /// produced by an earlier write of the same m-operation.
    ///
    /// Section 2.2: "if there exists a write operation `w(x)v` before a read
    /// operation `r(x)u` in an m-operation … then `u` must be equal to `v`
    /// … In the rest of the paper, we ignore such read operations." Only
    /// external reads participate in the reads-from relation.
    pub fn external_reads(&self) -> impl Iterator<Item = &CompletedOp> {
        self.ops
            .iter()
            .filter(move |op| op.is_read() && op.writer != self.id)
    }

    /// The *final* writes of this m-operation: for each written object, the
    /// last write to it. Earlier writes to the same object are overwritten
    /// within the m-operation and, per Section 2.2, ignored ("no read
    /// operation of another m-operation can read from `w(x)u`").
    pub fn final_writes(&self) -> Vec<&CompletedOp> {
        let mut last: Vec<Option<&CompletedOp>> = Vec::new();
        let mut order: Vec<ObjectId> = Vec::new();
        for op in self.ops.iter().filter(|op| op.is_write()) {
            let idx = op.object.index();
            if idx >= last.len() {
                last.resize(idx + 1, None);
            }
            if last[idx].is_none() {
                order.push(op.object);
            }
            last[idx] = Some(op);
        }
        order.into_iter().filter_map(|o| last[o.index()]).collect()
    }

    /// The objects and writer provenance of every external read:
    /// `(object, writer, version)` triples.
    pub fn read_sources(&self) -> impl Iterator<Item = (ObjectId, MOpId, u64)> + '_ {
        self.external_reads()
            .map(|op| (op.object, op.writer, op.version))
    }

    /// Renders the m-operation in the paper's inline notation, e.g.
    /// `α = r(x)0 w(y)2`.
    pub fn notation(&self) -> String {
        let body: Vec<String> = self.ops.iter().map(|op| op.to_string()).collect();
        format!("{} = {}", self.id, body.join(" "))
    }
}

impl fmt::Display for MOpRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} [{}..{}] {}",
            self.notation(),
            self.invoked_at,
            self.responded_at,
            self.treated_as
        )
    }
}

/// Convenience constructor used by tests and the history builder.
#[derive(Debug, Clone)]
pub struct MOpRecordBuilder {
    record: MOpRecord,
}

impl MOpRecordBuilder {
    /// Starts building a record for m-operation `id`.
    pub fn new(id: MOpId) -> Self {
        MOpRecordBuilder {
            record: MOpRecord {
                id,
                invoked_at: EventTime::ZERO,
                responded_at: EventTime::ZERO,
                ops: InlineList::new(),
                outputs: InlineList::new(),
                treated_as: MOpClass::Query,
                label: Arc::default(),
            },
        }
    }

    /// Sets invocation and response times.
    pub fn at(mut self, invoked: u64, responded: u64) -> Self {
        self.record.invoked_at = EventTime(invoked);
        self.record.responded_at = EventTime(responded);
        self
    }

    /// Appends a completed operation.
    pub fn op(mut self, op: CompletedOp) -> Self {
        if op.kind == OpKind::Write {
            self.record.treated_as = MOpClass::Update;
        }
        self.record.ops.push(op);
        self
    }

    /// Sets the output values.
    pub fn outputs(mut self, outputs: impl Into<InlineList<Value>>) -> Self {
        self.record.outputs = outputs.into();
        self
    }

    /// Sets the label.
    pub fn label(mut self, label: impl Into<Arc<str>>) -> Self {
        self.record.label = label.into();
        self
    }

    /// Overrides the protocol classification.
    pub fn treated_as(mut self, class: MOpClass) -> Self {
        self.record.treated_as = class;
        self
    }

    /// Finishes the record.
    pub fn build(self) -> MOpRecord {
        self.record
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pid(i: u32) -> ProcessId {
        ProcessId::new(i)
    }
    fn oid(i: u32) -> ObjectId {
        ObjectId::new(i)
    }

    fn sample() -> MOpRecord {
        let id = MOpId::new(pid(0), 0);
        MOpRecordBuilder::new(id)
            .at(0, 10)
            .op(CompletedOp::read(oid(0), 0, MOpId::INITIAL, 0))
            .op(CompletedOp::write(oid(1), 2, id, 1))
            .op(CompletedOp::read(oid(1), 2, id, 1)) // internal read
            .op(CompletedOp::write(oid(1), 3, id, 1)) // overwrites earlier write
            .outputs(vec![0])
            .label("sample")
            .build()
    }

    #[test]
    fn classification() {
        let r = sample();
        assert!(r.is_update());
    }

    #[test]
    fn external_reads_skip_own_writes() {
        let r = sample();
        let ext: Vec<_> = r.external_reads().collect();
        assert_eq!(ext.len(), 1);
        assert_eq!(ext[0].object, oid(0));
        assert!(ext[0].writer.is_initial());
    }

    #[test]
    fn final_writes_keep_last_per_object() {
        let r = sample();
        let finals = r.final_writes();
        assert_eq!(finals.len(), 1);
        assert_eq!(finals[0].value, 3);
    }

    #[test]
    fn notation_matches_paper() {
        let r = sample();
        assert!(r.notation().starts_with("P0#0 = r(x)0 w(y)2"));
    }

    #[test]
    fn builder_classifies_updates() {
        let id = MOpId::new(pid(1), 0);
        let q = MOpRecordBuilder::new(id)
            .op(CompletedOp::read(oid(0), 0, MOpId::INITIAL, 0))
            .build();
        assert_eq!(q.treated_as, MOpClass::Query);
        let u = MOpRecordBuilder::new(id)
            .op(CompletedOp::write(oid(0), 1, id, 1))
            .build();
        assert_eq!(u.treated_as, MOpClass::Update);
    }

    #[test]
    fn event_time_ordering() {
        assert!(EventTime::from_nanos(3) < EventTime::from_nanos(5));
        assert_eq!(EventTime::from_nanos(3).as_nanos(), 3);
    }
}
