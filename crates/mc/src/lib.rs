//! # moc-mc
//!
//! Exhaustive schedule exploration — a small model checker for the
//! Mittal–Garg protocols.
//!
//! The randomized simulator (`moc-sim`) samples schedules; this crate
//! *enumerates* them. For a small configuration (a few processes, a couple
//! of m-operations each), [`explore`] walks **every** interleaving of
//! client invocations and message deliveries the asynchronous reordering
//! network permits, records the resulting history of each complete
//! schedule, and checks it against a consistency condition.
//!
//! This upgrades the Theorem 15/20 validation from "holds on sampled
//! seeds" to "holds on all schedules" for the explored configurations —
//! and, run with the *wrong* condition, it finds counterexample schedules:
//! asking for m-linearizability of the Figure 4 (m-sequential-consistency)
//! protocol produces the stale-local-query interleaving the paper's
//! distinction hinges on.
//!
//! Exploration branches over:
//! * delivering any in-flight message (the network may reorder anything);
//! * invoking the next scripted m-operation of any idle process.
//!
//! Virtual time is the exploration step index, a valid real-time axis for
//! `~t` because it linearizes the actual event order of the schedule.

use moc_abcast::Outbox;
use moc_checker::conditions::{check_with_order, Condition, Strategy};
use moc_core::constraints::Constraint;
use moc_core::history::History;
use moc_core::ids::{MOpId, ProcessId};
use moc_core::mop::{EventTime, MOpRecord};
use moc_protocol::{Completion, MOperation, OpSpec, ReplicaProtocol};

/// Limits for an exploration run.
#[derive(Debug, Clone, Copy)]
pub struct ExploreLimits {
    /// Stop after this many complete schedules (guards combinatorial
    /// blowup; exceeded ⇒ `truncated` in the result).
    pub max_schedules: u64,
    /// Hard cap on events within one schedule (a protocol that exceeds it
    /// is livelocked — reported as a violation).
    pub max_depth: usize,
    /// Duplicate-delivery budget per schedule. The default (0) explores
    /// the paper's reliable reordering channels; a positive budget lets
    /// the explorer also deliver up to this many in-flight messages a
    /// second time, modelling a faulty network *without* the
    /// reliable-link sublayer — and finding the schedules it breaks.
    pub max_duplicates: u32,
    /// Leader-crash budget per schedule. The default (0) explores only
    /// crash-free schedules; a budget of 1 lets the explorer fail-stop
    /// the initial coordinator (P0) at every possible point. A schedule
    /// in which a *live* process's operation can never complete — even
    /// after arbitrary time passes (suspicion timers fire at network
    /// quiescence) — is reported as a liveness violation.
    pub max_leader_crashes: u32,
}

impl Default for ExploreLimits {
    fn default() -> Self {
        ExploreLimits {
            max_schedules: 200_000,
            max_depth: 10_000,
            max_duplicates: 0,
            max_leader_crashes: 0,
        }
    }
}

/// A counterexample schedule found by exploration.
#[derive(Debug, Clone)]
pub struct Violation {
    /// The recorded history that fails the condition.
    pub history: History,
    /// The checker's explanation, if any.
    pub reason: Option<String>,
}

/// The outcome of an exploration.
#[derive(Debug)]
pub struct ExploreResult {
    /// Complete schedules explored.
    pub schedules: u64,
    /// Histories that violated the condition (empty = the condition holds
    /// on every explored schedule).
    pub violations: Vec<Violation>,
    /// Whether `max_schedules` stopped the exploration early.
    pub truncated: bool,
}

impl ExploreResult {
    /// Whether the condition held on every explored schedule.
    pub fn holds(&self) -> bool {
        self.violations.is_empty()
    }
}

#[derive(Clone)]
struct Envelope<M> {
    from: ProcessId,
    to: ProcessId,
    msg: M,
}

struct Pending {
    id: MOpId,
    invoked_step: u64,
}

/// One node of the exploration tree. Cloned at every branch.
struct State<R: ReplicaProtocol + Clone>
where
    R::Msg: Clone,
{
    replicas: Vec<R>,
    inflight: Vec<Envelope<R::Msg>>,
    script_pos: Vec<usize>,
    pending: Vec<Option<Pending>>,
    next_seq: Vec<u32>,
    records: Vec<MOpRecord>,
    step: u64,
    duplicates_used: u32,
    /// The fail-stopped process, if a leader-crash move was taken. It
    /// never acts again; messages addressed to it vanish.
    crashed: Option<usize>,
    /// Virtual clock fed to `on_abcast_tick` during quiescent-time
    /// phases.
    clock_ns: u64,
}

impl<R: ReplicaProtocol + Clone> Clone for State<R>
where
    R::Msg: Clone,
{
    fn clone(&self) -> Self {
        State {
            replicas: self.replicas.clone(),
            inflight: self.inflight.clone(),
            script_pos: self.script_pos.clone(),
            pending: self
                .pending
                .iter()
                .map(|p| {
                    p.as_ref().map(|p| Pending {
                        id: p.id,
                        invoked_step: p.invoked_step,
                    })
                })
                .collect(),
            next_seq: self.next_seq.clone(),
            records: self.records.clone(),
            step: self.step,
            duplicates_used: self.duplicates_used,
            crashed: self.crashed,
            clock_ns: self.clock_ns,
        }
    }
}

#[derive(Debug, Clone, Copy)]
enum Move {
    Deliver(usize),
    /// Deliver a *copy* of an in-flight message, leaving the original in
    /// flight: the network duplicated it.
    Duplicate(usize),
    Invoke(usize),
    /// Fail-stop the initial coordinator (P0): it never acts again and
    /// every in-flight message addressed to it is lost.
    CrashLeader,
}

struct Explorer<'a, R: ReplicaProtocol + Clone>
where
    R::Msg: Clone,
{
    scripts: &'a [Vec<OpSpec>],
    num_objects: usize,
    condition: Condition,
    limits: ExploreLimits,
    schedules: u64,
    violations: Vec<Violation>,
    truncated: bool,
    _protocol: std::marker::PhantomData<R>,
}

/// Explores every schedule of protocol `R` over the given scripts and
/// checks each complete schedule's history against `condition`.
///
/// The per-schedule check uses the polynomial Theorem 7 path when the
/// history satisfies the WW-constraint under the condition's relation plus
/// the protocol's broadcast order, falling back to the bounded search.
pub fn explore<R: ReplicaProtocol + Clone + 'static>(
    num_objects: usize,
    scripts: Vec<Vec<OpSpec>>,
    condition: Condition,
    limits: ExploreLimits,
) -> ExploreResult
where
    R::Msg: Clone,
{
    let n = scripts.len();
    let state = State {
        replicas: (0..n)
            .map(|p| R::new(ProcessId::new(p as u32), n, num_objects))
            .collect(),
        inflight: Vec::new(),
        script_pos: vec![0; n],
        pending: (0..n).map(|_| None).collect(),
        next_seq: vec![0; n],
        records: Vec::new(),
        step: 0,
        duplicates_used: 0,
        crashed: None,
        clock_ns: 0,
    };
    let mut explorer = Explorer::<R> {
        scripts: &scripts,
        num_objects,
        condition,
        limits,
        schedules: 0,
        violations: Vec::new(),
        truncated: false,
        _protocol: std::marker::PhantomData,
    };
    explorer.dfs(state, 0);
    ExploreResult {
        schedules: explorer.schedules,
        violations: explorer.violations,
        truncated: explorer.truncated,
    }
}

impl<R: ReplicaProtocol + Clone> Explorer<'_, R>
where
    R::Msg: Clone,
{
    fn moves(&self, s: &State<R>) -> Vec<Move> {
        let mut moves: Vec<Move> = (0..s.inflight.len()).map(Move::Deliver).collect();
        if s.duplicates_used < self.limits.max_duplicates {
            moves.extend((0..s.inflight.len()).map(Move::Duplicate));
        }
        for p in 0..s.replicas.len() {
            if s.crashed == Some(p) {
                continue;
            }
            if s.pending[p].is_none() && s.script_pos[p] < self.scripts[p].len() {
                moves.push(Move::Invoke(p));
            }
        }
        if s.crashed.is_none() && self.limits.max_leader_crashes > 0 {
            moves.push(Move::CrashLeader);
        }
        moves
    }

    fn apply(&self, s: &mut State<R>, mv: Move) {
        s.step += 1;
        let mut out;
        let acting: usize;
        match mv {
            Move::Deliver(i) => {
                let env = s.inflight.swap_remove(i);
                acting = env.to.index();
                out = Outbox::new(s.replicas.len());
                s.replicas[acting].on_message(env.from, env.msg, &mut out);
            }
            Move::Duplicate(i) => {
                s.duplicates_used += 1;
                let env = s.inflight[i].clone();
                acting = env.to.index();
                out = Outbox::new(s.replicas.len());
                s.replicas[acting].on_message(env.from, env.msg, &mut out);
            }
            Move::Invoke(p) => {
                acting = p;
                let spec = &self.scripts[p][s.script_pos[p]];
                s.script_pos[p] += 1;
                let id = MOpId::new(ProcessId::new(p as u32), s.next_seq[p]);
                s.next_seq[p] += 1;
                s.pending[p] = Some(Pending {
                    id,
                    invoked_step: s.step,
                });
                let mop = MOperation::new(id, spec.program.clone(), spec.args.clone());
                out = Outbox::new(s.replicas.len());
                s.replicas[p].invoke(mop, &mut out);
            }
            Move::CrashLeader => {
                s.crashed = Some(0);
                s.inflight.retain(|env| env.to.index() != 0);
                return;
            }
        }
        let me = ProcessId::new(acting as u32);
        for (to, msg) in out.drain() {
            if s.crashed == Some(to.index()) {
                continue;
            }
            s.inflight.push(Envelope { from: me, to, msg });
        }
        for c in s.replicas[acting].drain_completions() {
            self.complete(s, acting, c);
        }
    }

    /// Lets virtual time pass at network quiescence: ticks every live
    /// replica's broadcast with an ever-advancing clock, so suspicion
    /// timers fire and view changes run. Returns `true` as soon as a
    /// round emits messages or completes an operation; `false` if the
    /// system stays silent — genuine lack of progress.
    fn tick_until_progress(&self, s: &mut State<R>) -> bool {
        const ROUNDS: u32 = 32;
        const TICK_NS: u64 = 1_000_000;
        for _ in 0..ROUNDS {
            s.step += 1;
            s.clock_ns += TICK_NS;
            let mut progressed = false;
            for p in 0..s.replicas.len() {
                if s.crashed == Some(p) {
                    continue;
                }
                let mut out = Outbox::new(s.replicas.len());
                s.replicas[p].on_abcast_tick(s.clock_ns, &mut out);
                let me = ProcessId::new(p as u32);
                for (to, msg) in out.drain() {
                    if s.crashed == Some(to.index()) {
                        continue;
                    }
                    s.inflight.push(Envelope { from: me, to, msg });
                    progressed = true;
                }
                for c in s.replicas[p].drain_completions() {
                    self.complete(s, p, c);
                    progressed = true;
                }
            }
            if progressed {
                return true;
            }
        }
        false
    }

    /// Whether some process that is still alive has an operation waiting
    /// for a response.
    fn live_pending(s: &State<R>) -> bool {
        s.pending
            .iter()
            .enumerate()
            .any(|(p, pend)| pend.is_some() && s.crashed != Some(p))
    }

    fn complete(&self, s: &mut State<R>, p: usize, c: Completion) {
        let Some(pending) = s.pending[p].take() else {
            // Orphan completion: a duplicated message made the replica
            // apply (and complete) the same m-operation twice. Only the
            // first completion is the client-visible response event.
            debug_assert!(self.limits.max_duplicates > 0, "orphan without duplication");
            return;
        };
        if pending.id != c.id {
            s.pending[p] = Some(pending);
            return;
        }
        s.records.push(MOpRecord {
            id: c.id,
            invoked_at: EventTime::from_nanos(pending.invoked_step * 10),
            responded_at: EventTime::from_nanos(s.step * 10 + 5),
            ops: c.ops,
            outputs: c.outputs,
            treated_as: c.treated_as,
            label: c.label,
        });
    }

    fn dfs(&mut self, s: State<R>, depth: usize) {
        if self.schedules >= self.limits.max_schedules {
            self.truncated = true;
            return;
        }
        if depth > self.limits.max_depth {
            // Livelock: report as a violation with whatever was recorded.
            let history =
                History::new(self.num_objects, s.records).expect("partial history is well-formed");
            self.violations.push(Violation {
                history,
                reason: Some("schedule exceeded the depth bound (livelock?)".into()),
            });
            return;
        }
        let moves = self.moves(&s);
        if moves.is_empty() {
            if Self::live_pending(&s) {
                // The network is quiescent but a live process is still
                // waiting. Let time pass: suspicion timers may start a
                // view change that unblocks it.
                let mut next = s;
                if self.tick_until_progress(&mut next) {
                    self.dfs(next, depth + 1);
                } else {
                    let history = History::new(self.num_objects, next.records)
                        .expect("partial history is well-formed");
                    self.violations.push(Violation {
                        history,
                        reason: Some(
                            "liveness: a live process's operation can never complete \
                             (crashed coordinator with no failover?)"
                                .into(),
                        ),
                    });
                }
                return;
            }
            self.finish_schedule(s);
            return;
        }
        for mv in moves {
            let mut next = s.clone();
            self.apply(&mut next, mv);
            self.dfs(next, depth + 1);
            if self.truncated {
                return;
            }
        }
    }

    fn finish_schedule(&mut self, s: State<R>) {
        self.schedules += 1;
        debug_assert!(
            s.pending
                .iter()
                .enumerate()
                .all(|(p, pend)| pend.is_none() || s.crashed == Some(p)),
            "quiescent schedule left a live operation pending"
        );
        let history =
            History::new(self.num_objects, s.records).expect("schedule produced a valid history");
        let order: Vec<_> = s.replicas[0]
            .delivery_log()
            .windows(2)
            .filter_map(|w| Some((history.idx_of(w[0])?, history.idx_of(w[1])?)))
            .collect();
        // The delivery order puts these protocols under WW; a schedule that
        // leaves it short (a crashed P0's log) is decided by the search.
        let verdict = check_with_order(
            &history,
            self.condition,
            &order,
            Strategy::Certified(Constraint::Ww),
        );
        match verdict {
            Ok(report) if report.satisfied => {}
            Ok(report) => self.violations.push(Violation {
                history,
                reason: report.reason,
            }),
            Err(e) => self.violations.push(Violation {
                history,
                reason: Some(format!("checker error: {e}")),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moc_core::ids::ObjectId;
    use moc_core::program::{imm, reg, ProgramBuilder};
    use moc_protocol::{MlinOverSequencer, MscOverSequencer};
    use std::sync::Arc;

    fn wx(v: i64) -> OpSpec {
        let mut b = ProgramBuilder::new(format!("w{v}"));
        b.write(ObjectId::new(0), imm(v)).ret(vec![]);
        OpSpec::new(Arc::new(b.build().unwrap()), vec![])
    }

    fn rx() -> OpSpec {
        let mut b = ProgramBuilder::new("rx");
        b.read(ObjectId::new(0), 0).ret(vec![reg(0)]);
        OpSpec::new(Arc::new(b.build().unwrap()), vec![])
    }

    /// Theorem 15, exhaustively: every schedule of one writer + one
    /// reader-then-writer pair of processes is m-sequentially consistent.
    #[test]
    fn msc_exhaustive_theorem15() {
        let result = explore::<MscOverSequencer>(
            1,
            vec![vec![wx(1), rx()], vec![wx(2), rx()]],
            Condition::MSequentialConsistency,
            ExploreLimits::default(),
        );
        assert!(!result.truncated);
        assert!(result.schedules > 10, "expected many interleavings");
        assert!(
            result.holds(),
            "Theorem 15 violated on {} of {} schedules",
            result.violations.len(),
            result.schedules
        );
    }

    /// The model checker *finds* the non-linearizable schedule of the
    /// Figure 4 protocol: a local query reading a stale value after a
    /// remote update responded.
    #[test]
    fn msc_is_not_linearizable_and_mc_finds_it() {
        let result = explore::<MscOverSequencer>(
            1,
            vec![vec![wx(1)], vec![rx()]],
            Condition::MLinearizability,
            ExploreLimits::default(),
        );
        assert!(!result.truncated);
        assert!(
            !result.holds(),
            "some interleaving must show the stale local query"
        );
        // The counterexample: the query responded 0 after w(x)1 responded.
        let v = &result.violations[0];
        assert!(v.history.len() == 2);
    }

    /// Theorem 20, exhaustively: every schedule of the Figure 6 protocol
    /// is m-linearizable — including the query round-trip interleavings.
    #[test]
    fn mlin_exhaustive_theorem20() {
        let result = explore::<MlinOverSequencer>(
            1,
            vec![vec![wx(1)], vec![rx()]],
            Condition::MLinearizability,
            ExploreLimits::default(),
        );
        assert!(!result.truncated);
        assert!(result.schedules > 10);
        assert!(
            result.holds(),
            "Theorem 20 violated on {} of {} schedules",
            result.violations.len(),
            result.schedules
        );
    }

    /// Exhaustive multi-object atomicity: two-object writes and a snapshot
    /// reader never observe a torn pair, under any interleaving.
    #[test]
    fn mlin_exhaustive_no_torn_snapshots() {
        let wpair = |v: i64| {
            let mut b = ProgramBuilder::new(format!("wp{v}"));
            b.write(ObjectId::new(0), imm(v))
                .write(ObjectId::new(1), imm(v))
                .ret(vec![]);
            OpSpec::new(Arc::new(b.build().unwrap()), vec![])
        };
        let rpair = {
            let mut b = ProgramBuilder::new("rp");
            b.read(ObjectId::new(0), 0)
                .read(ObjectId::new(1), 1)
                .ret(vec![reg(0), reg(1)]);
            OpSpec::new(Arc::new(b.build().unwrap()), vec![])
        };
        let result = explore::<MlinOverSequencer>(
            2,
            vec![vec![wpair(7)], vec![rpair]],
            Condition::MLinearizability,
            ExploreLimits::default(),
        );
        assert!(result.holds());
        assert!(!result.truncated);
    }

    /// Without the reliable-link sublayer, a single duplicated message
    /// breaks the Figure 4 protocol: a duplicate `Submit` re-stamps an
    /// old write after a newer one from the same process, and the
    /// explorer finds a schedule whose history the checker refutes. This
    /// is exactly the failure mode the link's receive-side dedup exists
    /// to prevent (the chaos suite shows the protected stack surviving
    /// the same fault).
    #[test]
    fn one_duplicate_without_link_protection_breaks_msc() {
        let result = explore::<MscOverSequencer>(
            1,
            vec![vec![wx(1), wx(2)], vec![rx(), rx()]],
            Condition::MSequentialConsistency,
            ExploreLimits {
                max_schedules: 100_000,
                max_duplicates: 1,
                ..ExploreLimits::default()
            },
        );
        assert!(
            !result.violations.is_empty(),
            "a duplicated broadcast frame must produce a refutable schedule \
             ({} schedules explored)",
            result.schedules
        );
    }

    /// A zero duplicate budget leaves the exploration exactly as before:
    /// the paper's reliable channels, under which Theorem 15 holds on
    /// every schedule.
    #[test]
    fn zero_duplicate_budget_preserves_theorem15() {
        let result = explore::<MscOverSequencer>(
            1,
            vec![vec![wx(1), wx(2)], vec![rx(), rx()]],
            Condition::MSequentialConsistency,
            ExploreLimits::default(),
        );
        assert!(result.holds(), "{} violations", result.violations.len());
    }

    /// Tentpole liveness pair, negative half: under a leader-crash move
    /// the fixed-sequencer stack loses liveness — some schedule crashes
    /// P0 with an update still unordered, no amount of time recovers it,
    /// and the explorer reports the liveness violation.
    #[test]
    fn leader_crash_violates_liveness_under_the_fixed_sequencer() {
        let result = explore::<MscOverSequencer>(
            1,
            vec![vec![wx(1)], vec![wx(2)], vec![]],
            Condition::MSequentialConsistency,
            ExploreLimits {
                max_leader_crashes: 1,
                ..ExploreLimits::default()
            },
        );
        assert!(!result.truncated);
        assert!(
            !result.holds(),
            "crashing the fixed sequencer must strand some update"
        );
        assert!(
            result
                .violations
                .iter()
                .any(|v| v.reason.as_deref().is_some_and(|r| r.contains("liveness"))),
            "the violation must be a liveness report: {:?}",
            result
                .violations
                .iter()
                .map(|v| &v.reason)
                .collect::<Vec<_>>()
        );
    }

    /// Tentpole liveness pair, positive half: the view-based broadcast
    /// survives the same move at every crash point — suspicion timers
    /// fire at quiescence, view 1 installs under P1, unordered updates
    /// are re-proposed, and every schedule both completes and stays
    /// m-sequentially consistent.
    #[test]
    fn leader_crash_is_masked_by_view_failover() {
        let result = explore::<moc_protocol::MscOverView>(
            1,
            vec![vec![wx(1)], vec![wx(2)], vec![]],
            Condition::MSequentialConsistency,
            ExploreLimits {
                max_leader_crashes: 1,
                ..ExploreLimits::default()
            },
        );
        assert!(
            result.holds(),
            "failover must preserve liveness and safety: {:?}",
            result
                .violations
                .iter()
                .map(|v| &v.reason)
                .collect::<Vec<_>>()
        );
        assert!(result.schedules > 10, "expected many crash interleavings");
    }

    /// The schedule cap is honoured.
    #[test]
    fn truncation_is_reported() {
        let result = explore::<MscOverSequencer>(
            1,
            vec![vec![wx(1), wx(2)], vec![wx(3), wx(4)]],
            Condition::MSequentialConsistency,
            ExploreLimits {
                max_schedules: 3,
                ..ExploreLimits::default()
            },
        );
        assert!(result.truncated);
        assert!(result.schedules <= 3);
    }
}
