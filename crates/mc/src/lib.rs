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
//! Each explored process is a [`ReplicaHost`] on the trusted channel, the
//! host that the simulated cluster (`moc_protocol::harness`) and
//! `moc-runtime` run: it admits, stamps and records; this crate only
//! chooses the next move.
//!
//! This upgrades the Theorem 15/20 validation from "holds on sampled
//! seeds" to "holds on all schedules" for the explored configurations —
//! and, run with the *wrong* condition, it finds counterexample schedules:
//! asking for m-linearizability of the Figure 4 (m-sequential-consistency)
//! protocol produces the stale-local-query interleaving the paper's
//! distinction hinges on.
//!
//! Exploration branches over:
//! * delivering any in-flight frame (the network may reorder anything);
//! * invoking the next scripted m-operation of any idle process.
//!
//! Virtual time is the exploration step index, a valid real-time axis for
//! `~t` because it linearizes the actual event order of the schedule: a
//! move's input is stamped `step * 10` and the settle after it reads
//! `step * 10 + 5`, so a response follows the invocation of its own step.

use moc_abcast::LinkMsg;
use moc_checker::certificate::{certify, Certificate};
use moc_checker::conditions::Condition;
use moc_checker::SearchLimits;
use moc_core::history::History;
use moc_core::ids::ProcessId;
use moc_core::mop::{EventTime, MOpRecord};
use moc_protocol::host::{OrderingSetup, ReplicaHost};
use moc_protocol::{OpSpec, ReplicaProtocol};

/// Hard cap on events within one schedule: a protocol that exceeds it is
/// livelocked, reported as a violation.
const MAX_DEPTH: usize = 10_000;

/// Limits for an exploration run.
#[derive(Debug, Clone, Copy)]
pub struct ExploreLimits {
    /// Stop after this many complete schedules (guards combinatorial
    /// blowup; exceeded ⇒ `truncated` in the result).
    pub max_schedules: u64,
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
    /// The checker's certificate of the refutation, when the checker found
    /// the violation (not for orphan completions or lost liveness).
    pub certificate: Option<Certificate>,
}

/// The outcome of an exploration.
#[derive(Debug, Default)]
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

/// One node of the exploration tree. Cloned at every branch.
#[derive(Clone)]
struct State<R: ReplicaProtocol> {
    hosts: Vec<ReplicaHost<R, ()>>,
    /// `(from, to, frame)` on the wire.
    inflight: Vec<(ProcessId, ProcessId, LinkMsg<R::Msg>)>,
    script_pos: Vec<usize>,
    records: Vec<MOpRecord>,
    step: u64,
    duplicates_used: u32,
    /// The fail-stopped process, if a leader-crash move was taken. It
    /// never acts again; frames addressed to it vanish.
    crashed: Option<usize>,
    /// Virtual clock fed to the hosts' ticks at quiescence.
    clock_ns: u64,
}

impl<R: ReplicaProtocol> State<R> {
    /// Settles host `p` at this step's response stamp and collects what it
    /// put on the wire and retired. Returns whether it sent a frame to a
    /// live process or completed an m-operation (orphans included).
    fn settle(&mut self, p: usize) -> bool {
        let at = EventTime::from_nanos(self.step * 10 + 5);
        let host = &mut self.hosts[p];
        let orphans = host.metrics().orphan_completions;
        host.settle(&|| at);
        let mut progressed =
            !host.retired.is_empty() || host.metrics().orphan_completions > orphans;
        self.records
            .extend(host.retired.drain(..).map(|r| r.record));
        let from = ProcessId::new(p as u32);
        for (to, frame) in host.wire.drain(..) {
            if self.crashed != Some(to.index()) {
                self.inflight.push((from, to, frame));
                progressed = true;
            }
        }
        progressed
    }

    /// Whether some process that is still alive has an operation waiting
    /// for a response.
    fn live_pending(&self) -> bool {
        self.hosts
            .iter()
            .enumerate()
            .any(|(p, host)| host.in_flight() > 0 && self.crashed != Some(p))
    }
}

#[derive(Debug, Clone, Copy)]
enum Move {
    Deliver(usize),
    /// Deliver a *copy* of an in-flight frame, leaving the original in
    /// flight: the network duplicated it.
    Duplicate(usize),
    Invoke(usize),
    /// Fail-stop the initial coordinator (P0): it never acts again and
    /// every in-flight frame addressed to it is lost.
    CrashLeader,
}

struct Explorer<'a> {
    scripts: &'a [Vec<OpSpec>],
    num_objects: usize,
    condition: Condition,
    limits: ExploreLimits,
    result: ExploreResult,
}

/// Explores every schedule of protocol `R` over the given scripts and
/// checks each complete schedule's history against `condition`.
///
/// Each process is a [`ReplicaHost`] hosting an `R` on the trusted
/// channel (no link, default ordering setup), so the records checked are
/// the ones the host builds for the simulator and the runtime.
///
/// The per-schedule check uses the polynomial Theorem 7 path when the
/// history satisfies the WW-constraint under the condition's relation plus
/// the protocol's broadcast order, falling back to the bounded search.
pub fn explore<R: ReplicaProtocol + Clone>(
    num_objects: usize,
    scripts: Vec<Vec<OpSpec>>,
    condition: Condition,
    limits: ExploreLimits,
) -> ExploreResult {
    let n = scripts.len();
    let setup = OrderingSetup::default();
    let state = State::<R> {
        hosts: (0..n as u32)
            .map(|p| ReplicaHost::new(ProcessId::new(p), n, num_objects, None, &setup, false))
            .collect(),
        inflight: Vec::new(),
        script_pos: vec![0; n],
        records: Vec::new(),
        step: 0,
        duplicates_used: 0,
        crashed: None,
        clock_ns: 0,
    };
    let mut explorer = Explorer {
        scripts: &scripts,
        num_objects,
        condition,
        limits,
        result: ExploreResult::default(),
    };
    explorer.dfs(state, 0);
    explorer.result
}

impl Explorer<'_> {
    fn moves<R: ReplicaProtocol>(&self, s: &State<R>) -> Vec<Move> {
        let mut moves: Vec<Move> = (0..s.inflight.len()).map(Move::Deliver).collect();
        if s.duplicates_used < self.limits.max_duplicates {
            moves.extend((0..s.inflight.len()).map(Move::Duplicate));
        }
        for (p, host) in s.hosts.iter().enumerate() {
            if s.crashed != Some(p)
                && host.in_flight() == 0
                && s.script_pos[p] < self.scripts[p].len()
            {
                moves.push(Move::Invoke(p));
            }
        }
        if s.crashed.is_none() && self.limits.max_leader_crashes > 0 {
            moves.push(Move::CrashLeader);
        }
        moves
    }

    fn apply<R: ReplicaProtocol>(&self, s: &mut State<R>, mv: Move) {
        s.step += 1;
        let now = EventTime::from_nanos(s.step * 10);
        let acting = match mv {
            Move::Deliver(i) => {
                let (from, to, frame) = s.inflight.swap_remove(i);
                s.hosts[to.index()].on_wire(from, frame, now);
                to.index()
            }
            Move::Duplicate(i) => {
                s.duplicates_used += 1;
                let (from, to, frame) = s.inflight[i].clone();
                s.hosts[to.index()].on_wire(from, frame, now);
                to.index()
            }
            Move::Invoke(p) => {
                let spec = &self.scripts[p][s.script_pos[p]];
                s.script_pos[p] += 1;
                s.hosts[p].submit(spec.program.clone(), spec.args.clone(), (), now);
                p
            }
            Move::CrashLeader => {
                s.crashed = Some(0);
                s.inflight.retain(|(_, to, _)| to.index() != 0);
                return;
            }
        };
        s.settle(acting);
    }

    /// Lets virtual time pass at network quiescence: ticks every live
    /// host with an ever-advancing clock, so suspicion timers fire and
    /// view changes run. Returns `true` as soon as a round emits frames or
    /// completes an operation; `false` if the system stays silent —
    /// genuine lack of progress.
    fn tick_until_progress<R: ReplicaProtocol>(s: &mut State<R>) -> bool {
        const ROUNDS: u32 = 32;
        const TICK_NS: u64 = 1_000_000;
        for _ in 0..ROUNDS {
            s.step += 1;
            s.clock_ns += TICK_NS;
            let mut progressed = false;
            for p in 0..s.hosts.len() {
                if s.crashed != Some(p) {
                    s.hosts[p].on_tick(EventTime::from_nanos(s.clock_ns));
                    progressed |= s.settle(p);
                }
            }
            if progressed {
                return true;
            }
        }
        false
    }

    fn dfs<R: ReplicaProtocol + Clone>(&mut self, s: State<R>, depth: usize) {
        if self.result.schedules >= self.limits.max_schedules {
            self.result.truncated = true;
            return;
        }
        if depth > MAX_DEPTH {
            // Livelock: report as a violation with whatever was recorded.
            let reason = "schedule exceeded the depth bound (livelock?)";
            self.report(s.records, Some(reason.into()));
            return;
        }
        let moves = self.moves(&s);
        if moves.is_empty() {
            if s.live_pending() {
                // The network is quiescent but a live process is still
                // waiting. Let time pass: suspicion timers may start a
                // view change that unblocks it.
                let mut next = s;
                if Self::tick_until_progress(&mut next) {
                    self.dfs(next, depth + 1);
                } else {
                    let reason = "liveness: a live process's operation can never complete \
                                  (crashed coordinator with no failover?)";
                    self.report(next.records, Some(reason.into()));
                }
                return;
            }
            self.finish_schedule(s);
            return;
        }
        // The last move takes the state itself rather than a copy.
        let (&last, rest) = moves.split_last().expect("moves is non-empty");
        for &mv in rest {
            let mut next = s.clone();
            self.apply(&mut next, mv);
            self.dfs(next, depth + 1);
            if self.result.truncated {
                return;
            }
        }
        let mut next = s;
        self.apply(&mut next, last);
        self.dfs(next, depth + 1);
    }

    /// Records a violation carrying the schedule's (partial) history.
    fn report(&mut self, records: Vec<MOpRecord>, reason: Option<String>) {
        let history = History::new(self.num_objects, records).expect("history is well-formed");
        self.result.violations.push(Violation {
            history,
            reason,
            certificate: None,
        });
    }

    fn finish_schedule<R: ReplicaProtocol>(&mut self, s: State<R>) {
        self.result.schedules += 1;
        let orphans: u64 = s.hosts.iter().map(|h| h.metrics().orphan_completions).sum();
        if orphans > 0 && self.limits.max_duplicates == 0 {
            // Only a duplicated frame may complete an m-operation twice.
            let reason = format!("{orphans} orphan completion(s): a frame was applied twice");
            self.report(s.records, Some(reason));
            return;
        }
        let history =
            History::new(self.num_objects, s.records).expect("schedule produced a valid history");
        let order: Vec<_> = s.hosts[0]
            .replica()
            .delivery_log()
            .windows(2)
            .filter_map(|w| Some((history.idx_of(w[0])?, history.idx_of(w[1])?)))
            .collect();
        // The delivery order is a hint: it puts these protocols under WW, so
        // Theorem 7 admits without search. A log that does not (a crashed
        // P0's, short; a duplicated frame delivered twice, cyclic) proves
        // nothing, and the search over `~H` alone decides.
        let hint = Some(&order[..]);
        let (reason, certificate) =
            match certify(&history, self.condition, hint, SearchLimits::default()) {
                Ok((report, _)) if report.satisfied => return,
                Ok((report, cert)) => (report.reason, Some(cert)),
                Err(e) => (Some(format!("checker error: {e}")), None),
            };
        self.result.violations.push(Violation {
            history,
            reason,
            certificate,
        });
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
        assert_eq!(result.schedules, 1708);
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
        assert_eq!((result.schedules, result.violations.len()), (10, 1));
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
        assert_eq!(result.schedules, 1512);
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
        assert_eq!(result.schedules, 1512);
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
        assert!(result.truncated);
        // The schedules whose history is inadmissible under `~H` alone. A
        // duplicated record makes P0's delivery log cyclic as a hint, which
        // once counted 94 120 schedules as refuted by the log's own edges.
        assert_eq!((result.schedules, result.violations.len()), (100_000, 456));
        for v in &result.violations {
            let cert = v.certificate.as_ref().expect("the checker found it");
            let verdict = moc_audit::audit(&v.history, &cert.to_text())
                .unwrap_or_else(|e| panic!("REJECTED: {e}"));
            assert!(verdict.is_verified(), "{verdict:?}");
        }
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
        assert_eq!(result.schedules, 540);
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
        assert_eq!((result.schedules, result.violations.len()), (31_266, 125));
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
        assert_eq!(result.schedules, 28_830, "every crash interleaving");
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
        assert_eq!(result.schedules, 3);
    }
}
