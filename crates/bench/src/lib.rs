//! # moc-bench
//!
//! The experiment harness behind EXPERIMENTS.md: each function regenerates
//! one of the paper-derived tables (experiments E4, E5, E10, E11 and the
//! query-scope optimization of Section 5.2) as a formatted [`Table`].
//!
//! `cargo run -p moc-bench --bin paper_experiments` prints every table.
//! Besides those, the crate keeps the deterministic gates behind the
//! remaining BENCH files (`bench_checker`, `bench_chaos`, `bench_monitor`).
//! Every table and BENCH file holds seed-deterministic counts and
//! virtual-time figures only, so a regeneration is byte-identical; the
//! crate reads no wall clock. Wall-clock performance, live clusters
//! included, is measured by `benchmark/` (see `BENCHMARK.json`).

use std::fmt;

use moc_abcast::IsisAbcast;
use moc_checker::admissible::{find_legal_extension, SearchLimits, SearchOutcome};
use moc_checker::conditions::{check_with_order, Condition, Strategy};
use moc_checker::precedence::{pruned_search, PrecedenceGraph};
use moc_core::constraints::Constraint;
use moc_core::history::{History, MOpIdx};
use moc_core::ids::{MOpId, ObjectId, ProcessId};
use moc_core::json::{num, str as jstr, Json};
use moc_core::mop::MOpClass;
use moc_core::op::CompletedOp;
use moc_core::relations::{process_order, reads_from};
use moc_protocol::{
    run_cluster, AggregateOverSequencer, ClusterConfig, MOperation, MlinOverSequencer,
    MlinOverView, MlinRelevantOverSequencer, MscOverSequencer, MscOverView, MscReplica,
    ReplicaProtocol, RunReport,
};
use moc_sim::{DelayModel, NetworkConfig};
use moc_workload::histories::{multi_component_history, poisoned_multi_component_history};
use moc_workload::synth::{tiled, SynthFamily};
use moc_workload::{scripts, WorkloadSpec};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A printable experiment table.
#[derive(Debug, Clone)]
pub struct Table {
    /// Table caption.
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Data rows (already formatted).
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Starts a table.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        writeln!(f, "## {}", self.title)?;
        let fmt_row = |cells: &[String]| -> String {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:>w$}", c, w = widths[i]))
                .collect::<Vec<_>>()
                .join("  ")
        };
        writeln!(f, "{}", fmt_row(&self.headers))?;
        writeln!(
            f,
            "{}",
            widths
                .iter()
                .map(|w| "-".repeat(*w))
                .collect::<Vec<_>>()
                .join("  ")
        )?;
        for row in &self.rows {
            writeln!(f, "{}", fmt_row(row))?;
        }
        Ok(())
    }
}

fn us(ns: f64) -> String {
    format!("{:.1}", ns / 1_000.0)
}

/// Runs one protocol over a standard randomized workload.
pub fn run_protocol<R: ReplicaProtocol + 'static>(
    processes: usize,
    ops_per_process: usize,
    update_fraction: f64,
    seed: u64,
) -> RunReport {
    let spec = WorkloadSpec {
        processes,
        ops_per_process,
        num_objects: 8,
        update_fraction,
        max_span: 3,
        hot_fraction: 0.5,
        hot_objects: 2,
        think_ns: 500,
    };
    let mut rng = StdRng::seed_from_u64(seed);
    let s = scripts(&spec, &mut rng);
    let config = ClusterConfig::new(spec.num_objects, seed).with_network(
        NetworkConfig::with_delay(DelayModel::Uniform {
            lo: 1_000,
            hi: 10_000,
        }),
    );
    run_cluster::<R>(&config, s)
}

/// E11 — per-class response time and message cost as the cluster grows.
/// Shape to reproduce: msc queries are local (flat, ~0); mlin queries pay a
/// round trip that grows with message delay; update latencies are similar
/// for both (one atomic broadcast); the aggregate baseline's queries cost
/// as much as updates.
pub fn experiment_query_cost(ns: &[usize], ops_per_process: usize, seed: u64) -> Table {
    let mut t = Table::new(
        "E11: response time by class (virtual µs) and messages per op",
        &["n", "protocol", "query µs", "update µs", "msgs/op"],
    );
    for &n in ns {
        let mut add = |report: RunReport| {
            let ops = report.history.len() as f64;
            t.row(vec![
                n.to_string(),
                report.protocol.to_string(),
                report
                    .mean_latency(MOpClass::Query)
                    .map(us)
                    .unwrap_or_else(|| "-".into()),
                report
                    .mean_latency(MOpClass::Update)
                    .map(us)
                    .unwrap_or_else(|| "-".into()),
                format!("{:.1}", report.total_messages() as f64 / ops),
            ]);
        };
        add(run_protocol::<MscOverSequencer>(
            n,
            ops_per_process,
            0.5,
            seed,
        ));
        add(run_protocol::<MlinOverSequencer>(
            n,
            ops_per_process,
            0.5,
            seed,
        ));
        add(run_protocol::<AggregateOverSequencer>(
            n,
            ops_per_process,
            0.5,
            seed,
        ));
    }
    t
}

/// E10 — the aggregate-object strawman vs the multi-object protocols as
/// the query fraction grows. Shape: the query-heavier the workload, the
/// larger aggregate's penalty (its queries still pay a broadcast), while
/// msc's mean latency falls toward zero.
pub fn experiment_baseline(query_fracs: &[f64], ops_per_process: usize, seed: u64) -> Table {
    let mut t = Table::new(
        "E10: aggregate-object baseline vs multi-object protocols (n = 4)",
        &["query frac", "protocol", "mean op µs", "msgs/op"],
    );
    for &qf in query_fracs {
        let uf = 1.0 - qf;
        let mut add = |report: RunReport| {
            let ops = report.history.len() as f64;
            let mean: f64 = report.latencies.iter().map(|&(_, l)| l as f64).sum::<f64>() / ops;
            t.row(vec![
                format!("{qf:.1}"),
                report.protocol.to_string(),
                us(mean),
                format!("{:.1}", report.total_messages() as f64 / ops),
            ]);
        };
        add(run_protocol::<MscOverSequencer>(
            4,
            ops_per_process,
            uf,
            seed,
        ));
        add(run_protocol::<MlinOverSequencer>(
            4,
            ops_per_process,
            uf,
            seed,
        ));
        add(run_protocol::<AggregateOverSequencer>(
            4,
            ops_per_process,
            uf,
            seed,
        ));
    }
    t
}

/// `yes` / `no` / `budget`: a search outcome as an experiment table cell.
fn outcome_cell(outcome: &SearchOutcome) -> String {
    match outcome {
        SearchOutcome::Admissible(_) => "yes",
        SearchOutcome::NotAdmissible => "no",
        SearchOutcome::LimitExceeded => "budget",
    }
    .into()
}

/// E4 — brute-force verification cost on the adversarial
/// concurrent-writers family (Theorems 1 and 2 in action). Shape: nodes
/// explored grow combinatorially with k. The count is the cost measure;
/// wall-clock cost is `benchmark/`'s to measure.
pub fn experiment_checker_scaling(ks: &[usize]) -> Table {
    let mut t = Table::new(
        "E4: brute-force admissibility search on k writers + k readers",
        &["k", "m-ops", "nodes explored", "admissible"],
    );
    for &k in ks {
        let mut rng = StdRng::seed_from_u64(k as u64);
        let h = multi_component_history(1, k, 3, &mut rng);
        let rel = process_order(&h).union(&reads_from(&h));
        let (outcome, stats) =
            find_legal_extension(&h, &rel, SearchLimits::with_max_nodes(20_000_000));
        t.row(vec![
            k.to_string(),
            h.len().to_string(),
            stats.nodes.to_string(),
            outcome_cell(&outcome),
        ]);
    }
    t
}

/// E5 — the Theorem 7 polynomial path vs brute force on protocol-generated
/// histories. The fast path is one legality scan along the protocol's own
/// writer order, with no search, and every history passes it (asserted).
/// The brute force (without the ~ww hint) searches; the table records its
/// node count and outcome under a 3 000 000-node budget.
pub fn experiment_fast_vs_brute(sizes: &[usize], seed: u64) -> Table {
    let mut t = Table::new(
        "E5: Theorem 7 fast path vs brute-force search (msc histories)",
        &["m-ops", "brute nodes", "brute"],
    );
    for &ops_per_process in sizes {
        let report = run_protocol::<MscOverSequencer>(4, ops_per_process, 0.6, seed);
        let ww = report.ww_order();
        let fast = check_with_order(
            &report.history,
            Condition::MSequentialConsistency,
            &ww,
            Strategy::Constraint(Constraint::Ww),
        )
        .expect("protocol history is under WW");
        assert!(fast.satisfied);

        // Brute force on the *plain* relation (no ~ww) — the verification
        // problem the paper proves NP-complete. Cap the budget.
        let plain = process_order(&report.history).union(&reads_from(&report.history));
        let (outcome, stats) = find_legal_extension(
            &report.history,
            &plain,
            SearchLimits::with_max_nodes(3_000_000),
        );
        t.row(vec![
            report.history.len().to_string(),
            stats.nodes.to_string(),
            outcome_cell(&outcome),
        ]);
    }
    t
}

/// Section 5.2's closing remark — query responses carrying only the
/// relevant objects. Shape: Full ships the whole universe per response;
/// Relevant ships only what the query reads, independent of universe size.
pub fn experiment_query_scope(universe_sizes: &[usize], seed: u64) -> Table {
    let mut t = Table::new(
        "Query-scope optimization: values shipped per query response",
        &["objects", "protocol", "values/query-response"],
    );
    for &num_objects in universe_sizes {
        let spec = WorkloadSpec {
            processes: 4,
            ops_per_process: 12,
            num_objects,
            update_fraction: 0.3,
            max_span: 2,
            ..WorkloadSpec::default()
        };
        let mut add = |report: RunReport| {
            let values: u64 = report
                .replica_metrics
                .iter()
                .map(|m| m.query_values_sent)
                .sum();
            let queries: u64 = report
                .replica_metrics
                .iter()
                .map(|m| m.queries_completed)
                .sum();
            let responses = queries * report.replica_metrics.len() as u64;
            t.row(vec![
                num_objects.to_string(),
                report.protocol.to_string(),
                if responses == 0 {
                    "-".into()
                } else {
                    format!("{:.1}", values as f64 / responses as f64)
                },
            ]);
        };
        let mut rng = StdRng::seed_from_u64(seed);
        let s = scripts(&spec, &mut rng);
        let config = ClusterConfig::new(num_objects, seed);
        add(run_cluster::<MlinOverSequencer>(&config, s.clone()));
        add(run_cluster::<MlinRelevantOverSequencer>(&config, s));
    }
    t
}

/// Broadcast substrate comparison: messages per delivered update and
/// update latency, sequencer vs ISIS. Shape: the sequencer uses ~(n+1)
/// messages per update and two hops; ISIS uses ~3n messages and three
/// hops, so its update latency is higher.
pub fn experiment_abcast(ns: &[usize], ops_per_process: usize, seed: u64) -> Table {
    let mut t = Table::new(
        "Atomic broadcast cost under the msc protocol (updates only)",
        &["n", "abcast", "update µs", "msgs/update"],
    );
    for &n in ns {
        let mut add = |report: RunReport, name: &str| {
            let updates = report
                .latencies
                .iter()
                .filter(|(c, _)| *c == MOpClass::Update)
                .count() as f64;
            t.row(vec![
                n.to_string(),
                name.to_string(),
                report
                    .mean_latency(MOpClass::Update)
                    .map(us)
                    .unwrap_or_else(|| "-".into()),
                format!("{:.1}", report.total_messages() as f64 / updates),
            ]);
        };
        add(
            run_protocol::<MscOverSequencer>(n, ops_per_process, 1.0, seed),
            "sequencer",
        );
        add(
            run_protocol::<MscReplica<IsisAbcast<MOperation>>>(n, ops_per_process, 1.0, seed),
            "isis",
        );
    }
    t
}

/// Ablation — the searcher's configuration memoization. Shape: identical
/// verdicts, with the memo pruning a growing share of the explored nodes
/// as instances get harder.
pub fn experiment_memo_ablation(ks: &[usize]) -> Table {
    let mut t = Table::new(
        "Ablation: configuration memoization in the brute-force search",
        &[
            "k",
            "nodes (memo)",
            "nodes (no memo)",
            "memo hits",
            "speedup",
        ],
    );
    for &k in ks {
        let mut rng = StdRng::seed_from_u64(k as u64 + 100);
        let h = multi_component_history(1, k, 3, &mut rng);
        let rel = process_order(&h).union(&reads_from(&h));
        let limits = SearchLimits::with_max_nodes(50_000_000);
        let (a, s1) = find_legal_extension(&h, &rel, limits);
        let (b, s2) = find_legal_extension(&h, &rel, limits.without_memo());
        assert_eq!(a.is_admissible(), b.is_admissible());
        t.row(vec![
            k.to_string(),
            s1.nodes.to_string(),
            s2.nodes.to_string(),
            s1.memo_hits.to_string(),
            format!("{:.1}x", s2.nodes as f64 / s1.nodes.max(1) as f64),
        ]);
    }
    t
}

/// The condition spectrum: over many seeds, how often do the protocols'
/// histories satisfy each condition? Shape (the paper's separations):
/// msc histories are always m-SC but only sometimes m-linearizable; mlin
/// histories satisfy all three; m-normality sits between.
pub fn experiment_condition_spectrum(seeds: u64) -> Table {
    use moc_checker::causal::check_m_causal;
    use moc_checker::conditions::{check, Condition, Strategy};
    let mut t = Table::new(
        "Condition spectrum: fraction of runs satisfying each condition",
        &[
            "protocol",
            "m-causal",
            "m-seq-consistent",
            "m-normal",
            "m-linearizable",
        ],
    );
    let conditions = [
        Condition::MSequentialConsistency,
        Condition::MNormality,
        Condition::MLinearizability,
    ];
    let tally = |reports: Vec<RunReport>, name: &str, t: &mut Table| {
        let mut counts = [0u64; 3];
        let mut causal_count = 0u64;
        let total = reports.len() as u64;
        for report in reports {
            if check_m_causal(&report.history, SearchLimits::default())
                .map(|r| r.satisfied)
                .unwrap_or(false)
            {
                causal_count += 1;
            }
            for (i, c) in conditions.iter().enumerate() {
                if check(&report.history, *c, Strategy::Auto)
                    .map(|r| r.satisfied)
                    .unwrap_or(false)
                {
                    counts[i] += 1;
                }
            }
        }
        t.row(vec![
            name.to_string(),
            format!("{causal_count}/{total}"),
            format!("{}/{}", counts[0], total),
            format!("{}/{}", counts[1], total),
            format!("{}/{}", counts[2], total),
        ]);
    };
    tally(
        (0..seeds)
            .map(|s| run_protocol::<MscOverSequencer>(3, 5, 0.4, s))
            .collect(),
        "msc",
        &mut t,
    );
    tally(
        (0..seeds)
            .map(|s| run_protocol::<MlinOverSequencer>(3, 5, 0.4, s))
            .collect(),
        "mlin",
        &mut t,
    );
    t
}

/// Exhaustive verification: every message interleaving of small
/// configurations, checked against the protocol's condition (and against
/// the stronger condition for msc, where counterexamples are expected).
pub fn experiment_model_checking() -> Table {
    use moc_checker::conditions::Condition;
    use moc_core::ids::ObjectId;
    use moc_core::program::{imm, reg, ProgramBuilder};
    use moc_mc::{explore, ExploreLimits};
    use moc_protocol::OpSpec;
    use std::sync::Arc;

    let wx = |v: i64| {
        let mut b = ProgramBuilder::new(format!("w{v}"));
        b.write(ObjectId::new(0), imm(v)).ret(vec![]);
        OpSpec::new(Arc::new(b.build().expect("valid")), vec![])
    };
    let rx = || {
        let mut b = ProgramBuilder::new("rx");
        b.read(ObjectId::new(0), 0).ret(vec![reg(0)]);
        OpSpec::new(Arc::new(b.build().expect("valid")), vec![])
    };

    let mut t = Table::new(
        "Exhaustive schedule exploration (all interleavings, small configs)",
        &[
            "protocol",
            "condition",
            "schedules",
            "violations",
            "expected",
        ],
    );
    let mut add = |name: &str,
                   condition: Condition,
                   expected_violations: bool,
                   result: moc_mc::ExploreResult| {
        t.row(vec![
            name.to_string(),
            condition.to_string(),
            format!(
                "{}{}",
                result.schedules,
                if result.truncated { "+ (cap)" } else { "" }
            ),
            result.violations.len().to_string(),
            if expected_violations {
                "violations (protocol too weak)".into()
            } else {
                "none".into()
            },
        ]);
    };
    add(
        "msc",
        Condition::MSequentialConsistency,
        false,
        explore::<MscOverSequencer>(
            1,
            vec![vec![wx(1), rx()], vec![wx(2), rx()]],
            Condition::MSequentialConsistency,
            ExploreLimits::default(),
        ),
    );
    add(
        "msc",
        Condition::MLinearizability,
        true,
        explore::<MscOverSequencer>(
            1,
            vec![vec![wx(1)], vec![rx()]],
            Condition::MLinearizability,
            ExploreLimits::default(),
        ),
    );
    add(
        "mlin",
        Condition::MLinearizability,
        false,
        explore::<MlinOverSequencer>(
            1,
            vec![vec![wx(1)], vec![rx(), rx()]],
            Condition::MLinearizability,
            ExploreLimits::default(),
        ),
    );
    t
}

/// End-to-end verification that every experiment's protocol runs satisfy
/// their conditions — printed as a PASS table so the experiment output is
/// self-validating.
pub fn experiment_validation(seed: u64) -> Table {
    let mut t = Table::new(
        "Validation: protocol executions vs their consistency conditions",
        &["protocol", "condition", "m-ops", "verdict"],
    );
    let mut add = |report: RunReport, condition: Condition| {
        let ww = report.ww_order();
        let strategy = Strategy::Constraint(Constraint::Ww);
        let verdict = check_with_order(&report.history, condition, &ww, strategy)
            .map(|r| if r.satisfied { "PASS" } else { "FAIL" })
            .unwrap_or("ERROR");
        t.row(vec![
            report.protocol.to_string(),
            condition.to_string(),
            report.history.len().to_string(),
            verdict.to_string(),
        ]);
    };
    add(
        run_protocol::<MscOverSequencer>(4, 12, 0.5, seed),
        Condition::MSequentialConsistency,
    );
    add(
        run_protocol::<MlinOverSequencer>(4, 12, 0.5, seed),
        Condition::MLinearizability,
    );
    add(
        run_protocol::<AggregateOverSequencer>(4, 12, 0.5, seed),
        Condition::MLinearizability,
    );
    t
}

/// One configuration of the certified-checker benchmark behind
/// `BENCH_checker.json`: the same history decided by the naive search
/// (under a per-family node budget), the precedence-pruned search, and
/// (where the writer order is known sound) the Theorem 7 fast path. Every
/// field is a seed-deterministic count or verdict.
#[derive(Debug, Clone)]
pub struct CheckerBenchRow {
    /// Family label (`writers-KxM`, `multi-CxK`, `torn-CxK`,
    /// `shred-CxK`, `knot-1xK`, `poisoned-CxK`, `synth-*`).
    pub family: String,
    /// History size in m-operations.
    pub m_ops: usize,
    /// The pruned engine's verdict (`admissible` / `inadmissible` /
    /// `budget`); the naive search, when it completes, must agree.
    pub verdict: String,
    /// Naive-search DFS nodes, or `None` when the naive search exceeded
    /// [`Self::naive_budget`].
    pub naive: Option<u64>,
    /// Node budget the naive search ran under.
    pub naive_budget: u64,
    /// Nodes the pruned search expanded.
    pub pruned_nodes: u64,
    /// Interaction components the pruned search solved independently.
    pub components: u64,
    /// M-operations scheduled by forced-prefix peeling.
    pub peeled: u64,
    /// `~rw` edges forced by the precedence saturation.
    pub forced_edges: u64,
    /// Transposition-table hits over the searched components.
    pub memo_hits: u64,
    /// Peak transposition-table occupancy over the searched components.
    pub memo_peak: u64,
    /// The Theorem 7 fast path's verdict (`true` = admissible); `None` =
    /// not applicable (the torn families reuse version numbers
    /// across writers, which the version-based legality scan cannot
    /// arbitrate).
    pub fast: Option<bool>,
    /// `naive_nodes / max(pruned_nodes, 1)`; `None` when the naive search
    /// was budget-capped (the true ratio is only bounded below).
    pub node_speedup: Option<f64>,
    /// Commutativity skips the default (symmetry-on) search charged:
    /// extension steps refused because a provably-independent lower-index
    /// m-operation was schedulable (the canonical representative covers
    /// the skipped interleaving).
    pub symmetry_skips: u64,
    /// Nodes the same search expands with symmetry reduction ablated
    /// (`SearchLimits::without_symmetry`) — the PR 5 engine's behavior.
    pub nosym_nodes: u64,
}

impl CheckerBenchRow {
    /// The row as a JSON object (`BENCH_checker.json` version 6 schema).
    pub fn to_json(&self) -> Json {
        let naive = match self.naive {
            Some(nodes) => Json::Obj(vec![("nodes".into(), num(nodes as i64))]),
            None => jstr("budget"),
        };
        Json::Obj(vec![
            ("family".into(), jstr(self.family.clone())),
            ("m_ops".into(), num(self.m_ops as i64)),
            ("verdict".into(), jstr(self.verdict.clone())),
            ("naive".into(), naive),
            ("naive_budget".into(), num(self.naive_budget as i64)),
            (
                "pruned".into(),
                Json::Obj(vec![
                    ("nodes".into(), num(self.pruned_nodes as i64)),
                    ("components".into(), num(self.components as i64)),
                    ("peeled".into(), num(self.peeled as i64)),
                    ("forced_edges".into(), num(self.forced_edges as i64)),
                    ("memo_hits".into(), num(self.memo_hits as i64)),
                    ("memo_peak".into(), num(self.memo_peak as i64)),
                ]),
            ),
            ("fast".into(), jstr(fast_cell(self.fast))),
            (
                "node_speedup".into(),
                self.node_speedup.map_or(Json::Null, Json::Num),
            ),
            (
                "symmetry".into(),
                Json::Obj(vec![
                    ("skips".into(), num(self.symmetry_skips as i64)),
                    ("nodes_without".into(), num(self.nosym_nodes as i64)),
                    (
                        "node_reduction".into(),
                        Json::Num(self.nosym_nodes as f64 / self.pruned_nodes.max(1) as f64),
                    ),
                ]),
            ),
        ])
    }
}

/// `admissible` / `inadmissible` / `n/a`: the fast path's verdict as a
/// table cell and a `BENCH_checker.json` value.
fn fast_cell(fast: Option<bool>) -> &'static str {
    match fast {
        Some(true) => "admissible",
        Some(false) => "inadmissible",
        None => "n/a",
    }
}

/// A sound `~ww` order for the generator families: the updates chained in
/// history-index order, which orders every pair of them (D 4.9 obligates
/// *all* update pairs). Every generator edge already goes from a lower to a
/// higher index, so `~H` stays acyclic.
fn index_writer_order(h: &History) -> Vec<(MOpIdx, MOpIdx)> {
    let updates: Vec<MOpIdx> = h
        .iter()
        .filter(|&(i, _)| !h.wobjects(i).is_empty())
        .map(|(i, _)| i)
        .collect();
    updates.windows(2).map(|w| (w[0], w[1])).collect()
}

/// [`multi_component_history`] with the first reader of each of the
/// first `torn` components torn: in component `c` it keeps object `2c`
/// from writer 0 but takes object `2c+1` from writer 1. The writers are
/// atomic, so each torn component is inadmissible — yet `~H+` stays
/// acyclic, forcing the searches down the exhaustion path. The naive
/// search exhausts the *product* of the per-component state spaces; the
/// component-aware search only the sum. With one component (the
/// `knot-1xK` family) nothing decomposes and the whole refutation rests on
/// the transposition table.
fn torn_multi_component(components: usize, torn: usize, k: usize, seed: u64) -> History {
    assert!(k >= 2 && torn <= components);
    let mut rng = StdRng::seed_from_u64(seed);
    let h = multi_component_history(components, k, 2, &mut rng);
    let mut records = h.records().to_vec();
    for c in 0..torn {
        let proc_base = (c * 2 * k) as u32;
        let w0 = MOpId::new(ProcessId::new(proc_base), 0);
        let w1 = MOpId::new(ProcessId::new(proc_base + 1), 0);
        let first_reader = MOpId::new(ProcessId::new(proc_base + k as u32), 0);
        let reader = records
            .iter_mut()
            .find(|r| r.id == first_reader)
            .expect("every component has a first reader");
        reader.ops[0] = CompletedOp::read(ObjectId::new((2 * c) as u32), 1, w0, 1);
        reader.ops[1] = CompletedOp::read(ObjectId::new((2 * c + 1) as u32), 2, w1, 1);
    }
    History::new(h.num_objects(), records).expect("torn history stays well-formed")
}

/// The benchmark families: label, history, whether the Theorem 7 fast path
/// applies, and an optional per-family naive node budget overriding the
/// experiment-wide one (the ≥4x4 families' naive product spaces are far
/// past any practical budget, so they run under a small cap that documents
/// the blow-up without dominating the run).
fn checker_families(default_budget: u64) -> Vec<(String, History, bool, u64)> {
    let mut rng = StdRng::seed_from_u64(42);
    let big = default_budget.min(200_000);
    vec![
        (
            "writers-3x3".into(),
            multi_component_history(1, 3, 3, &mut rng),
            true,
            default_budget,
        ),
        (
            "multi-2x3".into(),
            multi_component_history(2, 3, 2, &mut rng),
            true,
            default_budget,
        ),
        (
            "multi-3x3".into(),
            multi_component_history(3, 3, 2, &mut rng),
            true,
            default_budget,
        ),
        (
            "torn-2x3".into(),
            torn_multi_component(2, 1, 3, 7),
            false,
            default_budget,
        ),
        (
            "torn-3x3".into(),
            torn_multi_component(3, 1, 3, 7),
            false,
            default_budget,
        ),
        (
            "torn-4x4".into(),
            torn_multi_component(4, 1, 4, 7),
            false,
            big,
        ),
        (
            "shred-4x5".into(),
            torn_multi_component(4, 4, 5, 7),
            false,
            big,
        ),
        (
            "shred-4x6".into(),
            torn_multi_component(4, 4, 6, 7),
            false,
            big,
        ),
        // One component: nothing to decompose, so the pruned search must
        // do no worse than the naive one on the strength of its table.
        (
            "knot-1x8".into(),
            torn_multi_component(1, 1, 8, 7),
            false,
            big,
        ),
        (
            "poisoned-2x3".into(),
            poisoned_multi_component_history(2, 3, 2, &mut rng),
            true,
            default_budget,
        ),
        // Synthesized stress rows: boundary specimens `moc synth` hunted
        // out of the history grammar (see docs/SYNTH.md), tiled into
        // disjoint copies so interaction components multiply while the
        // per-component structure stays pinned by the seed. The fast path
        // is off: raw synthesized histories do not promise that index
        // order satisfies their WW obligations. Replay any base with
        // `moc synth --family NAME`.
        (
            "synth-peak0-x4".into(),
            tiled(
                &SynthFamily::by_name("peak-0").expect("pinned").history(),
                4,
            ),
            false,
            big,
        ),
        (
            "synth-lbi0-x4".into(),
            tiled(&SynthFamily::by_name("lbi-0").expect("pinned").history(), 4),
            false,
            big,
        ),
        (
            "synth-cycle0-x4".into(),
            tiled(
                &SynthFamily::by_name("cycle-0").expect("pinned").history(),
                4,
            ),
            false,
            big,
        ),
    ]
}

/// The benchmark behind `BENCH_checker.json`: naive vs the precedence-
/// pruned search vs the Theorem 7 fast path over the generator families.
/// `budget` caps the naive search's node count (per-family overrides
/// apply, see `checker_families`).
///
/// Each search runs once: node counts and verdicts are deterministic, and
/// the experiment asserts the engines agree.
///
/// The fast path only runs on families whose index order is a sound
/// writer order for the plain-relation question (the admissible families,
/// and the poisoned one, where the stale read is illegal under *any*
/// writer order); the torn families reuse version numbers across
/// writers, which the version-based legality scan cannot arbitrate, so
/// they report `fast: "n/a"`.
pub fn experiment_certified_checker(budget: u64) -> Vec<CheckerBenchRow> {
    let mut rows = Vec::new();
    for (family, h, fast_applies, naive_budget) in checker_families(budget) {
        let rel = process_order(&h).union(&reads_from(&h));
        let graph = PrecedenceGraph::for_condition(&h, Condition::MSequentialConsistency);
        let naive_limits = SearchLimits::with_max_nodes(naive_budget);

        let (naive_out, naive_stats) = find_legal_extension(&h, &rel, naive_limits);

        let limits = SearchLimits::with_max_nodes(budget);
        let (pruned_out, pruned_stats) = pruned_search(&h, &graph, limits);

        // Symmetry ablation: the same pruned search with the
        // commutativity-aware reduction disabled (the pre-symmetry
        // engine). Verdicts must agree; the node delta is the measured
        // value of the commute certificate inside the checker.
        let (nosym_out, nosym_stats) = pruned_search(&h, &graph, limits.without_symmetry());
        if !matches!(nosym_out, SearchOutcome::LimitExceeded)
            && !matches!(pruned_out, SearchOutcome::LimitExceeded)
        {
            assert_eq!(
                nosym_out.is_admissible(),
                pruned_out.is_admissible(),
                "{family}: symmetry reduction must not change the verdict"
            );
        }

        let verdict = match &pruned_out {
            SearchOutcome::LimitExceeded => "budget",
            out => {
                if !matches!(naive_out, SearchOutcome::LimitExceeded) {
                    assert_eq!(
                        naive_out.is_admissible(),
                        out.is_admissible(),
                        "{family}: naive and pruned verdicts must agree"
                    );
                }
                if out.is_admissible() {
                    "admissible"
                } else {
                    "inadmissible"
                }
            }
        };

        let fast = fast_applies.then(|| {
            let ww = index_writer_order(&h);
            let condition = Condition::MSequentialConsistency;
            let fast = check_with_order(&h, condition, &ww, Strategy::Constraint(Constraint::Ww))
                .expect("index order satisfies WW on generator families");
            if verdict != "budget" {
                assert_eq!(
                    fast.satisfied,
                    verdict == "admissible",
                    "{family}: fast path must agree"
                );
            }
            fast.satisfied
        });

        let naive = match naive_out {
            SearchOutcome::LimitExceeded => None,
            _ => Some(naive_stats.nodes),
        };
        rows.push(CheckerBenchRow {
            family,
            m_ops: h.len(),
            verdict: verdict.into(),
            naive,
            naive_budget,
            pruned_nodes: pruned_stats.nodes,
            components: pruned_stats.components,
            peeled: pruned_stats.peeled,
            forced_edges: pruned_stats.forced_edges,
            memo_hits: pruned_stats.memo_hits,
            memo_peak: pruned_stats.memo_peak,
            fast,
            node_speedup: naive.map(|nodes| nodes as f64 / pruned_stats.nodes.max(1) as f64),
            symmetry_skips: pruned_stats.symmetry_skips,
            nosym_nodes: nosym_stats.nodes,
        });
    }
    rows
}

/// Renders the certified-checker rows as a printable table.
pub fn checker_bench_table(rows: &[CheckerBenchRow]) -> Table {
    let mut t = Table::new(
        "Certified checker: naive vs pruned search vs Theorem 7 fast path",
        &[
            "family",
            "m-ops",
            "verdict",
            "naive nodes",
            "pruned nodes",
            "comps",
            "peeled",
            "rw edges",
            "memo hits",
            "memo peak",
            "fast",
            "node speedup",
            "sym skips",
            "nosym nodes",
        ],
    );
    for r in rows {
        t.row(vec![
            r.family.clone(),
            r.m_ops.to_string(),
            r.verdict.clone(),
            r.naive
                .map(|nodes| nodes.to_string())
                .unwrap_or_else(|| format!(">{}", r.naive_budget)),
            r.pruned_nodes.to_string(),
            r.components.to_string(),
            r.peeled.to_string(),
            r.forced_edges.to_string(),
            r.memo_hits.to_string(),
            r.memo_peak.to_string(),
            fast_cell(r.fast).into(),
            r.node_speedup
                .map(|s| format!("{s:.1}x"))
                .unwrap_or_else(|| "-".into()),
            r.symmetry_skips.to_string(),
            r.nosym_nodes.to_string(),
        ]);
    }
    t
}

/// Serializes the certified-checker rows as the `BENCH_checker.json`
/// version 6 document (version 5 minus its wall-clock fields: `fast` holds
/// the fast path's verdict, no longer its time), headlined by the best
/// completed-naive node speedup among the component families.
pub fn checker_bench_json(rows: &[CheckerBenchRow]) -> String {
    let headline = rows
        .iter()
        .filter(|r| {
            r.family.starts_with("multi-")
                || r.family.starts_with("torn-")
                || r.family.starts_with("shred-")
        })
        .filter(|r| r.node_speedup.is_some())
        .max_by(|a, b| {
            a.node_speedup
                .unwrap_or(0.0)
                .total_cmp(&b.node_speedup.unwrap_or(0.0))
        });
    let mut fields = bench_envelope("checker", 6, rows.iter().map(|r| r.to_json()));
    if let Some(best) = headline {
        fields.push((
            "headline".into(),
            Json::Obj(vec![
                ("family".into(), jstr(best.family.clone())),
                (
                    "node_speedup".into(),
                    best.node_speedup.map_or(Json::Null, Json::Num),
                ),
            ]),
        ));
    }
    Json::Obj(fields).render()
}

/// Golden per-family caps on the pruned search's deterministic node count.
/// The counts are exactly reproducible (fixed seeds, fixed Zobrist keys);
/// every cap on a searched family sits below what the per-branch-table
/// engine this one replaced needed (49, 49, 320, 2 213, 13 625, 322 547
/// and 368 nodes on the torn, shred, knot and peak rows), so a regression
/// to that behaviour, or past a cap in any other way, fails CI.
pub const CHECKER_NODE_CAPS: [(&str, u64); 13] = [
    ("writers-3x3", 50),
    ("multi-2x3", 50),
    ("multi-3x3", 80),
    ("torn-2x3", 48),
    ("torn-3x3", 48),
    ("torn-4x4", 300),
    ("shred-4x5", 1_500),
    ("shred-4x6", 7_500),
    ("knot-1x8", 100_000),
    ("poisoned-2x3", 0),
    ("synth-peak0-x4", 350),
    ("synth-lbi0-x4", 120),
    ("synth-cycle0-x4", 0),
];

/// CI perf-smoke gate: runs the checker families under a small naive
/// budget and checks every family's pruned node count against its golden
/// cap. Returns the offending families on failure.
pub fn checker_smoke() -> Result<Vec<CheckerBenchRow>, String> {
    let rows = experiment_certified_checker(200_000);
    let mut failures = Vec::new();
    for (family, cap) in CHECKER_NODE_CAPS {
        match rows.iter().find(|r| r.family == family) {
            Some(row) => {
                if row.pruned_nodes > cap {
                    failures.push(format!(
                        "{family}: pruned explored {} nodes, golden cap is {cap}",
                        row.pruned_nodes
                    ));
                }
                if row.verdict == "budget" {
                    failures.push(format!("{family}: pruned engine exceeded the budget"));
                }
            }
            None => failures.push(format!("{family}: missing from the experiment")),
        }
    }
    if rows.len() != CHECKER_NODE_CAPS.len() {
        failures.push(format!(
            "expected {} families, experiment produced {}",
            CHECKER_NODE_CAPS.len(),
            rows.len()
        ));
    }
    if failures.is_empty() {
        Ok(rows)
    } else {
        Err(failures.join("\n"))
    }
}

/// One (fault plan, protocol) cell of the chaos benchmark: network and
/// link counters plus response-time percentiles, aggregated over a seed
/// sweep.
#[derive(Debug, Clone)]
pub struct ChaosBenchRow {
    /// Fault-plan name (`none`, `lossy-dup`, `storm`).
    pub plan: String,
    /// Protocol name (`msc`, `mlin`).
    pub protocol: String,
    /// Seeds aggregated into this row.
    pub runs: u64,
    /// Messages the simulator delivered.
    pub delivered: u64,
    /// Messages the fault plan dropped (includes deliveries suppressed by
    /// partitions and crash windows).
    pub dropped: u64,
    /// Messages the fault plan duplicated.
    pub duplicated: u64,
    /// Frames the reliable link retransmitted to recover losses.
    pub retransmitted: u64,
    /// Duplicate frames the link's receive side discarded.
    pub dedup_discarded: u64,
    /// Query response-time percentiles (ns of virtual time).
    pub query_p50_ns: u64,
    /// 99th-percentile query response time (ns).
    pub query_p99_ns: u64,
    /// Median update response time (ns).
    pub update_p50_ns: u64,
    /// 99th-percentile update response time (ns).
    pub update_p99_ns: u64,
}

impl ChaosBenchRow {
    /// The row as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("plan".into(), jstr(self.plan.clone())),
            ("protocol".into(), jstr(self.protocol.clone())),
            ("runs".into(), num(self.runs as i64)),
            ("delivered".into(), num(self.delivered as i64)),
            ("dropped".into(), num(self.dropped as i64)),
            ("duplicated".into(), num(self.duplicated as i64)),
            ("retransmitted".into(), num(self.retransmitted as i64)),
            ("dedup_discarded".into(), num(self.dedup_discarded as i64)),
            (
                "query_ns".into(),
                Json::Obj(vec![
                    ("p50".into(), num(self.query_p50_ns as i64)),
                    ("p99".into(), num(self.query_p99_ns as i64)),
                ]),
            ),
            (
                "update_ns".into(),
                Json::Obj(vec![
                    ("p50".into(), num(self.update_p50_ns as i64)),
                    ("p99".into(), num(self.update_p99_ns as i64)),
                ]),
            ),
        ])
    }
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0) * (sorted.len() - 1) as f64).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

/// E-chaos — what the fault plans cost: delivered/dropped/retransmitted
/// traffic and response-time percentiles for both protocols under three
/// canned plans (`none` baseline, `lossy-dup`, `storm`), each aggregated
/// over `seeds` seeds. Shape to reproduce: the lossy plans inflate tail
/// latency (retransmission round trips) but never cost a completion —
/// every sweep run still quiesces with a full history.
pub fn experiment_chaos(seeds: u64) -> Vec<ChaosBenchRow> {
    use moc_abcast::LinkConfig;
    use moc_protocol::{run_chaos_cluster, ChaosRunReport};
    use moc_workload::chaos::{FaultFamily, WorkloadFamily};

    const PROCESSES: usize = 4;
    const OPS: usize = 5;
    const HORIZON_NS: u64 = 1_000_000;

    let run_one = |protocol: &str, family: FaultFamily, seed: u64| -> ChaosRunReport {
        let spec = WorkloadFamily::Mixed.spec(PROCESSES, OPS);
        let mut rng = StdRng::seed_from_u64(seed);
        let s = scripts(&spec, &mut rng);
        let config = ClusterConfig::new(spec.num_objects, seed)
            .with_faults(family.plan(PROCESSES, HORIZON_NS))
            .with_link(LinkConfig::default());
        match protocol {
            "msc" => run_chaos_cluster::<MscOverSequencer>(&config, s),
            _ => run_chaos_cluster::<MlinOverSequencer>(&config, s),
        }
    };

    let mut rows = Vec::new();
    for family in [FaultFamily::None, FaultFamily::LossyDup, FaultFamily::Storm] {
        for protocol in ["msc", "mlin"] {
            let mut row = ChaosBenchRow {
                plan: family.name().into(),
                protocol: protocol.into(),
                runs: seeds,
                delivered: 0,
                dropped: 0,
                duplicated: 0,
                retransmitted: 0,
                dedup_discarded: 0,
                query_p50_ns: 0,
                query_p99_ns: 0,
                update_p50_ns: 0,
                update_p99_ns: 0,
            };
            let mut queries = Vec::new();
            let mut updates = Vec::new();
            for seed in 0..seeds {
                let report = run_one(protocol, family, seed);
                assert!(
                    report.anomalies.is_clean(),
                    "bench run must be fault-masked ({protocol}, {}, seed {seed}): {:?}",
                    family.name(),
                    report.anomalies
                );
                row.delivered += report.sim.messages_delivered;
                row.dropped += report.sim.messages_dropped;
                row.duplicated += report.sim.messages_duplicated;
                let link = report.total_link_stats();
                row.retransmitted += link.retransmissions;
                row.dedup_discarded += link.duplicates_discarded;
                for &(class, l) in &report.latencies {
                    match class {
                        MOpClass::Query => queries.push(l),
                        MOpClass::Update => updates.push(l),
                    }
                }
            }
            queries.sort_unstable();
            updates.sort_unstable();
            row.query_p50_ns = percentile(&queries, 50.0);
            row.query_p99_ns = percentile(&queries, 99.0);
            row.update_p50_ns = percentile(&updates, 50.0);
            row.update_p99_ns = percentile(&updates, 99.0);
            rows.push(row);
        }
    }
    rows
}

/// One (fault plan, protocol) cell of the failover benchmark: what a
/// coordinator crash costs under the view-based atomic broadcast,
/// aggregated over a seed sweep.
#[derive(Debug, Clone)]
pub struct FailoverBenchRow {
    /// Fault-plan name (a `leader-crash-*` family).
    pub plan: String,
    /// Protocol name (`msc`, `mlin`); the broadcast is always `view`.
    pub protocol: String,
    /// Seeds aggregated into this row.
    pub runs: u64,
    /// Runs in which some replica actually installed a successor view.
    pub failovers: u64,
    /// Median update response time across all runs (ns of virtual time).
    pub update_p50_ns: u64,
    /// 99th-percentile update response time (ns).
    pub update_p99_ns: u64,
    /// Failover latency: in each failed-over run, the slowest update's
    /// submit→deliver time — the operation stranded across the view
    /// change. Median over those runs (ns).
    pub failover_p50_ns: u64,
    /// 99th-percentile failover latency (ns).
    pub failover_p99_ns: u64,
}

impl FailoverBenchRow {
    /// The row as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("plan".into(), jstr(self.plan.clone())),
            ("protocol".into(), jstr(self.protocol.clone())),
            ("abcast".into(), jstr("view")),
            ("runs".into(), num(self.runs as i64)),
            ("failovers".into(), num(self.failovers as i64)),
            (
                "update_ns".into(),
                Json::Obj(vec![
                    ("p50".into(), num(self.update_p50_ns as i64)),
                    ("p99".into(), num(self.update_p99_ns as i64)),
                ]),
            ),
            (
                "failover_ns".into(),
                Json::Obj(vec![
                    ("p50".into(), num(self.failover_p50_ns as i64)),
                    ("p99".into(), num(self.failover_p99_ns as i64)),
                ]),
            ),
        ])
    }
}

/// E-failover — what a leader crash costs: the view-based broadcast is
/// swept over the three `leader-crash-*` families and the latency of the
/// operation stranded across the view change is reported per run. Shape
/// to reproduce: every run still quiesces cleanly (the crash is masked),
/// but the stranded update's latency is dominated by the suspicion
/// timeout plus the view-change handshake, several times the
/// fair-weather update path.
pub fn experiment_failover(seeds: u64) -> Vec<FailoverBenchRow> {
    use moc_abcast::LinkConfig;
    use moc_protocol::{run_chaos_cluster, ChaosRunReport};
    use moc_workload::chaos::{FaultFamily, WorkloadFamily};

    const PROCESSES: usize = 3;
    const OPS: usize = 4;
    // Same timing discipline as the integration sweep: think time keeps
    // submissions in flight through the crash windows, and suspicion
    // sits well below the outage lengths so failover actually fires.
    const HORIZON_NS: u64 = 240_000;
    const THINK_NS: u64 = 60_000;

    let run_one = |protocol: &str, family: FaultFamily, seed: u64| -> ChaosRunReport {
        let spec = WorkloadSpec {
            think_ns: THINK_NS,
            ..WorkloadFamily::Mixed.spec(PROCESSES, OPS)
        };
        let mut rng = StdRng::seed_from_u64(seed);
        let s = scripts(&spec, &mut rng);
        let config = ClusterConfig::new(spec.num_objects, seed)
            .with_faults(family.plan(PROCESSES, HORIZON_NS))
            .with_link(LinkConfig::default())
            .with_failover_timeouts(15_000, 120_000);
        match protocol {
            "msc" => run_chaos_cluster::<MscOverView>(&config, s),
            _ => run_chaos_cluster::<MlinOverView>(&config, s),
        }
    };

    let mut rows = Vec::new();
    for family in FaultFamily::LEADER_CRASH {
        for protocol in ["msc", "mlin"] {
            let mut failovers = 0u64;
            let mut updates = Vec::new();
            let mut stranded = Vec::new();
            for seed in 0..seeds {
                let report = run_one(protocol, family, seed);
                assert!(
                    report.anomalies.is_clean(),
                    "failover bench run must be masked ({protocol}, {}, seed {seed}): {:?}",
                    family.name(),
                    report.anomalies
                );
                let run_updates: Vec<u64> = report
                    .latencies
                    .iter()
                    .filter(|(class, _)| *class == MOpClass::Update)
                    .map(|&(_, l)| l)
                    .collect();
                updates.extend_from_slice(&run_updates);
                let failed_over = report
                    .view_transcripts
                    .iter()
                    .flatten()
                    .any(|line| line.contains("install v"));
                if failed_over {
                    failovers += 1;
                    if let Some(&worst) = run_updates.iter().max() {
                        stranded.push(worst);
                    }
                }
            }
            assert!(
                failovers > 0,
                "failover bench is vacuous ({protocol}, {}): no seed installed a view",
                family.name()
            );
            updates.sort_unstable();
            stranded.sort_unstable();
            rows.push(FailoverBenchRow {
                plan: family.name().into(),
                protocol: protocol.into(),
                runs: seeds,
                failovers,
                update_p50_ns: percentile(&updates, 50.0),
                update_p99_ns: percentile(&updates, 99.0),
                failover_p50_ns: percentile(&stranded, 50.0),
                failover_p99_ns: percentile(&stranded, 99.0),
            });
        }
    }
    rows
}

/// Renders the failover rows as a printable table.
pub fn failover_bench_table(rows: &[FailoverBenchRow]) -> Table {
    let mut t = Table::new(
        "failover: leader-crash cost under the view-based broadcast (virtual time; latencies in µs)",
        &[
            "plan", "proto", "runs", "failovers", "u p50", "u p99", "fo p50", "fo p99",
        ],
    );
    for r in rows {
        t.row(vec![
            r.plan.clone(),
            r.protocol.clone(),
            r.runs.to_string(),
            r.failovers.to_string(),
            us(r.update_p50_ns as f64),
            us(r.update_p99_ns as f64),
            us(r.failover_p50_ns as f64),
            us(r.failover_p99_ns as f64),
        ]);
    }
    t
}

/// Renders the chaos rows as a printable table.
pub fn chaos_bench_table(rows: &[ChaosBenchRow]) -> Table {
    let mut t = Table::new(
        "chaos: fault-plan cost (virtual time; latencies in µs)",
        &[
            "plan",
            "proto",
            "runs",
            "delivered",
            "dropped",
            "dup'd",
            "retx",
            "dedup",
            "q p50",
            "q p99",
            "u p50",
            "u p99",
        ],
    );
    for r in rows {
        t.row(vec![
            r.plan.clone(),
            r.protocol.clone(),
            r.runs.to_string(),
            r.delivered.to_string(),
            r.dropped.to_string(),
            r.duplicated.to_string(),
            r.retransmitted.to_string(),
            r.dedup_discarded.to_string(),
            us(r.query_p50_ns as f64),
            us(r.query_p99_ns as f64),
            us(r.update_p50_ns as f64),
            us(r.update_p99_ns as f64),
        ]);
    }
    t
}

/// One row of the streaming-sentinel benchmark: a history (a base history
/// tiled `tiles`-fold, or one Figure 6 run) replayed through the monitor
/// as a live event stream.
#[derive(Debug, Clone)]
pub struct MonitorBenchRow {
    /// Condition the sentinel decided ("m-SC" / "m-lin").
    pub condition: String,
    /// Workload shape: "serial" (quiesces every few events), "writers"
    /// (m-SC, nothing retires) or "figure6" (never quiesces).
    pub workload: String,
    /// Tile multiplier applied to the base history.
    pub tiles: usize,
    /// m-operations in the tiled stream.
    pub mops: usize,
    /// Events ingested (invocations + completions).
    pub events: u64,
    /// Median completion-to-verdict latency in virtual stream time (ns).
    pub verdict_p50_ns: u64,
    /// 99th-percentile completion-to-verdict latency (ns).
    pub verdict_p99_ns: u64,
    /// Peak live (unsettled) records the sentinel ever held.
    pub peak_live_nodes: usize,
    /// Largest window checked, synthesized writers included.
    pub peak_window: usize,
    /// Times a record sat a window out waiting for a writer's response.
    pub deferred: u64,
    /// Records settled unchecked for unresolvable provenance.
    pub skipped: u64,
    /// Window checks performed.
    pub windows_checked: u64,
    /// Rolling certificates emitted.
    pub certs: u64,
    /// Records force-dropped at the live-set cap.
    pub force_dropped: u64,
    /// Whether the sentinel ended the run in degraded mode.
    pub degraded: bool,
}

impl MonitorBenchRow {
    /// The row as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("condition".into(), jstr(self.condition.clone())),
            ("workload".into(), jstr(self.workload.clone())),
            ("tiles".into(), num(self.tiles as i64)),
            ("mops".into(), num(self.mops as i64)),
            ("events".into(), num(self.events as i64)),
            (
                "verdict_ns".into(),
                Json::Obj(vec![
                    ("p50".into(), num(self.verdict_p50_ns as i64)),
                    ("p99".into(), num(self.verdict_p99_ns as i64)),
                ]),
            ),
            ("peak_live_nodes".into(), num(self.peak_live_nodes as i64)),
            ("peak_window".into(), num(self.peak_window as i64)),
            ("deferred".into(), num(self.deferred as i64)),
            ("skipped".into(), num(self.skipped as i64)),
            ("windows_checked".into(), num(self.windows_checked as i64)),
            ("certs".into(), num(self.certs as i64)),
            ("force_dropped".into(), num(self.force_dropped as i64)),
            ("degraded".into(), Json::Bool(self.degraded)),
        ])
    }
}

/// Replays `h` through a sentinel configured by `cfg` and reads its
/// counters.
fn monitor_bench_row(
    condition: &str,
    workload: &str,
    tiles: usize,
    h: &History,
    cfg: moc_monitor::MonitorConfig,
) -> MonitorBenchRow {
    use moc_monitor::{replay, MonitorMode, OnlineMonitor};

    let summary = replay(h, OnlineMonitor::new(h.num_objects(), cfg));
    let stats = &summary.stats;
    let events = stats.invocations + stats.completions;
    // Completion-to-verdict latency in virtual stream time: each record in
    // a certified window got its verdict when the cert was emitted.
    let mut verdict_ns: Vec<u64> = Vec::new();
    for rc in &summary.certs {
        for r in rc.window().records() {
            verdict_ns.push(rc.emitted_at_ns.saturating_sub(r.responded_at.as_nanos()));
        }
    }
    verdict_ns.sort_unstable();
    MonitorBenchRow {
        condition: condition.to_string(),
        workload: workload.to_string(),
        tiles,
        mops: h.len(),
        events,
        verdict_p50_ns: percentile(&verdict_ns, 50.0),
        verdict_p99_ns: percentile(&verdict_ns, 99.0),
        peak_live_nodes: stats.peak_live_nodes,
        peak_window: stats.peak_window,
        deferred: stats.deferred,
        skipped: stats.skipped,
        windows_checked: stats.windows_checked,
        certs: stats.certs_emitted,
        force_dropped: stats.force_dropped,
        degraded: matches!(summary.mode, MonitorMode::Degraded { .. }),
    }
}

/// E-monitor — what streaming incremental checking costs and holds: the
/// same base history tiled 1×..K× and replayed through the sentinel.
/// Shape to reproduce: under m-lin the serial stream retires at every
/// quiescence point, so `peak_live_nodes` stays FLAT while the stream
/// grows K-fold (sublinear live state — the bounded-memory claim); under
/// m-SC the concurrent-writer tiles never fully retire, so the capped
/// sentinel force-drops and degrades instead of growing without bound.
pub fn experiment_monitor(tile_counts: &[usize]) -> Vec<MonitorBenchRow> {
    use moc_checker::conditions::Condition;
    use moc_monitor::MonitorConfig;
    use moc_workload::histories::{serial_history, tile_history, HistorySpec};

    const WINDOW: usize = 4;
    const CAP: usize = 24;

    let spec = HistorySpec {
        processes: 3,
        ops_per_process: 6,
        num_objects: 4,
        update_fraction: 0.6,
        max_span: 2,
    };
    let mut rng = StdRng::seed_from_u64(7);
    let serial = serial_history(&spec, &mut rng);
    let mut rng = StdRng::seed_from_u64(7);
    let writers = multi_component_history(1, 3, 3, &mut rng);

    let mut rows = Vec::new();
    let cases: [(&str, &str, &History, Condition, Option<usize>); 2] = [
        (
            "m-lin",
            "serial",
            &serial,
            Condition::MLinearizability,
            None,
        ),
        (
            "m-SC",
            "writers",
            &writers,
            Condition::MSequentialConsistency,
            Some(CAP),
        ),
    ];
    for (cond_name, wl_name, base, condition, cap) in cases {
        for &tiles in tile_counts {
            let h = tile_history(base, tiles);
            let mut cfg = MonitorConfig::new(condition).with_window(WINDOW);
            if let Some(cap) = cap {
                cfg = cfg.with_max_live_nodes(cap);
            }
            rows.push(monitor_bench_row(cond_name, wl_name, tiles, &h, cfg));
        }
    }
    rows
}

/// E-monitor, the never-quiescent family: Figure 6 runs of `lengths`
/// m-operations — four always-busy processes, half updates, message delays
/// uniform 1–10 µs — under the default m-lin sentinel. No window of these
/// streams is checked at a quiescence point, so whatever retires goes
/// behind a data-ordered cut. Shape to reproduce: `peak_live_nodes`
/// follows the window, not the stream, with nothing skipped.
pub fn experiment_monitor_figure6(lengths: &[usize]) -> Vec<MonitorBenchRow> {
    use moc_checker::conditions::Condition;
    use moc_monitor::MonitorConfig;

    let row = |&mops: &usize| {
        let h = run_protocol::<MlinOverSequencer>(4, mops / 4, 0.5, 7).history;
        let cfg = MonitorConfig::new(Condition::MLinearizability);
        monitor_bench_row("m-lin", "figure6", 1, &h, cfg)
    };
    lengths.iter().map(row).collect()
}

/// Live records a never-quiescent stream may hold at its peak, whatever
/// its length (the 1 000-m-operation stream `verify-stream` replays kept
/// 997 live before retirement went behind cuts).
const MONITOR_PEAK_LIVE_CAP: usize = 256;

/// CI gate for the sentinel on never-quiescent streams, on deterministic
/// counters only: at every length live state stays under
/// `MONITOR_PEAK_LIVE_CAP`, no record is skipped, and every window
/// checked is certified.
pub fn monitor_smoke() -> Result<Vec<MonitorBenchRow>, String> {
    let rows = experiment_monitor_figure6(&[250, 500, 1000, 2000]);
    let mut failures = Vec::new();
    for r in &rows {
        if r.peak_live_nodes > MONITOR_PEAK_LIVE_CAP {
            failures.push(format!(
                "{} m-ops: peak live nodes {} > {MONITOR_PEAK_LIVE_CAP}",
                r.mops, r.peak_live_nodes
            ));
        }
        if r.skipped != 0 {
            failures.push(format!("{} m-ops: {} skipped", r.mops, r.skipped));
        }
        if r.certs != r.windows_checked {
            failures.push(format!(
                "{} m-ops: {} of {} windows certified",
                r.mops, r.certs, r.windows_checked
            ));
        }
    }
    if failures.is_empty() {
        Ok(rows)
    } else {
        Err(failures.join("\n"))
    }
}

/// Renders the monitor rows as a comparison table.
pub fn monitor_bench_table(rows: &[MonitorBenchRow]) -> Table {
    let mut t = Table::new(
        "E-monitor — streaming sentinel: live state stays bounded as the stream grows",
        &[
            "condition",
            "workload",
            "tiles",
            "mops",
            "events",
            "verdict p50",
            "verdict p99",
            "peak live",
            "peak window",
            "deferred",
            "skipped",
            "checks",
            "certs",
            "dropped",
            "mode",
        ],
    );
    for r in rows {
        t.row(vec![
            r.condition.clone(),
            r.workload.clone(),
            r.tiles.to_string(),
            r.mops.to_string(),
            r.events.to_string(),
            us(r.verdict_p50_ns as f64),
            us(r.verdict_p99_ns as f64),
            r.peak_live_nodes.to_string(),
            r.peak_window.to_string(),
            r.deferred.to_string(),
            r.skipped.to_string(),
            r.windows_checked.to_string(),
            r.certs.to_string(),
            r.force_dropped.to_string(),
            if r.degraded { "DEGRADED" } else { "healthy" }.to_string(),
        ]);
    }
    t
}

/// The `bench`/`version`/`rows` header every bench document opens with; a
/// document appends its own fields after it. Nothing in a document depends
/// on the machine that wrote it, so a regenerated file is byte-identical.
fn bench_envelope(
    bench: &str,
    version: i64,
    rows: impl Iterator<Item = Json>,
) -> Vec<(String, Json)> {
    vec![
        ("bench".into(), jstr(bench)),
        ("version".into(), num(version)),
        ("rows".into(), Json::Arr(rows.collect())),
    ]
}

/// The monitor rows as a machine-readable JSON document
/// (`BENCH_monitor.json`). Version 3 added the never-quiescent `figure6`
/// rows and the `peak_window` / `deferred` / `skipped` columns; version 4
/// dropped the wall-clock `ingest_events_per_s` and the `cpus` stamp.
pub fn monitor_bench_json(rows: &[MonitorBenchRow]) -> String {
    Json::Obj(bench_envelope(
        "monitor",
        4,
        rows.iter().map(|r| r.to_json()),
    ))
    .render()
}

/// The chaos and failover rows as a machine-readable JSON document
/// (`BENCH_chaos.json`). Version 2 added `failover_rows`; version 3
/// aligned the envelope with `BENCH_checker.json`; version 4 dropped the
/// `cpus` stamp.
pub fn chaos_bench_json(rows: &[ChaosBenchRow], failover: &[FailoverBenchRow]) -> String {
    let mut fields = bench_envelope("chaos", 4, rows.iter().map(|r| r.to_json()));
    fields.push((
        "failover_rows".into(),
        Json::Arr(failover.iter().map(|r| r.to_json()).collect()),
    ));
    Json::Obj(fields).render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_render() {
        let mut t = Table::new("demo", &["a", "bb"]);
        t.row(vec!["1".into(), "2".into()]);
        let s = t.to_string();
        assert!(s.contains("## demo"));
        assert!(s.contains("a  bb"));
    }

    #[test]
    fn small_experiments_run() {
        let t = experiment_query_cost(&[2], 3, 1);
        assert_eq!(t.rows.len(), 3);
        let t = experiment_checker_scaling(&[2, 3]);
        assert_eq!(t.rows.len(), 2);
        let t = experiment_query_scope(&[4], 1);
        assert_eq!(t.rows.len(), 2);
        let t = experiment_validation(1);
        assert!(t.rows.iter().all(|r| r[3] == "PASS"));
        let t = experiment_memo_ablation(&[2, 3]);
        assert_eq!(t.rows.len(), 2);
        let t = experiment_condition_spectrum(2);
        assert_eq!(t.rows.len(), 2);
        let t = experiment_model_checking();
        assert_eq!(t.rows.len(), 3);
        assert_eq!(t.rows[0][3], "0");
        assert_ne!(t.rows[1][3], "0");
        assert_eq!(t.rows[2][3], "0");
    }

    #[test]
    fn monitor_bench_live_state_is_sublinear_and_capped() {
        let rows = experiment_monitor(&[1, 4, 8]);
        assert_eq!(rows.len(), 6, "2 cases × 3 tile counts");
        let mlin: Vec<_> = rows.iter().filter(|r| r.condition == "m-lin").collect();
        let msc: Vec<_> = rows.iter().filter(|r| r.condition == "m-SC").collect();
        // The retiring stream's live state must not scale with the
        // stream: 8× the m-operations, same peak (sublinear by a wide
        // margin — this is the bounded-memory claim).
        assert_eq!(mlin[2].mops, 8 * mlin[0].mops, "tiling scales the stream");
        assert!(
            mlin[2].peak_live_nodes <= 2 * mlin[0].peak_live_nodes,
            "peak grew with the stream: {} tiles at peak {} vs 1 tile at {}",
            mlin[2].tiles,
            mlin[2].peak_live_nodes,
            mlin[0].peak_live_nodes
        );
        for r in &mlin {
            assert!(!r.degraded, "retiring stream should stay healthy");
            assert!(r.certs > 0, "no rolling certs emitted");
        }
        // The non-retiring stream must hit the cap and degrade, never
        // exceed it.
        for r in &msc {
            assert!(
                r.peak_live_nodes <= 24,
                "cap breached: {}",
                r.peak_live_nodes
            );
        }
        assert!(
            msc.iter().any(|r| r.degraded && r.force_dropped > 0),
            "the capped non-retiring stream never degraded"
        );
        let doc = monitor_bench_json(&rows);
        assert!(doc.contains("\"bench\": \"monitor\"") || doc.contains("\"bench\":\"monitor\""));
        let s = monitor_bench_table(&rows).to_string();
        assert!(s.contains("E-monitor"));
    }

    #[test]
    fn monitor_bench_never_quiescent_stream_retires_at_cuts() {
        let rows = experiment_monitor_figure6(&[400]);
        let r = &rows[0];
        assert_eq!((r.workload.as_str(), r.mops), ("figure6", 400));
        assert!(
            r.windows_checked >= 6,
            "forced checks, every 64 completions"
        );
        assert_eq!(r.certs, r.windows_checked);
        assert_eq!((r.skipped, r.degraded), (0, false));
        assert!(
            r.peak_live_nodes < r.mops / 2 && r.peak_live_nodes <= MONITOR_PEAK_LIVE_CAP,
            "live state follows the stream: {}",
            r.peak_live_nodes
        );
        assert!(r.peak_window >= r.peak_live_nodes.min(64));
        assert!(monitor_bench_json(&rows).contains("\"deferred\""));
    }

    #[test]
    fn failover_bench_measures_real_view_changes() {
        let rows = experiment_failover(8);
        assert_eq!(rows.len(), 6, "3 leader-crash families × 2 protocols");
        for r in &rows {
            assert!(r.failovers > 0, "{}/{}: vacuous", r.plan, r.protocol);
            assert!(
                r.failover_p50_ns >= r.update_p50_ns,
                "{}/{}: the stranded op cannot be faster than the median",
                r.plan,
                r.protocol
            );
        }
        let doc = chaos_bench_json(&[], &rows);
        assert!(doc.contains("\"failover_rows\""), "{doc}");
        assert!(
            doc.contains("\"version\": 4") || doc.contains("\"version\":4"),
            "{doc}"
        );
    }

    /// Every bench document shares the `bench`/`version`/`rows` envelope,
    /// so downstream tooling can dispatch on one schema; none carries a
    /// machine stamp.
    #[test]
    fn bench_json_envelopes_share_schema() {
        let docs = [
            ("checker", checker_bench_json(&[])),
            ("chaos", chaos_bench_json(&[], &[])),
            ("monitor", monitor_bench_json(&[])),
        ];
        for (name, doc) in docs {
            let d = moc_core::json::parse(&doc).expect(name);
            assert_eq!(d.get("bench").and_then(Json::as_str), Some(name));
            assert!(
                d.get("version").and_then(Json::as_u64).unwrap_or(0) >= 1,
                "{name}: missing version"
            );
            assert!(d.get("cpus").is_none(), "{name}: machine stamp");
            assert!(
                d.get("rows").and_then(Json::as_arr).is_some(),
                "{name}: missing rows"
            );
        }
    }

    #[test]
    fn certified_checker_bench_shows_component_speedup() {
        let rows = experiment_certified_checker(20_000_000);
        assert_eq!(rows.len(), 13);
        for r in &rows {
            assert_ne!(r.verdict, "budget", "{}: pruned must complete", r.family);
            if let Some(naive_nodes) = r.naive {
                assert!(
                    r.pruned_nodes <= naive_nodes,
                    "{}: pruning never explores more",
                    r.family
                );
            }
        }
        // The multi-component separation the family was built for.
        let torn3 = rows.iter().find(|r| r.family == "torn-3x3").unwrap();
        assert_eq!(torn3.verdict, "inadmissible");
        assert!(torn3.components >= 3);
        assert!(
            torn3.node_speedup.unwrap() >= 10.0,
            "naive explores the product of component spaces: {:.1}x",
            torn3.node_speedup.unwrap()
        );
        // The ≥4x4 families: naive blows its budget, the pruned engine
        // completes with a verdict.
        for family in ["torn-4x4", "shred-4x5", "shred-4x6"] {
            let r = rows.iter().find(|r| r.family == family).unwrap();
            assert!(r.naive.is_none(), "{family}: naive must exceed its budget");
            assert_eq!(r.verdict, "inadmissible", "{family}");
            assert!(r.node_speedup.is_none(), "{family}: speedup only bounded");
        }
        // The poisoned family is refuted statically — zero search nodes.
        let poisoned = rows.iter().find(|r| r.family == "poisoned-2x3").unwrap();
        assert_eq!(poisoned.verdict, "inadmissible");
        assert_eq!(poisoned.pruned_nodes, 0);
        assert!(poisoned.forced_edges > 0);
        // The symmetry ablation: verdict-preserving by construction, and
        // at least one torn/shred family must show a measured node-count
        // reduction over the symmetry-off engine.
        assert!(
            rows.iter()
                .filter(|r| r.family.starts_with("torn-") || r.family.starts_with("shred-"))
                .any(|r| r.symmetry_skips > 0 && r.nosym_nodes > r.pruned_nodes),
            "no torn/shred family shows a symmetry node reduction"
        );
        // The synthesized stress rows behave like their pinned bases:
        // the cycle tile is refuted statically (zero search nodes), the
        // lbi tile stays inadmissible by
        // exhaustion, and the peak tile stays admissible.
        let cycle = rows.iter().find(|r| r.family == "synth-cycle0-x4").unwrap();
        assert_eq!(cycle.verdict, "inadmissible");
        assert_eq!(cycle.pruned_nodes, 0);
        assert!(cycle.forced_edges > 0);
        let lbi = rows.iter().find(|r| r.family == "synth-lbi0-x4").unwrap();
        assert_eq!(lbi.verdict, "inadmissible");
        assert!(lbi.pruned_nodes > 0);
        let peak = rows.iter().find(|r| r.family == "synth-peak0-x4").unwrap();
        assert_eq!(peak.verdict, "admissible");
        assert!(peak.components >= 4, "tiling multiplies components");

        // The JSON document round-trips and carries the v6 fields.
        let doc = moc_core::json::parse(&checker_bench_json(&rows)).unwrap();
        assert_eq!(doc.get("bench").and_then(Json::as_str), Some("checker"));
        assert_eq!(doc.get("version").and_then(Json::as_u64), Some(6));
        assert_eq!(
            doc.get("rows").and_then(Json::as_arr).map(|a| a.len()),
            Some(13)
        );
        assert!(doc.get("headline").is_some());
        let first = &doc.get("rows").and_then(Json::as_arr).unwrap()[0];
        assert_eq!(
            first.get("fast").and_then(Json::as_str),
            Some("admissible"),
            "writers-3x3: the fast path's verdict"
        );
        assert!(first.get("parallel").is_none(), "v4's per-thread timings");
        let pruned = first.get("pruned").unwrap();
        assert!(pruned.get("memo_hits").is_some());
        assert!(pruned.get("memo_peak").is_some());
        let symmetry = first.get("symmetry").expect("symmetry ablation object");
        assert!(symmetry.get("skips").is_some());
        assert!(symmetry.get("nodes_without").is_some());
        assert!(symmetry.get("node_reduction").is_some());
        // The torn families mark the fast path inapplicable explicitly.
        let torn_json = doc
            .get("rows")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .find(|r| r.get("family").and_then(Json::as_str) == Some("torn-3x3"))
            .unwrap();
        assert_eq!(torn_json.get("fast").and_then(Json::as_str), Some("n/a"));
        assert!(
            torn_json
                .get("naive")
                .and_then(|n| n.get("nodes"))
                .is_some(),
            "torn-3x3's naive search completes under the default budget"
        );
    }

    #[test]
    fn checker_smoke_gate_passes_on_golden_caps() {
        let rows = checker_smoke().expect("golden caps hold");
        assert_eq!(rows.len(), CHECKER_NODE_CAPS.len());
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn mismatched_rows_rejected() {
        let mut t = Table::new("demo", &["a"]);
        t.row(vec!["1".into(), "2".into()]);
    }

    /// On a single interaction component nothing decomposes, so the pruned
    /// search has only its forced edges and its transposition table over
    /// the naive one — and must therefore never expand more nodes.
    #[test]
    fn pruned_search_never_explores_more_than_naive_on_one_component() {
        for k in [7, 8] {
            let h = torn_multi_component(1, 1, k, 7);
            let rel = process_order(&h).union(&reads_from(&h));
            let limits = SearchLimits::default();
            let (naive_out, naive) = find_legal_extension(&h, &rel, limits);
            let graph = PrecedenceGraph::for_condition(&h, Condition::MSequentialConsistency);
            let (pruned_out, pruned) = pruned_search(&h, &graph, limits);
            assert_eq!(naive_out, SearchOutcome::NotAdmissible, "knot-1x{k}");
            assert_eq!(pruned_out, SearchOutcome::NotAdmissible, "knot-1x{k}");
            assert_eq!(pruned.components, 1, "knot-1x{k}");
            assert!(
                pruned.nodes <= naive.nodes,
                "knot-1x{k}: pruned {} > naive {}",
                pruned.nodes,
                naive.nodes
            );
        }
    }
}
