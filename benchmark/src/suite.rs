//! The parent side of a run. Every repetition, audit run and micro pass
//! is a child process (this executable, re-executed), so one repetition's
//! allocator state and threads stay out of the next and `VmHWM` is the
//! repetition's own. The parent only spawns, waits, and aggregates.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::Instant;

use moc_core::json::{self, Json};

use crate::spec::{Kind, Metric, Mode, Workload, END_TO_END, PER_LAYER};
use crate::stats::{median, quartiles};
use crate::trace::ThreadTrace;

/// What a repetition reports.
#[derive(Debug, Clone, Default)]
pub struct RepResult {
    /// Values under the names of [`crate::spec`].
    pub metrics: BTreeMap<String, f64>,
    /// Values outside the vocabulary: the measured time, stage-table rows.
    pub extras: BTreeMap<String, f64>,
    /// Operations (or verdicts) attempted.
    pub attempted: u64,
    /// Of those, failed: refused, unanswered, or part of a rep whose
    /// correctness gate failed.
    pub failed: u64,
    /// Why a gate failed.
    pub errors: Vec<String>,
    /// The spans of a traced repetition.
    pub traces: Vec<ThreadTrace>,
}

impl RepResult {
    /// Records a vocabulary metric.
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }
}

fn num_map(j: Option<&Json>) -> BTreeMap<String, f64> {
    let Some(Json::Obj(fields)) = j else {
        return BTreeMap::new();
    };
    fields
        .iter()
        .filter_map(|(k, v)| match v {
            Json::Num(x) => Some((k.clone(), *x)),
            _ => None,
        })
        .collect()
}

fn obj_of(map: &BTreeMap<String, f64>) -> Json {
    Json::Obj(
        map.iter()
            .map(|(k, v)| (k.clone(), Json::Num(*v)))
            .collect(),
    )
}

/// The line a child prints for its parent.
pub fn result_to_json(r: &RepResult) -> Json {
    Json::Obj(vec![
        ("metrics".into(), obj_of(&r.metrics)),
        ("extras".into(), obj_of(&r.extras)),
        ("attempted".into(), Json::Num(r.attempted as f64)),
        ("failed".into(), Json::Num(r.failed as f64)),
        (
            "errors".into(),
            Json::Arr(r.errors.iter().map(|e| json::str(e.as_str())).collect()),
        ),
    ])
}

fn result_from_json(j: &Json) -> RepResult {
    RepResult {
        metrics: num_map(j.get("metrics")),
        extras: num_map(j.get("extras")),
        attempted: j.get("attempted").and_then(Json::as_u64).unwrap_or(0),
        failed: j.get("failed").and_then(Json::as_u64).unwrap_or(0),
        errors: j
            .get("errors")
            .and_then(Json::as_arr)
            .map(|a| {
                a.iter()
                    .filter_map(Json::as_str)
                    .map(String::from)
                    .collect()
            })
            .unwrap_or_default(),
        traces: Vec::new(),
    }
}

/// A finished child process.
#[derive(Debug, Clone)]
pub struct Child {
    /// What it printed.
    pub result: RepResult,
    /// From spawn to exit, as the parent saw it.
    pub wall_s: f64,
}

/// glibc's allocator settings for the children of a verify workload:
/// memory that was freed is kept and used again, not handed back to the
/// kernel (no trimming, no `mmap` below 32 MiB) and faulted in anew. A page
/// that comes back from the kernel comes back zeroed, at the speed of the
/// memory bus, and the bus is what the other tenants of a shared host
/// contend for: with the defaults a `verify-stream` pass faults in 83 000
/// pages, spends a quarter of its time in the kernel and runs at 750–1750
/// m-ops/s as the neighbours come and go; with these, 4 000 pages and 2 %
/// of its time. A live repetition keeps the defaults: it frees little, and
/// without `mmap` its growing logs would be copied inside the heap, the
/// old copies left resident, which `rss_mb_per_mop` would count.
const KEEP_FREED_MEMORY: [(&str, &str); 2] = [
    ("MALLOC_TRIM_THRESHOLD_", "4294967296"),
    ("MALLOC_MMAP_THRESHOLD_", "33554432"),
];

/// Runs this executable with `args` and reads the result off the last
/// line of its output. A child that dies, or prints none, is a failed
/// repetition with the reason attached.
fn spawn(args: &[String], env: &[(&str, &str)]) -> Child {
    let started = Instant::now();
    let output = std::env::current_exe().and_then(|exe| {
        Command::new(exe)
            .args(args)
            .envs(env.iter().copied())
            .stdin(Stdio::null())
            .stderr(Stdio::inherit())
            .output()
    });
    let wall_s = started.elapsed().as_secs_f64();
    let parsed = match &output {
        Err(e) => Err(format!("cannot run child: {e}")),
        Ok(out) => String::from_utf8_lossy(&out.stdout)
            .lines()
            .last()
            .ok_or_else(|| format!("child printed nothing ({})", out.status))
            .and_then(|line| json::parse(line).map_err(|e| format!("child output: {e:?}"))),
    };
    let mut result = match parsed {
        Ok(j) => result_from_json(&j),
        Err(e) => RepResult {
            attempted: 1,
            failed: 1,
            errors: vec![e],
            ..RepResult::default()
        },
    };
    if let Ok(out) = &output {
        if !out.status.success() && result.errors.is_empty() {
            result.errors.push(format!("child {}", out.status));
        }
    }
    Child { result, wall_s }
}

/// One repetition of `workload` in a child process. Every repetition of
/// a run is given the run's seed, so all see the same input and the best
/// of them is the least disturbed, not the one that drew the easiest
/// input.
pub fn spawn_rep(
    workload: &Workload,
    seed: u64,
    window_ns: u64,
    mode: Mode,
    trace_out: Option<&Path>,
) -> Child {
    let mut args: Vec<String> = [
        "rep",
        "--workload",
        workload.name,
        "--seed",
        &seed.to_string(),
        "--window-ns",
        &window_ns.to_string(),
        "--mode",
        mode.word(),
    ]
    .map(String::from)
    .to_vec();
    if let Some(path) = trace_out {
        args.push("--trace-out".into());
        args.push(path.display().to_string());
    }
    match workload.kind {
        Kind::Live(_) => spawn(&args, &[]),
        Kind::VerifyBatch | Kind::VerifyStream => spawn(&args, &KEEP_FREED_MEMORY),
    }
}

/// The micro loops in a child process.
pub fn spawn_micro(seed: u64) -> Child {
    spawn(&["micro".into(), "--seed".into(), seed.to_string()], &[])
}

/// Everything run for one workload.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// The workload.
    pub workload: &'static Workload,
    /// Untraced measured repetitions.
    pub reps: Vec<Child>,
    /// The audit run (negative control on the verify workloads).
    pub audit: Option<Child>,
    /// The repetition that takes the span-derived numbers.
    pub traced: Option<Child>,
}

impl Outcome {
    /// An outcome with nothing run yet.
    pub fn new(workload: &'static Workload) -> Self {
        Outcome {
            workload,
            reps: Vec::new(),
            audit: None,
            traced: None,
        }
    }

    fn children(&self) -> impl Iterator<Item = &Child> {
        self.reps.iter().chain(&self.audit).chain(&self.traced)
    }

    /// Operations (or verdicts) attempted by every child.
    pub fn attempted(&self) -> u64 {
        self.children()
            .map(|c| c.result.attempted)
            .sum::<u64>()
            .max(1)
    }

    /// Of those, failed.
    pub fn failed(&self) -> u64 {
        self.children().map(|c| c.result.failed).sum()
    }

    /// Every gate failure.
    pub fn errors(&self) -> Vec<String> {
        self.children()
            .flat_map(|c| c.result.errors.iter().cloned())
            .collect()
    }

    /// Whether every gate held and no operation failed.
    pub fn correct(&self) -> bool {
        self.failed() == 0 && self.errors().is_empty()
    }

    /// The per-repetition values of a metric over the untraced repetitions
    /// that report it. Set-up is everything a repetition's process did
    /// outside its measured time.
    pub fn rep_values(&self, metric: &str) -> Vec<f64> {
        self.reps
            .iter()
            .filter_map(|c| match metric {
                "setup_s" => {
                    Some(c.wall_s - c.result.extras.get("measured_ns").unwrap_or(&0.0) / 1e9)
                }
                name => c.result.metrics.get(name).copied(),
            })
            .collect()
    }

    /// A per-layer metric: counters and client-side timings are the median
    /// over the untraced repetitions, micro timings come from `micro`,
    /// span-derived numbers from the traced repetition; 0 for a layer the
    /// workload does not exercise.
    pub fn layer_value(&self, metric: &str, micro: Option<&Child>) -> f64 {
        let traced = |name: &str| self.traced.as_ref()?.result.metrics.get(name).copied();
        let untraced = self.rep_values(metric);
        match metric {
            "client.failed_ops_frac" => self.failed() as f64 / self.attempted() as f64,
            "trace.overhead_frac" => {
                let untraced = median(&self.rep_values("throughput_ops_s"));
                match (traced("throughput_ops_s"), self.workload.kind) {
                    (Some(t), Kind::Live(_)) if untraced > 0.0 => 1.0 - t / untraced,
                    _ => 0.0,
                }
            }
            _ if !untraced.is_empty() => median(&untraced),
            name => micro
                .and_then(|m| m.result.metrics.get(name).copied())
                .or_else(|| traced(name))
                .unwrap_or(0.0),
        }
    }
}

fn metric_json(unit: &str, value: f64) -> Json {
    Json::Obj(vec![
        ("value".into(), Json::Num(value)),
        ("unit".into(), json::str(unit)),
    ])
}

/// The one-line result the driver reads: every end-to-end metric (its
/// value over the repetitions, [`Metric::value`]) or every per-layer
/// metric.
pub fn driver_line(outcome: &Outcome, micro: Option<&Child>, traced: bool) -> String {
    let metrics = if traced {
        per_layer_json(outcome, micro)
    } else {
        END_TO_END
            .iter()
            .map(|m| {
                let value = m.value(&outcome.rep_values(m.name));
                (m.name.to_string(), metric_json(m.unit, value))
            })
            .collect()
    };
    Json::Obj(vec![
        ("correct".into(), Json::Bool(outcome.correct())),
        ("attempted".into(), Json::Num(outcome.attempted() as f64)),
        ("failed".into(), Json::Num(outcome.failed() as f64)),
        ("metrics".into(), Json::Obj(metrics)),
    ])
    .render()
}

fn per_layer_json(outcome: &Outcome, micro: Option<&Child>) -> Vec<(String, Json)> {
    PER_LAYER
        .iter()
        .map(|m| {
            let value = outcome.layer_value(m.name, micro);
            (m.name.to_string(), metric_json(m.unit, value))
        })
        .collect()
}

/// A workload's section of the file `run --out` writes and `compare`
/// reads.
pub fn outcome_json(outcome: &Outcome, micro: Option<&Child>) -> Json {
    let e2e = END_TO_END.iter().map(|m: &Metric| {
        let reps = outcome.rep_values(m.name);
        let (q1, q3) = quartiles(&reps);
        let summary = Json::Obj(vec![
            ("unit".into(), json::str(m.unit)),
            ("value".into(), Json::Num(m.value(&reps))),
            ("median".into(), Json::Num(median(&reps))),
            ("q1".into(), Json::Num(q1)),
            ("q3".into(), Json::Num(q3)),
            (
                "reps".into(),
                Json::Arr(reps.into_iter().map(Json::Num).collect()),
            ),
        ]);
        (m.name.to_string(), summary)
    });
    // Per repetition: the CPU it pinned itself to, the load around it.
    let loads = |key: &str| {
        Json::Arr(
            outcome
                .reps
                .iter()
                .filter_map(|c| c.result.extras.get(key).copied())
                .map(Json::Num)
                .collect(),
        )
    };
    let extras = outcome.traced.as_ref().map(|c| obj_of(&c.result.extras));
    Json::Obj(vec![
        ("why".into(), json::str(outcome.workload.why)),
        ("correct".into(), Json::Bool(outcome.correct())),
        ("attempted".into(), Json::Num(outcome.attempted() as f64)),
        ("failed".into(), Json::Num(outcome.failed() as f64)),
        (
            "errors".into(),
            Json::Arr(
                outcome
                    .errors()
                    .iter()
                    .map(|e| json::str(e.as_str()))
                    .collect(),
            ),
        ),
        ("cpu".into(), loads("cpu")),
        ("loadavg_start".into(), loads("loadavg_start")),
        ("loadavg_end".into(), loads("loadavg_end")),
        ("end_to_end".into(), Json::Obj(e2e.collect())),
        (
            "per_layer".into(),
            Json::Obj(per_layer_json(outcome, micro)),
        ),
        ("traced_rep".into(), extras.unwrap_or(Json::Null)),
    ])
}
