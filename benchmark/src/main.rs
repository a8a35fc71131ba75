//! Command line of the benchmark.
//!
//! * `--workload W --seed N --seconds S --trace 0|1` — one workload, the
//!   way the driver of `BENCHMARK.json` calls it; the last line printed is
//!   the result object.
//! * `run [--seed N] [--smoke] [--out F] [--trace-out F]` — every
//!   workload, gate, micro loop and traced run; prints every metric. Each
//!   workload measures `run_seconds` of `BENCHMARK.json`, as a driver run
//!   does, so two `--out` files are always of one length.
//! * `compare A B` — two `run --out` files against the bounds.
//! * `spec` — prints the text of `BENCHMARK.json` from the tables in
//!   `spec.rs`.
//! * `rep …`, `micro …` — the child processes the first two spawn.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use moc_benchmark::live::{self, RepPlan};
use moc_benchmark::spec::{
    self, Kind, Mode, Workload, AUDIT_OPS_PER_GENERATOR, CLUSTER_SIZE, END_TO_END, GENERATORS,
    LIVE_REPS, LOSSY_DELAY, LOSSY_FAULTS, PER_LAYER, VERIFY_REPS, WARMUP_NS, WORKLOADS,
};
use moc_benchmark::suite::{self, Child, Outcome};
use moc_benchmark::{compare, micro, procstat, trace, verify};
use moc_core::json::{self, Json};

/// Measured window of a `--smoke` repetition, seconds.
const SMOKE_WINDOW_S: f64 = 0.3;

struct Args {
    options: HashMap<String, String>,
    positional: Vec<String>,
}

impl Args {
    /// `--key value` pairs, bare `--flag`s (value "true") and positionals.
    fn parse(raw: &[String]) -> Self {
        let mut args = Args {
            options: HashMap::new(),
            positional: Vec::new(),
        };
        let mut it = raw.iter().peekable();
        while let Some(a) = it.next() {
            match a.strip_prefix("--") {
                Some(key) => {
                    let value = it
                        .next_if(|v| !v.starts_with("--"))
                        .cloned()
                        .unwrap_or_else(|| "true".into());
                    args.options.insert(key.to_string(), value);
                }
                None => args.positional.push(a.clone()),
            }
        }
        args
    }

    fn get<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, String> {
        self.options
            .get(key)
            .map(|v| v.parse().map_err(|_| format!("--{key}: cannot read {v:?}")))
            .transpose()
    }

    fn require<T: std::str::FromStr>(&self, key: &str) -> Result<T, String> {
        self.get(key)?.ok_or_else(|| format!("--{key} is required"))
    }

    fn workload(&self) -> Result<&'static Workload, String> {
        let name: String = self.require("workload")?;
        spec::workload(&name).ok_or_else(|| {
            let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
            format!("unknown workload {name:?}; one of {}", names.join(", "))
        })
    }
}

fn ns(seconds: f64) -> u64 {
    (seconds * 1e9) as u64
}

/// What every child does first: it stays on one CPU (−1 if the kernel
/// would not have it), so no hand-off inside it crosses virtual CPUs.
fn pinned_cpu() -> f64 {
    procstat::pin_to_one_cpu().map_or(-1.0, |cpu| cpu as f64)
}

/// A child: one repetition, printed as one line for the parent.
fn cmd_rep(args: &Args) -> Result<ExitCode, String> {
    let cpu = pinned_cpu();
    let workload = args.workload()?;
    let seed: u64 = args.require("seed")?;
    let window_ns: u64 = args.require("window-ns")?;
    let mode: String = args.require("mode")?;
    let mode = Mode::parse(&mode).ok_or_else(|| format!("unknown mode {mode:?}"))?;
    let load_start = procstat::load1();
    let mut result = match workload.kind {
        Kind::Live(spec) => live::run_rep(&RepPlan {
            spec,
            seed,
            warmup_ns: if mode == Mode::Audit { 0 } else { WARMUP_NS },
            window_ns,
            max_ops: if mode == Mode::Audit {
                AUDIT_OPS_PER_GENERATOR
            } else {
                u64::MAX
            },
            traced: mode == Mode::Traced,
        }),
        Kind::VerifyBatch => verify::run_rep(false, seed, window_ns, mode),
        Kind::VerifyStream => verify::run_rep(true, seed, window_ns, mode),
    };
    if let Some(path) = args.get::<PathBuf>("trace-out")? {
        std::fs::write(&path, trace::render(&result.traces))
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    result.set("client.peak_rss_mb", procstat::peak_rss_mb());
    result.extras.insert("cpu".into(), cpu);
    result.extras.insert("loadavg_start".into(), load_start);
    result
        .extras
        .insert("loadavg_end".into(), procstat::load1());
    println!("{}", suite::result_to_json(&result).render());
    Ok(ExitCode::SUCCESS)
}

fn cmd_micro(args: &Args) -> Result<ExitCode, String> {
    pinned_cpu();
    let result = micro::run(args.require("seed")?);
    println!("{}", suite::result_to_json(&result).render());
    Ok(ExitCode::SUCCESS)
}

fn report_errors(outcome: &Outcome) {
    for e in outcome.errors() {
        eprintln!("{}: {e}", outcome.workload.name);
    }
}

/// One workload, as the driver calls it.
fn cmd_driver(args: &Args) -> Result<ExitCode, String> {
    let workload = args.workload()?;
    let seed: u64 = args.require("seed")?;
    let seconds: f64 = args.require("seconds")?;
    let traced = match args.require::<u8>("trace")? {
        0 => false,
        1 => true,
        other => return Err(format!("--trace is 0 or 1, not {other}")),
    };
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    let mut outcome = Outcome::new(workload);
    let mut micro = None;
    let window = ns(seconds / workload.reps() as f64);
    let spawn = |window, mode| suite::spawn_rep(workload, seed, window, mode, None);
    if traced {
        // Micro loops first, so their caches are not the cluster's. Then
        // the closer look, at the length of a measured repetition.
        micro = Some(suite::spawn_micro(seed));
        // A verify workload has no wrappers to compare against: its closer
        // look is one repetition that also yields every counter.
        if matches!(workload.kind, Kind::Live(_)) {
            outcome.reps.push(spawn(window, Mode::Measured));
        }
        outcome.traced = Some(spawn(window, Mode::Traced));
    } else {
        outcome.reps = (0..workload.reps())
            .map(|_| spawn(window, Mode::Measured))
            .collect();
        outcome.audit = Some(spawn(0, Mode::Audit));
    }
    report_errors(&outcome);
    if let Some(m) = &micro {
        for e in &m.result.errors {
            eprintln!("micro: {e}");
        }
    }
    println!("{}", suite::driver_line(&outcome, micro.as_ref(), traced));
    let micro_ok = micro.is_none_or(|m| m.result.errors.is_empty());
    Ok(if outcome.correct() && micro_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// Where and how the numbers were taken, so a file cannot claim a machine
/// it did not run on.
fn environment(seed: u64, smoke: bool, seconds: f64) -> Json {
    let reps = |full: usize| if smoke { 1.0 } else { full as f64 };
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let num = |x: f64| Json::Num(x);
    let injected = WORKLOADS
        .iter()
        .map(|w| {
            let text = match w.kind {
                Kind::Live(s) if s.lossy => format!(
                    "delay {LOSSY_DELAY:?} ns, drop {}, duplicate {}",
                    LOSSY_FAULTS.0, LOSSY_FAULTS.1
                ),
                Kind::Live(_) => "none (in-process channels, no injected delay)".into(),
                _ => "offline".into(),
            };
            (w.name.to_string(), json::str(text))
        })
        .collect();
    Json::Obj(vec![
        ("nproc".into(), num(nproc as f64)),
        ("generator_threads".into(), num(GENERATORS as f64)),
        ("cluster_size".into(), num(CLUSTER_SIZE as f64)),
        ("smoke".into(), Json::Bool(smoke)),
        ("seconds_per_workload".into(), num(seconds)),
        ("live_reps".into(), num(reps(LIVE_REPS))),
        ("verify_reps".into(), num(reps(VERIFY_REPS))),
        ("warmup_s".into(), num(WARMUP_NS as f64 / 1e9)),
        ("seed".into(), num(seed as f64)),
        (
            "rustc".into(),
            json::str(command_line("rustc", &["--version"])),
        ),
        (
            "git_commit".into(),
            json::str(command_line("git", &["describe", "--always", "--dirty"])),
        ),
        ("loadavg".into(), json::str(procstat::loadavg())),
        ("injected".into(), Json::Obj(injected)),
    ])
}

fn print_outcome(outcome: &Outcome, micro: &Child) {
    println!("\n== {} ==", outcome.workload.name);
    for m in &END_TO_END {
        let reps = outcome.rep_values(m.name);
        println!(
            "  {:<34} {:>16.4} {:<6} reps {:.4?}",
            m.name,
            m.value(&reps),
            m.unit,
            reps
        );
    }
    for m in &PER_LAYER {
        println!(
            "  {:<34} {:>16.4} {}",
            m.name,
            outcome.layer_value(m.name, Some(micro)),
            m.unit
        );
    }
    // Where every operation is an update the stages are one operation's
    // whole path, and their medians should add up to about its p50.
    if let (Kind::Live(spec), Some(t)) = (outcome.workload.kind, &outcome.traced) {
        let v = |name: &str| t.result.metrics.get(name).copied().unwrap_or(0.0);
        print!(
            "  stage table (traced rep, median us): submit_wait {:.1} -> to_sequencer {:.1} -> \
             fanout {:.1} -> apply {:.1} -> retire_wait {:.1}",
            v("runtime.submit_wait_us_p50"),
            v("abcast.to_sequencer_us_p50"),
            v("abcast.fanout_us_p50"),
            v("protocol.apply_us_p50"),
            v("runtime.retire_wait_us_p50"),
        );
        match t.result.extras.get("stage_sum_us") {
            Some(sum) if spec.update_pct == 100 => {
                let p50 = t.result.extras.get("window_p50_us").copied().unwrap_or(0.0);
                println!("; sum {sum:.1} of the window's p50 {p50:.1}");
            }
            _ => println!(" (update operations only)"),
        }
    }
    println!(
        "  correct {}  attempted {}  failed {}",
        outcome.correct(),
        outcome.attempted(),
        outcome.failed()
    );
}

/// Every workload, gate, micro loop and traced run in one command.
fn cmd_run(args: &Args) -> Result<ExitCode, String> {
    let seed: u64 = args.get("seed")?.unwrap_or(1);
    let smoke = args.options.contains_key("smoke");
    // Per workload: the seconds its repetitions measure together, and how
    // many there are. The traced repetition is one more of their length.
    let seconds = if smoke {
        SMOKE_WINDOW_S
    } else {
        f64::from(spec::RUN_SECONDS)
    };
    let reps = |w: &Workload| if smoke { 1 } else { w.reps() };
    let window = |w: &Workload| ns(seconds / reps(w) as f64);
    let trace_out: Option<PathBuf> = args.get("trace-out")?;
    let env = environment(seed, smoke, seconds);
    println!("environment: {}", env.render());

    let micro = suite::spawn_micro(seed);
    let mut outcomes: Vec<Outcome> = WORKLOADS.iter().map(Outcome::new).collect();
    // Round-robin: a noisy period on a shared machine dents every workload
    // a little instead of owning one.
    for rep in 0..LIVE_REPS.max(VERIFY_REPS) {
        for o in &mut outcomes {
            let reps = reps(o.workload);
            if rep < reps {
                eprintln!("rep {} of {reps}: {}", rep + 1, o.workload.name);
                o.reps.push(suite::spawn_rep(
                    o.workload,
                    seed,
                    window(o.workload),
                    Mode::Measured,
                    None,
                ));
            }
        }
    }
    for o in &mut outcomes {
        eprintln!("audit and traced run: {}", o.workload.name);
        o.audit = Some(suite::spawn_rep(o.workload, seed, 0, Mode::Audit, None));
        let out = trace_out
            .as_deref()
            .filter(|_| matches!(o.workload.kind, Kind::Live(_)))
            .map(|p: &Path| p.with_extension(format!("{}.tsv", o.workload.name)));
        o.traced = Some(suite::spawn_rep(
            o.workload,
            seed,
            window(o.workload),
            Mode::Traced,
            out.as_deref(),
        ));
    }

    let mut ok = micro.result.errors.is_empty();
    for o in &outcomes {
        print_outcome(o, &micro);
        report_errors(o);
        ok &= o.correct();
    }
    if let Some(path) = args.get::<PathBuf>("out")? {
        let doc = Json::Obj(vec![
            ("benchmark".into(), json::str("moc-benchmark")),
            ("environment".into(), env),
            (
                "workloads".into(),
                Json::Obj(
                    outcomes
                        .iter()
                        .map(|o| {
                            (
                                o.workload.name.to_string(),
                                suite::outcome_json(o, Some(&micro)),
                            )
                        })
                        .collect(),
                ),
            ),
        ]);
        std::fs::write(&path, doc.render() + "\n")
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!("\nwrote {}", path.display());
    }
    println!(
        "{}",
        if ok {
            "all gates passed"
        } else {
            "GATE FAILURE"
        }
    );
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn cmd_compare(args: &Args) -> Result<ExitCode, String> {
    let [_, a, b] = args.positional.as_slice() else {
        return Err("usage: compare <a.json> <b.json>".into());
    };
    let read = |p: &String| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
    let (table, regressed) = compare::compare(&read(a)?, &read(b)?)?;
    print!("{table}");
    Ok(if regressed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = Args::parse(&raw);
    let outcome = match args.positional.first().map(String::as_str) {
        None => cmd_driver(&args),
        Some("run") => cmd_run(&args),
        Some("compare") => cmd_compare(&args),
        Some("rep") => cmd_rep(&args),
        Some("micro") => cmd_micro(&args),
        Some("spec") => {
            print!("{}", spec::benchmark_json());
            Ok(ExitCode::SUCCESS)
        }
        Some(other) => Err(format!("unknown command {other:?} (run | compare)")),
    };
    outcome.unwrap_or_else(|e| {
        eprintln!("benchmark: {e}");
        ExitCode::from(2)
    })
}
