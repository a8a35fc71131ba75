//! # moc-cli
//!
//! The `moc` command-line tool. Histories travel in the text format of
//! [`moc_core::codec`], so workflows compose through pipes:
//!
//! ```console
//! $ moc run --protocol msc --processes 4 --ops 6 > history.txt
//! $ moc check history.txt --condition sc
//! m-sequential consistency: SATISFIED (search, 24 nodes)
//! replay: moc check history.txt --condition sc --max-nodes 5000000
//! $ moc check history.txt --condition lin
//! m-linearizability: VIOLATED (search, 0 nodes)
//! reason: ~H+ cycle of length 2 refutes admissibility without search
//! replay: moc check history.txt --condition lin --max-nodes 5000000
//! $ moc render history.txt
//! ```
//!
//! Each subcommand is one row of a command table: its options, each
//! declared once as a flag or a value, and a handler returning its output
//! and exit code. Parsing, unknown-option rejection, the stdin decision
//! and `moc help` all read the row; `src/bin/moc.rs` is a thin wrapper.

use std::collections::HashMap;

use moc_analyze::Severity;
use moc_checker::admissible::SearchLimits;
use moc_checker::causal::check_m_causal;
use moc_checker::certificate::check_certified;
use moc_checker::conditions::Condition;
use moc_core::codec::{from_text, to_text};
use moc_core::history::History;
use moc_core::render::{render_listing, render_timeline};
use moc_protocol::{
    run_cluster, AggregateOverSequencer, ClusterConfig, MlinOverSequencer, MlinOverView,
    MscOverSequencer, MscOverView,
};
use moc_sim::{DelayModel, NetworkConfig};
use moc_workload::arb::{self, HistoryBounds};
use moc_workload::histories::{multi_component_history, serial_history, HistorySpec};
use moc_workload::{scripts, WorkloadSpec};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A command's output and exit code, or a usage error (exit code 2).
type Outcome = Result<(String, i32), String>;

/// One `moc` subcommand: what `moc help` prints about it and its handler.
struct Subcommand {
    name: &'static str,
    /// The positional arguments as the synopsis shows them.
    positional: &'static str,
    run: fn(&Args, &str) -> Outcome,
    /// `name=HINT` takes a value, a bare `name` is a flag.
    options: &'static str,
    /// The prose under the synopsis, wrapped as it is printed.
    about: &'static str,
}

impl Subcommand {
    /// Each declared option: its name and, for a valued one, its hint.
    fn declared_options(&self) -> impl Iterator<Item = (&'static str, Option<&'static str>)> {
        let decl = |d: &'static str| d.split_once('=').map_or((d, None), |(n, h)| (n, Some(h)));
        self.options.split_whitespace().map(decl)
    }

    /// The synopsis: the positional text, then every option, wrapped at 74
    /// columns under a 13-column indent. A word that does not fit moves to
    /// the next line whole; one no line can hold breaks after each `|`.
    fn synopsis(&self) -> String {
        let options = self.declared_options().map(|(name, hint)| match hint {
            Some(hint) => format!("[--{name} {hint}]"),
            None => format!("[--{name}]"),
        });
        let words = self.positional.split_whitespace().map(String::from);
        let (mut lines, mut line) = (Vec::new(), format!("  moc {:<6}", self.name));
        for word in words.chain(options) {
            let pieces: Vec<&str> = if 13 + word.len() <= 74 {
                vec![&word]
            } else {
                word.split_inclusive('|').collect()
            };
            let mut sep = " ";
            for piece in pieces {
                if line.len() + sep.len() + piece.len() > 74 {
                    lines.push(std::mem::replace(&mut line, " ".repeat(13)));
                    sep = "";
                }
                line += sep;
                line += piece;
                sep = "";
            }
        }
        lines.push(line);
        lines.join("\n").trim_end().to_string()
    }
}

/// Every subcommand, in the order `moc help` lists them.
#[rustfmt::skip]
const COMMANDS: &[Subcommand] = &[
    Subcommand { name: "run", positional: "", run: cmd_run,
        options: "protocol=msc|mlin|aggregate processes=N ops=K objects=M seed=S update-frac=F",
        about: "Run a simulated cluster workload; print its history." },
    Subcommand { name: "gen", positional: "", run: cmd_gen,
        options: "kind=serial|random|writers processes=N ops=K objects=M seed=S update-frac=F k=K",
        about: "Generate a synthetic history; print it." },
    Subcommand { name: "check", positional: "<file|->", run: cmd_check,
        options: "condition=sc|lin|normal|causal max-nodes=N witness minimize certificate=PATH|-",
        about: "\
Check a history against a consistency condition. --max-nodes caps
the search's node budget (default 5000000). The output ends with a
replay line echoing the resolved search flags.
With --minimize, a violating history is shrunk to its 1-minimal core
and printed. With --certificate, the verdict's moc-cert proof
document is written to PATH (or printed with `-`); see
docs/CERTIFICATES.md and docs/CHECKER-PERF.md. --condition causal
prints a verdict per process and refuses --witness, --minimize and
--certificate." },
    Subcommand { name: "audit", run: cmd_audit,
        positional: "<history-file|-> <cert-file> | <cert-file|->",
        options: "programs=demo|disjoint|protocol|shardable|hub shards=N processes=N ops=K \
        objects=M seed=S update-frac=F",
        about: "\
Independently re-validate a moc-cert certificate against a history:
replay the witness, or check the ~H+ refutation cycle edge by edge.
With --programs, re-validate a program-set certificate against the
named workload instead (--shards and the workload options as for
`moc analyze`), dispatching on its format tag. moc-shard-cert:
fingerprint binding, partition well-formedness, footprint closure,
cross-shard edge coverage (a dropped or fabricated edge rejects) and
the composition verdict. moc-commute-cert: fingerprint binding,
footprint bounds, full matrix recomputation (a fabricated or dropped
commutation rejects) and every mover class re-derived." },
    Subcommand { name: "commute", positional: "", run: cmd_commute,
        options: "workload=demo|disjoint|protocol|shardable|hub format=human|json \
        max-shard-size=N shards=N objects=M certificate=PATH|- require-progress processes=N \
        ops=K seed=S update-frac=F",
        about: "\
Run the commutativity & mover pass: derive the pairwise commutation
matrix from the refined may/must footprints, classify every program
read-only / left- / right- / both- / non-mover (Lipton), lint the
configuration (MOC0012 all-pairs-conflict, MOC0013 read-only in
global order, MOC0014 commuting pair straddles shards) and emit a
versioned moc-commute-cert document (re-validatable with
`moc audit --programs`). --require-progress exits 1 when no
distinct pair commutes (MOC0012 territory: nothing for the
symmetry-pruned checker or the delivery fast path to exploit).
See docs/ANALYZER.md." },
    Subcommand { name: "chaos", positional: "", run: cmd_chaos,
        options: "protocol=msc|mlin|both abcast=fixed|view faults=none|lossy|lossy-dup|\
        partition|crash|storm|leader-crash-quiet|leader-crash-burst|leader-crash-repeat|all|\
        leader-crash|LIST workloads=mixed|read-heavy|write-heavy|hot-spot|all|LIST seeds=N \
        seed-base=S processes=N ops=K objects=M sabotage batch=N batch-delay-us=U",
        about: "\
Sweep seeds × fault plans × workloads through the protocols on the
fault-injecting simulator (reliable-link sublayer on the wire),
checking every run's history with a certificate and re-validating
each certificate with the independent auditor. Failing runs print a
replay command. --abcast picks the total-order layer: the fixed
sequencer or the view-based failover broadcast (the only one that
survives the leader-crash fault families; under `fixed` those
families are a negative control and must FAIL detectably, never
hang). `--faults all` keeps its historical meaning (the six
original families); `leader-crash` selects the three coordinator-
crash families. With --sabotage the link's dedup/retransmission are
disabled and the sweep must instead find an audited refutation.
--batch N turns on group-commit stamping in the ordering layer
(N submissions per ordering frame, partial batches flushed after
--batch-delay-us, default 100): the sweep must stay just as clean,
and the consolidated transport/runtime counter block printed after
the sweep shows the frames it saved. See docs/CHAOS.md and
docs/RUNTIME-PERF.md." },
    Subcommand { name: "monitor", positional: "<file|->", run: cmd_monitor,
        options: "condition=sc|lin|normal window=N max-live-nodes=N tiles=K sabotage",
        about: "\
Replay a history through the streaming consistency sentinel as a
live event stream: incremental window checks at quiescence points,
a rolling certificate per window (each one self-audited on the
spot), retirement of settled prefixes, and a hard bound on live
state — crossing --max-live-nodes force-drops the oldest live
records and reports Degraded instead of growing without bound
(the peak-vs-cap self-check exits 1 if the bound ever slipped).
--tiles K stretches the stream K-fold (object/time-shifted copies)
to exercise bounded memory on long streams. --sabotage splices an
inadmissible store-buffering gadget mid-stream as a negative
control: the sentinel must latch it (exit 0 on detection, 1 on a
miss). See docs/MONITOR.md." },
    Subcommand { name: "synth", positional: "", run: cmd_synth,
        options: "smoke seeds=N seed-base=S max-nodes=N out=DIR verify=DIR list family=NAME",
        about: "\
Grammar-driven adversarial synthesis: enumerate the shared
moc-workload history grammar, dedupe isomorphic candidates
(Weisfeiler–Leman canonicalization over the commute/conflict
structure), classify each through the analyzer and the certified
checker, and select boundary specimens — legal-but-inadmissible
histories, configurations one conflict edge from the Theorem 7
fast path, pruned-engine node maxima and static ~H+ cycles.
--smoke runs the pinned corpus grammar (256 seeds, bounded);
--out writes the survivors as a golden corpus (manifest, history
files, certificates); --verify re-hunts and diffs against a
checked-in corpus, exiting 1 on any drift; --list prints the
pinned registry families; --family NAME prints one pinned
family's history (the replay entry point). See docs/SYNTH.md." },
    Subcommand { name: "render", positional: "<file|->", run: cmd_render,
        options: "width=N", about: "Draw the history as per-process timelines plus a listing." },
    Subcommand { name: "analyze", positional: "", run: cmd_analyze,
        options: "workload=demo|disjoint|protocol|shardable|hub format=human|json \
        require=oo,ww,wo processes=N ops=K objects=M seed=S update-frac=F shards=N",
        about: "\
Statically analyze a workload's program set: lints, refined
read/write sets, conflict graph and constraint certificates." },
    Subcommand { name: "shard", positional: "", run: cmd_shard,
        options: "workload=demo|disjoint|protocol|shardable|hub format=human|json \
        max-shard-size=N shards=N require-composition=oo,ww,wo certificate=PATH|- objects=M \
        processes=N ops=K seed=S update-frac=F",
        about: "\
Run the shardability pass: partition the object universe along the
static conflict graph, enumerate every cross-shard conflict edge,
and emit a versioned moc-shard-cert document (re-validatable with
`moc audit --programs`). --max-shard-size splits oversized
components (greedy min-cut, at the cost of straddling programs);
--require-composition exits 1 unless the named constraint classes
stay enforced under per-shard sequencing. See docs/ANALYZER.md." },
    Subcommand { name: "help", positional: "", run: |_, _| Ok((usage(), 0)),
        options: "", about: "Print this text." },
];

/// The `moc help` text: each row's synopsis and prose, then exit codes.
fn usage() -> String {
    let mut out = String::from(
        "moc — multi-object operation histories: generate, run, render, check\n\nUSAGE:\n",
    );
    for cmd in COMMANDS {
        out += &cmd.synopsis();
        for line in cmd.about.lines() {
            out += &format!("\n      {line}");
        }
        out += "\n";
    }
    out + "
EXIT CODES:
  0  clean (no Error-severity findings; certificate valid; chaos sweep
     passed; sentinel healthy — or, under --sabotage, the planted
     violation was caught)
  1  the analysis report contains Error-severity findings, the audited
     certificate was rejected, the chaos sweep failed, or the sentinel
     latched a violation / overran its live-node bound (under
     --sabotage: the planted violation was missed)
  2  invalid input or usage

Histories use the `history v1` text format (moc_core::codec)."
}

/// A command line parsed against its subcommand's row. Handlers read
/// options only through the typed accessors, which assert (in debug
/// builds) that the row declares the name with that kind.
struct Args {
    cmd: &'static Subcommand,
    positional: Vec<String>,
    /// Each given option under its declared name; a flag maps to "".
    options: HashMap<&'static str, String>,
}

impl Args {
    /// Parses the words after the subcommand. A flag never takes the next
    /// word; a valued option takes it unless it is another `--option`; an
    /// undeclared option is an error. A repeated option keeps its last value.
    fn parse(cmd: &'static Subcommand, raw: &[String]) -> Result<Args, String> {
        let (mut positional, mut options, moc) = (Vec::new(), HashMap::new(), cmd.name);
        let mut words = raw.iter();
        while let Some(word) = words.next() {
            let Some(key) = word.strip_prefix("--") else {
                positional.push(word.clone());
                continue;
            };
            let Some((name, hint)) = cmd.declared_options().find(|&(name, _)| name == key) else {
                return Err(format!(
                    "unknown option --{key} for `moc {moc}` (see `moc help`)"
                ));
            };
            let value = match hint {
                None => String::new(),
                Some(hint) => match words.next().filter(|v| !v.starts_with("--")) {
                    Some(v) => v.clone(),
                    None => return Err(format!("--{name} needs a value ({hint}) for `moc {moc}`")),
                },
            };
            options.insert(name, value);
        }
        Ok(Args {
            cmd,
            positional,
            options,
        })
    }

    /// Option `name` as given, asserting (in debug builds) that the
    /// running row declares it valued or as a flag.
    fn given(&self, name: &str, valued: bool) -> Option<&str> {
        debug_assert!(
            self.cmd
                .declared_options()
                .any(|(n, h)| n == name && h.is_some() == valued),
            "`moc {}` reads --{name}, which its row does not declare that way",
            self.cmd.name,
        );
        self.options.get(name).map(String::as_str)
    }

    /// The value of option `name`, if it was given.
    fn value(&self, name: &str) -> Option<&str> {
        self.given(name, true)
    }

    /// Whether flag `name` was given.
    fn flag(&self, name: &str) -> bool {
        self.given(name, false).is_some()
    }

    /// The numeric option `name`, or `default` when it was not given.
    fn get<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.value(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("--{name} needs a number")),
        }
    }

    /// [`Args::get`], rejected unless the value lies in `range` — a count
    /// of processes, objects or tiles (`1..`) or a fraction (`0.0..=1.0`,
    /// which NaN never is) — so a workload generator is never handed a
    /// value it would panic on.
    fn get_in<T, R>(&self, name: &str, default: T, range: R) -> Result<T, String>
    where
        T: std::str::FromStr + PartialOrd,
        R: std::ops::RangeBounds<T> + std::fmt::Debug,
    {
        let v = self.get(name, default)?;
        if range.contains(&v) {
            Ok(v)
        } else {
            Err(format!("--{name} must lie in {range:?}"))
        }
    }
}

/// The row named `name` (`--help` and `-h` name `help`).
fn subcommand(name: &str) -> Option<&'static Subcommand> {
    let help = matches!(name, "--help" | "-h");
    COMMANDS
        .iter()
        .find(|cmd| cmd.name == name || help && cmd.name == "help")
}

/// Whether a command line reads stdin: a positional argument of a known
/// subcommand is `-`; an option's value (`--certificate -`) is not.
pub fn reads_stdin(raw: &[String]) -> bool {
    raw.split_first()
        .and_then(|(name, rest)| Args::parse(subcommand(name)?, rest).ok())
        .is_some_and(|args| args.positional.iter().any(|p| p == "-"))
}

/// Dispatches a full command line (without the program name): its output
/// and exit code, `0` clean, `1` Error-severity findings (or a rejection,
/// a failed sweep, a latched sentinel), `2` invalid input or usage. `Err`
/// always pairs with `2`.
pub fn dispatch_with_status(raw: &[String], stdin: &str) -> (Result<String, String>, i32) {
    let result = match raw.split_first() {
        None => Ok((usage(), 0)),
        Some((name, rest)) => match subcommand(name) {
            Some(cmd) => Args::parse(cmd, rest).and_then(|args| (cmd.run)(&args, stdin)),
            None => Err(format!("unknown command {name:?}\n\n{}", usage())),
        },
    };
    match result {
        Ok((out, code)) => (Ok(out), code),
        Err(e) => (Err(e), 2),
    }
}

fn load_history(args: &Args, stdin: &str) -> Result<History, String> {
    let source = args
        .positional
        .first()
        .ok_or("expected a history file (or `-` for stdin)")?;
    let text = if source == "-" {
        stdin.to_string()
    } else {
        std::fs::read_to_string(source).map_err(|e| format!("cannot read {source}: {e}"))?
    };
    from_text(&text).map_err(|e| format!("cannot parse {source}: {e}"))
}

/// `--objects` of a command that builds per-object tables: within the
/// 32-bit object ids the codec reads back, and refused up front, as `moc
/// check` refuses such a header, unless a history's per-object tables can
/// be built while `beside` more bytes per object are held — a usage error
/// naming the flag, never an allocator abort later.
fn objects_option(args: &Args, default: usize, beside: usize) -> Result<usize, String> {
    let objects = args.get_in("objects", default, 1..=u32::MAX as usize)?;
    objects_fit(objects, objects, beside)?;
    Ok(objects)
}

/// Refuses `--objects asked` unless the per-object tables of a history
/// over the `built` objects the command builds with it fit while `beside`
/// more bytes per object are held.
fn objects_fit(asked: usize, built: usize, beside: usize) -> Result<(), String> {
    let refuse = |e: moc_core::CoreError| format!("--objects {asked}: {e}");
    let mut held = Vec::<u8>::new();
    (held.try_reserve_exact(built.saturating_mul(beside)))
        .map_err(|_| refuse(moc_core::CoreError::ObjectTablesTooLarge { num_objects: built }))?;
    History::new(built, Vec::new()).map_err(refuse)?;
    Ok(())
}

/// `--objects` of a command that runs clusters of `processes` replicas,
/// each over at most `most` objects (fewer when `--objects` says so).
/// `ReplicaProtocol::new` cannot fail, so the count is refused before the
/// cluster is built unless what the run holds at its peak fits beside the
/// history: every replica's store and version vector and, when queries
/// collect copies (Figure 6, `query_rounds`), one round per process with
/// a copy from every replica in flight. The replicas are dropped before
/// the history is built, but for the one store the report keeps.
fn cluster_objects(
    args: &Args,
    processes: usize,
    query_rounds: bool,
    most: usize,
) -> Result<usize, String> {
    use moc_core::value::Versioned;
    // A copy holds what a store does: the states, densely, and a version
    // vector.
    let per_copy = size_of::<Versioned>() + size_of::<u64>();
    // A finishing round's freshest copy becomes the store the query runs
    // on, so a round holds at most one copy per replica.
    let copies = if query_rounds {
        processes.saturating_mul(processes)
    } else {
        0
    };
    let stores = processes.saturating_mul(per_copy);
    let beside = stores.saturating_add(copies.saturating_mul(per_copy));
    let objects = args.get_in("objects", 4, 1..=u32::MAX as usize)?;
    objects_fit(objects, objects.min(most), beside)?;
    Ok(objects)
}

fn cmd_run(args: &Args, _stdin: &str) -> Outcome {
    let processes = args.get_in("processes", 3, 1..)?;
    let ops = args.get::<usize>("ops", 5)?;
    let protocol = args.value("protocol").unwrap_or("mlin");
    let objects = cluster_objects(args, processes, protocol == "mlin", usize::MAX)?;
    let seed = args.get::<u64>("seed", 0)?;
    let update_fraction = args.get_in("update-frac", 0.5, 0.0..=1.0)?;
    let spec = WorkloadSpec {
        processes,
        ops_per_process: ops,
        num_objects: objects,
        update_fraction,
        ..WorkloadSpec::default()
    };
    let mut rng = StdRng::seed_from_u64(seed);
    let s = scripts(&spec, &mut rng);
    let config = ClusterConfig::new(objects, seed).with_network(NetworkConfig::with_delay(
        DelayModel::Uniform {
            lo: 100,
            hi: 20_000,
        },
    ));
    let history = match protocol {
        "msc" => run_cluster::<MscOverSequencer>(&config, s).history,
        "mlin" => run_cluster::<MlinOverSequencer>(&config, s).history,
        "aggregate" => run_cluster::<AggregateOverSequencer>(&config, s).history,
        other => return Err(format!("unknown protocol {other:?} (msc|mlin|aggregate)")),
    };
    Ok((to_text(&history), 0))
}

fn cmd_gen(args: &Args, _stdin: &str) -> Outcome {
    let seed = args.get::<u64>("seed", 0)?;
    let mut rng = StdRng::seed_from_u64(seed);
    let processes = args.get_in("processes", 3, 1..)?;
    let ops = args.get::<usize>("ops", 4)?;
    let update_fraction = args.get_in("update-frac", 0.5, 0.0..=1.0)?;
    // Beside the history's tables, per object: the serial store, the
    // grammar's writer lists, or an operation on it by each of the 2k
    // writers and readers, with its line of text.
    let h = match args.value("kind").unwrap_or("serial") {
        "serial" => {
            let store = size_of::<(i64, moc_core::MOpId, u64)>();
            let spec = HistorySpec {
                processes,
                ops_per_process: ops,
                num_objects: objects_option(args, 4, store)?,
                update_fraction,
                max_span: 2,
            };
            serial_history(&spec, &mut rng)
        }
        "random" => {
            let writers = size_of::<Vec<(moc_core::MOpId, i64, u64)>>();
            let bounds = HistoryBounds {
                processes,
                mops_per_process: ops,
                objects: objects_option(args, 4, writers)?,
                max_span: 2,
                update_fraction,
            };
            arb::history(&mut rng, &bounds)
        }
        "writers" => {
            let k = args.get::<usize>("k", 3)?;
            let op = size_of::<moc_core::CompletedOp>() + 32;
            let objects = objects_option(args, 4, k.saturating_mul(2 * op))?;
            multi_component_history(1, k, objects, &mut rng)
        }
        other => return Err(format!("unknown kind {other:?} (serial|random|writers)")),
    };
    Ok((to_text(&h), 0))
}

fn cmd_check(args: &Args, stdin: &str) -> Outcome {
    let h = load_history(args, stdin)?;
    let max_nodes = args.get::<u64>("max-nodes", 5_000_000)?;
    let limits = SearchLimits::with_max_nodes(max_nodes);
    let condition_name = args.value("condition").unwrap_or("lin");
    let source = args
        .positional
        .first()
        .cloned()
        .unwrap_or_else(|| "-".into());
    let replay = format!(
        "replay: moc check {source} --condition {condition_name} --max-nodes {max_nodes}\n"
    );

    if condition_name == "causal" {
        // Only the verdict: there is no causal certificate, single witness
        // or minimizer to give.
        let certificate = args.value("certificate").map(|_| "certificate");
        let flags = ["witness", "minimize"]
            .into_iter()
            .find(|flag| args.flag(flag));
        if let Some(name) = certificate.or(flags) {
            return Err(format!("--{name} is not supported with --condition causal"));
        }
        let report = check_m_causal(&h, limits).map_err(|e| e.to_string())?;
        let mut out = format!(
            "m-causal consistency: {} ({} m-operations, {} nodes explored)\n",
            if report.satisfied {
                "SATISFIED"
            } else {
                "VIOLATED"
            },
            h.len(),
            report.stats.nodes
        );
        for (p, w) in &report.per_process {
            let _ = std::fmt::Write::write_fmt(
                &mut out,
                format_args!(
                    "  {p}: {}\n",
                    if w.is_some() {
                        "serializes"
                    } else {
                        "NO serialization"
                    }
                ),
            );
        }
        out.push_str(&replay);
        return Ok((out, 0));
    }

    let condition = match condition_name {
        "sc" => Condition::MSequentialConsistency,
        "lin" => Condition::MLinearizability,
        "normal" => Condition::MNormality,
        other => {
            return Err(format!(
                "unknown condition {other:?} (sc|lin|normal|causal)"
            ))
        }
    };
    let (report, cert) = check_certified(&h, condition, limits).map_err(|e| e.to_string())?;
    let mut out = format!(
        "{condition}: {} (search, {} nodes)\n",
        if report.satisfied {
            "SATISFIED"
        } else {
            "VIOLATED"
        },
        report.stats.nodes
    );
    if let Some(reason) = &report.reason {
        let _ = std::fmt::Write::write_fmt(&mut out, format_args!("reason: {reason}\n"));
    }
    if !report.satisfied && args.flag("minimize") {
        match moc_checker::minimize::minimize_violation(&h, condition, limits) {
            Ok(min) => {
                let _ = std::fmt::Write::write_fmt(
                    &mut out,
                    format_args!(
                        "minimized to {} m-operations ({} removed, {} checks):\n{}",
                        min.history.len(),
                        min.removed,
                        min.checks,
                        to_text(&min.history)
                    ),
                );
            }
            Err(e) => {
                let _ = std::fmt::Write::write_fmt(
                    &mut out,
                    format_args!("minimization failed: {e}\n"),
                );
            }
        }
    }
    if args.flag("witness") {
        if let Some(w) = &report.witness {
            let names: Vec<String> = w.iter().map(|&i| h.record(i).id.to_string()).collect();
            let _ = std::fmt::Write::write_fmt(
                &mut out,
                format_args!("witness: {}\n", names.join(" ")),
            );
        }
    }
    out.push_str(&replay);
    write_certificate(args, || cert.to_text(), &mut out)?;
    Ok((out, 0))
}

/// Delivers the certificate `--certificate PATH|-` asks for, if any: for
/// `-` appended to the command's output, otherwise written to PATH.
fn write_certificate(
    args: &Args,
    text: impl FnOnce() -> String,
    out: &mut String,
) -> Result<(), String> {
    let Some(dest) = args.value("certificate") else {
        return Ok(());
    };
    let text = text() + "\n";
    if dest == "-" {
        out.push_str(&text);
        Ok(())
    } else {
        std::fs::write(dest, text).map_err(|e| format!("cannot write {dest}: {e}"))
    }
}

/// Exit code 1 when the findings include an Error-severity one.
fn severity_code(findings: &[moc_analyze::Finding]) -> i32 {
    i32::from(moc_analyze::max_severity(findings) == Some(Severity::Error))
}

/// A report in `--format human|json` (the JSON document on one line).
fn format_report(
    args: &Args,
    human: impl FnOnce() -> String,
    json: impl FnOnce() -> String,
) -> Result<String, String> {
    match args.value("format").unwrap_or("human") {
        "human" => Ok(human()),
        "json" => Ok(json() + "\n"),
        other => Err(format!("unknown format {other:?} (human|json)")),
    }
}

/// Resolves a named workload to its program set (shared by `analyze`,
/// `shard` and the shard-certificate mode of `audit`, so all three see
/// one source of truth).
fn workload_programs(
    args: &Args,
    workload: &str,
) -> Result<Vec<std::sync::Arc<moc_core::program::Program>>, String> {
    match workload {
        "demo" => Ok(moc_workload::demo_programs()),
        "disjoint" => Ok(moc_workload::disjoint_programs()),
        "shardable" => Ok(moc_workload::shardable_programs(
            args.get::<usize>("shards", 2)?,
        )),
        "hub" => Ok(moc_workload::hub_programs()),
        "protocol" => {
            // The program set a `moc run` with the same options would
            // actually issue (one representative per program name).
            let spec = WorkloadSpec {
                processes: args.get_in("processes", 3, 1..)?,
                ops_per_process: args.get::<usize>("ops", 5)?,
                num_objects: args.get_in("objects", 4, 1..)?,
                update_fraction: args.get_in("update-frac", 0.5, 0.0..=1.0)?,
                ..WorkloadSpec::default()
            };
            let mut rng = StdRng::seed_from_u64(args.get::<u64>("seed", 0)?);
            let mut seen = std::collections::BTreeSet::new();
            Ok(scripts(&spec, &mut rng)
                .into_iter()
                .flat_map(|s| s.ops)
                .filter(|op| seen.insert(op.program.name().to_string()))
                .map(|op| op.program)
                .collect())
        }
        other => Err(format!(
            "unknown workload {other:?} (demo|disjoint|protocol|shardable|hub)"
        )),
    }
}

fn cmd_audit(args: &Args, stdin: &str) -> Outcome {
    // Program-set certificate mode: `moc audit <cert-file|-> --programs
    // <workload>` re-validates a moc-shard-cert or moc-commute-cert
    // document (dispatched on its format tag) against the named
    // workload's program set (no history involved).
    if let Some(workload) = args.value("programs") {
        let cert_path = args
            .positional
            .first()
            .ok_or("expected a certificate file (or `-` for stdin)")?;
        let cert_text = if cert_path == "-" {
            stdin.to_string()
        } else {
            std::fs::read_to_string(cert_path)
                .map_err(|e| format!("cannot read {cert_path}: {e}"))?
        };
        let programs = workload_programs(args, workload)?;
        let refs: Vec<&moc_core::program::Program> = programs.iter().map(|p| p.as_ref()).collect();
        let format = moc_core::json::parse(&cert_text)
            .map_err(|e| format!("cannot parse {cert_path}: {e}"))?
            .get("format")
            .and_then(moc_core::json::Json::as_str)
            .map(str::to_string)
            .ok_or("certificate has no \"format\" tag")?;
        return match format.as_str() {
            "moc-shard-cert" => match moc_audit::audit_shard(&refs, &cert_text) {
                Ok(v) => Ok((
                    format!(
                        "shard certificate VALID: {} shard(s), {}/{} single-shard program(s), \
                         {} cross-shard edge(s){}\n",
                        v.num_shards,
                        v.single_shard_programs,
                        refs.len(),
                        v.cross_edges,
                        if v.refined_attested {
                            "; refined footprints attested"
                        } else {
                            ""
                        }
                    ),
                    0,
                )),
                Err(reason) => Ok((format!("shard certificate REJECTED: {reason}\n"), 1)),
            },
            "moc-commute-cert" => match moc_audit::audit_commute(&refs, &cert_text) {
                Ok(v) => Ok((
                    format!(
                        "commute certificate VALID: {} program(s), {} commuting pair(s), \
                         {} read-only, {} non-mover(s){}\n",
                        v.num_programs,
                        v.commuting_pairs,
                        v.read_only,
                        v.non_movers,
                        if v.refined_attested {
                            "; refined footprints attested"
                        } else {
                            ""
                        }
                    ),
                    0,
                )),
                Err(reason) => Ok((format!("commute certificate REJECTED: {reason}\n"), 1)),
            },
            other => Err(format!(
                "unknown certificate format {other:?} (moc-shard-cert|moc-commute-cert)"
            )),
        };
    }
    let h = load_history(args, stdin)?;
    let cert_path = args
        .positional
        .get(1)
        .ok_or("expected a certificate file (or `-` for stdin)")?;
    let cert_text = if cert_path == "-" {
        if args.positional.first().map(String::as_str) == Some("-") {
            return Err("only one of history and certificate may come from stdin".into());
        }
        stdin.to_string()
    } else {
        std::fs::read_to_string(cert_path).map_err(|e| format!("cannot read {cert_path}: {e}"))?
    };
    match moc_audit::audit(&h, &cert_text) {
        Ok(verdict) => {
            let what = match verdict {
                moc_audit::Verdict::WitnessVerified => {
                    "witness linearization replayed and legality trace matched"
                }
                moc_audit::Verdict::CycleVerified => "~H+ refutation cycle checked edge by edge",
                moc_audit::Verdict::ExhaustionAttested {
                    memo_limited: false,
                } => "exhaustion attestation well-formed and bound (not replayable)",
                moc_audit::Verdict::ExhaustionAttested { memo_limited: true } => {
                    "exhaustion attestation well-formed and bound (not replayable); \
                     the transposition table saturated, so the node budget may reflect \
                     re-exploration rather than state-space size"
                }
            };
            Ok((format!("certificate VALID: {what}\n"), 0))
        }
        Err(reason) => Ok((format!("certificate REJECTED: {reason}\n"), 1)),
    }
}

fn cmd_analyze(args: &Args, _stdin: &str) -> Outcome {
    let workload = args.value("workload").unwrap_or("demo");
    let programs = workload_programs(args, workload)?;
    let mut required = Vec::new();
    if let Some(list) = args.value("require") {
        for tok in list.split(',') {
            required.push(match tok.trim() {
                "oo" => moc_core::constraints::Constraint::Oo,
                "ww" => moc_core::constraints::Constraint::Ww,
                "wo" => moc_core::constraints::Constraint::Wo,
                other => return Err(format!("unknown constraint {other:?} (oo|ww|wo)")),
            });
        }
    }
    let refs: Vec<&moc_core::program::Program> = programs.iter().map(|p| p.as_ref()).collect();
    let set = moc_analyze::analyze_set(&refs, &required);
    let code = severity_code(&set.all_findings());
    let out = format_report(args, || set.render_human(), || set.render_json())?;
    Ok((out, code))
}

/// What `shard` and `commute` share: `pass` run over the `--workload`'s
/// programs with `--max-shard-size` and the `--objects` lower bound.
fn program_set_pass<A>(
    args: &Args,
    pass: fn(&[&moc_core::program::Program], usize, moc_analyze::ShardOptions) -> A,
) -> Result<A, String> {
    let workload = args.value("workload").unwrap_or("demo");
    let programs = workload_programs(args, workload)?;
    let refs: Vec<&moc_core::program::Program> = programs.iter().map(|p| p.as_ref()).collect();
    let opts = moc_analyze::ShardOptions {
        max_shard_size: match args.get::<usize>("max-shard-size", 0)? {
            0 => None,
            n => Some(n),
        },
    };
    // A lower bound: the pass widens the universe to every object the
    // programs reference. It holds about 80 bytes per object at its peak
    // (the universe set, the partition, the report's idle shard).
    let objects = objects_option(args, 1, 80)?;
    Ok(pass(&refs, objects, opts))
}

fn cmd_shard(args: &Args, _stdin: &str) -> Outcome {
    let analysis = program_set_pass(args, moc_analyze::shard_set)?;
    let mut code = severity_code(&analysis.all_findings());
    let mut unenforced = Vec::new();
    if let Some(list) = args.value("require-composition") {
        for tok in list.split(',') {
            let tok = tok.trim();
            match analysis.cert.composition.enforced(tok) {
                Some(true) => {}
                Some(false) => {
                    code = 1;
                    unenforced.push(tok.to_string());
                }
                None => return Err(format!("unknown composition class {tok:?} (oo|ww|wo)")),
            }
        }
    }
    let human = || {
        let mut o = analysis.render_human();
        for tok in &unenforced {
            o.push_str(&format!(
                "required composition class {tok} is NOT enforced per-shard\n"
            ));
        }
        o
    };
    let mut out = format_report(args, human, || analysis.render_json())?;
    write_certificate(args, || analysis.cert.to_json(), &mut out)?;
    Ok((out, code))
}

fn cmd_commute(args: &Args, _stdin: &str) -> Outcome {
    let analysis = program_set_pass(args, moc_analyze::commute_set_with)?;
    let mut code = severity_code(&analysis.all_findings());
    // "Progress" means a *distinct* commuting pair — the same notion
    // MOC0012 lints on (self-pairs don't let anything reorder).
    let progress_missing =
        args.flag("require-progress") && analysis.cert.matrix.num_distinct_commuting_pairs() == 0;
    if progress_missing {
        code = 1;
    }
    let human = || {
        let mut o = analysis.render_human();
        if progress_missing {
            o.push_str("required commutation progress is ABSENT: no distinct pair commutes\n");
        }
        o
    };
    let mut out = format_report(args, human, || analysis.render_json())?;
    write_certificate(args, || analysis.cert.to_json(), &mut out)?;
    Ok((out, code))
}

/// One run of the chaos sweep, reduced to what the sweep cares about.
struct ChaosOutcome {
    /// The run was fault-masked end to end: no anomalies, valid history,
    /// satisfied condition, audited certificate.
    clean: bool,
    /// The checker refuted the history AND the independent auditor
    /// confirmed the refutation certificate (the sabotage-mode goal).
    audited_refutation: bool,
    /// Human-readable diagnosis when not clean.
    detail: String,
    /// Cluster-wide reliable-link totals for the run.
    link: moc_abcast::LinkStats,
    /// Merged group-commit batch statistics for the run.
    batch: moc_abcast::BatchStats,
    /// Completions no invocation was waiting for (double applications).
    orphans: u64,
}

fn chaos_run_one<R: moc_protocol::ReplicaProtocol + 'static>(
    condition: Condition,
    config: &ClusterConfig,
    scripts_in: Vec<moc_protocol::ClientScript>,
) -> ChaosOutcome {
    let report = moc_protocol::run_chaos_cluster::<R>(config, scripts_in);
    let link = report.total_link_stats();
    let batch = report.total_batch_stats();
    let orphans = report.anomalies.orphan_completions;
    let expected_sabotage = config.link.is_some_and(|l| !l.reliable);
    if !report.anomalies.is_clean() && !expected_sabotage {
        return ChaosOutcome {
            clean: false,
            audited_refutation: false,
            detail: format!("anomalies: {:?}", report.anomalies),
            link,
            batch,
            orphans,
        };
    }
    let history = match &report.history {
        Ok(h) => h,
        Err(e) => {
            return ChaosOutcome {
                clean: false,
                audited_refutation: false,
                detail: format!("invalid history: {e}"),
                link,
                batch,
                orphans,
            }
        }
    };
    let limits = SearchLimits::with_max_nodes(5_000_000);
    let (verdict, cert) = match check_certified(history, condition, limits) {
        Ok(v) => v,
        Err(e) => {
            return ChaosOutcome {
                clean: false,
                audited_refutation: false,
                detail: format!("checker error: {e}"),
                link,
                batch,
                orphans,
            }
        }
    };
    let audit = moc_audit::audit(history, &cert.to_text());
    let (clean, audited_refutation, detail) = match (verdict.satisfied, audit) {
        (true, Ok(_)) => (true, false, String::new()),
        (false, Ok(_)) => (
            false,
            true,
            format!(
                "condition VIOLATED (audited): {}",
                verdict.reason.unwrap_or_default()
            ),
        ),
        (_, Err(reject)) => (
            false,
            false,
            format!("certificate rejected by auditor: {reject}"),
        ),
    };
    ChaosOutcome {
        clean,
        audited_refutation,
        detail,
        link,
        batch,
        orphans,
    }
}

/// Renders the consolidated transport/runtime counter block `moc chaos`
/// prints after its sweep: reliable-link totals, group-commit batch
/// statistics and the hosts' orphan-completion tally.
fn counter_block(
    runs: u64,
    link: &moc_abcast::LinkStats,
    batch: &moc_abcast::BatchStats,
    orphans: u64,
) -> String {
    format!(
        "transport/runtime counters ({runs} run{}):\n  link:     {} data frames sent, {} received, {} delivered, {} dup-discarded, {} retransmissions, {} acks sent, {} acks received, {} rejoins\n  ordering: {} submissions stamped in {} batches (occupancy {:.2})\n  host:     {orphans} orphan completions\n",
        if runs == 1 { "" } else { "s" },
        link.data_sent,
        link.data_received,
        link.delivered,
        link.duplicates_discarded,
        link.retransmissions,
        link.acks_sent,
        link.acks_received,
        link.rejoins,
        batch.items_stamped,
        batch.batches_flushed,
        batch.occupancy(),
    )
}

fn cmd_chaos(args: &Args, _stdin: &str) -> Outcome {
    use moc_abcast::LinkConfig;
    use moc_sim::FaultPlan;
    use moc_workload::chaos::{FaultFamily, WorkloadFamily};

    // Faults need a remote hop: at least two processes.
    let processes = args.get_in("processes", 3, 2..)?;
    let ops = args.get::<usize>("ops", 4)?;
    let seeds = args.get::<u64>("seeds", 5)?;
    let seed_base = args.get::<u64>("seed-base", 0)?;
    let sabotage = args.flag("sabotage");
    let max_batch = args.get::<usize>("batch", 1)?;
    let batch_delay_us = args.get::<u64>("batch-delay-us", 100)?;
    if max_batch == 0 {
        return Err("--batch must be at least 1 (1 = batching off)".into());
    }
    let batching = (max_batch > 1).then(|| moc_abcast::BatchConfig {
        max_batch,
        max_delay_ns: batch_delay_us.saturating_mul(1_000),
    });

    let protocols: Vec<&str> = match args.value("protocol").unwrap_or("both") {
        "msc" => vec!["msc"],
        "mlin" => vec!["mlin"],
        "both" => vec!["msc", "mlin"],
        other => return Err(format!("unknown protocol {other:?} (msc|mlin|both)")),
    };
    let abcast = match args.value("abcast").unwrap_or("fixed") {
        "fixed" => "fixed",
        "view" => "view",
        other => return Err(format!("unknown abcast {other:?} (fixed|view)")),
    };
    let families: Vec<FaultFamily> = match args.value("faults") {
        None | Some("all") => FaultFamily::ALL.to_vec(),
        Some("leader-crash") => FaultFamily::LEADER_CRASH.to_vec(),
        Some(list) => list
            .split(',')
            .map(|t| {
                FaultFamily::by_name(t.trim())
                    .ok_or_else(|| format!("unknown fault family {:?}", t.trim()))
            })
            .collect::<Result<_, _>>()?,
    };
    let workloads: Vec<WorkloadFamily> = match args.value("workloads") {
        None | Some("mixed") => vec![WorkloadFamily::Mixed],
        Some("all") => WorkloadFamily::ALL.to_vec(),
        Some(list) => list
            .split(',')
            .map(|t| {
                WorkloadFamily::by_name(t.trim())
                    .ok_or_else(|| format!("unknown workload family {:?}", t.trim()))
            })
            .collect::<Result<_, _>>()?,
    };
    // A run builds its workload's objects, or fewer when `--objects` says
    // so (`spec.num_objects` below): the largest such cluster is probed.
    let most = workloads
        .iter()
        .map(|wl| wl.spec(processes, ops).num_objects.max(1))
        .max()
        .unwrap_or(1);
    let objects = cluster_objects(args, processes, false, most)?;

    // Virtual-time horizon scheduled faults live inside. Generous: the
    // retransmission layer stretches runs well past the fair-weather
    // duration.
    let horizon_ns = (ops as u64)
        .checked_mul(150_000)
        .and_then(|ns| ns.checked_add(500_000))
        .ok_or("--ops is too large for the fault horizon")?;
    if seeds > 0 && seed_base.checked_add(seeds - 1).is_none() {
        return Err("--seed-base + --seeds runs past the largest seed".into());
    }
    let mut out = String::new();
    let mut total = 0u64;
    let mut failures: Vec<String> = Vec::new();
    let mut audited_refutations = 0u64;
    let mut sweep_link = moc_abcast::LinkStats::default();
    let mut sweep_batch = moc_abcast::BatchStats::default();
    let mut sweep_orphans = 0u64;

    for proto in &protocols {
        let condition = match *proto {
            "msc" => Condition::MSequentialConsistency,
            _ => Condition::MLinearizability,
        };
        for family in &families {
            for wl in &workloads {
                let mut clean = 0u64;
                for i in 0..seeds {
                    let seed = seed_base + i;
                    total += 1;
                    let spec = wl.spec(processes, ops);
                    // The leader-crash windows sit mid-horizon; stretch
                    // client think time so submissions actually span the
                    // outage instead of quiescing microseconds in (the
                    // default think time is 100 ns).
                    let think_ns = if FaultFamily::LEADER_CRASH.contains(family) {
                        horizon_ns / (2 * ops.max(1) as u64)
                    } else {
                        spec.think_ns
                    };
                    let spec = WorkloadSpec {
                        num_objects: objects.min(spec.num_objects.max(1)).max(1),
                        think_ns,
                        ..spec
                    };
                    let mut rng = StdRng::seed_from_u64(seed);
                    let s = scripts(&spec, &mut rng);
                    let (plan, link) = if sabotage {
                        // Dedup and retransmission off, duplication on: the
                        // faults reach the protocol unprotected.
                        (FaultPlan::default().with_dup(0.5), LinkConfig::sabotaged())
                    } else {
                        (family.plan(processes, horizon_ns), LinkConfig::default())
                    };
                    let mut config = ClusterConfig::new(spec.num_objects, seed)
                        .with_faults(plan)
                        .with_link(link);
                    if let Some(batch) = batching {
                        config = config.with_batching(batch);
                    }
                    if abcast == "view" {
                        // Suspicion well below the leader-crash windows
                        // (which are fractions of the horizon), so
                        // failover actually fires before the old leader
                        // returns.
                        config = config.with_failover_timeouts(30_000, 240_000);
                    } else if FaultFamily::LEADER_CRASH.contains(family) {
                        // Negative control: the fixed sequencer cannot
                        // fail over, so bound the event count — the run
                        // must FAIL (stall / unfinished ops), not hang.
                        config = config.with_max_events(2_000_000);
                    }
                    let outcome = match (*proto, abcast) {
                        ("msc", "view") => chaos_run_one::<MscOverView>(condition, &config, s),
                        ("msc", _) => chaos_run_one::<MscOverSequencer>(condition, &config, s),
                        (_, "view") => chaos_run_one::<MlinOverView>(condition, &config, s),
                        _ => chaos_run_one::<MlinOverSequencer>(condition, &config, s),
                    };
                    sweep_link.merge(&outcome.link);
                    sweep_batch.merge(&outcome.batch);
                    sweep_orphans += outcome.orphans;
                    if outcome.audited_refutation {
                        audited_refutations += 1;
                    }
                    if outcome.clean {
                        clean += 1;
                    } else if !sabotage {
                        failures.push(format!(
                            "FAIL {proto} abcast={abcast} faults={} workload={} seed={seed}: {}\n  replay: moc chaos --protocol {proto} --abcast {abcast} --faults {} --workloads {} --seed-base {seed} --seeds 1 --processes {processes} --ops {ops} --objects {objects}",
                            family.name(), wl.name(), outcome.detail,
                            family.name(), wl.name(),
                        ));
                    }
                }
                let _ = std::fmt::Write::write_fmt(
                    &mut out,
                    format_args!(
                        "{proto:4} abcast={abcast:5} faults={:<18} workload={:<11} {clean}/{seeds} clean\n",
                        family.name(),
                        wl.name(),
                    ),
                );
                if sabotage {
                    // One pass over the seeds is enough in sabotage mode;
                    // the family axis is overridden anyway.
                    break;
                }
            }
            if sabotage {
                break;
            }
        }
    }

    out.push_str(&counter_block(
        total,
        &sweep_link,
        &sweep_batch,
        sweep_orphans,
    ));
    if sabotage {
        let _ = std::fmt::Write::write_fmt(
            &mut out,
            format_args!(
                "sabotage sweep: {total} runs, {audited_refutations} audited refutation(s)\n"
            ),
        );
        if audited_refutations > 0 {
            out.push_str("SABOTAGE CONFIRMED: the checker refuted the unprotected stack and the auditor upheld the certificates\n");
            return Ok((out, 0));
        }
        out.push_str("SABOTAGE FAILED: no audited refutation found — widen --seeds\n");
        return Ok((out, 1));
    }
    for f in &failures {
        out.push_str(f);
        out.push('\n');
    }
    let _ = std::fmt::Write::write_fmt(
        &mut out,
        format_args!(
            "chaos sweep: {total} runs, {} failures; every clean run's certificate audited\n",
            failures.len()
        ),
    );
    Ok((out, if failures.is_empty() { 0 } else { 1 }))
}

/// Splices the store-buffering gadget into a history: two fresh
/// processes on two fresh objects, each writing its own object and
/// reading the other as unwritten, with overlapping intervals mid-stream.
/// Inadmissible under m-SC and m-lin no matter what the host history
/// does — the sentinel must latch it.
///
/// The processes are the two lowest the history does not use (never the
/// initial m-operation's, `u32::MAX`); the objects are the two past the
/// universe, an error if object ids cannot name them.
fn splice_sabotage(h: &History) -> Result<History, String> {
    use moc_core::mop::{EventTime, MOpClass, MOpRecord};
    use moc_core::{MOpId, ObjectId, ProcessId};

    let horizon = h
        .records()
        .iter()
        .map(|r| r.responded_at.as_nanos())
        .max()
        .unwrap_or(0);
    let used = h.processes();
    let mut fresh = (0..u32::MAX)
        .map(ProcessId::new)
        .filter(|p| !used.contains(p));
    let (Some(a), Some(b)) = (fresh.next(), fresh.next()) else {
        return Err("the --sabotage gadget needs two unused process ids".into());
    };
    let t0 = horizon / 2;
    let (x, y) = gadget_objects(h.num_objects())?;
    let a_id = MOpId::new(a, 0);
    let b_id = MOpId::new(b, 0);
    let mk = |id: MOpId, own: ObjectId, other: ObjectId| MOpRecord {
        id,
        invoked_at: EventTime::from_nanos(t0),
        responded_at: EventTime::from_nanos(t0 + 10),
        ops: [
            moc_core::op::CompletedOp::write(own, 1, id, 1),
            moc_core::op::CompletedOp::read(other, 0, MOpId::INITIAL, 0),
        ]
        .into(),
        outputs: [0].into(),
        treated_as: MOpClass::Update,
        label: "sabotage".into(),
    };
    let mut records = h.records().to_vec();
    records.push(mk(a_id, x, y));
    records.push(mk(b_id, y, x));
    History::new(h.num_objects() + 2, records)
        .map_err(|e| format!("sabotage splice broke the history: {e}"))
}

/// The two objects just past a universe of `num_objects`, or the error
/// that says 32-bit object ids cannot name them.
fn gadget_objects(num_objects: usize) -> Result<(moc_core::ObjectId, moc_core::ObjectId), String> {
    use moc_core::ObjectId;

    let x = u32::try_from(num_objects)
        .ok()
        .filter(|&x| x < u32::MAX)
        .ok_or_else(|| {
            format!(
                "the --sabotage gadget needs two fresh objects past a universe of {num_objects}"
            )
        })?;
    Ok((ObjectId::new(x), ObjectId::new(x + 1)))
}

fn cmd_monitor(args: &Args, stdin: &str) -> Outcome {
    use moc_monitor::{replay, MonitorConfig, MonitorMode, OnlineMonitor};
    use moc_workload::histories::tile_history;
    use std::fmt::Write as _;

    let condition = match args.value("condition").unwrap_or("sc") {
        "sc" => Condition::MSequentialConsistency,
        "lin" => Condition::MLinearizability,
        "normal" => Condition::MNormality,
        other => return Err(format!("unknown condition {other:?} (sc|lin|normal)")),
    };
    let window = args.get_in("window", 4, 1..)?;
    let tiles = args.get_in("tiles", 1, 1..)?;
    let sabotage = args.flag("sabotage");
    if sabotage && condition == Condition::MNormality {
        return Err("the --sabotage gadget targets sc|lin (store buffering is m-normal)".into());
    }

    let mut history = load_history(args, stdin)?;
    if tiles > 1 {
        history = tile_history(&history, tiles);
    }
    if sabotage {
        history = splice_sabotage(&history)?;
    }

    let mut cfg = MonitorConfig::new(condition).with_window(window);
    let cap = match args.value("max-live-nodes") {
        Some(_) => {
            cfg = cfg.with_max_live_nodes(args.get("max-live-nodes", 0)?);
            Some(cfg.max_live_nodes)
        }
        None => None,
    };

    let summary = replay(&history, OnlineMonitor::new(history.num_objects(), cfg));
    let stats = &summary.stats;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "streaming sentinel: condition={condition}, window={window}, {} m-operation(s) ({} events)",
        history.len(),
        stats.invocations + stats.completions,
    );

    // Every rolling certificate self-audits on the spot: the window it
    // certifies travels with it, so the independent auditor can re-accept
    // the cert with no access to the monitor's internals.
    let mut audit_rejections = 0u64;
    for rc in &summary.certs {
        let verdict = match moc_audit::audit(&rc.window(), &rc.cert_text) {
            Ok(_) => "audit ACCEPTED",
            Err(_) => {
                audit_rejections += 1;
                "audit REJECTED"
            }
        };
        let _ = writeln!(
            out,
            "  cert v{} base={} window={} at={}ns {} — {}",
            rc.version,
            rc.base,
            rc.window_len,
            rc.emitted_at_ns,
            if rc.admissible {
                "admissible"
            } else {
                "INADMISSIBLE"
            },
            verdict,
        );
    }

    let mut bound_exceeded = false;
    match summary.mode {
        MonitorMode::Healthy => {
            let _ = writeln!(out, "mode: healthy (full coverage)");
        }
        MonitorMode::Degraded { .. } => {
            let _ = writeln!(
                out,
                "mode: DEGRADED — {} oldest live record(s) force-dropped at the cap, {} skipped \
                 for unresolvable provenance; verdicts cover the rest only",
                stats.force_dropped, stats.skipped,
            );
        }
    }
    let _ = writeln!(
        out,
        "stats: {} completions, {} window check(s), {} cert(s), {} retired, {} deferred, \
         {} force-dropped, {} skipped, {} backpressure event(s), peak live nodes {}",
        stats.completions,
        stats.windows_checked,
        stats.certs_emitted,
        stats.retired,
        stats.deferred,
        stats.force_dropped,
        stats.skipped,
        stats.backpressure_events,
        stats.peak_live_nodes,
    );
    if let Some(cap) = cap {
        if stats.peak_live_nodes > cap {
            bound_exceeded = true;
            let _ = writeln!(
                out,
                "BOUND EXCEEDED: peak live nodes {} > cap {cap}",
                stats.peak_live_nodes
            );
        } else {
            let _ = writeln!(
                out,
                "bound respected: peak live nodes {} <= cap {cap}",
                stats.peak_live_nodes
            );
        }
    }

    if let Some(v) = &summary.violation {
        let culprit = match v.culprit {
            Some(p) => format!("process {p}"),
            None => "unattributed".to_string(),
        };
        let _ = writeln!(
            out,
            "VIOLATION at {}ns ({}ns after the offending event, culprit {culprit}): {}",
            v.at_ns, v.detection_latency_ns, v.detail,
        );
        if let Some(rc) = &v.cert {
            let verdict = match moc_audit::audit(&rc.window(), &rc.cert_text) {
                Ok(_) => "audit ACCEPTED",
                Err(_) => {
                    audit_rejections += 1;
                    "audit REJECTED"
                }
            };
            let _ = writeln!(
                out,
                "  evidence: refutation cert v{} over {} record(s) — {}",
                rc.version, rc.window_len, verdict,
            );
        }
    }

    let detected = summary.violation.is_some();
    let clean = !detected && audit_rejections == 0 && !bound_exceeded;
    if sabotage {
        if detected && audit_rejections == 0 {
            out.push_str("SABOTAGE CONFIRMED: the sentinel latched the spliced gadget\n");
            return Ok((out, 0));
        }
        out.push_str("SABOTAGE FAILED: the sentinel never latched the spliced gadget\n");
        return Ok((out, 1));
    }
    Ok((out, i32::from(!clean)))
}

fn cmd_synth(args: &Args, _stdin: &str) -> Outcome {
    // Replay one pinned registry family.
    if let Some(name) = args.value("family") {
        let family = moc_workload::synth::SynthFamily::by_name(name)
            .ok_or_else(|| format!("unknown synth family {name:?}; try `moc synth --list`"))?;
        return Ok((moc_core::codec::to_text(&family.history()), 0));
    }
    // List the pinned registry.
    if args.flag("list") {
        let mut out = String::new();
        let _ = std::fmt::Write::write_fmt(
            &mut out,
            format_args!(
                "{:<8} {:>8} {:>5}  {}\n",
                "name", "category", "seed", "replay"
            ),
        );
        for f in moc_workload::synth::SynthFamily::ALL {
            let _ = std::fmt::Write::write_fmt(
                &mut out,
                format_args!(
                    "{:<8} {:>8} {:>5}  {}\n",
                    f.name,
                    f.category.tag(),
                    f.seed,
                    f.replay_line()
                ),
            );
        }
        return Ok((out, 0));
    }
    // Verify a checked-in corpus against a fresh hunt.
    if let Some(dir) = args.value("verify") {
        let problems = moc_synth::verify_corpus(std::path::Path::new(dir))?;
        if problems.is_empty() {
            return Ok((format!("synth corpus {dir}: verified, no drift\n"), 0));
        }
        let mut out = format!("synth corpus {dir}: {} problems\n", problems.len());
        for p in &problems {
            out.push_str(p);
            out.push('\n');
        }
        return Ok((out, 1));
    }
    // Hunt. --smoke pins the corpus grammar; otherwise the grammar knobs
    // are free.
    let grammar = if args.flag("smoke") {
        moc_synth::Grammar::smoke()
    } else {
        moc_synth::Grammar {
            seed_base: args.get::<u64>("seed-base", 0)?,
            seeds: args.get::<u64>("seeds", 256)?,
            max_nodes: args.get::<u64>("max-nodes", 200_000)?,
            ..moc_synth::Grammar::smoke()
        }
    };
    let report = moc_synth::hunt(&grammar);
    let mut out = moc_synth::render_report(&report);
    if let Some(dir) = args.value("out") {
        moc_synth::write_corpus(std::path::Path::new(dir), &report)
            .map_err(|e| format!("writing corpus to {dir}: {e}"))?;
        let _ = std::fmt::Write::write_fmt(
            &mut out,
            format_args!(
                "corpus written to {dir}: manifest + {} specimens\n",
                report.specimens.len()
            ),
        );
    }
    Ok((out, 0))
}

fn cmd_render(args: &Args, stdin: &str) -> Outcome {
    let h = load_history(args, stdin)?;
    let width = args.get::<usize>("width", 72)?;
    let out = format!("{}\n{}", render_timeline(&h, width), render_listing(&h));
    Ok((out, 0))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sv(items: &[&str]) -> Vec<String> {
        items.iter().map(|s| s.to_string()).collect()
    }

    fn dispatch(raw: &[String], stdin: &str) -> Result<String, String> {
        dispatch_with_status(raw, stdin).0
    }

    #[test]
    fn no_args_prints_usage() {
        let out = dispatch(&[], "").unwrap();
        assert!(out.contains("USAGE"));
    }

    #[test]
    fn unknown_command_errors() {
        let err = dispatch(&sv(&["frobnicate"]), "").unwrap_err();
        assert!(err.contains("unknown command"));
    }

    #[test]
    fn gen_then_check_serial() {
        let text = dispatch(&sv(&["gen", "--kind", "serial", "--seed", "7"]), "").unwrap();
        assert!(text.starts_with("history v1"));
        let verdict = dispatch(&sv(&["check", "-", "--condition", "lin"]), &text).unwrap();
        assert!(verdict.contains("SATISFIED"), "{verdict}");
    }

    #[test]
    fn run_msc_then_check_sc_and_causal() {
        let text = dispatch(
            &sv(&[
                "run",
                "--protocol",
                "msc",
                "--processes",
                "3",
                "--ops",
                "4",
                "--seed",
                "5",
            ]),
            "",
        )
        .unwrap();
        let sc = dispatch(&sv(&["check", "-", "--condition", "sc"]), &text).unwrap();
        assert!(sc.contains("SATISFIED"), "{sc}");
        let causal = dispatch(&sv(&["check", "-", "--condition", "causal"]), &text).unwrap();
        assert!(causal.contains("SATISFIED"), "{causal}");
    }

    /// `--certificate`, `--witness` and `--minimize` have nothing to give
    /// under `--condition causal`: each is a usage error, not a verdict that
    /// silently ignores it. `--max-nodes` stays accepted.
    #[test]
    fn causal_rejects_the_flags_it_cannot_honour() {
        let text = dispatch(&sv(&["gen", "--kind", "writers", "--k", "2"]), "").unwrap();
        for flag in [&["--certificate", "-"][..], &["--witness"], &["--minimize"]] {
            let mut cmd = sv(&["check", "-", "--condition", "causal"]);
            cmd.extend(sv(flag));
            let (result, code) = dispatch_with_status(&cmd, &text);
            assert_eq!(code, 2, "{flag:?}");
            let expected = format!("{} is not supported with --condition causal", flag[0]);
            assert_eq!(result.unwrap_err(), expected);
        }
        let cmd = sv(&["check", "-", "--condition", "causal", "--max-nodes", "1000"]);
        let (result, code) = dispatch_with_status(&cmd, &text);
        assert_eq!(code, 0);
        assert!(result.unwrap().contains("m-causal consistency: "));
    }

    #[test]
    fn check_with_witness() {
        let text = dispatch(&sv(&["gen", "--kind", "writers", "--k", "2"]), "").unwrap();
        let out = dispatch(
            &sv(&["check", "-", "--condition", "sc", "--witness"]),
            &text,
        )
        .unwrap();
        assert!(out.contains("SATISFIED"));
        assert!(out.contains("witness:"));
        assert!(out.contains("search,"));
    }

    /// `--max-nodes` is the search's budget whatever else is asked for: a
    /// writers history that takes 21 nodes exhausts a budget of 1 on
    /// every condition, with or without a witness, a certificate or a
    /// minimizer.
    #[test]
    fn max_nodes_binds_on_every_route() {
        let text = dispatch(&sv(&["gen", "--kind", "writers", "--k", "3"]), "").unwrap();
        for condition in ["sc", "lin", "normal"] {
            for tail in [
                &[][..],
                &["--witness"],
                &["--minimize"],
                &["--certificate", "-"],
            ] {
                let cmd = sv(&["check", "-", "--condition", condition, "--max-nodes", "1"]);
                let (result, code) = dispatch_with_status(&[&cmd[..], &sv(tail)].concat(), &text);
                assert_eq!(code, 2, "{condition} {tail:?}: {result:?}");
                let err = result.unwrap_err();
                assert!(err.contains("search budget exhausted"), "{err}");
            }
        }
    }

    #[test]
    fn check_minimize_shrinks_violations() {
        // An msc run with enough traffic usually contains a stale query;
        // scan a few seeds for a violating history.
        for seed in 0..30u64 {
            let text = dispatch(
                &sv(&[
                    "run",
                    "--protocol",
                    "msc",
                    "--processes",
                    "3",
                    "--ops",
                    "5",
                    "--seed",
                    &seed.to_string(),
                ]),
                "",
            )
            .unwrap();
            let out = dispatch(
                &sv(&["check", "-", "--condition", "lin", "--minimize"]),
                &text,
            )
            .unwrap();
            if out.contains("VIOLATED") {
                assert!(out.contains("minimized to"), "{out}");
                assert!(out.contains("history v1"), "minimized history printed");
                return;
            }
        }
        panic!("no seed produced a violation to minimize");
    }

    /// `moc gen --kind random` draws the one history grammar: its options
    /// are the grammar's bounds, with spans of at most two objects.
    #[test]
    fn gen_random_draws_the_grammar() {
        let options: [&[&str]; 2] = [
            &[],
            &[
                "--processes",
                "5",
                "--ops",
                "6",
                "--objects",
                "7",
                "--update-frac",
                "0.9",
            ],
        ];
        let bounds = [
            HistoryBounds {
                processes: 3,
                mops_per_process: 4,
                objects: 4,
                max_span: 2,
                update_fraction: 0.5,
            },
            HistoryBounds {
                processes: 5,
                mops_per_process: 6,
                objects: 7,
                max_span: 2,
                update_fraction: 0.9,
            },
        ];
        for (tail, bounds) in options.into_iter().zip(bounds) {
            for seed in 0..8u64 {
                let cmd = sv(&["gen", "--kind", "random", "--seed", &seed.to_string()]);
                let out = dispatch(&[&cmd[..], &sv(tail)].concat(), "").unwrap();
                let h = arb::history(&mut StdRng::seed_from_u64(seed), &bounds);
                assert_eq!(out, to_text(&h), "seed {seed} {tail:?}");
            }
        }
    }

    #[test]
    fn render_produces_timeline() {
        let text = dispatch(&sv(&["gen", "--kind", "serial", "--ops", "2"]), "").unwrap();
        let out = dispatch(&sv(&["render", "-", "--width", "50"]), &text).unwrap();
        assert!(out.contains("P0"));
        assert!(out.contains('['));
    }

    #[test]
    fn random_histories_often_violate() {
        // Not asserted per-seed (some random histories are consistent);
        // just exercise the path end to end.
        let text = dispatch(&sv(&["gen", "--kind", "random", "--seed", "3"]), "").unwrap();
        let out = dispatch(
            &sv(&["check", "-", "--condition", "sc", "--max-nodes", "200000"]),
            &text,
        );
        match out {
            Ok(verdict) => assert!(verdict.contains("m-sequential consistency")),
            // Random provenance may yield a cyclic relation or exhaust the
            // budget; both surface as clean errors.
            Err(e) => assert!(e.contains("budget") || e.contains("cyclic"), "{e}"),
        }
    }

    #[test]
    fn unknown_options_are_usage_errors() {
        let text = dispatch(&sv(&["gen", "--kind", "writers", "--k", "3"]), "").unwrap();
        let base = dispatch(&sv(&["check", "-", "--condition", "sc"]), &text).unwrap();
        assert!(
            base.contains("replay: moc check - --condition sc --max-nodes 5000000"),
            "{base}"
        );
        // A removed option and a misspelt one: neither may run the check
        // with defaults as if it had been understood.
        for (bad, value) in [("--threads", "4"), ("--max-node", "10")] {
            let (res, code) = dispatch_with_status(&sv(&["check", "-", bad, value]), &text);
            let err = res.unwrap_err();
            assert_eq!(code, 2, "{err}");
            assert!(err.contains(bad) && err.contains("moc check"), "{err}");
        }
        // Flag-style (valueless) options go through the same table.
        let (res, code) = dispatch_with_status(&sv(&["synth", "--lisst"]), "");
        let err = res.unwrap_err();
        assert_eq!(code, 2, "{err}");
        assert!(
            err.contains("--lisst") && err.contains("moc synth"),
            "{err}"
        );
        assert!(dispatch(&sv(&["synth", "--list"]), "").is_ok());
        // Every row declares each option once and rejects the rest.
        for cmd in COMMANDS {
            let mut names: Vec<_> = cmd.declared_options().map(|(name, _)| name).collect();
            let declared = names.len();
            names.sort_unstable();
            names.dedup();
            assert_eq!(
                names.len(),
                declared,
                "`moc {}` declares an option twice",
                cmd.name
            );
            let (res, code) = dispatch_with_status(&sv(&[cmd.name, "--no-such-option"]), "");
            let err = res.unwrap_err();
            assert_eq!(code, 2, "{err}");
            assert!(err.contains("unknown option --no-such-option"), "{err}");
        }
    }

    #[test]
    fn bad_options_are_reported() {
        assert!(dispatch(&sv(&["gen", "--kind", "nope"]), "").is_err());
        assert!(dispatch(&sv(&["run", "--protocol", "nope"]), "").is_err());
        assert!(dispatch(
            &sv(&["check", "-", "--condition", "nope"]),
            "history v1\nobjects 0\nend\n"
        )
        .is_err());
        assert!(dispatch(&sv(&["check"]), "").is_err());
        assert!(dispatch(&sv(&["gen", "--ops", "NaN"]), "").is_err());
    }

    #[test]
    fn analyze_demo_emits_expected_lints() {
        let (out, code) = dispatch_with_status(&sv(&["analyze"]), "");
        let out = out.unwrap();
        assert!(out.contains("MOC0001"), "unreachable instruction:\n{out}");
        assert!(out.contains("MOC0002"), "uninitialized register:\n{out}");
        assert!(out.contains("MOC0008"), "constraint certificates:\n{out}");
        assert!(out.contains("program dcas: update"), "{out}");
        assert!(out.contains("program dead-write: query"), "{out}");
        // No --require, so certificates are informational: exit clean.
        assert_eq!(code, 0);
    }

    #[test]
    fn analyze_require_oo_fails_on_demo_set() {
        // The demo set has a query reading objects an update writes, so
        // the OO certificate misses and --require oo is an Error.
        let (out, code) = dispatch_with_status(&sv(&["analyze", "--require", "oo"]), "");
        let out = out.unwrap();
        assert!(out.contains("MOC0007"), "{out}");
        assert_eq!(code, 1);
        // WW is enforced by construction (abcast orders updates).
        let (out, code) = dispatch_with_status(&sv(&["analyze", "--require", "ww"]), "");
        assert!(out.unwrap().contains("MOC0008"));
        assert_eq!(code, 0);
    }

    #[test]
    fn analyze_disjoint_workload_certifies_everything() {
        // The disjoint set's query footprint is untouched by every update,
        // so all three constraints certify and the strictest --require
        // passes — the invocation CI runs as a gate.
        let (out, code) = dispatch_with_status(
            &sv(&["analyze", "--workload", "disjoint", "--require", "oo,ww,wo"]),
            "",
        );
        let out = out.unwrap();
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("MOC0008"), "{out}");
        assert!(!out.contains("MOC0007"), "{out}");
    }

    #[test]
    fn analyze_json_format_and_protocol_workload() {
        let (out, code) = dispatch_with_status(
            &sv(&[
                "analyze",
                "--format",
                "json",
                "--workload",
                "protocol",
                "--seed",
                "1",
            ]),
            "",
        );
        let json = out.unwrap();
        assert_eq!(code, 0);
        assert!(json.starts_with('{') && json.ends_with("}\n"), "{json}");
        assert!(json.contains("\"certificates\""), "{json}");
        assert!(json.contains("\"fast_path\""), "{json}");
    }

    #[test]
    fn shard_emits_a_certificate_the_auditor_revalidates() {
        let (out, code) = dispatch_with_status(
            &sv(&[
                "shard",
                "--workload",
                "shardable",
                "--shards",
                "3",
                "--certificate",
                "-",
            ]),
            "",
        );
        let out = out.unwrap();
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("shard 0"), "{out}");
        assert!(out.contains("MOC0008"), "summary finding:\n{out}");
        let cert_line = out
            .lines()
            .rev()
            .find(|l| l.starts_with('{'))
            .expect("certificate JSON in output")
            .to_string();
        assert!(cert_line.contains("moc-shard-cert"), "{cert_line}");

        // The independent auditor re-validates the emitted document.
        let (res, code) = dispatch_with_status(
            &sv(&["audit", "-", "--programs", "shardable", "--shards", "3"]),
            &cert_line,
        );
        assert_eq!(code, 0, "{res:?}");
        assert!(res.unwrap().contains("shard certificate VALID"));

        // A mutated certificate (object moved between shards) is rejected.
        let mut cert = moc_core::shard::ShardCert::parse(&cert_line).unwrap();
        let moved = cert.shards[0].pop().unwrap();
        cert.shards[1].push(moved);
        let (res, code) = dispatch_with_status(
            &sv(&["audit", "-", "--programs", "shardable", "--shards", "3"]),
            &cert.to_json(),
        );
        assert_eq!(code, 1);
        assert!(res.unwrap().contains("REJECTED"));

        // Same for a silently dropped cross-shard edge (forced by a cap).
        let (out, _) = dispatch_with_status(
            &sv(&[
                "shard",
                "--workload",
                "hub",
                "--max-shard-size",
                "2",
                "--certificate",
                "-",
            ]),
            "",
        );
        let cert_line = out
            .unwrap()
            .lines()
            .rev()
            .find(|l| l.starts_with('{'))
            .unwrap()
            .to_string();
        let mut cert = moc_core::shard::ShardCert::parse(&cert_line).unwrap();
        assert!(!cert.cross_edges.is_empty(), "cap forces cross edges");
        cert.cross_edges.pop();
        let (res, code) =
            dispatch_with_status(&sv(&["audit", "-", "--programs", "hub"]), &cert.to_json());
        assert_eq!(code, 1);
        assert!(res.unwrap().contains("dropped"));
    }

    #[test]
    fn commute_emits_a_certificate_the_auditor_revalidates() {
        let (out, code) = dispatch_with_status(
            &sv(&["commute", "--workload", "disjoint", "--certificate", "-"]),
            "",
        );
        let out = out.unwrap();
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("commutes"), "{out}");
        let cert_line = out
            .lines()
            .rev()
            .find(|l| l.starts_with('{'))
            .expect("certificate JSON in output")
            .to_string();
        assert!(cert_line.contains("moc-commute-cert"), "{cert_line}");

        // The auditor dispatches on the format tag and re-validates.
        let (res, code) =
            dispatch_with_status(&sv(&["audit", "-", "--programs", "disjoint"]), &cert_line);
        assert_eq!(code, 0, "{res:?}");
        assert!(res.unwrap().contains("commute certificate VALID"));

        // A mutated certificate (a mover class flipped) is rejected.
        let mut cert = moc_core::commute::CommuteCert::parse(&cert_line).unwrap();
        use moc_core::commute::MoverClass;
        cert.programs[0].class = match cert.programs[0].class {
            MoverClass::BothMover => MoverClass::NonMover,
            _ => MoverClass::BothMover,
        };
        let (res, code) = dispatch_with_status(
            &sv(&["audit", "-", "--programs", "disjoint"]),
            &cert.to_json(),
        );
        assert_eq!(code, 1);
        assert!(res.unwrap().contains("REJECTED"));

        // Binding it to the wrong workload is rejected too.
        let (res, code) =
            dispatch_with_status(&sv(&["audit", "-", "--programs", "hub"]), &cert_line);
        assert_eq!(code, 1);
        assert!(res.unwrap().contains("fingerprint"));
    }

    /// Ids that do not fit `u32` are a parse error with the reject exit
    /// code: an `as u32` read would wrap 4294967296 to object 0 and audit
    /// the doctored document as if it were the honest one.
    #[test]
    fn audit_rejects_ids_outside_u32() {
        fn emit(cmd: &str) -> String {
            let (out, code) = dispatch_with_status(
                &sv(&[cmd, "--workload", "shardable", "--certificate", "-"]),
                "",
            );
            assert_eq!(code, 0, "{out:?}");
            let out = out.unwrap();
            out.lines().rfind(|l| l.starts_with('{')).unwrap().into()
        }
        fn audit(cert: &str) -> (String, i32) {
            let (res, code) =
                dispatch_with_status(&sv(&["audit", "-", "--programs", "shardable"]), cert);
            (res.unwrap_or_else(|e| e), code)
        }
        let cases = [
            ("shard", "\"shards\":[[0,", "\"shards\":[[4294967296,"),
            ("commute", "\"cols\":[3,", "\"cols\":[4294967299,"),
            ("commute", "\"reads\":[0,1]", "\"reads\":[4294967296,1]"),
        ];
        for (cmd, honest, wrapped) in cases {
            let cert = emit(cmd);
            let (out, code) = audit(&cert);
            assert_eq!(code, 0, "honest {cmd} certificate: {out}");
            assert!(out.contains("certificate VALID"), "{out}");

            assert!(cert.contains(honest), "{cmd}: {cert}");
            let (out, code) = audit(&cert.replacen(honest, wrapped, 1));
            assert_eq!(code, 1, "{wrapped}: {out}");
            assert!(out.contains("REJECTED") && out.contains("u32"), "{out}");
        }
    }

    #[test]
    fn commute_progress_gate_splits_the_workloads() {
        // Disjoint programs commute freely: the gate passes.
        let (out, code) = dispatch_with_status(
            &sv(&["commute", "--workload", "disjoint", "--require-progress"]),
            "",
        );
        assert_eq!(code, 0, "{out:?}");

        // A one-object universe funnels every program through object 0:
        // no distinct pair commutes (q1's self-pair doesn't count),
        // MOC0012 fires, and the gate fails.
        let (out, code) = dispatch_with_status(
            &sv(&[
                "commute",
                "--workload",
                "protocol",
                "--objects",
                "1",
                "--require-progress",
            ]),
            "",
        );
        let out = out.unwrap();
        assert_eq!(code, 1, "{out}");
        assert!(out.contains("MOC0012"), "{out}");
        assert!(out.contains("ABSENT"), "{out}");
    }

    #[test]
    fn commute_json_wraps_the_certificate() {
        let (out, code) = dispatch_with_status(
            &sv(&["commute", "--workload", "shardable", "--format", "json"]),
            "",
        );
        let json = out.unwrap();
        assert_eq!(code, 0);
        assert!(json.contains("\"certificate\""), "{json}");
        assert!(json.contains("moc-commute-cert"), "{json}");
        assert!(json.contains("\"commuting_pairs\""), "{json}");
        let (result, code) = dispatch_with_status(&sv(&["commute", "--format", "nope"]), "");
        assert!(result.is_err());
        assert_eq!(code, 2);
    }

    #[test]
    fn audit_programs_rejects_untagged_documents() {
        let (result, code) =
            dispatch_with_status(&sv(&["audit", "-", "--programs", "demo"]), "{\"x\":1}");
        assert!(result.is_err());
        assert_eq!(code, 2);
    }

    #[test]
    fn shard_gate_accepts_shardable_and_rejects_hub() {
        // Golden accept: the shardable family composes WW and WO
        // per-shard.
        let (out, code) = dispatch_with_status(
            &sv(&[
                "shard",
                "--workload",
                "shardable",
                "--require-composition",
                "ww,wo",
            ]),
            "",
        );
        assert_eq!(code, 0, "{out:?}");

        // Reject: the hub workload, capped, loses per-shard WW and says
        // why (MOC0010 names the hub object).
        let (out, code) = dispatch_with_status(
            &sv(&[
                "shard",
                "--workload",
                "hub",
                "--max-shard-size",
                "2",
                "--require-composition",
                "ww",
            ]),
            "",
        );
        let out = out.unwrap();
        assert_eq!(code, 1, "{out}");
        assert!(out.contains("NOT enforced"), "{out}");
        assert!(out.contains("MOC0010"), "hub diagnosis:\n{out}");
    }

    #[test]
    fn shard_json_wraps_the_certificate() {
        let (out, code) = dispatch_with_status(
            &sv(&["shard", "--workload", "disjoint", "--format", "json"]),
            "",
        );
        let json = out.unwrap();
        assert_eq!(code, 0);
        assert!(json.contains("\"certificate\""), "{json}");
        assert!(json.contains("moc-shard-cert"), "{json}");
        assert!(json.contains("\"num_shards\""), "{json}");
    }

    #[test]
    fn analyze_bad_flags_exit_2() {
        for bad in [
            sv(&["analyze", "--workload", "nope"]),
            sv(&["analyze", "--format", "nope"]),
            sv(&["analyze", "--require", "nope"]),
        ] {
            let (result, code) = dispatch_with_status(&bad, "");
            assert!(result.is_err());
            assert_eq!(code, 2);
        }
        let (result, code) = dispatch_with_status(&sv(&["frobnicate"]), "");
        assert!(result.is_err());
        assert_eq!(code, 2);
    }

    #[test]
    fn check_emits_certificate_and_audit_validates_it() {
        let text = dispatch(&sv(&["gen", "--kind", "serial", "--seed", "7"]), "").unwrap();
        let out = dispatch(
            &sv(&["check", "-", "--condition", "sc", "--certificate", "-"]),
            &text,
        )
        .unwrap();
        assert!(out.contains("SATISFIED"), "{out}");
        let cert = out
            .lines()
            .find(|l| l.starts_with('{'))
            .expect("certificate JSON in output");
        assert!(cert.contains("\"moc-cert\""), "{cert}");

        // Round-trip through the independent auditor via temp files.
        let dir = std::env::temp_dir().join(format!("moc-cli-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let hist_path = dir.join("history.txt");
        let cert_path = dir.join("cert.json");
        std::fs::write(&hist_path, &text).unwrap();
        std::fs::write(&cert_path, cert).unwrap();
        let (out, code) = dispatch_with_status(
            &sv(&[
                "audit",
                hist_path.to_str().unwrap(),
                cert_path.to_str().unwrap(),
            ]),
            "",
        );
        assert_eq!(code, 0, "{out:?}");
        assert!(out.unwrap().contains("VALID"));

        // A certificate for a different history is rejected with exit 1.
        let other = dispatch(&sv(&["gen", "--kind", "serial", "--seed", "8"]), "").unwrap();
        std::fs::write(&hist_path, &other).unwrap();
        let (out, code) = dispatch_with_status(
            &sv(&[
                "audit",
                hist_path.to_str().unwrap(),
                cert_path.to_str().unwrap(),
            ]),
            "",
        );
        assert_eq!(code, 1);
        assert!(out.unwrap().contains("REJECTED"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn audit_usage_errors_exit_2() {
        let (result, code) = dispatch_with_status(&sv(&["audit"]), "");
        assert!(result.is_err());
        assert_eq!(code, 2);
        let (result, code) =
            dispatch_with_status(&sv(&["audit", "-", "-"]), "history v1\nobjects 0\nend\n");
        assert!(result.is_err());
        assert_eq!(code, 2);
        let (result, code) = dispatch_with_status(&sv(&["audit", "/no/such/file", "c"]), "");
        assert!(result.is_err());
        assert_eq!(code, 2);
    }

    #[test]
    fn chaos_sweep_passes_on_recoverable_faults() {
        let (out, code) = dispatch_with_status(
            &sv(&[
                "chaos",
                "--protocol",
                "both",
                "--faults",
                "lossy,crash",
                "--seeds",
                "2",
                "--ops",
                "3",
            ]),
            "",
        );
        let out = out.unwrap();
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("msc"), "{out}");
        assert!(out.contains("mlin"), "{out}");
        assert!(out.contains("2/2 clean"), "{out}");
        assert!(out.contains("0 failures"), "{out}");
    }

    #[test]
    fn chaos_sabotage_finds_audited_refutations() {
        let (out, code) = dispatch_with_status(
            &sv(&[
                "chaos",
                "--protocol",
                "msc",
                "--sabotage",
                "--seeds",
                "40",
                "--ops",
                "4",
                "--objects",
                "1",
                "--workloads",
                "write-heavy",
            ]),
            "",
        );
        let out = out.unwrap();
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("SABOTAGE CONFIRMED"), "{out}");
    }

    #[test]
    fn chaos_view_abcast_survives_leader_crashes() {
        let (out, code) = dispatch_with_status(
            &sv(&[
                "chaos",
                "--protocol",
                "both",
                "--abcast",
                "view",
                "--faults",
                "leader-crash",
                "--seeds",
                "2",
                "--ops",
                "3",
            ]),
            "",
        );
        let out = out.unwrap();
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("abcast=view"), "{out}");
        assert!(out.contains("leader-crash-repeat"), "{out}");
        assert!(out.contains("0 failures"), "{out}");
    }

    #[test]
    fn chaos_fixed_abcast_fails_detectably_on_leader_crash() {
        let (out, code) = dispatch_with_status(
            &sv(&[
                "chaos",
                "--protocol",
                "msc",
                "--faults",
                "leader-crash-burst",
                "--workloads",
                "write-heavy",
                "--seeds",
                "2",
                "--ops",
                "3",
            ]),
            "",
        );
        let out = out.unwrap();
        assert_eq!(code, 1, "negative control must fail, not hang: {out}");
        assert!(out.contains("FAIL"), "{out}");
        assert!(
            out.contains("--abcast fixed"),
            "replay line carries the abcast flag: {out}"
        );
    }

    #[test]
    fn chaos_bad_flags_exit_2() {
        for bad in [
            sv(&["chaos", "--protocol", "nope"]),
            sv(&["chaos", "--abcast", "nope"]),
            sv(&["chaos", "--faults", "nope"]),
            sv(&["chaos", "--workloads", "nope"]),
            sv(&["chaos", "--processes", "1"]),
            sv(&["chaos", "--batch", "0"]),
            sv(&[
                "chaos",
                "--seed-base",
                "18446744073709551615",
                "--seeds",
                "2",
            ]),
            sv(&["chaos", "--ops", "100000000000000000", "--seeds", "0"]),
        ] {
            let (result, code) = dispatch_with_status(&bad, "");
            assert!(result.is_err(), "{bad:?}");
            assert_eq!(code, 2);
        }
    }

    #[test]
    fn chaos_with_batching_stays_clean_and_prints_counters() {
        let (out, code) = dispatch_with_status(
            &sv(&[
                "chaos",
                "--protocol",
                "msc",
                "--faults",
                "lossy",
                "--workloads",
                "write-heavy",
                "--seeds",
                "2",
                "--ops",
                "4",
                "--batch",
                "4",
            ]),
            "",
        );
        let out = out.unwrap();
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("2/2 clean"), "{out}");
        assert!(
            out.contains("transport/runtime counters (2 runs):"),
            "{out}"
        );
        assert!(out.contains("submissions stamped"), "{out}");
        assert!(out.contains("host:     0 orphan completions"), "{out}");
        // Group commit actually grouped: more items than batches.
        let ordering = out
            .lines()
            .find(|l| l.contains("submissions stamped"))
            .unwrap();
        assert!(!ordering.contains("0 submissions stamped"), "{ordering}");
    }

    /// Bad flag values are usage errors naming the flag — never a panic
    /// inside a workload generator or the cluster harness.
    #[test]
    fn out_of_range_flags_exit_2() {
        let cases: &[(&[&str], &str)] = &[
            (&["run", "--processes", "0"], "--processes"),
            (&["run", "--objects", "0"], "--objects"),
            (&["run", "--update-frac", "2"], "--update-frac"),
            (&["run", "--update-frac", "NaN"], "--update-frac"),
            (&["gen", "--kind", "serial", "--objects", "0"], "--objects"),
            (&["gen", "--kind", "random", "--objects", "0"], "--objects"),
            (&["gen", "--processes", "0"], "--processes"),
            (&["gen", "--update-frac", "-0.5"], "--update-frac"),
            (
                &["analyze", "--workload", "protocol", "--objects", "0"],
                "--objects",
            ),
            (
                &["analyze", "--workload", "protocol", "--update-frac", "2"],
                "--update-frac",
            ),
            (
                &["shard", "--workload", "protocol", "--objects", "0"],
                "--objects",
            ),
            (
                &["commute", "--workload", "protocol", "--objects", "0"],
                "--objects",
            ),
            (
                &["audit", "-", "--programs", "protocol", "--objects", "0"],
                "--objects",
            ),
            (&["chaos", "--processes", "1"], "--processes"),
            (&["monitor", "-", "--tiles", "0"], "--tiles"),
        ];
        for (bad, flag) in cases {
            let (result, code) = dispatch_with_status(&sv(bad), "");
            let err = result.expect_err(&format!("{bad:?}"));
            assert_eq!(code, 2, "{bad:?}");
            assert!(err.contains(flag), "{bad:?}: {err}");
        }
    }

    #[test]
    fn synth_list_names_every_pinned_family() {
        let (out, code) = dispatch_with_status(&sv(&["synth", "--list"]), "");
        let out = out.unwrap();
        assert_eq!(code, 0, "{out}");
        for f in moc_workload::synth::SynthFamily::ALL {
            assert!(out.contains(f.name), "{}: missing from --list", f.name);
            assert!(out.contains(&f.replay_line()), "{}", f.name);
        }
    }

    #[test]
    fn synth_family_replays_through_the_codec() {
        let (out, code) = dispatch_with_status(&sv(&["synth", "--family", "lbi-0"]), "");
        let text = out.unwrap();
        assert_eq!(code, 0);
        let h = moc_core::codec::from_text(&text).expect("replay output parses");
        let pinned = moc_workload::synth::SynthFamily::by_name("lbi-0")
            .unwrap()
            .history();
        assert_eq!(
            moc_core::codec::fingerprint(&h),
            moc_core::codec::fingerprint(&pinned),
            "replayed history matches registry regeneration"
        );
    }

    #[test]
    fn synth_unknown_family_exits_2() {
        let (result, code) = dispatch_with_status(&sv(&["synth", "--family", "nope-9"]), "");
        assert!(result.unwrap_err().contains("unknown synth family"));
        assert_eq!(code, 2);
    }

    #[test]
    fn synth_verify_passes_on_the_golden_corpus() {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/fixtures/synth");
        let (out, code) = dispatch_with_status(&sv(&["synth", "--verify", dir]), "");
        let out = out.unwrap();
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("no drift"), "{out}");
    }

    /// Every fixture history gets a verdict under every condition, and
    /// `moc check` prints what it prints when it also writes the
    /// certificate: one graph, one decision.
    #[test]
    fn check_agrees_with_certificate_on_every_fixture() {
        let fixtures = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/fixtures");
        let mut files = vec![format!("{fixtures}/golden_history.txt")];
        for entry in std::fs::read_dir(format!("{fixtures}/synth")).unwrap() {
            let path = entry.unwrap().path().display().to_string();
            if path.ends_with(".history.txt") {
                files.push(path);
            }
        }
        files.sort();
        assert_eq!(files.len(), 13);
        let cert = std::env::temp_dir().join(format!("moc-one-path-{}.json", std::process::id()));
        let cert = cert.display().to_string();
        for file in &files {
            for condition in ["sc", "lin", "normal"] {
                let plain = sv(&["check", file, "--condition", condition]);
                let (out, code) = dispatch_with_status(&plain, "");
                let out = out.unwrap_or_else(|e| panic!("{file} {condition}: {e}"));
                assert_eq!(code, 0, "{file} {condition}: {out}");
                let certified = [&plain[..], &sv(&["--certificate", &cert])].concat();
                let (certified_out, code) = dispatch_with_status(&certified, "");
                assert_eq!(code, 0, "{file} {condition}");
                assert_eq!(out, certified_out.unwrap(), "{file} {condition}");
            }
        }
        let _ = std::fs::remove_file(&cert);
    }

    #[test]
    fn synth_verify_missing_corpus_errors() {
        let (result, code) =
            dispatch_with_status(&sv(&["synth", "--verify", "/no/such/corpus"]), "");
        assert!(result.is_err());
        assert_eq!(code, 2);
    }

    /// A row for the parsing tests: a positional, two flags and a value.
    static TEST_ROW: Subcommand = Subcommand {
        name: "test",
        positional: "<file>",
        options: "flag key=V tail",
        about: "",
        run: |_, _| Ok((String::new(), 0)),
    };

    #[test]
    fn args_parsing_rules() {
        let a = Args::parse(
            &TEST_ROW,
            &sv(&["file.txt", "--flag", "--key", "v", "--tail"]),
        )
        .unwrap();
        assert_eq!(a.positional, vec!["file.txt"]);
        assert!(a.flag("flag"));
        assert!(a.flag("tail"));
        assert_eq!(a.value("key"), Some("v"));
        // A flag never takes the next word; the last value of a repeated
        // option wins.
        let a = Args::parse(&TEST_ROW, &sv(&["--flag", "f", "--key", "1", "--key", "2"])).unwrap();
        assert_eq!(a.positional, vec!["f"]);
        assert!(a.flag("flag") && !a.flag("tail"));
        assert_eq!(a.value("key"), Some("2"));
        // A valued option needs a value, which is never another option.
        for words in [&["--key"][..], &["--key", "--flag"]] {
            let err = Args::parse(&TEST_ROW, &sv(words)).err().unwrap();
            assert_eq!(err, "--key needs a value (V) for `moc test`");
        }
        let err = Args::parse(&TEST_ROW, &sv(&["--nope"])).err().unwrap();
        assert_eq!(err, "unknown option --nope for `moc test` (see `moc help`)");
    }

    /// A history file for the tests that pass one by name.
    fn history_file(tag: &str) -> String {
        let text = dispatch(&sv(&["gen", "--kind", "writers", "--k", "2"]), "").unwrap();
        let path = std::env::temp_dir().join(format!("moc-{tag}-{}.txt", std::process::id()));
        std::fs::write(&path, text).unwrap();
        path.display().to_string()
    }

    #[test]
    fn a_flag_does_not_take_the_next_word() {
        let file = history_file("flag");
        let (out, code) = dispatch_with_status(&sv(&["check", "--witness", &file]), "");
        let out = out.unwrap();
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("SATISFIED (search,"), "{out}");
        assert!(out.contains("witness: "), "{out}");
        std::fs::remove_file(&file).ok();
    }

    #[test]
    fn a_valued_option_needs_a_value() {
        let file = history_file("valued");
        for tail in [&["--certificate"][..], &["--certificate", "--witness"]] {
            let cmd = [&sv(&["check", &file])[..], &sv(tail)].concat();
            let (result, code) = dispatch_with_status(&cmd, "");
            assert_eq!(code, 2, "{tail:?}: {result:?}");
            let err = result.unwrap_err();
            assert_eq!(err, "--certificate needs a value (PATH|-) for `moc check`");
            assert!(
                !std::path::Path::new("true").exists(),
                "a file named `true`"
            );
        }
        std::fs::remove_file(&file).ok();
    }

    #[test]
    fn only_a_positional_dash_reads_stdin() {
        let cases: &[(&[&str], bool)] = &[
            (&["check", "-"], true),
            (&["check", "-", "--certificate", "-"], true),
            (&["check", "h.txt", "--certificate", "-"], false),
            (&["check", "--witness", "-"], true),
            (&["audit", "h.txt", "-"], true),
            (&["audit", "-", "--programs", "demo"], true),
            (&["shard", "--certificate", "-"], false),
            (&["run", "--seed", "1"], false),
            (&["check", "-", "--no-such-option"], false),
            (&["frobnicate", "-"], false),
            (&[], false),
        ];
        for &(words, stdin) in cases {
            assert_eq!(reads_stdin(&sv(words)), stdin, "{words:?}");
        }
    }

    /// The whole `moc help` text. Every synopsis is generated from its
    /// row, so a change to an option declaration shows here.
    #[test]
    fn help_is_pinned() {
        let (out, code) = dispatch_with_status(&sv(&["help"]), "");
        assert_eq!(code, 0);
        let out = out.unwrap();
        assert_eq!(
            out,
            include_str!("../tests/help.txt"),
            "moc help now reads:\n{out}"
        );
        assert_eq!(dispatch(&[], "").unwrap(), out);
    }

    #[test]
    fn monitor_clean_run_exits_0_with_audited_certs() {
        let text = dispatch(&sv(&["gen", "--kind", "serial", "--seed", "3"]), "").unwrap();
        let (out, code) = dispatch_with_status(
            &sv(&["monitor", "-", "--condition", "lin", "--window", "2"]),
            &text,
        );
        let out = out.unwrap();
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("mode: healthy"), "{out}");
        assert!(out.contains("audit ACCEPTED"), "{out}");
        assert!(!out.contains("audit REJECTED"), "{out}");
        assert!(!out.contains("VIOLATION"), "{out}");
    }

    #[test]
    fn monitor_sabotage_is_caught_and_exits_0() {
        let text = dispatch(&sv(&["gen", "--kind", "serial", "--seed", "4"]), "").unwrap();
        let (out, code) = dispatch_with_status(
            &sv(&[
                "monitor",
                "-",
                "--condition",
                "sc",
                "--window",
                "2",
                "--sabotage",
            ]),
            &text,
        );
        let out = out.unwrap();
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("VIOLATION"), "{out}");
        assert!(out.contains("SABOTAGE CONFIRMED"), "{out}");
    }

    /// A query that reads from a writer invoked after it responded: the
    /// writer is unknown when the query is checked, so the query is
    /// skipped, and the DEGRADED line says skipped, not force-dropped.
    #[test]
    fn monitor_degraded_line_tells_skipped_from_force_dropped() {
        let text = "history v1\nobjects 1\n\
                    mop P0#0 inv=0 resp=10 class=query label=r\n  r o0 1 from=P1#0 @1\n\
                    mop P1#0 inv=20 resp=30 class=update label=w\n  w o0 1 @1\nend\n";
        let (out, code) = dispatch_with_status(
            &sv(&["monitor", "-", "--condition", "sc", "--window", "1"]),
            text,
        );
        let out = out.unwrap();
        assert_eq!(code, 0, "{out}");
        assert!(
            out.contains("DEGRADED — 0 oldest live record(s) force-dropped at the cap, 1 skipped"),
            "{out}"
        );
        assert!(out.contains("0 force-dropped, 1 skipped"), "{out}");
    }

    #[test]
    fn monitor_tiled_stream_stays_bounded_and_degrades() {
        // Nothing retires under m-SC, so a long tiled stream presses on
        // the cap: the sentinel must degrade, never grow past the bound.
        let text = dispatch(&sv(&["gen", "--kind", "writers", "--k", "3"]), "").unwrap();
        let (out, code) = dispatch_with_status(
            &sv(&[
                "monitor",
                "-",
                "--condition",
                "sc",
                "--window",
                "4",
                "--tiles",
                "12",
                "--max-live-nodes",
                "8",
            ]),
            &text,
        );
        let out = out.unwrap();
        assert!(out.contains("bound respected"), "{out}");
        assert!(!out.contains("BOUND EXCEEDED"), "{out}");
        assert!(!out.contains("VIOLATION"), "{out}");
        assert_eq!(code, 0, "{out}");
    }

    #[test]
    fn monitor_rejects_bad_condition_and_sabotaged_normal() {
        let (result, code) = dispatch_with_status(
            &sv(&["monitor", "-", "--condition", "weird"]),
            "history v1\n",
        );
        assert!(result.unwrap_err().contains("unknown condition"));
        assert_eq!(code, 2);
        let (result, code) = dispatch_with_status(
            &sv(&["monitor", "-", "--condition", "normal", "--sabotage"]),
            "history v1\n",
        );
        assert!(result.unwrap_err().contains("sabotage"));
        assert_eq!(code, 2);
        let (result, code) =
            dispatch_with_status(&sv(&["monitor", "-", "--window", "0"]), "history v1\n");
        assert!(result.unwrap_err().contains("--window"));
        assert_eq!(code, 2);
        // The widest window is legal: one check at the end of the stream.
        let text = dispatch(&sv(&["gen", "--kind", "serial", "--seed", "3"]), "").unwrap();
        let (out, code) = dispatch_with_status(
            &sv(&["monitor", "-", "--window", "18446744073709551615"]),
            &text,
        );
        let out = out.unwrap();
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("mode: healthy"), "{out}");
    }

    /// A one-update, one-query history whose writer is process `p`.
    fn writer_then_reader(p: &str) -> String {
        format!(
            "history v1\nobjects 2\nmop {p}#0 inv=0 resp=10 class=update label=a\n  w o0 1 @1\n\
             mop P0#0 inv=20 resp=30 class=query label=b\n  r o0 1 from={p}#0 @1\nend\n"
        )
    }

    /// The initial m-operation's process is not a process a history may
    /// use: reading from it was once taken for reading the initial value,
    /// and a linearizable history was refuted.
    #[test]
    fn check_refuses_the_reserved_process() {
        let (result, code) =
            dispatch_with_status(&sv(&["check", "-"]), &writer_then_reader("P4294967295"));
        let err = result.unwrap_err();
        assert_eq!(code, 2, "{err}");
        assert!(
            err.contains("reserved for the initial m-operation"),
            "{err}"
        );
        for condition in ["lin", "sc", "normal"] {
            let out = dispatch(
                &sv(&["check", "-", "--condition", condition]),
                &writer_then_reader("P4294967294"),
            )
            .unwrap();
            assert!(out.contains("SATISFIED"), "{condition}: {out}");
        }
    }

    /// The gadget takes the two lowest processes the history leaves free
    /// and never wraps: a history on the highest usable process, one with
    /// a gap, and one whose universe leaves no room for two more objects.
    #[test]
    fn sabotage_gadget_takes_free_processes_and_fresh_objects() {
        let only_top =
            "history v1\nobjects 1\nmop P4294967294#0 inv=0 resp=10 class=update label=a\n  \
                        w o0 1 @1\nmop P4294967294#1 inv=20 resp=30 class=query label=b\n  \
                        r o0 1 from=P4294967294#0 @1\nend\n";
        let gapped = &writer_then_reader("P2");
        for (text, gadget) in [(only_top, ["P0#0", "P1#0"]), (gapped, ["P1#0", "P3#0"])] {
            let h = from_text(text).unwrap();
            let spliced = to_text(&splice_sabotage(&h).unwrap());
            for id in gadget {
                assert!(spliced.contains(&format!("mop {id} ")), "{id}: {spliced}");
            }
            let (out, code) = dispatch_with_status(
                &sv(&[
                    "monitor",
                    "-",
                    "--condition",
                    "sc",
                    "--window",
                    "4",
                    "--sabotage",
                ]),
                text,
            );
            let out = out.unwrap();
            assert_eq!(code, 0, "{out}");
            assert!(out.contains("SABOTAGE CONFIRMED"), "{out}");
        }
        let last = u32::MAX - 1;
        assert_eq!(
            gadget_objects(last as usize),
            Ok((
                moc_core::ObjectId::new(last),
                moc_core::ObjectId::new(u32::MAX)
            ))
        );
        for full in [u32::MAX as usize, u32::MAX as usize + 1] {
            let err = gadget_objects(full).unwrap_err();
            assert!(err.contains("two fresh objects"), "{err}");
        }
    }
}
