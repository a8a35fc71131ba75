//! The two offline verification workloads: `verify-batch` (checker + core
//! relations + auditor, the way `moc check` and `moc audit` chain them)
//! and `verify-stream` (the streaming sentinel replaying a history).
//!
//! Both are single-threaded and time whole calls into public functions;
//! the live runtime does no work here.

use std::time::Instant;

use crate::procstat::{peak_rss_mb, process_cpu_ticks, US_PER_TICK};
use crate::spec::Mode;
use crate::suite::RepResult;

use moc_checker::certificate::check_certified;
use moc_checker::conditions::{check, Condition, Strategy};
use moc_checker::SearchLimits;
use moc_core::history::{History, HistoryBuilder};
use moc_core::ids::{ObjectId, ProcessId};
use moc_monitor::{replay, MonitorConfig, OnlineMonitor};
use moc_protocol::{run_cluster, ClusterConfig, MlinOverSequencer};
use moc_sim::{DelayModel, NetworkConfig};
use moc_workload::{scripts, WorkloadSpec};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Processes in a generated history.
pub const HISTORY_PROCESSES: usize = 4;
/// m-operations `verify-batch` checks per pass (4 × 500).
pub const BATCH_MOPS: usize = 2000;
/// m-operations `verify-stream` replays per pass (4 × 250).
pub const STREAM_MOPS: usize = 1000;

/// Generates the history a verify workload checks: `mops` m-operations of
/// the Figure 6 protocol on the deterministic simulator, half of them
/// updates, message delays uniform in 1–10 µs. A pure function of
/// `(mops, seed)`.
pub fn generate_history(mops: usize, seed: u64) -> History {
    let spec = WorkloadSpec {
        processes: HISTORY_PROCESSES,
        ops_per_process: mops / HISTORY_PROCESSES,
        update_fraction: 0.5,
        ..WorkloadSpec::default()
    };
    let mut rng = StdRng::seed_from_u64(seed);
    let config = ClusterConfig::new(spec.num_objects, seed).with_network(
        NetworkConfig::with_delay(DelayModel::Uniform {
            lo: 1_000,
            hi: 10_000,
        }),
    );
    run_cluster::<MlinOverSequencer>(&config, scripts(&spec, &mut rng)).history
}

/// Splices the store-buffering gadget into `h`: two fresh processes on two
/// fresh objects, each writing its own object and reading the other as
/// unwritten, overlapping mid-stream. Inadmissible under m-SC and m-lin
/// whatever the host history does.
pub fn splice_store_buffering(h: &History) -> History {
    let horizon = h
        .records()
        .iter()
        .map(|r| r.responded_at.as_nanos())
        .max()
        .unwrap_or(0);
    let next_process = h
        .processes()
        .iter()
        .map(|p| p.as_u32() + 1)
        .max()
        .unwrap_or(0);
    let t0 = horizon / 2;
    let x = ObjectId::new(h.num_objects() as u32);
    let y = ObjectId::new(h.num_objects() as u32 + 1);
    let mut gadget = HistoryBuilder::new(h.num_objects() + 2);
    for (p, own, other) in [(next_process, x, y), (next_process + 1, y, x)] {
        gadget
            .mop(ProcessId::new(p))
            .at(t0, t0 + 10)
            .write(own, 1)
            .read_init(other)
            .label("sabotage")
            .finish();
    }
    let gadget = gadget.build().expect("the gadget alone is well-formed");
    let mut records = h.records().to_vec();
    records.extend(gadget.records().iter().cloned());
    History::new(h.num_objects() + 2, records).expect("the gadget touches only fresh objects")
}

/// Timings and exact counters of one `verify-batch` pass.
#[derive(Debug, Clone, Copy, Default)]
pub struct BatchPass {
    /// `check(h, m-SC, Auto)`.
    pub msc_auto_ns: u64,
    /// `check_certified(h, m-lin, default limits)`.
    pub mlin_certified_ns: u64,
    /// `Certificate::to_text` plus `moc_audit::audit`.
    pub audit_ns: u64,
    /// Search nodes the two checks expanded.
    pub search_nodes: u64,
    /// Size of the m-lin certificate text.
    pub cert_bytes: u64,
    /// Checks whose verdict was not the expected one (of 3).
    pub wrong_verdicts: u64,
}

impl BatchPass {
    /// Wall time of the whole check → certify → audit sequence.
    pub fn total_ns(&self) -> u64 {
        self.msc_auto_ns + self.mlin_certified_ns + self.audit_ns
    }
}

/// Verdicts a `verify-batch` pass makes.
pub const BATCH_CHECKS: u64 = 3;

/// One `verify-batch` pass over `h`, which a correct protocol produced:
/// every verdict must be positive.
pub fn batch_pass(h: &History) -> BatchPass {
    let mut pass = BatchPass::default();
    let t = Instant::now();
    let msc = check(h, Condition::MSequentialConsistency, Strategy::Auto);
    pass.msc_auto_ns = t.elapsed().as_nanos() as u64;
    match &msc {
        Ok(r) if r.satisfied => pass.search_nodes += r.stats.nodes,
        _ => pass.wrong_verdicts += 1,
    }

    let t = Instant::now();
    let mlin = check_certified(h, Condition::MLinearizability, SearchLimits::default());
    pass.mlin_certified_ns = t.elapsed().as_nanos() as u64;
    let Ok((report, cert)) = mlin else {
        pass.wrong_verdicts += 2;
        return pass;
    };
    pass.search_nodes += report.stats.nodes;
    if !report.satisfied {
        pass.wrong_verdicts += 1;
    }

    let t = Instant::now();
    let text = cert.to_text();
    let verdict = moc_audit::audit(h, &text);
    pass.audit_ns = t.elapsed().as_nanos() as u64;
    pass.cert_bytes = text.len() as u64;
    if !matches!(verdict, Ok(v) if v.is_verified()) {
        pass.wrong_verdicts += 1;
    }
    pass
}

/// The negative control of `verify-batch`: the checker must refute a
/// history carrying the store-buffering gadget. Returns the failure.
pub fn batch_negative_control(h: &History) -> Result<(), String> {
    let bad = splice_store_buffering(h);
    match check_certified(&bad, Condition::MLinearizability, SearchLimits::default()) {
        Ok((report, _)) if !report.satisfied => Ok(()),
        Ok(_) => Err("checker accepted a history carrying the store-buffering gadget".into()),
        Err(e) => Err(format!(
            "checker gave no verdict on the sabotaged history: {e}"
        )),
    }
}

/// Counters of one `verify-stream` pass.
#[derive(Debug, Clone, Copy, Default)]
pub struct StreamPass {
    /// `moc_monitor::replay` wall time.
    pub replay_ns: u64,
    /// Window checks the sentinel ran.
    pub windows_checked: u64,
    /// Rolling certificates it emitted.
    pub certs: u64,
    /// Peak of its live (unsettled) set.
    pub peak_live_nodes: u64,
    /// 1 if the sentinel latched a violation on the clean history.
    pub wrong_verdicts: u64,
}

fn sentinel(h: &History) -> OnlineMonitor {
    OnlineMonitor::new(
        h.num_objects(),
        MonitorConfig::new(Condition::MLinearizability),
    )
}

/// One `verify-stream` pass: replays `h` through a fresh sentinel.
pub fn stream_pass(h: &History) -> StreamPass {
    let t = Instant::now();
    let summary = replay(h, sentinel(h));
    StreamPass {
        replay_ns: t.elapsed().as_nanos() as u64,
        windows_checked: summary.stats.windows_checked,
        certs: summary.stats.certs_emitted,
        peak_live_nodes: summary.stats.peak_live_nodes as u64,
        wrong_verdicts: u64::from(summary.violation.is_some()),
    }
}

/// The negative control of `verify-stream`: the sentinel must latch the
/// spliced gadget. Returns the failure.
pub fn stream_negative_control(h: &History) -> Result<(), String> {
    let bad = splice_store_buffering(h);
    if replay(&bad, sentinel(&bad)).violation.is_some() {
        Ok(())
    } else {
        Err("sentinel never latched the spliced store-buffering gadget".into())
    }
}

/// Mean sentinel time per event over the first and the second half of the
/// stream, in ns: the same event order as [`replay`], driven from here so
/// the halves can be timed apart.
pub fn stream_halves_ns_per_event(h: &History) -> (f64, f64) {
    let mut events: Vec<(u64, u8, usize)> = Vec::with_capacity(2 * h.len());
    for (i, rec) in h.records().iter().enumerate() {
        events.push((rec.invoked_at.as_nanos(), 1, i));
        events.push((rec.responded_at.as_nanos(), 0, i));
    }
    events.sort_unstable_by_key(|&(t, k, i)| (t, k, h.records()[i].id));
    let mut mon = sentinel(h);
    let half = events.len() / 2;
    let mut spent = [0u64; 2];
    for (n, &(t, kind, i)) in events.iter().enumerate() {
        let rec = &h.records()[i];
        let start = Instant::now();
        if kind == 1 {
            mon.on_invoke(rec.id, t);
        } else {
            mon.on_complete(rec.clone(), t);
        }
        spent[usize::from(n >= half)] += start.elapsed().as_nanos() as u64;
    }
    let per = |ns: u64, n: usize| ns as f64 / n.max(1) as f64;
    (per(spent[0], half), per(spent[1], events.len() - half))
}

/// Histories a repetition verifies, in turn. What a history costs to verify
/// depends on what the seed generated, by a tenth either way; over three the
/// run-to-run spread that is input, not program, shrinks accordingly.
pub const HISTORIES: u64 = 3;

/// One repetition of a verify workload: generates [`HISTORIES`] histories
/// from the seed (set-up), then makes passes over them in turn until the
/// window is used up. A pass is the unit of latency; its m-operations
/// are the unit of throughput.
pub fn run_rep(stream: bool, seed: u64, window_ns: u64, mode: Mode) -> RepResult {
    let mut r = RepResult::default();
    let mops = if stream { STREAM_MOPS } else { BATCH_MOPS };
    // Runs of neighbouring seeds share no history.
    let history = |i| generate_history(mops, seed.wrapping_mul(HISTORIES).wrapping_add(i));
    if mode == Mode::Audit {
        let control = if stream {
            stream_negative_control(&history(0))
        } else {
            batch_negative_control(&history(0))
        };
        r.attempted = 1;
        if let Err(e) = control {
            r.failed = 1;
            r.errors.push(e);
        }
        return r;
    }
    let histories: Vec<History> = (0..HISTORIES).map(history).collect();

    let cpu_before = process_cpu_ticks();
    let mut fastest_ns = vec![u64::MAX; histories.len()];
    let mut slowest_ns = 0u64;
    let mut spent_ns = 0u64;
    let mut passes = 0u64;
    // One history after the other, round after round; stop where another
    // pass would overshoot the window by more than it undershoots now. (A
    // window shorter than a round, as in a smoke run, leaves the later
    // histories out.)
    while passes == 0 || spent_ns + spent_ns / passes / 2 < window_ns {
        let i = (passes % HISTORIES) as usize;
        let h = &histories[i];
        let (ns, wrong, checks) = if stream {
            let p = stream_pass(h);
            // The per-layer numbers are the first history's, whichever
            // pass comes last.
            if i == 0 {
                r.set("monitor.replay_ms", p.replay_ns as f64 / 1e6);
                r.set("monitor.windows_checked", p.windows_checked as f64);
                r.set("monitor.certs", p.certs as f64);
                r.set("monitor.peak_live_nodes", p.peak_live_nodes as f64);
            }
            (p.replay_ns, p.wrong_verdicts, 1)
        } else {
            let p = batch_pass(h);
            if i == 0 {
                r.set("checker.msc_auto_ms", p.msc_auto_ns as f64 / 1e6);
                r.set(
                    "checker.mlin_certified_ms",
                    p.mlin_certified_ns as f64 / 1e6,
                );
                r.set("checker.search_nodes", p.search_nodes as f64);
                r.set("audit.cert_bytes", p.cert_bytes as f64);
                r.set("audit.ms", p.audit_ns as f64 / 1e6);
            }
            (p.total_ns(), p.wrong_verdicts, BATCH_CHECKS)
        };
        fastest_ns[i] = ns.min(fastest_ns[i]);
        slowest_ns = slowest_ns.max(ns);
        spent_ns += ns;
        passes += 1;
        r.attempted += checks;
        r.failed += wrong;
        if wrong > 0 {
            r.errors
                .push(format!("{wrong} wrong verdict(s) on a correct history"));
        }
    }
    let cpu_ticks = process_cpu_ticks() - cpu_before;
    let verified = (mops as u64 * passes) as f64;
    // The end-to-end values are those of each history's fastest pass (a
    // live repetition's are its best slice's). Every workload reports
    // every end-to-end metric (the driver's contract), but here one busy
    // thread makes whole passes, so the pass time is derived: `mops` /
    // throughput. So is the CPU per m-operation, 1 / throughput over all
    // passes.
    fastest_ns.retain(|&ns| ns != u64::MAX);
    let pass_ns = fastest_ns.iter().sum::<u64>() as f64 / fastest_ns.len() as f64;
    r.set("throughput_ops_s", mops as f64 / (pass_ns / 1e9));
    r.set("latency_p50_us", pass_ns / 1e3);
    r.set("client.latency_p99_us", slowest_ns as f64 / 1e3);
    r.set(
        "client.cpu_us_per_op",
        cpu_ticks as f64 * US_PER_TICK / verified,
    );
    // Memory is per m-operation of a history, as a live repetition's is
    // per operation answered; the peak covers the set-up too, which is
    // small beside a pass.
    r.set("rss_mb_per_mop", peak_rss_mb() / (mops as f64 / 1e6));
    r.extras.insert("measured_ns".into(), spent_ns as f64);
    if stream && mode == Mode::Traced {
        let (first, second) = stream_halves_ns_per_event(&histories[0]);
        r.set("monitor.us_per_event_first_half", first / 1e3);
        r.set("monitor.us_per_event_second_half", second / 1e3);
    }
    r
}
