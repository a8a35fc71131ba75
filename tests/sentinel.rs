//! The streaming sentinel against the batch checker on never-quiescent
//! Figure 6 streams: four always-busy processes, so no window is ever
//! checked at a quiescence point and everything the sentinel retires goes
//! behind a data-ordered cut (docs/MONITOR.md §2).

use moc_checker::certificate::{check_certified, Proof};
use moc_checker::conditions::{check, Strategy};
use moc_checker::precedence::{Edge, EdgeKind, PrecedenceGraph};
use moc_checker::{Condition, SearchLimits};
use moc_core::history::{History, HistoryBuilder};
use moc_core::ids::{MOpId, ObjectId, ProcessId};
use moc_core::mop::MOpRecord;
use moc_core::op::CompletedOp;
use moc_core::shard::fnv1a;
use moc_monitor::{replay, MonitorConfig, MonitorMode, OnlineMonitor};
use moc_protocol::{run_cluster, ClusterConfig, MlinOverSequencer};
use moc_sim::{DelayModel, NetworkConfig};
use moc_workload::arb::{history_from_seed, HistoryBounds};
use moc_workload::{scripts, WorkloadSpec};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The history the benchmark's `verify-stream` workload replays (the
/// parameters of `benchmark/src/verify.rs::generate_history`): `mops`
/// m-operations of the Figure 6 protocol on the deterministic simulator,
/// four processes, half of them updates, message delays uniform 1–10 µs.
fn figure6_stream(mops: usize, seed: u64) -> History {
    let spec = WorkloadSpec {
        processes: 4,
        ops_per_process: mops / 4,
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

/// `moc_monitor::replay`, but the monitor survives the flush so the test
/// can look at what is still live.
fn stream(h: &History, cfg: MonitorConfig) -> OnlineMonitor {
    stream_records(h.records(), h.num_objects(), cfg)
}

/// [`stream`] over records no [`History`] need accept.
fn stream_records(records: &[MOpRecord], num_objects: usize, cfg: MonitorConfig) -> OnlineMonitor {
    let mut events: Vec<(u64, u8, usize)> = Vec::with_capacity(2 * records.len());
    for (i, rec) in records.iter().enumerate() {
        events.push((rec.invoked_at.as_nanos(), 1, i));
        events.push((rec.responded_at.as_nanos(), 0, i));
    }
    events.sort_unstable_by_key(|&(t, k, i)| (t, k, records[i].id));
    let mut mon = OnlineMonitor::new(num_objects, cfg);
    for &(t, kind, i) in &events {
        let rec = &records[i];
        if kind == 1 {
            mon.on_invoke(rec.id, t);
        } else {
            mon.on_complete(rec.clone(), t);
        }
    }
    mon.flush(events.last().map_or(0, |e| e.0) + 1);
    mon
}

/// A Figure 6 query can return a value whose writer has not had its own
/// response yet. Such a reader waits for the writer — it is not dropped
/// from coverage — and the stream retires behind cuts although it never
/// quiesces.
#[test]
fn reader_of_an_in_flight_writer_is_deferred_not_dropped() {
    let mut deferred = 0;
    for seed in 40..52 {
        let h = figure6_stream(1000, seed);
        let mon = stream(&h, MonitorConfig::new(Condition::MLinearizability));
        let stats = mon.stats();
        assert!(
            mon.violation().is_none(),
            "seed {seed}: {:?}",
            mon.violation()
        );
        assert_eq!(mon.mode(), MonitorMode::Healthy, "seed {seed}: {stats:?}");
        assert_eq!(stats.skipped, 0, "seed {seed}");
        assert_eq!(stats.provenance_misses, 0, "seed {seed}");
        assert_eq!(
            stats.retired + mon.live_nodes() as u64,
            stats.completions,
            "seed {seed}: every completion is retired or still live"
        );
        assert_eq!(stats.certs_emitted, stats.windows_checked, "seed {seed}");
        assert!(
            stats.peak_live_nodes <= 256,
            "seed {seed}: live state follows the stream ({})",
            stats.peak_live_nodes
        );
        deferred += stats.deferred;
    }
    assert!(
        deferred > 0,
        "no seed exercised a reader ahead of its writer"
    );
}

/// The external reads of `h` that a mutant can make stale, as (record,
/// operation) positions: those that did not read the initial value.
fn stale_read_sites(h: &History) -> Vec<(usize, usize)> {
    let mut sites = Vec::new();
    for (r, rec) in h.records().iter().enumerate() {
        for (o, op) in rec.ops.iter().enumerate() {
            if op.is_read() && op.writer != rec.id && op.writer != MOpId::INITIAL {
                sites.push((r, o));
            }
        }
    }
    sites
}

/// The stale-read mutant of `h` at `site`: that read re-pointed at the
/// writer that established the object's previous version (the initial
/// value when there is none), value and version with it. `None` when
/// [`History::new`] rejects the result.
fn stale_read_mutant(h: &History, (r, o): (usize, usize)) -> Option<History> {
    let op = &h.records()[r].ops[o];
    let older = (h.records().iter().flat_map(|w| w.final_writes()))
        .filter(|w| w.object == op.object && w.version < op.version)
        .max_by_key(|w| w.version);
    let stale = older.map_or(CompletedOp::read(op.object, 0, MOpId::INITIAL, 0), |w| {
        CompletedOp::read(op.object, w.value, w.writer, w.version)
    });
    let mut records = h.records().to_vec();
    records[r].ops[o] = stale;
    History::new(h.num_objects(), records).ok()
}

/// ROADMAP 4(c): the window-by-window verdict is an independent derivation
/// of the batch verdict. On the clean stream and on stale-read mutants of
/// it, under every condition and at windows 1, 4 and 16, a run that ends
/// `Healthy` latches exactly when the batch checker refutes, and no run
/// latches on a history the batch checker accepts. m-SC and m-normality
/// retire nothing, so each of their windows re-checks the whole stream:
/// they take every fourth history only.
#[test]
fn sentinel_and_batch_checker_agree_on_stale_read_mutants() {
    let (mut replays, mut refuted, mut degraded) = (0, 0, 0);
    // The workspace suite runs unoptimised inside a one-minute budget: a
    // third of the streams, every 128th of a stream's some 300 sites. CI's
    // release run of this file takes all 15 streams and every 16th site.
    let (streams, stride) = if cfg!(debug_assertions) {
        (5, 128)
    } else {
        (15, 16)
    };
    for seed in 0..streams {
        let clean = figure6_stream(200, seed);
        let sites = stale_read_sites(&clean);
        let sampled = sites.iter().skip(seed as usize % stride).step_by(stride);
        let mutants: Vec<History> = sampled
            .filter_map(|&site| stale_read_mutant(&clean, site))
            .collect();
        for (n, h) in std::iter::once(&clean).chain(&mutants).enumerate() {
            let conditions = [
                Condition::MLinearizability,
                Condition::MSequentialConsistency,
                Condition::MNormality,
            ];
            for condition in &conditions[..if n % 4 == 0 { 3 } else { 1 }] {
                let condition = *condition;
                let batch = check(h, condition, Strategy::Auto).expect("a batch verdict");
                refuted += u64::from(!batch.satisfied);
                for window in [1, 4, 16] {
                    let cfg = MonitorConfig::new(condition).with_window(window);
                    let run = replay(h, OnlineMonitor::new(h.num_objects(), cfg));
                    replays += 1;
                    let latched = run.violation.is_some();
                    degraded += u64::from(run.mode != MonitorMode::Healthy);
                    let agree = if run.mode == MonitorMode::Healthy {
                        latched != batch.satisfied
                    } else {
                        !latched || !batch.satisfied
                    };
                    assert!(
                        agree,
                        "seed {seed}, mutant {n}, {condition}, window {window}: \
                         sentinel {:?}, batch {:?}",
                        run.violation.map(|v| v.detail),
                        batch.reason
                    );
                }
            }
        }
    }
    assert!(
        refuted > 0,
        "no mutant was a violation: the test is vacuous"
    );
    assert!(
        degraded * 20 <= replays,
        "{degraded} of {replays} replays escaped the comparison by degrading"
    );
}

/// The sentinel against the batch checker on small arbitrary histories
/// (overlapping intervals, free read provenance), under every condition
/// at windows 1, 2 and 4: a run that ends `Healthy` latches exactly when
/// the batch checker refutes, and no run latches on an admissible history,
/// `Degraded` runs included.
#[test]
fn sentinel_and_batch_checker_agree_on_arbitrary_histories() {
    let seeds = if cfg!(debug_assertions) { 1000 } else { 4000 };
    let bounds = HistoryBounds::default();
    let conditions = [
        Condition::MLinearizability,
        Condition::MSequentialConsistency,
        Condition::MNormality,
    ];
    let (mut refuted, mut healthy_refuted) = (0, 0);
    for seed in 0..seeds {
        let h = history_from_seed(seed, &bounds);
        for condition in conditions {
            let batch = check(&h, condition, Strategy::Auto).expect("a batch verdict");
            refuted += u64::from(!batch.satisfied);
            for window in [1, 2, 4] {
                let cfg = MonitorConfig::new(condition).with_window(window);
                let run = replay(&h, OnlineMonitor::new(h.num_objects(), cfg));
                let latched = run.violation.is_some();
                let healthy = run.mode == MonitorMode::Healthy;
                healthy_refuted += u64::from(healthy && !batch.satisfied);
                assert!(
                    !(latched && batch.satisfied) && (!healthy || latched != batch.satisfied),
                    "seed {seed}, {condition}, window {window}, {:?}: sentinel {:?}, batch {:?}",
                    run.mode,
                    run.violation.map(|v| v.detail),
                    batch.reason
                );
            }
        }
    }
    assert!(
        refuted > 0 && healthy_refuted > 0,
        "{refuted} refuted, {healthy_refuted} refuted and Healthy: the test is vacuous"
    );
}

/// ROADMAP 4: the m-lin graph holds `~t` as its transitive reduction. On
/// the 4 × 500 history `verify-batch` checks, that is a few edges per
/// record and process where the pairs themselves are about n²/2, and each
/// one is a real-time pair.
#[test]
fn real_time_edges_of_a_figure6_history_are_linear_in_its_length() {
    let h = figure6_stream(2000, 3);
    let graph = PrecedenceGraph::for_condition(&h, Condition::MLinearizability);
    let real_time: Vec<&Edge> = (graph.edges().iter())
        .filter(|e| e.kind == EdgeKind::RealTime)
        .collect();
    assert!(
        real_time.len() <= 2 * 4 * h.len(),
        "{} real-time edges over {} records",
        real_time.len(),
        h.len()
    );
    assert!(moc_core::relations::real_time(&h).edge_count() > h.len() * h.len() / 3);
    for e in real_time {
        assert!(h.record(e.from).responded_at < h.record(e.to).invoked_at);
    }
}

/// What a run leaves that a faster sentinel must not move: windows
/// checked, certificates emitted, peak live set, peak window, and the
/// FNV-1a of every certified window's text and certificate, concatenated.
type Pinned = (u64, u64, usize, usize, u64);

/// The sentinel's output, pinned byte for byte: the three histories a
/// `verify-stream` repetition at seed 41 replays (seeds 123–125) under
/// m-lin, and a 200-record stream each under m-SC and m-normality, all at
/// the default configuration. Assembling, saturating, checking or retiring
/// a window differently fails here the moment one byte of one certificate
/// or one counter moves.
#[test]
fn sentinel_output_is_pinned() {
    let runs: [(Condition, usize, u64, Pinned); 5] = [
        (
            Condition::MLinearizability,
            1000,
            123,
            (17, 17, 109, 113, 6428012725163632549),
        ),
        (
            Condition::MLinearizability,
            1000,
            124,
            (17, 17, 128, 135, 10340819400196568292),
        ),
        (
            Condition::MLinearizability,
            1000,
            125,
            (17, 17, 98, 103, 3163199608277239531),
        ),
        (
            Condition::MSequentialConsistency,
            200,
            123,
            (4, 4, 200, 200, 17487759927041760473),
        ),
        (
            Condition::MNormality,
            200,
            124,
            (4, 4, 200, 200, 4462988288410247952),
        ),
    ];
    for (condition, mops, seed, pinned) in runs {
        let h = figure6_stream(mops, seed);
        let cfg = MonitorConfig::new(condition);
        let run = replay(&h, OnlineMonitor::new(h.num_objects(), cfg));
        assert!(run.violation.is_none(), "{condition}, seed {seed}");
        let mut text = String::new();
        for cert in &run.certs {
            text.push_str(&cert.window_text);
            text.push_str(&cert.cert_text);
        }
        let s = run.stats;
        let got = (
            s.windows_checked,
            s.certs_emitted,
            s.peak_live_nodes,
            s.peak_window,
            fnv1a(text.as_bytes()),
        );
        assert_eq!(got, pinned, "{condition}, {mops} m-ops, seed {seed}");
    }
}

/// The benchmark's negative control (`benchmark/src/verify.rs`): two fresh
/// processes on two fresh objects, each writing its own and reading the
/// other as unwritten, overlapping mid-stream.
fn splice_store_buffering(h: &History) -> History {
    let horizon = h.records().iter().map(|r| r.responded_at.as_nanos()).max();
    let t0 = horizon.unwrap_or(0) / 2;
    let p0 = (h.processes().iter().map(|p| p.as_u32() + 1).max()).unwrap_or(0);
    let x = ObjectId::new(h.num_objects() as u32);
    let y = ObjectId::new(h.num_objects() as u32 + 1);
    let mut gadget = HistoryBuilder::new(h.num_objects() + 2);
    for (p, own, other) in [(p0, x, y), (p0 + 1, y, x)] {
        let mop = gadget.mop(ProcessId::new(p)).at(t0, t0 + 10);
        mop.write(own, 1).read_init(other).finish();
    }
    let gadget = gadget.build().expect("the gadget alone is well-formed");
    let mut records = h.records().to_vec();
    records.extend(gadget.records().iter().cloned());
    History::new(h.num_objects() + 2, records).expect("the gadget touches only fresh objects")
}

/// The gadget is refuted by a `~H+` cycle, by the batch checker and by the
/// sentinel alike, and either certificate passes the auditor against the
/// history (the window) it is bound to.
#[test]
fn spliced_store_buffering_gadget_is_refuted_with_an_auditable_cycle() {
    for seed in 0..3 {
        let clean = figure6_stream(400, seed);
        let bad = splice_store_buffering(&clean);
        // The shape `benchmark/src/verify.rs` splices, should the copy drift:
        // two m-operations more, on two objects more, overlapping.
        let [a, b] = &bad.records()[clean.len()..] else {
            panic!("the gadget is two m-operations");
        };
        assert_eq!(bad.num_objects(), clean.num_objects() + 2);
        assert!(a.invoked_at < b.responded_at && b.invoked_at < a.responded_at);
        let (report, cert) =
            check_certified(&bad, Condition::MLinearizability, SearchLimits::default())
                .expect("a verdict");
        assert!(!report.satisfied, "seed {seed}");
        assert!(matches!(cert.proof, Proof::Cycle(_)), "seed {seed}");
        let verdict = moc_audit::audit(&bad, &cert.to_text());
        assert!(matches!(verdict, Ok(v) if v.is_verified()), "seed {seed}");

        let cfg = MonitorConfig::new(Condition::MLinearizability);
        let run = replay(&bad, OnlineMonitor::new(bad.num_objects(), cfg));
        let latched = run.violation.expect("the sentinel latches the gadget");
        let rolling = latched.cert.expect("a refuted window has a certificate");
        let verdict = moc_audit::audit(&rolling.window(), &rolling.cert_text);
        assert!(matches!(verdict, Ok(v) if v.is_verified()), "seed {seed}");
    }
}

/// What a latched run leaves: the violation's time, culprit, detection
/// latency and the FNV-1a of its detail and of its certificate (version,
/// window length, fingerprint, window and certificate text; 0 without
/// one), then the live set's size, the FNV-1a of the counters and the
/// timeline's length and FNV-1a (both as `{:?}` prints them).
type Latched = (u64, Option<u32>, u64, u64, u64, usize, u64, usize, u64);

fn latched(mon: &OnlineMonitor) -> Latched {
    let v = mon.violation().expect("the run latches");
    let cert = v.cert.as_ref().map_or(0, |c| {
        let text = format!("{} {} {} ", c.version, c.window_len, c.fingerprint);
        fnv1a((text + &c.window_text + &c.cert_text).as_bytes())
    });
    let timeline = mon.timeline();
    (
        v.at_ns,
        v.culprit.map(|p| p.as_u32()),
        v.detection_latency_ns,
        fnv1a(v.detail.as_bytes()),
        cert,
        mon.live_nodes(),
        fnv1a(format!("{:?}", mon.stats()).as_bytes()),
        timeline.len(),
        fnv1a(format!("{timeline:?}").as_bytes()),
    )
}

/// A window's live records are lent to it and given back, not copied: a
/// run that latches leaves the violation, the live set's size, every
/// counter and the timeline exactly as when the window held copies. Three
/// ways to latch, at the default m-lin configuration: a stale read the
/// frontier catches (the first such stale-read mutant of a 200-record
/// stream), the store-buffering gadget the checker refutes, and a window
/// `History::new` rejects (the first write past record 100 re-pointed
/// beyond the object universe), which latches with its records still lent.
#[test]
fn latched_runs_are_pinned() {
    let cfg = || MonitorConfig::new(Condition::MLinearizability);
    let clean = figure6_stream(200, 0);
    let stale = (stale_read_sites(&clean).into_iter())
        .filter_map(|site| stale_read_mutant(&clean, site))
        .map(|h| stream(&h, cfg()))
        .find(|mon| {
            mon.violation()
                .is_some_and(|v| v.detail.contains("stale read"))
        })
        .expect("a stale-read mutant the frontier catches");
    let gadget = stream(&splice_store_buffering(&figure6_stream(400, 0)), cfg());
    let mut records = clean.records().to_vec();
    let mut ops = records[100..].iter_mut().flat_map(|rec| rec.ops.iter_mut());
    let write = ops.find(|op| op.is_write());
    write.expect("a write past record 100").object = ObjectId::new(clean.num_objects() as u32);
    let rejected = stream_records(&records, clean.num_objects(), cfg());
    let detail = rejected.violation().map(|v| v.detail.as_str());
    assert!(
        detail.is_some_and(|d| d.starts_with("window history rejected")),
        "{detail:?}"
    );

    #[rustfmt::skip]
    let runs: [(&str, &OnlineMonitor, Latched); 3] = [
        ("stale read", &stale, (631815, Some(1), 1, 11098324332573399689, 0, 17,
            17973604267357335739, 3, 11195649040131469412)),
        ("store buffering", &gadget, (679734, Some(4), 0, 15785285997131256726,
            2598919392821552275, 70, 11178017789399536431, 4, 3287618288437555285)),
        ("rejected window", &rejected, (170682, Some(1), 0, 1483718809003147757, 0, 64,
            4502662828554495177, 0, 675868731199239589)),
    ];
    for (what, mon, pinned) in runs {
        let detail = mon.violation().map(|v| v.detail.clone());
        assert_eq!(
            latched(mon),
            pinned,
            "{what}: {detail:?}, {:?}, {:?}",
            mon.stats(),
            mon.timeline().last()
        );
    }
}
