//! Property tests for the reliable-link sublayer in isolation: under an
//! arbitrary adversarial schedule of deliveries, drops, duplications,
//! reorderings, retransmission ticks and crash-restarts, every payload
//! handed to `send` must reach its destination **exactly once** and in
//! **per-sender FIFO order** — the channel contract the Section 5
//! protocols (and both abcast implementations) are proven against.
//!
//! The run schedules cut each stream into random runs (`send_run`) and
//! let the adversary replay any window of positions already sent as a
//! forged run: one that overlaps positions delivered, or one that lands
//! ahead of a gap. The contract is the same, and the counters must say
//! what happened: `delivered` is the payload count and every other
//! position fed is a counted duplicate.

use moc_abcast::{LinkConfig, LinkMsg, ReliableLink};
use moc_core::ids::ProcessId;
use proptest::prelude::*;

/// An in-flight wire frame: (from, to, msg).
type Frame = (ProcessId, ProcessId, LinkMsg<u64>);

/// Distinct, stream-ordered payload values.
fn encode(sender: usize, receiver: usize, i: u64) -> u64 {
    (sender as u64 + 1) * 1_000_000 + (receiver as u64 + 1) * 10_000 + i
}

/// Positions a data frame carries.
fn positions(msg: &LinkMsg<u64>) -> u64 {
    match msg {
        LinkMsg::Data { .. } => 1,
        LinkMsg::Run { payloads, .. } => payloads.len() as u64,
        _ => 0,
    }
}

/// Interprets `actions` as an adversarial network schedule over `n`
/// link endpoints, then runs a bounded recovery phase (deliver all +
/// tick) and asserts the exactly-once FIFO contract. With `max_run` 1
/// every payload is sent on its own; above it a fresh send is a run of up
/// to `max_run` payloads, and the adversary may forge runs.
fn run_schedule(n: usize, actions: &[(u8, u32)], max_run: usize) {
    let cfg = LinkConfig {
        rto_ns: 1_000,
        max_rto_ns: 8_000,
        ..LinkConfig::default()
    };
    let mut links: Vec<ReliableLink<u64>> = (0..n)
        .map(|p| ReliableLink::new(ProcessId::new(p as u32), n, cfg))
        .collect();
    let mut inflight: Vec<Frame> = Vec::new();
    // delivered[receiver][sender]: payloads surfaced, in order.
    let mut delivered: Vec<Vec<Vec<u64>>> = vec![vec![Vec::new(); n]; n];
    // sent[sender][receiver]: how many payloads entered the stream.
    let mut sent: Vec<Vec<u64>> = vec![vec![0; n]; n];
    // frames[sender]: first-hand data frames; fed[receiver]: data frames
    // and the positions they carried, as fed to `on_wire`.
    let mut frames: Vec<u64> = vec![0; n];
    let mut fed: Vec<(u64, u64)> = vec![(0, 0); n];
    let mut now: u64 = 0;
    let mut feed = |links: &mut [ReliableLink<u64>],
                    inflight: &mut Vec<Frame>,
                    (from, to, msg): Frame,
                    now: u64| {
        let counts = &mut fed[to.index()];
        counts.0 += u64::from(positions(&msg) > 0);
        counts.1 += positions(&msg);
        let mut wire = Vec::new();
        let got = links[to.index()].on_wire(from, msg, now, &mut wire);
        delivered[to.index()][from.index()].extend(got);
        for (dest, m) in wire {
            inflight.push((to, dest, m));
        }
    };

    for &(kind, pick) in actions {
        now += 500;
        match kind % 10 {
            // Deliver an arbitrary in-flight frame (arbitrary order).
            0..=2 => {
                if inflight.is_empty() {
                    continue;
                }
                let idx = pick as usize % inflight.len();
                let frame = inflight.swap_remove(idx);
                feed(&mut links, &mut inflight, frame, now);
            }
            // The network eats a frame.
            3 => {
                if !inflight.is_empty() {
                    let idx = pick as usize % inflight.len();
                    inflight.swap_remove(idx);
                }
            }
            // The network duplicates a frame.
            4 => {
                if !inflight.is_empty() {
                    let idx = pick as usize % inflight.len();
                    let f = inflight[idx].clone();
                    inflight.push(f);
                }
            }
            // Retransmission timers fire everywhere.
            5 => {
                for (i, l) in links.iter_mut().enumerate() {
                    let mut wire = Vec::new();
                    l.on_tick(now, &mut wire);
                    for (dest, m) in wire {
                        inflight.push((ProcessId::new(i as u32), dest, m));
                    }
                }
            }
            // A process crashes and restarts: everything addressed to it
            // is lost, then its rejoin handshake runs.
            6 => {
                let p = pick as usize % n;
                inflight.retain(|&(_, to, _)| to.index() != p);
                let mut wire = Vec::new();
                links[p].on_restart(now, &mut wire);
                for (dest, m) in wire {
                    inflight.push((ProcessId::new(p as u32), dest, m));
                }
            }
            // The adversary forges a run out of a window of positions
            // already sent: it may overlap delivered positions, or land
            // ahead of a gap.
            9 if max_run > 1 => {
                let s = pick as usize % n;
                let r = (s + 1 + (pick as usize / n) % (n - 1)) % n;
                let total = sent[s][r];
                if total == 0 {
                    continue;
                }
                let first = (pick as u64 / 7) % total;
                let len = 1 + (pick as u64 / 11) % (total - first).min(max_run as u64);
                let payloads = (first..first + len).map(|i| encode(s, r, i)).collect();
                let run = LinkMsg::Run {
                    first_seq: first,
                    payloads,
                };
                inflight.push((ProcessId::new(s as u32), ProcessId::new(r as u32), run));
            }
            // Fresh payloads enter some stream: one, or a run.
            _ => {
                let s = pick as usize % n;
                let r = (s + 1 + (pick as usize / n) % (n - 1)) % n;
                let len = 1 + (pick as usize / 16) % max_run;
                let run: Vec<u64> = (0..len as u64)
                    .map(|i| encode(s, r, sent[s][r] + i))
                    .collect();
                sent[s][r] += len as u64;
                frames[s] += 1;
                let mut wire = Vec::new();
                let to = ProcessId::new(r as u32);
                if max_run == 1 {
                    links[s].send(to, run[0], now, &mut wire);
                } else {
                    links[s].send_run(to, run, now, &mut wire);
                }
                for (dest, m) in wire {
                    inflight.push((ProcessId::new(s as u32), dest, m));
                }
            }
        }
    }

    // Recovery: the fault schedule is over; deliver everything and keep
    // ticking until all streams drain. Must converge quickly.
    let mut converged = false;
    for _ in 0..1_000 {
        if inflight.is_empty() && links.iter().all(|l| l.unacked() == 0) {
            converged = true;
            break;
        }
        for frame in std::mem::take(&mut inflight) {
            feed(&mut links, &mut inflight, frame, now);
        }
        now += 10_000; // past the rto cap: every pending timer is due
        for (i, l) in links.iter_mut().enumerate() {
            let mut wire = Vec::new();
            l.on_tick(now, &mut wire);
            for (dest, m) in wire {
                inflight.push((ProcessId::new(i as u32), dest, m));
            }
        }
    }
    assert!(converged, "link failed to drain after the fault schedule");

    for r in 0..n {
        for s in 0..n {
            let expect: Vec<u64> = (0..sent[s][r]).map(|i| encode(s, r, i)).collect();
            assert_eq!(
                delivered[r][s], expect,
                "exactly-once per-sender FIFO from P{s} to P{r}"
            );
        }
    }
    // Frames and payloads are counted apart: a run is one frame sent and
    // one received, and each of its positions is delivered or discarded.
    for (p, link) in links.iter().enumerate() {
        let stats = link.stats();
        let payloads: u64 = (0..n).map(|s| sent[s][p]).sum();
        assert_eq!(stats.data_sent, frames[p], "P{p}: one frame per send");
        assert_eq!(stats.data_received, fed[p].0, "P{p}: frames fed");
        assert_eq!(stats.delivered, payloads, "P{p}: one delivery per payload");
        assert_eq!(
            stats.delivered + stats.duplicates_discarded,
            fed[p].1,
            "P{p}: every other position fed is a counted duplicate"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn link_survives_arbitrary_drop_dup_reorder_schedules(
        n in 2usize..5,
        actions in proptest::collection::vec((any::<u8>(), any::<u32>()), 0..400),
    ) {
        run_schedule(n, &actions, 1);
    }

    /// Streams cut into random runs of up to six payloads, plus forged
    /// runs replaying windows already sent, over the same adversary.
    #[test]
    fn runs_keep_the_link_contract_under_drop_dup_reorder_schedules(
        n in 2usize..5,
        actions in proptest::collection::vec((any::<u8>(), any::<u32>()), 0..400),
    ) {
        run_schedule(n, &actions, 6);
    }

    /// Heavier loss bias: mostly drops and ticks, so almost every payload
    /// must be recovered by retransmission.
    #[test]
    fn link_recovers_under_heavy_loss(
        n in 2usize..4,
        actions in proptest::collection::vec(
            prop_oneof![Just(3u8), Just(3u8), Just(5u8), Just(7u8)].prop_flat_map(|k| {
                (Just(k), any::<u32>())
            }),
            0..300,
        ),
    ) {
        run_schedule(n, &actions, 1);
    }
}
