//! `moc check` on hostile histories — an `objects` header no table can be
//! sized by, a record of the reserved process, an operation line cut
//! short — and `moc gen` / `moc run` asked for as many objects, run as a
//! process of its own under a 4 GB address-space limit: each is a typed
//! error and exit code 2, never an allocator abort (134) or a
//! capacity-overflow or out-of-bounds panic (101). The CI "Hostile header
//! gate" and "Hostile id gate" run the same commands against the release
//! binary.

use std::io::Write;
use std::process::{Command, Stdio};

/// Runs `moc check -` on `history` under `ulimit -v 4000000`; returns the
/// exit code and what it printed on stderr.
fn check_limited(history: &str) -> (Option<i32>, String) {
    moc_limited(&["check", "-"], history)
}

/// Runs `moc ARGS` with `history` on stdin under `ulimit -v 4000000`.
fn moc_limited(args: &[&str], history: &str) -> (Option<i32>, String) {
    let script = "ulimit -v 4000000 && exec \"$0\" \"$@\"";
    let mut child = Command::new("sh")
        .args(["-c", script, env!("CARGO_BIN_EXE_moc")])
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("sh starts");
    let mut stdin = child.stdin.take().expect("piped stdin");
    stdin
        .write_all(history.as_bytes())
        .expect("moc reads stdin");
    drop(stdin);
    let out = child.wait_with_output().expect("moc exits");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn hostile_object_headers_exit_2() {
    let cases = [
        ("1000000000000", "do not fit 32-bit object ids"),
        ("18446744073709551615", "do not fit 32-bit object ids"),
        ("4000000000", "cannot allocate the per-object tables"),
    ];
    for (count, says) in cases {
        let (code, stderr) = check_limited(&format!("history v1\nobjects {count}\nend\n"));
        assert_eq!(code, Some(2), "objects {count}: {stderr}");
        assert!(stderr.contains(says), "objects {count}: {stderr}");
    }
    // The control: a header the limit does not bind passes.
    let (code, stderr) = check_limited("history v1\nobjects 4\nend\n");
    assert_eq!(code, Some(0), "{stderr}");
}

/// `moc gen` and `moc run` build a history over `--objects` objects, and
/// `moc shard` / `moc commute` a partition of as many. A count past the
/// 32-bit object ids, or one whose per-object tables the limit cannot
/// hold beside what the command builds with them — the serial store, the
/// grammar's writer lists, the writers' operations, the replicas' stores
/// — is a usage error naming the flag, refused before anything is built:
/// never a panic in a generator (101) or an allocator abort in a
/// generator, a replica store or the shard pass (134).
#[test]
fn hostile_object_counts_exit_2() {
    let mut cases = Vec::new();
    for (count, says) in [
        ("4000000000", "cannot allocate the per-object tables"),
        ("4294967296", "must lie in 1..=4294967295"),
    ] {
        for args in [
            &["gen", "--kind", "serial", "--objects", count][..],
            &["gen", "--kind", "random", "--objects", count],
            &["gen", "--kind", "writers", "--objects", count],
            &["run", "--ops", "1", "--objects", count],
            &["shard", "--objects", count],
            &["commute", "--objects", count],
        ] {
            cases.push((args.to_vec(), says));
        }
    }
    // The history's tables alone fit these; what is built beside them
    // does not. An m-linearizable run's query rounds collect every
    // replica's copy: this seed's aborted once the stores alone fit.
    for args in [
        &["gen", "--kind", "serial", "--objects", "70000000"][..],
        &["gen", "--kind", "random", "--objects", "70000000"],
        &["gen", "--kind", "writers", "--objects", "30000000"],
        &["run", "--ops", "1", "--objects", "30000000"],
        &["run", "--ops", "1", "--objects", "17000000", "--seed", "1"],
    ] {
        cases.push((args.to_vec(), "cannot allocate the per-object tables"));
    }
    for (args, says) in cases {
        let (code, stderr) = moc_limited(&args, "");
        assert_eq!(code, Some(2), "moc {args:?}: {stderr}");
        assert!(stderr.contains("--objects"), "moc {args:?}: {stderr}");
        assert!(stderr.contains(says), "moc {args:?}: {stderr}");
    }
    // The control: a count the limit does not bind generates.
    let (code, stderr) = moc_limited(&["gen", "--kind", "writers", "--objects", "4"], "");
    assert_eq!(code, Some(0), "{stderr}");
    // `moc chaos` builds no more objects than its workloads have, so a
    // large count costs its sweep nothing: it runs.
    let chaos = ["chaos", "--seeds", "1", "--objects", "30000000"];
    let (code, stderr) = moc_limited(&chaos, "");
    assert_eq!(code, Some(0), "moc {chaos:?}: {stderr}");
}

/// Process 4294967295 is the initial m-operation's, written `init`: a
/// record or a writer that names it is invalid input, exit code 2, where
/// a read of it was once taken for a read of the initial value and a
/// linearizable history refuted. The CI "Hostile id gate" runs the same.
#[test]
fn the_reserved_process_exits_2() {
    let history = |p: &str| {
        format!(
            "history v1\nobjects 2\nmop {p}#0 inv=0 resp=10 class=update label=a\n  w o0 1 @1\n\
             mop P0#0 inv=20 resp=30 class=query label=b\n  r o0 1 from={p}#0 @1\n"
        )
    };
    let (code, stderr) = check_limited(&history("P4294967295"));
    assert_eq!(code, Some(2), "{stderr}");
    assert!(
        stderr.contains("reserved for the initial m-operation"),
        "{stderr}"
    );
    let (code, stderr) = check_limited(&history("P4294967294"));
    assert_eq!(code, Some(0), "{stderr}");
}

/// A read line without its `from=` and a bare `w` are parse errors naming
/// the line, exit code 2 from every command that reads a history; they
/// once indexed past the line's tokens and exited 101.
#[test]
fn truncated_operation_lines_exit_2() {
    let cert = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/fixtures/golden_cert.json"
    );
    let mop = "history v1\nobjects 1\nmop P0#0 inv=0 resp=1 class=update label=a\n";
    for op in ["  r o0 0", "  w"] {
        let history = format!("{mop}{op}\nend\n");
        for args in [
            &["check", "-"][..],
            &["audit", "-", cert],
            &["monitor", "-"],
        ] {
            let (code, stderr) = moc_limited(args, &history);
            assert_eq!(code, Some(2), "moc {} on {op:?}: {stderr}", args[0]);
            assert!(
                stderr.contains("line 4"),
                "moc {} on {op:?}: {stderr}",
                args[0]
            );
        }
    }
}
