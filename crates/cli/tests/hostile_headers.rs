//! `moc check` on hostile histories — an `objects` header no table can be
//! sized by, a record of the reserved process — run as a process of its
//! own under a 4 GB address-space limit: each is a typed error and exit
//! code 2, never an allocator abort (134) or a capacity-overflow panic
//! (101). The CI "Hostile header gate" and "Hostile id gate" run the same
//! commands against the release binary.

use std::io::Write;
use std::process::{Command, Stdio};

/// Runs `moc check -` on `history` under `ulimit -v 4000000`; returns the
/// exit code and what it printed on stderr.
fn check_limited(history: &str) -> (Option<i32>, String) {
    let script = "ulimit -v 4000000 && exec \"$0\" check -";
    let mut child = Command::new("sh")
        .args(["-c", script, env!("CARGO_BIN_EXE_moc")])
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
