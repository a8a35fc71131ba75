//! `moc check` on histories whose `objects` header no table can be sized
//! by, run as a process of its own under a 4 GB address-space limit: each
//! is a typed error and exit code 2, never an allocator abort (134) or a
//! capacity-overflow panic (101). The CI "Hostile header gate" runs the
//! same commands against the release binary.

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
