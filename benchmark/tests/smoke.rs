//! `run --smoke`: one short repetition of every workload plus every gate,
//! then `compare` of the result with itself.

use std::process::Command;
use std::time::Instant;

#[test]
fn smoke_run_passes_every_gate_and_compares_clean() {
    let exe = env!("CARGO_BIN_EXE_benchmark");
    let out = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke.json");
    let started = Instant::now();
    let run = Command::new(exe)
        .args(["run", "--smoke", "--seed", "2", "--out"])
        .arg(&out)
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&run.stdout);
    assert!(
        run.status.success(),
        "{stdout}\n{}",
        String::from_utf8_lossy(&run.stderr)
    );
    assert!(stdout.contains("all gates passed"));
    assert!(
        started.elapsed().as_secs() < 30,
        "smoke took {:?}",
        started.elapsed()
    );

    let same = Command::new(exe)
        .arg("compare")
        .arg(&out)
        .arg(&out)
        .output()
        .unwrap();
    let table = String::from_utf8_lossy(&same.stdout);
    assert!(same.status.success(), "{table}");
    assert!(
        !table.contains("Worse") && !table.contains("DIFFERENT"),
        "{table}"
    );
    assert_eq!(table.matches("Within").count(), 8 * 4, "{table}");
    assert!(
        table.contains("0 UNRESOLVED") && table.contains("pass"),
        "{table}"
    );
}
