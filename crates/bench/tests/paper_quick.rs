//! `paper_experiments --quick` pinned byte for byte. Every table is a
//! seed-deterministic count or virtual-time figure, so a change to a
//! protocol, the simulator, a search or a workload generator that moves
//! one shows up here. To accept an intended change, regenerate the file:
//! `cargo run -q --release -p moc-bench --bin paper_experiments -- --quick
//! > crates/bench/tests/paper_quick.txt`.

use std::process::Command;

#[test]
fn paper_experiments_quick_is_pinned() {
    let out = Command::new(env!("CARGO_BIN_EXE_paper_experiments"))
        .arg("--quick")
        .output()
        .expect("paper_experiments runs");
    assert!(out.status.success(), "exit {:?}", out.status.code());
    let text = String::from_utf8(out.stdout).expect("utf-8 tables");
    assert_eq!(
        text,
        include_str!("paper_quick.txt"),
        "paper_experiments --quick now reads:\n{text}"
    );
}
