//! `cargo run -p moc-bench --bin bench_checker --release`
//!
//! Times the naive admissibility search against the precedence-pruned
//! search and the Theorem 7 fast path on the generator families, prints
//! the comparison table and writes the machine-readable results to
//! `BENCH_checker.json` at the repository root.
//!
//! `--smoke` instead runs the CI perf gate: the same families under a
//! small naive budget, with every family's deterministic pruned node
//! count checked against its golden cap (`CHECKER_NODE_CAPS`). Exits
//! non-zero on regression and writes nothing.

use moc_bench::{
    checker_bench_json, checker_bench_table, checker_smoke, experiment_certified_checker,
};

fn main() {
    if std::env::args().any(|a| a == "--smoke") {
        match checker_smoke() {
            Ok(rows) => {
                println!("{}", checker_bench_table(&rows));
                println!("perf smoke PASS: all pruned node counts within golden caps");
            }
            Err(failures) => {
                eprintln!("perf smoke FAIL:\n{failures}");
                std::process::exit(1);
            }
        }
        return;
    }

    let rows = experiment_certified_checker(20_000_000);
    println!("{}", checker_bench_table(&rows));

    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_checker.json");
    let doc = checker_bench_json(&rows) + "\n";
    std::fs::write(out, doc).expect("write BENCH_checker.json");
    println!("wrote {out}");
}
