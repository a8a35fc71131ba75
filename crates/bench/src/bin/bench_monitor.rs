//! `cargo run -p moc-bench --bin bench_monitor --release`
//!
//! Measures the streaming consistency sentinel on counters only:
//! completion-to-verdict latency percentiles (virtual stream time) and —
//! the bounded-memory claim — peak live records versus stream length.
//! Wall-clock ingest cost is `benchmark/`'s `verify-stream` workload.
//! Three families: a serial stream tiled 1×..32× that quiesces every few
//! events (m-lin, peak flat), a concurrent-writer stream under m-SC that
//! retires nothing (presses on the live-node cap and degrades instead of
//! growing), and Figure 6 runs of 250..2000 m-operations that never
//! quiesce (m-lin, retirement behind data-ordered cuts keeps the peak at
//! the window's scale). Prints the comparison table and writes the
//! machine-readable results to `BENCH_monitor.json` at the repository
//! root. The file is seed-deterministic: regenerating it reproduces it
//! byte for byte.
//!
//! `--smoke` runs the bounded CI gate instead: the never-quiescent family
//! only, gated on its deterministic counters (peak live nodes under the
//! cap at every length, nothing skipped, every window certified); no JSON
//! is written. Exits nonzero on a gate failure.

use moc_bench::{
    experiment_monitor, experiment_monitor_figure6, monitor_bench_json, monitor_bench_table,
    monitor_smoke,
};

fn main() {
    if std::env::args().any(|a| a == "--smoke") {
        match monitor_smoke() {
            Ok(rows) => {
                println!("{}", monitor_bench_table(&rows));
                println!("monitor smoke gate: PASS");
            }
            Err(failures) => {
                eprintln!("monitor smoke gate: FAIL\n{failures}");
                std::process::exit(1);
            }
        }
        return;
    }

    let mut rows = experiment_monitor(&[1, 2, 4, 8, 16, 32]);
    rows.extend(experiment_monitor_figure6(&[250, 500, 1000, 2000]));
    println!("{}", monitor_bench_table(&rows));

    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_monitor.json");
    let doc = monitor_bench_json(&rows) + "\n";
    std::fs::write(out, doc).expect("write BENCH_monitor.json");
    println!("wrote {out}");
}
