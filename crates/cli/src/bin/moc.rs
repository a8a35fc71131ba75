//! Thin entry point for the `moc` tool; all logic lives in `moc_cli`.

use std::io::Read;

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    // Read stdin only when a positional argument names it.
    let mut stdin = String::new();
    if moc_cli::reads_stdin(&raw) {
        if let Err(e) = std::io::stdin().read_to_string(&mut stdin) {
            eprintln!("error: cannot read stdin: {e}");
            std::process::exit(2);
        }
    }
    // Exit codes per `moc help`: 0 clean, 1 Error-severity findings in an
    // analysis report, 2 invalid input or usage.
    let (result, code) = moc_cli::dispatch_with_status(&raw, &stdin);
    match result {
        Ok(out) => print!("{out}"),
        Err(e) => eprintln!("error: {e}"),
    }
    std::process::exit(code);
}
