//! `compare <a.json> <b.json>`: two result files of `run --out`, one row
//! per (end-to-end metric, workload), judged against the benchmark's own
//! bounds. Files taken under different settings are refused, and a row on
//! which either file is too unsteady to judge counts as a failure, not as
//! "no regression".

use std::fmt::Write;

use moc_core::json::{self, Json};

use crate::spec::{Better, Metric, END_TO_END, PER_LAYER, WORKLOADS};

/// Per-layer counters that repeat exactly between two runs of one build
/// on a workload where nothing is timing-dependent.
const EXACT: [(&str, &str); 6] = [
    ("upd-blocking", "link.frames_per_op"),
    ("upd-blocking", "protocol.msgs_per_update"),
    ("read-mostly-mlin", "protocol.msgs_per_query"),
    ("verify-batch", "checker.search_nodes"),
    ("verify-batch", "audit.cert_bytes"),
    ("verify-stream", "monitor.windows_checked"),
];

/// What the two files must agree on to be compared at all.
const SAME_SETTINGS: [&str; 5] = [
    "smoke",
    "seconds_per_workload",
    "live_reps",
    "verify_reps",
    "nproc",
];

/// How the second file stands against the first on one row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Better by more than the bound.
    Better,
    /// Worse by more than the bound.
    Worse,
    /// Within the bound either way.
    Within,
    /// Either side's value is unsteadier than the bound: no call.
    Unresolved,
}

/// One file's summary of an end-to-end metric on a workload.
#[derive(Debug, Clone, Copy)]
struct Side {
    /// The metric's value over the repetitions ([`Metric::value`]).
    value: f64,
    /// The repetitions' first and third quartile.
    q1: f64,
    q3: f64,
}

impl Side {
    fn read(doc: &Json, workload: &str, metric: &str) -> Option<Side> {
        let e = entry(doc, workload, "end_to_end", metric)?;
        Some(Side {
            value: num(e, "value")?,
            q1: num(e, "q1")?,
            q3: num(e, "q3")?,
        })
    }

    /// How far from the value (the best repetition's, or the median) the
    /// nearest quarter of the repetitions reaches, as a share of it: a
    /// value that only a freak repetition came near stands far from the
    /// quartile on its side.
    fn unsteadiness(&self) -> f64 {
        let to_quartile = (self.value - self.q1)
            .abs()
            .min((self.value - self.q3).abs());
        to_quartile / self.value.abs()
    }
}

/// Judges values `a` → `b` given the unsteadiness of the unsteadier one.
pub fn judge(a: f64, b: f64, unsteadiness: f64, better: Better, bound: f64) -> Verdict {
    if a == 0.0 || unsteadiness.is_nan() || unsteadiness > bound {
        return Verdict::Unresolved;
    }
    let worsening = match better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    };
    if worsening > bound {
        Verdict::Worse
    } else if worsening < -bound {
        Verdict::Better
    } else {
        Verdict::Within
    }
}

/// A metric's entry in a workload's `section` of a result file.
fn entry<'a>(doc: &'a Json, workload: &str, section: &str, metric: &str) -> Option<&'a Json> {
    doc.get("workloads")?
        .get(workload)?
        .get(section)?
        .get(metric)
}

fn num(entry: &Json, key: &str) -> Option<f64> {
    match entry.get(key)? {
        Json::Num(x) => Some(*x),
        _ => None,
    }
}

fn row(out: &mut String, workload: &str, m: &Metric, a: Side, b: Side) -> Verdict {
    let unsteadiness = a.unsteadiness().max(b.unsteadiness());
    let verdict = judge(a.value, b.value, unsteadiness, m.better, m.bound);
    let _ = writeln!(
        out,
        "{:<18} {:<18} {:>12.4} {:>12.4} {:>11.4}–{:<11.4} {:>11.4}–{:<11.4} {:>5.0}%  {:?}",
        workload,
        m.name,
        a.value,
        b.value,
        a.q1,
        a.q3,
        b.q1,
        b.q3,
        m.bound * 100.0,
        verdict
    );
    verdict
}

/// Renders the comparison; the flag says whether the second file fails
/// against the first: a row is worse or unresolved, or an exact counter
/// differs.
pub fn compare(a_text: &str, b_text: &str) -> Result<(String, bool), String> {
    let a = json::parse(a_text).map_err(|e| format!("first file: {e:?}"))?;
    let b = json::parse(b_text).map_err(|e| format!("second file: {e:?}"))?;
    for key in SAME_SETTINGS {
        let get = |doc: &Json| doc.get("environment").and_then(|e| e.get(key)).cloned();
        let (va, vb) = (get(&a), get(&b));
        if va.is_none() || va != vb {
            return Err(format!(
                "the files were not taken under the same settings: {key} is {va:?} and {vb:?}"
            ));
        }
    }
    let mut out = String::new();
    let mut verdicts: Vec<Verdict> = Vec::new();
    let mut missing = 0;
    let _ = writeln!(
        out,
        "{:<18} {:<18} {:>12} {:>12} {:>23} {:>23} {:>6}  verdict",
        "workload", "metric", "value a", "value b", "quartiles a", "quartiles b", "bound"
    );
    for w in &WORKLOADS {
        for m in &END_TO_END {
            let side = |doc: &Json| Side::read(doc, w.name, m.name);
            match (side(&a), side(&b)) {
                (Some(sa), Some(sb)) => verdicts.push(row(&mut out, w.name, m, sa, sb)),
                _ => {
                    let _ = writeln!(out, "{:<18} {:<18} missing from a file", w.name, m.name);
                    missing += 1;
                }
            }
        }
    }
    let count = |v: Verdict| verdicts.iter().filter(|&&x| x == v).count();
    let _ = writeln!(out, "\nexact counters");
    let mut different = 0;
    for (workload, metric) in EXACT {
        debug_assert!(PER_LAYER.iter().any(|m| m.name == metric));
        let get = |doc: &Json| num(entry(doc, workload, "per_layer", metric)?, "value");
        let (va, vb) = (get(&a), get(&b));
        let same = va.is_some() && va == vb;
        different += usize::from(!same);
        let _ = writeln!(
            out,
            "{workload:<18} {metric:<28} {va:?} {vb:?}  {}",
            if same { "identical" } else { "DIFFERENT" }
        );
    }
    let failed = count(Verdict::Worse) + count(Verdict::Unresolved) + missing + different > 0;
    let _ = writeln!(
        out,
        "\n{} rows: {} WORSE, {} UNRESOLVED (a value unsteadier than its bound: no call, and no \
         claim of \"no regression\"), {} better, {} within, {missing} missing; {different} exact \
         counters differ: {}",
        verdicts.len() + missing,
        count(Verdict::Worse),
        count(Verdict::Unresolved),
        count(Verdict::Better),
        count(Verdict::Within),
        if failed { "FAIL" } else { "pass" }
    );
    Ok((out, failed))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_direction_bound_and_unsteadiness() {
        use Better::{Higher, Lower};
        assert_eq!(judge(100.0, 104.0, 0.01, Lower, 0.05), Verdict::Within);
        assert_eq!(judge(100.0, 106.0, 0.01, Lower, 0.05), Verdict::Worse);
        assert_eq!(judge(100.0, 94.0, 0.01, Lower, 0.05), Verdict::Better);
        assert_eq!(judge(100.0, 94.0, 0.01, Higher, 0.05), Verdict::Worse);
        assert_eq!(judge(100.0, 106.0, 0.01, Higher, 0.05), Verdict::Better);
        assert_eq!(judge(100.0, 120.0, 0.06, Lower, 0.05), Verdict::Unresolved);
    }

    #[test]
    fn a_value_is_as_unsteady_as_its_quartile_is_far() {
        let side = |value| Side {
            value,
            q1: 80.0,
            q3: 96.0,
        };
        // A best of 100 whose upper quartile is 96, a best of 64 whose
        // lower quartile is 80.
        assert_eq!(side(100.0).unsteadiness(), 0.04);
        assert_eq!(side(64.0).unsteadiness(), 0.25);
    }

    fn file(seconds: f64, throughput: f64) -> String {
        format!(
            r#"{{"environment":{{"smoke":false,"seconds_per_workload":{seconds},"live_reps":20,
            "verify_reps":10,"nproc":2}},"workloads":{{"upd-blocking":{{"end_to_end":
            {{"throughput_ops_s":{{"value":{throughput},"q1":{throughput},"q3":{throughput}}}}}}}}}}}"#
        )
    }

    #[test]
    fn files_of_different_settings_are_refused() {
        let err = compare(&file(10.0, 1.0), &file(5.0, 1.0)).unwrap_err();
        assert!(err.contains("seconds_per_workload"), "{err}");
        let (table, failed) = compare(&file(10.0, 1.0), &file(10.0, 1.0)).unwrap();
        // Every other row is missing from these stubs.
        assert!(failed && table.contains("Within") && table.contains("missing"));
    }
}
