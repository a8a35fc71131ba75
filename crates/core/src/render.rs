//! ASCII rendering of histories — the textual counterpart of the paper's
//! figure style (one timeline per process, one interval per m-operation).
//!
//! ```text
//! P0 |[w(x)1      ]      [r(y)2 ]
//! P1 |      [w(y)2    ]
//! ```
//!
//! Intended for debugging protocol runs and for the examples' output;
//! the renderer never fails, degrading gracefully for histories that are
//! too dense for the requested width.

use std::fmt::Write as _;

use crate::history::History;

/// Renders one line per process with each m-operation drawn as a bracketed
/// interval `[label ]` positioned proportionally to its invocation and
/// response times. `width` is the number of columns for the time axis
/// (clamped to at least 20).
pub fn render_timeline(h: &History, width: usize) -> String {
    let width = width.max(20);
    let mut out = String::new();
    if h.is_empty() {
        out.push_str("(empty history)\n");
        return out;
    }
    let t_min = h
        .records()
        .iter()
        .map(|r| r.invoked_at.as_nanos())
        .min()
        .unwrap_or(0);
    let t_max = h
        .records()
        .iter()
        .map(|r| r.responded_at.as_nanos())
        .max()
        .unwrap_or(1)
        .max(t_min + 1);
    let span = (t_max - t_min) as f64;
    let col = |t: u64| -> usize {
        (((t - t_min) as f64 / span) * (width.saturating_sub(1)) as f64).round() as usize
    };

    let _ = writeln!(out, "time {t_min}..{t_max} ns, {} m-operations", h.len());
    for p in h.processes() {
        let mut line = vec![b' '; width];
        for &idx in h.by_process(p) {
            let rec = h.record(idx);
            let a = col(rec.invoked_at.as_nanos());
            let b = col(rec.responded_at.as_nanos()).max(a + 1).min(width - 1);
            line[a] = b'[';
            line[b] = b']';
            for c in line.iter_mut().take(b).skip(a + 1) {
                *c = b'-';
            }
            // Overlay the label (or the id) inside the interval.
            let label = if rec.label.is_empty() {
                rec.id.to_string()
            } else {
                rec.label.to_string()
            };
            for (i, ch) in label.bytes().enumerate() {
                let pos = a + 1 + i;
                if pos >= b {
                    break;
                }
                line[pos] = ch;
            }
        }
        let _ = writeln!(
            out,
            "{:<4}|{}",
            p.to_string(),
            String::from_utf8_lossy(&line)
        );
    }
    out
}

/// Renders the history as one m-operation per line in the paper's inline
/// notation, sorted by invocation time.
pub fn render_listing(h: &History) -> String {
    let mut idxs: Vec<_> = h.iter().map(|(i, _)| i).collect();
    idxs.sort_by_key(|&i| (h.record(i).invoked_at, h.record(i).id));
    let mut out = String::new();
    for i in idxs {
        let r = h.record(i);
        let _ = writeln!(
            out,
            "[{:>8} .. {:>8}] {}  {}",
            r.invoked_at.as_nanos(),
            r.responded_at.as_nanos(),
            r.treated_as,
            r.notation()
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::HistoryBuilder;
    use crate::ids::{ObjectId, ProcessId};

    fn sample() -> History {
        let x = ObjectId::new(0);
        let mut b = HistoryBuilder::new(1);
        let w = b
            .mop(ProcessId::new(0))
            .at(0, 50)
            .write(x, 1)
            .label("wx")
            .finish();
        b.mop(ProcessId::new(1))
            .at(60, 100)
            .read_from(x, 1, w)
            .label("rx")
            .finish();
        b.build().unwrap()
    }

    #[test]
    fn timeline_places_intervals() {
        let s = render_timeline(&sample(), 60);
        assert!(s.contains("P0"));
        assert!(s.contains("P1"));
        assert!(s.contains('['));
        assert!(s.contains(']'));
        assert!(s.contains("wx"));
        assert!(s.contains("rx"));
        // P0's interval starts at the left margin; P1's does not.
        let p0_line = s.lines().find(|l| l.starts_with("P0")).unwrap();
        let p1_line = s.lines().find(|l| l.starts_with("P1")).unwrap();
        assert!(p0_line.find('[').unwrap() < p1_line.find('[').unwrap());
    }

    #[test]
    fn listing_sorted_by_invocation() {
        let s = render_listing(&sample());
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("w(x)1"));
        assert!(lines[1].contains("r(x)1"));
        assert!(lines[0].contains("update"));
        assert!(lines[1].contains("query"));
    }

    #[test]
    fn empty_history_renders() {
        let h = HistoryBuilder::new(1).build().unwrap();
        assert!(render_timeline(&h, 40).contains("empty"));
        assert_eq!(render_listing(&h), "");
    }

    #[test]
    fn tiny_width_is_clamped() {
        let s = render_timeline(&sample(), 1);
        assert!(s.lines().count() >= 3);
    }
}
