//! A line-based text format for histories, so executions can be saved,
//! diffed, shipped in bug reports, and re-checked by the `moc` CLI.
//!
//! ```text
//! history v1
//! objects 2
//! mop P0#0 inv=0 resp=10 class=update label=wx
//!   w o0 1 @1
//! mop P1#0 inv=20 resp=30 class=query label=rx
//!   r o0 1 from=P0#0 @1
//! end
//! ```
//!
//! * one `mop` header per m-operation, indented operation lines below it;
//! * objects are `o<index>`; writers are `P<process>#<seq>` or `init`,
//!   the one spelling of the initial m-operation: its process,
//!   `P4294967295`, is refused in an id or a `from=`;
//! * `@<version>` is the object version read/established.
//!
//! [`to_text`] and [`from_text`] round-trip exactly ([`History`] equality
//! up to record order is preserved because order is kept verbatim), labels
//! aside: a label's spaces are written as `_` and an empty label as `-`, an
//! escape that is render-idempotent but not a round trip (`a_b` parses back
//! as `a b`, which renders as `a_b` again).

use crate::error::CoreError;
use crate::history::History;
use crate::ids::{MOpId, ObjectId, ProcessId};
use crate::inline::InlineList;
use crate::mop::{EventTime, MOpClass, MOpRecord};
use crate::op::{CompletedOp, OpKind};

/// Errors produced while parsing the text format.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The header line is missing or names an unsupported version.
    BadHeader(String),
    /// The `objects` line declares more objects than 32-bit object ids
    /// can name.
    TooManyObjects {
        /// 1-based line number.
        line: usize,
        /// The declared count.
        count: u64,
    },
    /// An m-operation id names the process reserved for the initial
    /// m-operation, which the format writes only as `init`.
    ReservedProcess {
        /// 1-based line number.
        line: usize,
    },
    /// A line could not be parsed.
    BadLine {
        /// 1-based line number.
        line: usize,
        /// Description of the problem.
        reason: String,
    },
    /// The reconstructed history failed validation.
    Invalid(CoreError),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::BadHeader(h) => write!(f, "bad header: {h:?}"),
            CodecError::TooManyObjects { line, count } => {
                write!(
                    f,
                    "line {line}: {count} objects do not fit 32-bit object ids"
                )
            }
            CodecError::ReservedProcess { line } => write!(
                f,
                "line {line}: process P{} is reserved for the initial m-operation, written `init`",
                u32::MAX
            ),
            CodecError::BadLine { line, reason } => write!(f, "line {line}: {reason}"),
            CodecError::Invalid(e) => write!(f, "invalid history: {e}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Serializes a history to the text format.
pub fn to_text(h: &History) -> String {
    let lines: usize = h.records().iter().map(|r| r.ops.len() + 1).sum();
    let mut out = String::with_capacity(32 + 40 * lines);
    out.push_str("history v1\nobjects ");
    push_u64(&mut out, h.num_objects() as u64);
    for rec in h.records() {
        out.push_str("\nmop ");
        push_mop_id(&mut out, rec.id);
        out.push_str(" inv=");
        push_u64(&mut out, rec.invoked_at.as_nanos());
        out.push_str(" resp=");
        push_u64(&mut out, rec.responded_at.as_nanos());
        out.push_str(match rec.treated_as {
            MOpClass::Update => " class=update label=",
            MOpClass::Query => " class=query label=",
        });
        if rec.label.is_empty() {
            out.push('-');
        }
        for (i, word) in rec.label.split(' ').enumerate() {
            if i > 0 {
                out.push('_');
            }
            out.push_str(word);
        }
        for op in &rec.ops {
            out.push_str(match op.kind {
                OpKind::Write => "\n  w o",
                OpKind::Read => "\n  r o",
            });
            push_u64(&mut out, op.object.index() as u64);
            out.push(' ');
            push_i64(&mut out, op.value);
            if op.kind == OpKind::Read {
                out.push_str(" from=");
                push_mop_id(&mut out, op.writer);
            }
            out.push_str(" @");
            push_u64(&mut out, op.version);
        }
        if !rec.outputs.is_empty() {
            out.push_str("\n  outputs");
            for &v in &rec.outputs {
                out.push(' ');
                push_i64(&mut out, v);
            }
        }
    }
    out.push_str("\nend\n");
    out
}

/// Appends the decimal digits of `v`: the one integer writer behind
/// [`to_text`] and the checker's certificate text.
pub fn push_u64(out: &mut String, mut v: u64) {
    let mut digits = [0u8; 20];
    let mut start = digits.len();
    loop {
        start -= 1;
        digits[start] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&digits[start..]).expect("ASCII digits"));
}

/// [`push_u64`] for a signed value: `-` first when it is negative.
pub fn push_i64(out: &mut String, v: i64) {
    if v < 0 {
        out.push('-');
    }
    push_u64(out, v.unsigned_abs());
}

/// `P<process>#<seq>`, or `init` for the initial m-operation.
fn push_mop_id(out: &mut String, id: MOpId) {
    if id.is_initial() {
        out.push_str("init");
    } else {
        out.push('P');
        push_u64(out, u64::from(id.process.as_u32()));
        out.push('#');
        push_u64(out, u64::from(id.seq));
    }
}

/// A stable 64-bit fingerprint of a history: FNV-1a over its canonical
/// [`to_text`] serialization. Certificates embed this value so an auditor
/// can verify that a certificate is bound to the history it is presented
/// with (see `docs/CERTIFICATES.md`).
pub fn fingerprint(h: &History) -> u64 {
    fingerprint_of_text(&to_text(h))
}

/// [`fingerprint`] of the history whose canonical [`to_text`] is `text`,
/// for a caller that has rendered it already.
pub fn fingerprint_of_text(text: &str) -> u64 {
    crate::shard::fnv1a(text.as_bytes())
}

fn unescape(s: &str) -> String {
    if s == "-" {
        String::new()
    } else {
        s.replace('_', " ")
    }
}

fn parse_mop_id(s: &str, line: usize) -> Result<MOpId, CodecError> {
    if s == "init" {
        return Ok(MOpId::INITIAL);
    }
    let bad = || CodecError::BadLine {
        line,
        reason: format!("bad m-operation id {s:?}"),
    };
    let rest = s.strip_prefix('P').ok_or_else(bad)?;
    let (p, q) = rest.split_once('#').ok_or_else(bad)?;
    let id = MOpId::new(
        ProcessId::new(p.parse().map_err(|_| bad())?),
        q.parse().map_err(|_| bad())?,
    );
    if id.is_initial() {
        return Err(CodecError::ReservedProcess { line });
    }
    Ok(id)
}

fn parse_object(s: &str, line: usize) -> Result<ObjectId, CodecError> {
    let bad = || CodecError::BadLine {
        line,
        reason: format!("bad object {s:?}"),
    };
    let idx = s.strip_prefix('o').ok_or_else(bad)?;
    Ok(ObjectId::new(idx.parse().map_err(|_| bad())?))
}

fn parse_kv<'a>(tok: &'a str, key: &str, line: usize) -> Result<&'a str, CodecError> {
    tok.strip_prefix(key)
        .and_then(|t| t.strip_prefix('='))
        .ok_or(CodecError::BadLine {
            line,
            reason: format!("expected {key}=…, got {tok:?}"),
        })
}

/// Parses a history from the text format.
///
/// # Errors
///
/// Returns [`CodecError`] on malformed input or if the reconstructed
/// history fails [`History::new`] validation.
pub fn from_text(text: &str) -> Result<History, CodecError> {
    let mut lines = text.lines().enumerate();
    let (_, header) = lines.next().ok_or(CodecError::BadHeader("empty".into()))?;
    if header.trim() != "history v1" {
        return Err(CodecError::BadHeader(header.to_string()));
    }
    let (ln, objects_line) = lines
        .next()
        .ok_or(CodecError::BadHeader("missing objects line".into()))?;
    let count: u64 = objects_line
        .trim()
        .strip_prefix("objects ")
        .and_then(|s| s.parse().ok())
        .ok_or(CodecError::BadLine {
            line: ln + 1,
            reason: "expected `objects <n>`".into(),
        })?;
    let num_objects = u32::try_from(count).map_err(|_| CodecError::TooManyObjects {
        line: ln + 1,
        count,
    })? as usize;

    let mut records: Vec<MOpRecord> = Vec::new();
    for (i, raw) in lines {
        let line_no = i + 1;
        let line = raw.trim_end();
        let trimmed = line.trim_start();
        if trimmed.is_empty() {
            continue;
        }
        if trimmed == "end" {
            break;
        }
        let toks: Vec<&str> = trimmed.split_whitespace().collect();
        match toks[0] {
            "mop" => {
                if toks.len() != 6 {
                    return Err(CodecError::BadLine {
                        line: line_no,
                        reason: "mop header needs 6 tokens".into(),
                    });
                }
                let id = parse_mop_id(toks[1], line_no)?;
                let inv: u64 = parse_kv(toks[2], "inv", line_no)?.parse().map_err(|_| {
                    CodecError::BadLine {
                        line: line_no,
                        reason: "bad inv time".into(),
                    }
                })?;
                let resp: u64 = parse_kv(toks[3], "resp", line_no)?.parse().map_err(|_| {
                    CodecError::BadLine {
                        line: line_no,
                        reason: "bad resp time".into(),
                    }
                })?;
                let class = match parse_kv(toks[4], "class", line_no)? {
                    "update" => MOpClass::Update,
                    "query" => MOpClass::Query,
                    other => {
                        return Err(CodecError::BadLine {
                            line: line_no,
                            reason: format!("bad class {other:?}"),
                        })
                    }
                };
                let label = unescape(parse_kv(toks[5], "label", line_no)?).into();
                records.push(MOpRecord {
                    id,
                    invoked_at: EventTime::from_nanos(inv),
                    responded_at: EventTime::from_nanos(resp),
                    ops: InlineList::new(),
                    outputs: InlineList::new(),
                    treated_as: class,
                    label,
                });
            }
            "w" | "r" => {
                let rec = records.last_mut().ok_or(CodecError::BadLine {
                    line: line_no,
                    reason: "operation before any mop header".into(),
                })?;
                let object = parse_object(toks.get(1).copied().unwrap_or(""), line_no)?;
                let value: i64 =
                    toks.get(2)
                        .and_then(|s| s.parse().ok())
                        .ok_or(CodecError::BadLine {
                            line: line_no,
                            reason: "bad value".into(),
                        })?;
                if toks[0] == "w" {
                    let version = parse_version(toks.get(3), line_no)?;
                    rec.ops
                        .push(CompletedOp::write(object, value, rec.id, version));
                } else {
                    let from = parse_kv(toks.get(3).copied().unwrap_or(""), "from", line_no)?;
                    let writer = parse_mop_id(from, line_no)?;
                    let version = parse_version(toks.get(4), line_no)?;
                    rec.ops
                        .push(CompletedOp::read(object, value, writer, version));
                }
            }
            "outputs" => {
                let rec = records.last_mut().ok_or(CodecError::BadLine {
                    line: line_no,
                    reason: "outputs before any mop header".into(),
                })?;
                rec.outputs = toks[1..]
                    .iter()
                    .map(|s| s.parse())
                    .collect::<Result<_, _>>()
                    .map_err(|_| CodecError::BadLine {
                        line: line_no,
                        reason: "bad output value".into(),
                    })?;
            }
            other => {
                return Err(CodecError::BadLine {
                    line: line_no,
                    reason: format!("unknown directive {other:?}"),
                })
            }
        }
    }
    History::new(num_objects, records).map_err(CodecError::Invalid)
}

fn parse_version(tok: Option<&&str>, line: usize) -> Result<u64, CodecError> {
    let tok = tok.ok_or(CodecError::BadLine {
        line,
        reason: "missing @version".into(),
    })?;
    tok.strip_prefix('@')
        .and_then(|v| v.parse().ok())
        .ok_or(CodecError::BadLine {
            line,
            reason: format!("bad version {tok:?}"),
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::HistoryBuilder;

    fn sample() -> History {
        let x = ObjectId::new(0);
        let y = ObjectId::new(1);
        let mut b = HistoryBuilder::new(2);
        let w = b
            .mop(ProcessId::new(0))
            .at(0, 10)
            .write(x, 1)
            .write(y, 2)
            .label("with space")
            .outputs(vec![7, -3])
            .finish();
        b.mop(ProcessId::new(1))
            .at(20, 30)
            .read_from(x, 1, w)
            .read_init(y)
            .finish();
        b.build().unwrap()
    }

    #[test]
    fn round_trip_preserves_everything() {
        let h = sample();
        let text = to_text(&h);
        let h2 = from_text(&text).unwrap();
        assert_eq!(h.records(), h2.records());
        assert_eq!(h.num_objects(), h2.num_objects());
        // And the text is stable.
        assert_eq!(text, to_text(&h2));
    }

    #[test]
    fn format_looks_as_documented() {
        let text = to_text(&sample());
        assert!(text.starts_with("history v1\nobjects 2\n"));
        assert!(text.contains("mop P0#0 inv=0 resp=10 class=update label=with_space"));
        assert!(text.contains("  w o0 1 @0"));
        assert!(text.contains("  r o1 0 from=init @0"));
        assert!(text.contains("  outputs 7 -3"));
        assert!(text.trim_end().ends_with("end"));
    }

    #[test]
    fn rejects_bad_header() {
        assert!(matches!(from_text(""), Err(CodecError::BadHeader(_))));
        assert!(matches!(
            from_text("history v9\nobjects 1\nend\n"),
            Err(CodecError::BadHeader(_))
        ));
    }

    #[test]
    fn rejects_malformed_lines() {
        let bad = "history v1\nobjects 1\nmop nonsense\nend\n";
        assert!(matches!(from_text(bad), Err(CodecError::BadLine { .. })));
        let bad = "history v1\nobjects 1\n  w o0 1 @1\nend\n";
        assert!(matches!(from_text(bad), Err(CodecError::BadLine { .. })));
        let bad = "history v1\nobjects 1\nwhat o0\nend\n";
        assert!(matches!(from_text(bad), Err(CodecError::BadLine { .. })));
        // Operation lines cut short, a read without its `from=` and a bare
        // `w`, are typed errors, never an out-of-bounds panic.
        let mop = "history v1\nobjects 1\nmop P0#0 inv=0 resp=1 class=update label=a\n";
        for op in ["  r o0 0", "  w"] {
            let bad = format!("{mop}{op}\nend\n");
            let err = from_text(&bad);
            assert!(
                matches!(err, Err(CodecError::BadLine { line: 4, .. })),
                "{op:?}: {err:?}"
            );
        }
    }

    /// An object count 32-bit ids cannot name is a typed error before any
    /// table is sized by it; the largest that fits is read as written.
    #[test]
    fn rejects_object_counts_past_32_bits() {
        for count in [1u64 << 32, 1_000_000_000_000, u64::MAX] {
            let text = format!("history v1\nobjects {count}\nend\n");
            assert_eq!(
                from_text(&text).unwrap_err(),
                CodecError::TooManyObjects { line: 2, count }
            );
        }
        let text = "history v1\nobjects 18446744073709551616\nend\n";
        assert!(matches!(
            from_text(text),
            Err(CodecError::BadLine { line: 2, .. })
        ));
    }

    /// The initial m-operation's process is written `init` and nothing
    /// else: as a record id or a writer it is refused, while the process
    /// below it reads as written.
    #[test]
    fn rejects_the_reserved_process() {
        let text = |id: &str, from: &str| {
            format!(
                "history v1\nobjects 2\nmop {id} inv=0 resp=10 class=update label=a\n  w o0 1 @1\n\
                 mop P0#0 inv=20 resp=30 class=query label=b\n  r o0 1 from={from} @1\nend\n"
            )
        };
        for (id, from, line) in [
            ("P4294967295#0", "P4294967295#0", 3),
            ("P4294967294#0", "P4294967295#0", 6),
            ("P4294967294#0", "P4294967295#3", 6),
        ] {
            assert_eq!(
                from_text(&text(id, from)).unwrap_err(),
                CodecError::ReservedProcess { line },
                "{id} {from}"
            );
        }
        let h = from_text(&text("P4294967294#0", "P4294967294#0")).unwrap();
        assert_eq!(h.len(), 2);
        assert!(to_text(&h).contains("from=P4294967294#0"));
    }

    #[test]
    fn rejects_semantically_invalid_histories() {
        // Reads from a writer that does not exist.
        let bad = "history v1\nobjects 1\nmop P0#0 inv=0 resp=10 class=query label=-\n  r o0 1 from=P9#9 @1\nend\n";
        assert!(matches!(from_text(bad), Err(CodecError::Invalid(_))));
    }

    #[test]
    fn fingerprint_is_stable_and_content_sensitive() {
        let h = sample();
        assert_eq!(
            fingerprint(&h),
            fingerprint(&from_text(&to_text(&h)).unwrap())
        );
        // Any semantic difference moves the fingerprint.
        let mut b = HistoryBuilder::new(2);
        b.mop(ProcessId::new(0))
            .at(0, 10)
            .write(ObjectId::new(0), 1)
            .finish();
        let other = b.build().unwrap();
        assert_ne!(fingerprint(&h), fingerprint(&other));
    }

    #[test]
    fn empty_history_round_trips() {
        let h = HistoryBuilder::new(3).build().unwrap();
        let h2 = from_text(&to_text(&h)).unwrap();
        assert_eq!(h2.len(), 0);
        assert_eq!(h2.num_objects(), 3);
    }
}
