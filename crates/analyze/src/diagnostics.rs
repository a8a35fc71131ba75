//! Analyzer diagnostics: stable lint codes, severities, findings and the
//! human/JSON renderers the `moc analyze` subcommand prints.

use std::fmt;

/// How serious a finding is. Ordering: `Info < Warn < Error`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Informational — analysis facts worth surfacing.
    Info,
    /// Likely bug, does not block.
    Warn,
    /// Blocks: `moc analyze` exits non-zero.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Info => f.write_str("info"),
            Severity::Warn => f.write_str("warn"),
            Severity::Error => f.write_str("error"),
        }
    }
}

/// Stable lint identities. Codes are part of the tool's interface:
/// regression tests and downstream scripts match on them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Lint {
    /// MOC0001: control flow can never reach this instruction.
    UnreachableInstruction,
    /// MOC0002: a register may be read before any instruction writes it
    /// (the interpreter zero-fills, but relying on that is almost always
    /// a program bug).
    UninitializedRead,
    /// MOC0003: the program contains a loop; termination relies on the
    /// interpreter's fuel bound.
    UnboundedLoop,
    /// MOC0004: a register value is overwritten or discarded without ever
    /// being used.
    DeadStore,
    /// MOC0005: every path terminates; carries the static fuel bound.
    GuaranteedTermination,
    /// MOC0006: dataflow refined the syntactic classification (e.g. all
    /// writes are unreachable, demoting an "update" to a query).
    RefinedClassification,
    /// MOC0007: a constraint the caller requires cannot be certified for
    /// this program set.
    ConstraintNotCertified,
    /// MOC0008: a constraint certificate (vacuous or protocol-enforced).
    Certificate,
    /// MOC0009: a program's footprint straddles shard boundaries, forcing
    /// its m-operations onto the global order.
    ProgramStraddlesShards,
    /// MOC0010: a single hub object connects otherwise-independent object
    /// groups, collapsing the partition into one shard.
    HubObjectCollapsesPartition,
    /// MOC0011: a query's read footprint pins two (or more) shards,
    /// blocking the OO composition verdict.
    QueryPinsTwoShards,
    /// MOC0012: every distinct pair of programs conflicts, so the
    /// commutativity fast path cannot apply anywhere.
    AllPairsConflict,
    /// MOC0013: a read-only program would still ride the global broadcast
    /// order under the syntactic classification; the commute certificate
    /// lets it skip sequencer stamping entirely.
    ReadOnlyProgramInGlobalOrder,
    /// MOC0014: a commuting pair straddles shard boundaries — the
    /// cross-shard barrier is unnecessary for this pair.
    CommutingPairStraddlesShards,
}

impl Lint {
    /// The stable `MOCnnnn` code.
    pub fn code(self) -> &'static str {
        match self {
            Lint::UnreachableInstruction => "MOC0001",
            Lint::UninitializedRead => "MOC0002",
            Lint::UnboundedLoop => "MOC0003",
            Lint::DeadStore => "MOC0004",
            Lint::GuaranteedTermination => "MOC0005",
            Lint::RefinedClassification => "MOC0006",
            Lint::ConstraintNotCertified => "MOC0007",
            Lint::Certificate => "MOC0008",
            Lint::ProgramStraddlesShards => "MOC0009",
            Lint::HubObjectCollapsesPartition => "MOC0010",
            Lint::QueryPinsTwoShards => "MOC0011",
            Lint::AllPairsConflict => "MOC0012",
            Lint::ReadOnlyProgramInGlobalOrder => "MOC0013",
            Lint::CommutingPairStraddlesShards => "MOC0014",
        }
    }

    /// Short kebab-case name.
    pub fn name(self) -> &'static str {
        match self {
            Lint::UnreachableInstruction => "unreachable-instruction",
            Lint::UninitializedRead => "uninitialized-register-read",
            Lint::UnboundedLoop => "unbounded-loop",
            Lint::DeadStore => "dead-register-store",
            Lint::GuaranteedTermination => "guaranteed-termination",
            Lint::RefinedClassification => "refined-classification",
            Lint::ConstraintNotCertified => "constraint-not-certified",
            Lint::Certificate => "constraint-certificate",
            Lint::ProgramStraddlesShards => "program-straddles-shards",
            Lint::HubObjectCollapsesPartition => "hub-object-collapses-partition",
            Lint::QueryPinsTwoShards => "query-pins-two-shards",
            Lint::AllPairsConflict => "all-pairs-conflict",
            Lint::ReadOnlyProgramInGlobalOrder => "read-only-program-in-global-order",
            Lint::CommutingPairStraddlesShards => "commuting-pair-straddles-shards",
        }
    }

    /// Default severity of the lint.
    pub fn severity(self) -> Severity {
        match self {
            Lint::UnreachableInstruction
            | Lint::UninitializedRead
            | Lint::ProgramStraddlesShards
            | Lint::HubObjectCollapsesPartition
            | Lint::AllPairsConflict
            | Lint::ReadOnlyProgramInGlobalOrder => Severity::Warn,
            Lint::ConstraintNotCertified => Severity::Error,
            _ => Severity::Info,
        }
    }
}

impl fmt::Display for Lint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({})", self.code(), self.name())
    }
}

/// One diagnostic produced by the analyzer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Which lint fired.
    pub lint: Lint,
    /// Severity (defaults to [`Lint::severity`]).
    pub severity: Severity,
    /// Program the finding is about (empty for set-level findings).
    pub program: String,
    /// Instruction index the finding anchors to, if any.
    pub instr: Option<usize>,
    /// Human-readable description.
    pub message: String,
}

impl Finding {
    /// A finding with the lint's default severity.
    pub fn new(
        lint: Lint,
        program: impl Into<String>,
        instr: Option<usize>,
        message: impl Into<String>,
    ) -> Self {
        Finding {
            lint,
            severity: lint.severity(),
            program: program.into(),
            instr,
            message: message.into(),
        }
    }

    /// Renders one human-readable line.
    pub fn render_human(&self) -> String {
        let site = match (self.program.is_empty(), self.instr) {
            (false, Some(i)) => format!("{}[{}]: ", self.program, i),
            (false, None) => format!("{}: ", self.program),
            (true, _) => String::new(),
        };
        format!(
            "{} {:5} {}{} ({})",
            self.lint.code(),
            self.severity.to_string(),
            site,
            self.message,
            self.lint.name()
        )
    }
}

/// Escapes a string for inclusion in a JSON document.
pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Serializes one finding as a JSON object.
pub(crate) fn finding_json(f: &Finding) -> String {
    let instr = match f.instr {
        Some(i) => i.to_string(),
        None => "null".to_string(),
    };
    format!(
        "{{\"code\":\"{}\",\"name\":\"{}\",\"severity\":\"{}\",\"program\":\"{}\",\"instr\":{},\"message\":\"{}\"}}",
        f.lint.code(),
        f.lint.name(),
        f.severity,
        json_escape(&f.program),
        instr,
        json_escape(&f.message)
    )
}

/// The worst severity among `findings` (`None` when empty).
pub fn max_severity(findings: &[Finding]) -> Option<Severity> {
    findings.iter().map(|f| f.severity).max()
}

/// Renders findings as terminal lines, one per finding — the single
/// human renderer shared by `moc analyze`, `moc shard` and `moc commute`.
pub(crate) fn render_findings_human(findings: &[Finding]) -> String {
    let mut out = String::new();
    for f in findings {
        out.push_str(&f.render_human());
        out.push('\n');
    }
    out
}

/// Renders findings as a JSON array body (no surrounding brackets) — the
/// single JSON renderer shared by the report subcommands.
pub(crate) fn render_findings_json(findings: &[Finding]) -> String {
    findings
        .iter()
        .map(finding_json)
        .collect::<Vec<_>>()
        .join(",")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_stable() {
        assert_eq!(Lint::UnreachableInstruction.code(), "MOC0001");
        assert_eq!(Lint::UninitializedRead.code(), "MOC0002");
        assert_eq!(Lint::UnboundedLoop.code(), "MOC0003");
        assert_eq!(Lint::DeadStore.code(), "MOC0004");
        assert_eq!(Lint::GuaranteedTermination.code(), "MOC0005");
        assert_eq!(Lint::RefinedClassification.code(), "MOC0006");
        assert_eq!(Lint::ConstraintNotCertified.code(), "MOC0007");
        assert_eq!(Lint::Certificate.code(), "MOC0008");
        assert_eq!(Lint::ProgramStraddlesShards.code(), "MOC0009");
        assert_eq!(Lint::HubObjectCollapsesPartition.code(), "MOC0010");
        assert_eq!(Lint::QueryPinsTwoShards.code(), "MOC0011");
        assert_eq!(
            Lint::ProgramStraddlesShards.name(),
            "program-straddles-shards"
        );
        assert_eq!(
            Lint::HubObjectCollapsesPartition.name(),
            "hub-object-collapses-partition"
        );
        assert_eq!(Lint::QueryPinsTwoShards.name(), "query-pins-two-shards");
        assert_eq!(Lint::AllPairsConflict.code(), "MOC0012");
        assert_eq!(Lint::ReadOnlyProgramInGlobalOrder.code(), "MOC0013");
        assert_eq!(Lint::CommutingPairStraddlesShards.code(), "MOC0014");
        assert_eq!(Lint::AllPairsConflict.name(), "all-pairs-conflict");
        assert_eq!(
            Lint::ReadOnlyProgramInGlobalOrder.name(),
            "read-only-program-in-global-order"
        );
        assert_eq!(
            Lint::CommutingPairStraddlesShards.name(),
            "commuting-pair-straddles-shards"
        );
        assert_eq!(Lint::AllPairsConflict.severity(), Severity::Warn);
        assert_eq!(
            Lint::ReadOnlyProgramInGlobalOrder.severity(),
            Severity::Warn
        );
        assert_eq!(
            Lint::CommutingPairStraddlesShards.severity(),
            Severity::Info
        );
    }

    #[test]
    fn shared_renderers_cover_all_findings() {
        let fs = vec![
            Finding::new(Lint::AllPairsConflict, "", None, "no commuting pair"),
            Finding::new(Lint::DeadStore, "p", Some(1), "r2"),
        ];
        let human = render_findings_human(&fs);
        assert!(human.contains("MOC0012"));
        assert!(human.contains("MOC0004"));
        assert_eq!(human.lines().count(), 2);
        let json = render_findings_json(&fs);
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert_eq!(json.matches("\"code\"").count(), 2);
        assert_eq!(render_findings_json(&[]), "");
    }

    #[test]
    fn severity_ordering_drives_exit_codes() {
        assert!(Severity::Error > Severity::Warn);
        assert!(Severity::Warn > Severity::Info);
        let fs = vec![
            Finding::new(Lint::GuaranteedTermination, "p", None, "ok"),
            Finding::new(Lint::UninitializedRead, "p", Some(2), "r3"),
        ];
        assert_eq!(max_severity(&fs), Some(Severity::Warn));
        assert_eq!(max_severity(&[]), None);
    }

    #[test]
    fn json_escaping() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        let f = Finding::new(Lint::DeadStore, "p\"q", Some(1), "m");
        let j = finding_json(&f);
        assert!(j.contains("\"program\":\"p\\\"q\""));
        assert!(j.contains("\"instr\":1"));
    }

    #[test]
    fn human_line_contains_code_and_site() {
        let f = Finding::new(
            Lint::UnreachableInstruction,
            "dcas",
            Some(4),
            "never executed",
        );
        let line = f.render_human();
        assert!(line.starts_with("MOC0001 warn"));
        assert!(line.contains("dcas[4]"));
    }
}
