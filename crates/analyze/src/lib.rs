//! `moc-analyze` — static analysis for m-operation programs.
//!
//! The Section 5 protocols only ever see a program's *syntactic* shape:
//! "we take a conservative approach and treat an m-operation as an update
//! m-operation if it can potentially write to some object". This crate
//! sharpens that story with a classic multi-pass analyzer over the
//! m-operation DSL of [`moc_core::program`]:
//!
//! - the crate-internal `cfg` builds basic-block control-flow graphs
//!   with feasible-edge branch folding, and `dataflow` is a small
//!   forward/backward fixpoint framework over them;
//! - [`passes`] produces a [`ProgramSummary`] (refined `may_read` /
//!   `may_write` / `must_write` sets, update/query classification,
//!   termination and a static fuel bound) plus lint [`Finding`]s;
//! - [`conflict`] lifts the summaries to whole program sets: a static
//!   conflict graph and one [`Certificate`] per Section 4 constraint,
//!   answering up front whether the Theorem 7 polynomial fast path
//!   applies to every history the configuration can produce;
//! - [`diagnostics`] defines the stable `MOCnnnn` lint codes and the
//!   human/JSON renderers behind `moc analyze`.
//!
//! ```
//! use moc_core::ids::ObjectId;
//! use moc_core::program::{imm, reg, ProgramBuilder};
//! use moc_analyze::{analyze_program, Classification};
//!
//! // A "write" hidden behind an unconditional jump is refined away.
//! let mut b = ProgramBuilder::new("looks-like-update");
//! let end = b.fresh_label();
//! b.read(ObjectId::new(0), 0).jump(end);
//! b.write(ObjectId::new(0), imm(1));
//! b.bind(end);
//! b.ret(vec![reg(0)]);
//! let p = b.build().unwrap();
//! assert!(p.is_potential_update()); // syntactic: update
//! let a = analyze_program(&p);
//! assert_eq!(a.summary.classification, Classification::Query); // refined
//! ```

#![warn(missing_docs)]

pub(crate) mod cfg;
pub mod conflict;
pub(crate) mod dataflow;
pub mod diagnostics;
pub mod movers;
pub mod passes;
pub mod shard;

pub use conflict::{
    analyze_set, Certificate, CertificateStatus, ConflictEdge, ConflictGraph, SetAnalysis,
};
pub use diagnostics::{max_severity, Finding, Lint, Severity};
pub use movers::{commute_set, commute_set_with, MoverAnalysis};
pub use passes::{analyze_program, Classification, ProgramAnalysis, ProgramSummary, Termination};
pub use shard::{shard_set, ShardAnalysis, ShardOptions};

use diagnostics::{json_escape, render_findings_human, render_findings_json};
use moc_core::ids::ObjectId;
use std::collections::BTreeSet;

fn objects_human(s: &BTreeSet<ObjectId>) -> String {
    if s.is_empty() {
        "∅".to_string()
    } else {
        s.iter()
            .map(|o| o.to_string())
            .collect::<Vec<_>>()
            .join(", ")
    }
}

fn objects_json(s: &BTreeSet<ObjectId>) -> String {
    let inner = s
        .iter()
        .map(|o| o.index().to_string())
        .collect::<Vec<_>>()
        .join(",");
    format!("[{inner}]")
}

impl SetAnalysis {
    /// Renders the full report for terminals.
    pub fn render_human(&self) -> String {
        let mut out = String::new();
        for p in &self.programs {
            let s = &p.summary;
            out.push_str(&format!(
                "program {}: {} | may_read {{{}}} may_write {{{}}} must_write {{{}}} | {}\n",
                s.name,
                match s.classification {
                    Classification::Update => "update",
                    Classification::Query => "query",
                },
                objects_human(&s.may_read),
                objects_human(&s.may_write),
                objects_human(&s.must_write),
                match s.termination.fuel_bound {
                    Some(b) => format!("terminates ≤ {b} steps"),
                    None => "may loop (fuel-bounded)".to_string(),
                },
            ));
        }
        if self.graph.edges.is_empty() {
            out.push_str("conflict graph: no conflicting pairs\n");
        } else {
            for e in &self.graph.edges {
                out.push_str(&format!(
                    "conflict {} ~ {}: ww {{{}}} rw {{{}}}\n",
                    self.programs[e.a].summary.name,
                    self.programs[e.b].summary.name,
                    objects_human(&e.write_write),
                    objects_human(&e.read_write),
                ));
            }
        }
        out.push_str(&render_findings_human(&self.all_findings()));
        out
    }

    /// Renders the full report as a JSON document.
    pub fn render_json(&self) -> String {
        let programs = self
            .programs
            .iter()
            .map(|p| {
                let s = &p.summary;
                format!(
                    "{{\"name\":\"{}\",\"classification\":\"{}\",\"may_read\":{},\"may_write\":{},\"must_write\":{},\"terminates\":{},\"fuel_bound\":{}}}",
                    json_escape(&s.name),
                    match s.classification {
                        Classification::Update => "update",
                        Classification::Query => "query",
                    },
                    objects_json(&s.may_read),
                    objects_json(&s.may_write),
                    objects_json(&s.must_write),
                    s.termination.guaranteed,
                    match s.termination.fuel_bound {
                        Some(b) => b.to_string(),
                        None => "null".to_string(),
                    },
                )
            })
            .collect::<Vec<_>>()
            .join(",");
        let edges = self
            .graph
            .edges
            .iter()
            .map(|e| {
                format!(
                    "{{\"a\":{},\"b\":{},\"write_write\":{},\"read_write\":{}}}",
                    e.a,
                    e.b,
                    objects_json(&e.write_write),
                    objects_json(&e.read_write)
                )
            })
            .collect::<Vec<_>>()
            .join(",");
        // Flat per-object edge list: one entry per (pair, object, kind),
        // ordered by (a, b), then ww before rw, then object id — the
        // deterministic source of truth the shard pass and external tools
        // consume.
        let flat_edges = self
            .graph
            .edges
            .iter()
            .flat_map(|e| {
                e.write_write
                    .iter()
                    .map(move |o| (e.a, e.b, o.index(), "ww"))
                    .chain(
                        e.read_write
                            .iter()
                            .map(move |o| (e.a, e.b, o.index(), "rw")),
                    )
            })
            .map(|(a, b, o, kind)| {
                format!("{{\"a\":{a},\"b\":{b},\"object\":{o},\"kind\":\"{kind}\"}}")
            })
            .collect::<Vec<_>>()
            .join(",");
        let certs = self
            .certificates
            .iter()
            .map(|c| {
                let (status, pairs) = match &c.status {
                    CertificateStatus::Vacuous => ("vacuous", String::new()),
                    CertificateStatus::EnforcedByUpdateOrder => {
                        ("enforced-by-update-order", String::new())
                    }
                    CertificateStatus::NotCertified { pairs } => (
                        "not-certified",
                        pairs
                            .iter()
                            .map(|(q, u)| format!("[{q},{u}]"))
                            .collect::<Vec<_>>()
                            .join(","),
                    ),
                };
                format!(
                    "{{\"constraint\":\"{}\",\"status\":\"{}\",\"uncovered_pairs\":[{}]}}",
                    match c.constraint {
                        moc_core::constraints::Constraint::Oo => "oo",
                        moc_core::constraints::Constraint::Ww => "ww",
                        moc_core::constraints::Constraint::Wo => "wo",
                    },
                    status,
                    pairs
                )
            })
            .collect::<Vec<_>>()
            .join(",");
        let findings = render_findings_json(&self.all_findings());
        format!(
            "{{\"programs\":[{programs}],\"conflicts\":[{edges}],\"edges\":[{flat_edges}],\"certificates\":[{certs}],\"fast_path\":{},\"findings\":[{findings}]}}",
            self.fast_path
        )
    }
}

impl ShardAnalysis {
    /// Renders the shard report for terminals.
    pub fn render_human(&self) -> String {
        let mut out = String::new();
        for (s, objs) in self.cert.shards.iter().enumerate() {
            let objs: BTreeSet<ObjectId> = objs.iter().copied().collect();
            out.push_str(&format!("shard {s}: {{{}}}\n", objects_human(&objs)));
        }
        for p in &self.cert.programs {
            let place = match p.shard {
                Some(s) => format!("shard {s}"),
                None if p.spans.is_empty() => "global (empty footprint)".to_string(),
                None => format!(
                    "cross-shard {{{}}} → global order",
                    p.spans
                        .iter()
                        .map(|s| s.to_string())
                        .collect::<Vec<_>>()
                        .join(", ")
                ),
            };
            out.push_str(&format!(
                "program {}: {} | {}\n",
                p.claim.name,
                if p.claim.update { "update" } else { "query" },
                place
            ));
        }
        for e in &self.cert.cross_edges {
            out.push_str(&format!(
                "cross edge {} ~ {}: {} on {}\n",
                self.cert.programs[e.a].claim.name,
                self.cert.programs[e.b].claim.name,
                e.kind,
                e.object
            ));
        }
        let c = &self.cert.composition;
        out.push_str(&format!(
            "composition: oo={} ww={} wo={} | m-sc: {} | m-lin: {}\n",
            c.oo, c.ww, c.wo, c.msc, c.mlin
        ));
        out.push_str(&render_findings_human(&self.all_findings()));
        out
    }

    /// Renders the shard report as a JSON document wrapping the
    /// certificate (the `certificate` value is exactly what `moc audit`
    /// re-validates).
    pub fn render_json(&self) -> String {
        let findings = render_findings_json(&self.all_findings());
        format!(
            "{{\"certificate\":{},\"num_shards\":{},\"findings\":[{findings}]}}",
            self.cert.to_json(),
            self.plan.num_shards()
        )
    }
}

impl MoverAnalysis {
    /// Renders the mover report for terminals.
    pub fn render_human(&self) -> String {
        let mut out = String::new();
        for p in &self.cert.programs {
            let reads: BTreeSet<ObjectId> = p.claim.reads.iter().copied().collect();
            let writes: BTreeSet<ObjectId> = p.claim.writes.iter().copied().collect();
            out.push_str(&format!(
                "program {}: {} | {} | reads {{{}}} writes {{{}}}\n",
                p.claim.name,
                if p.claim.update { "update" } else { "query" },
                p.class,
                objects_human(&reads),
                objects_human(&writes),
            ));
        }
        let n = self.cert.programs.len();
        for i in 0..n {
            let partners: Vec<&str> = self
                .cert
                .matrix
                .row(i)
                .iter()
                .map(|&j| self.cert.programs[j as usize].claim.name.as_str())
                .collect();
            out.push_str(&format!(
                "commutes {}: {}\n",
                self.cert.programs[i].claim.name,
                if partners.is_empty() {
                    "∅".to_string()
                } else {
                    partners.join(", ")
                }
            ));
        }
        out.push_str(&render_findings_human(&self.all_findings()));
        out
    }

    /// Renders the mover report as a JSON document wrapping the
    /// certificate (the `certificate` value is exactly what `moc audit`
    /// re-validates).
    pub fn render_json(&self) -> String {
        let findings = render_findings_json(&self.all_findings());
        format!(
            "{{\"certificate\":{},\"commuting_pairs\":{},\"findings\":[{findings}]}}",
            self.cert.to_json(),
            self.cert.matrix.num_commuting_pairs()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moc_core::program::{arg, reg, ProgramBuilder};

    #[test]
    fn renderers_cover_the_report() {
        let mut b = ProgramBuilder::new("wx");
        b.write(ObjectId::new(0), arg(0)).ret(vec![]);
        let w = b.build().unwrap();
        let mut b = ProgramBuilder::new("qx");
        b.read(ObjectId::new(0), 0).ret(vec![reg(0)]);
        let q = b.build().unwrap();
        let s = analyze_set(&[&w, &q], &[]);

        let human = s.render_human();
        assert!(human.contains("program wx: update"));
        assert!(human.contains("program qx: query"));
        assert!(human.contains("MOC0008"));

        let json = s.render_json();
        assert!(json.contains("\"classification\":\"update\""));
        assert!(json.contains("\"fast_path\":true"));
        assert!(json.contains("\"constraint\":\"oo\""));
        assert!(json.contains("not-certified"));
        // Flat per-object edge list with kinds: the writer's self-pair
        // (two instances of wx both write x) precedes the wx–qx RW edge.
        assert!(json.contains(
            "\"edges\":[{\"a\":0,\"b\":0,\"object\":0,\"kind\":\"ww\"},\
             {\"a\":0,\"b\":1,\"object\":0,\"kind\":\"rw\"}]"
        ));
        // Smoke: balanced braces.
        let opens = json.matches('{').count();
        let closes = json.matches('}').count();
        assert_eq!(opens, closes);
    }
}
