//! Proof-producing verdicts: the `moc-cert` format.
//!
//! [`check_certified`] decides admissibility like [`crate::conditions::check`]
//! but additionally returns a [`Certificate`] — a self-contained, versioned
//! JSON document that an *independent* checker (the `moc-audit` crate, which
//! does not import this crate) can re-validate against the raw history:
//!
//! * **admissible** → the witness linearization plus a legality trace (for
//!   each external read, the witness position it reads from), checkable by a
//!   single replay;
//! * **inadmissible, `~H+` cyclic** → an explicit cycle of the saturated
//!   precedence graph with per-edge reasons and `~rw` premise justifications
//!   (see [`crate::precedence::CycleProof`]) — a polynomial refutation core;
//! * **inadmissible, `~H+` acyclic** → an exhaustion attestation naming the
//!   pruned-search statistics. This case is the NP-hard core (Theorems 1–2):
//!   no polynomial certificate of inadmissibility is known, so the auditor
//!   can only check the attestation's shape, not replay it.
//!
//! The document binds to its history by an FNV-1a fingerprint of the
//! history's canonical text encoding ([`moc_core::codec::fingerprint`]), so
//! a certificate cannot be replayed against a different history.

use std::fmt::Write as _;

use moc_core::codec::{self, push_i64, push_u64};
use moc_core::history::{History, MOpIdx};
use moc_core::ids::ObjectId;

use crate::admissible::{SearchLimits, SearchOutcome, SearchStats};
use crate::conditions::{CheckError, CheckReport, Condition, StrategyUsed};
use crate::precedence::{pruned_search, CycleProof, EdgeKind, PrecedenceGraph};

/// Format identifier of the certificate documents this module emits.
pub const FORMAT: &str = "moc-cert";
/// Version of the certificate schema.
pub const VERSION: u64 = 1;

/// One step of a witness's legality trace: the m-operation at witness
/// position `pos` reads `obj` from the m-operation at witness position
/// `from` (`None` = the imaginary initial m-operation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadStep {
    /// Position of the reader in the witness order.
    pub pos: usize,
    /// The object read.
    pub obj: ObjectId,
    /// Position of the writer read from, `None` for the initial value.
    pub from: Option<usize>,
}

/// The proof part of a certificate.
#[derive(Debug, Clone)]
pub enum Proof {
    /// Admissible: a witness linearization and its legality trace.
    Witness {
        /// The m-operations in a legal sequential order extending `~H`.
        order: Vec<MOpIdx>,
        /// For every external read, where in the witness it reads from.
        reads: Vec<ReadStep>,
    },
    /// Inadmissible with a polynomial refutation: a `~H+` cycle.
    Cycle(CycleProof),
    /// Inadmissible by exhaustive (pruned) search; statistics attested.
    Exhaustion {
        /// Search statistics.
        stats: SearchStats,
    },
}

/// A certified verdict: condition, verdict, history binding and proof.
#[derive(Debug, Clone)]
pub struct Certificate {
    /// The condition that was decided.
    pub condition: Condition,
    /// The verdict.
    pub admissible: bool,
    /// Number of m-operations in the bound history.
    pub ops: usize,
    /// Number of objects in the bound history.
    pub objects: usize,
    /// FNV-1a 64 fingerprint of the history's canonical text encoding.
    pub fingerprint: u64,
    /// The proof.
    pub proof: Proof,
}

/// The schema tag of a condition (`"sc"`, `"lin"`, `"normal"`).
pub(crate) fn condition_tag(condition: Condition) -> &'static str {
    match condition {
        Condition::MSequentialConsistency => "sc",
        Condition::MLinearizability => "lin",
        Condition::MNormality => "normal",
    }
}

impl Certificate {
    /// Serializes the certificate to compact JSON text: the `moc-cert`
    /// document, written field by field in schema order (every key and
    /// string value is plain ASCII, so nothing needs escaping).
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        out.push_str("{\"format\":\"");
        out.push_str(FORMAT);
        out.push_str("\",\"version\":");
        push_u64(&mut out, VERSION);
        out.push_str(",\"condition\":\"");
        out.push_str(condition_tag(self.condition));
        out.push_str(if self.admissible {
            "\",\"verdict\":\"admissible\""
        } else {
            "\",\"verdict\":\"inadmissible\""
        });
        out.push_str(",\"history\":{\"ops\":");
        push_u64(&mut out, self.ops as u64);
        field(&mut out, "objects", self.objects as u64);
        let _ = write!(out, ",\"fnv1a\":\"{:016x}\"}}", self.fingerprint);
        out.push_str(",\"proof\":");
        match &self.proof {
            Proof::Witness { order, reads } => {
                out.push_str("{\"kind\":\"witness\",\"order\":");
                list(&mut out, order.iter().map(|m| m.0));
                out.push_str(",\"reads\":[");
                for (i, r) in reads.iter().enumerate() {
                    out.push_str(if i == 0 { "{\"pos\":" } else { ",{\"pos\":" });
                    push_u64(&mut out, r.pos as u64);
                    field(&mut out, "obj", r.obj.index() as u64);
                    out.push_str(",\"from\":");
                    push_i64(&mut out, r.from.map_or(-1, |p| p as i64));
                    out.push('}');
                }
                out.push(']');
            }
            Proof::Cycle(proof) => {
                out.push_str("{\"kind\":\"cycle\",\"edges\":[");
                for (i, pe) in proof.edges.iter().enumerate() {
                    out.push_str(if i == 0 { "{\"from\":" } else { ",{\"from\":" });
                    push_u64(&mut out, pe.edge.from.0 as u64);
                    field(&mut out, "to", pe.edge.to.0 as u64);
                    out.push_str(",\"why\":\"");
                    out.push_str(edge_why(&pe.edge.kind));
                    out.push('"');
                    if let EdgeKind::ReadWrite { beta, obj } = &pe.edge.kind {
                        out.push_str(",\"beta\":");
                        push_i64(&mut out, beta.map_or(-1, |b| b.0 as i64));
                        field(&mut out, "obj", obj.index() as u64);
                        out.push_str(",\"via\":");
                        list(&mut out, pe.via.iter().copied());
                    }
                    out.push('}');
                }
                out.push_str("],\"cycle\":");
                list(&mut out, proof.cycle.iter().copied());
            }
            Proof::Exhaustion { stats } => {
                out.push_str("{\"kind\":\"exhaustion\"");
                field(&mut out, "nodes", stats.nodes);
                field(&mut out, "memo_hits", stats.memo_hits);
                field(&mut out, "memo_peak", stats.memo_peak);
                out.push_str(if stats.memo_saturated {
                    ",\"memo_saturated\":true"
                } else {
                    ",\"memo_saturated\":false"
                });
                field(&mut out, "components", stats.components);
                field(&mut out, "peeled", stats.peeled);
                field(&mut out, "forced_edges", stats.forced_edges);
                field(&mut out, "symmetry_skips", stats.symmetry_skips);
            }
        }
        out.push_str("}}");
        out
    }
}

/// Appends `,"key":value`.
fn field(out: &mut String, key: &str, value: u64) {
    out.push_str(",\"");
    out.push_str(key);
    out.push_str("\":");
    push_u64(out, value);
}

/// Appends `[a,b,…]`.
fn list(out: &mut String, items: impl Iterator<Item = usize>) {
    out.push('[');
    for (i, item) in items.enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_u64(out, item as u64);
    }
    out.push(']');
}

fn edge_why(kind: &EdgeKind) -> &'static str {
    match kind {
        EdgeKind::Base => "base",
        EdgeKind::Process => "po",
        EdgeKind::ReadsFrom => "rf",
        EdgeKind::RealTime => "rt",
        EdgeKind::ObjectOrder => "ox",
        EdgeKind::ReadWrite { .. } => "rw",
    }
}

/// Decides `condition` on `h` via the precedence-graph route and returns
/// both the report and a certificate for the verdict.
///
/// The report is the one [`crate::conditions::check`] gives under
/// [`crate::conditions::Strategy::BruteForce`]`(limits)`: the `~H+` graph is
/// saturated, a cycle refutes without search (and *is* the certificate);
/// otherwise the statically-pruned search decides and yields either a
/// witness or an exhaustion attestation.
///
/// # Errors
///
/// [`CheckError::LimitExceeded`] if the pruned search exhausts `limits`.
pub fn check_certified(
    h: &History,
    condition: Condition,
    limits: SearchLimits,
) -> Result<(CheckReport, Certificate), CheckError> {
    let graph = PrecedenceGraph::for_condition(h, condition);
    check_certified_on(h, condition, &graph, codec::fingerprint(h), limits)
}

/// [`check_certified`] on a graph the caller already saturated with
/// [`PrecedenceGraph::for_condition`]`(h, condition)` and wants to keep,
/// bound to the [`codec::fingerprint`] of `h` the caller already took: the
/// streaming sentinel reads the same `~H+` closure again to decide what a
/// certified window lets it retire, and keeps the window's text.
///
/// `fingerprint` must equal `codec::fingerprint(h)`: nothing here renders
/// `h` to check it (debug builds do), and the auditor rejects a certificate
/// bound to anything else.
///
/// # Errors
///
/// [`CheckError::LimitExceeded`] if the pruned search exhausts `limits`.
pub fn check_certified_on(
    h: &History,
    condition: Condition,
    graph: &PrecedenceGraph,
    fingerprint: u64,
    limits: SearchLimits,
) -> Result<(CheckReport, Certificate), CheckError> {
    debug_assert_eq!(fingerprint, codec::fingerprint(h));
    let (report, core) = decide(h, condition, graph, limits)?;
    let proof = match (core, &report.witness) {
        (Some(core), _) => Proof::Cycle(core),
        (None, Some(order)) => Proof::Witness {
            order: order.clone(),
            reads: legality_trace(h, order),
        },
        (None, None) => Proof::Exhaustion {
            stats: report.stats,
        },
    };
    let cert = Certificate {
        condition,
        admissible: report.satisfied,
        ops: h.len(),
        objects: h.num_objects(),
        fingerprint,
        proof,
    };
    Ok((report, cert))
}

/// The verdict over a saturated graph, every route's: a `~H+` cycle refutes
/// without search, and is returned as the refutation core; otherwise the
/// statically-pruned search decides.
///
/// # Errors
///
/// [`CheckError::LimitExceeded`] if the pruned search exhausts `limits`.
pub(crate) fn decide(
    h: &History,
    condition: Condition,
    graph: &PrecedenceGraph,
    limits: SearchLimits,
) -> Result<(CheckReport, Option<CycleProof>), CheckError> {
    let report = |witness: Option<Vec<MOpIdx>>, stats, reason| CheckReport {
        condition,
        satisfied: witness.is_some(),
        witness,
        strategy_used: StrategyUsed::BruteForce,
        stats,
        reason,
    };
    if let Some(core) = graph.cycle_proof() {
        let stats = SearchStats {
            forced_edges: graph.forced_edge_count() as u64,
            ..SearchStats::default()
        };
        let reason = format!(
            "~H+ cycle of length {} refutes admissibility without search",
            core.cycle.len()
        );
        return Ok((report(None, stats, Some(reason)), Some(core)));
    }
    let (outcome, stats) = pruned_search(h, graph, limits);
    let (witness, reason) = match outcome {
        SearchOutcome::Admissible(order) => (Some(order), None),
        SearchOutcome::NotAdmissible => {
            let reason = format!(
                "no legal sequential extension exists ({} nodes explored, \
                 {} peeled, {} components)",
                stats.nodes, stats.peeled, stats.components
            );
            (None, Some(reason))
        }
        SearchOutcome::LimitExceeded => return Err(CheckError::LimitExceeded(stats)),
    };
    Ok((report(witness, stats, reason), None))
}

/// The legality trace of a witness: for every external read (in witness
/// order), the witness position it reads from.
fn legality_trace(h: &History, order: &[MOpIdx]) -> Vec<ReadStep> {
    let mut position = vec![usize::MAX; h.len()];
    for (pos, &idx) in order.iter().enumerate() {
        position[idx.0] = pos;
    }
    let mut reads = Vec::new();
    for (pos, &alpha) in order.iter().enumerate() {
        for (obj, writer) in h.read_sources(alpha) {
            reads.push(ReadStep {
                pos,
                obj,
                from: writer.map(|w| position[w.0]),
            });
        }
    }
    reads
}

#[cfg(test)]
mod tests {
    use super::*;
    use moc_core::history::HistoryBuilder;
    use moc_core::ids::ProcessId;
    use moc_core::json::{self, parse, Json};
    use moc_workload::arb::{self, HistoryBounds};

    /// The rendering this module used to do, kept as the reference: the
    /// certificate as a `Json` tree, rendered by the JSON writer.
    fn reference_text(cert: &Certificate) -> String {
        let proof = match &cert.proof {
            Proof::Witness { order, reads } => Json::Obj(vec![
                ("kind".into(), json::str("witness")),
                (
                    "order".into(),
                    Json::Arr(order.iter().map(|m| json::num(m.0 as i64)).collect()),
                ),
                (
                    "reads".into(),
                    Json::Arr(
                        reads
                            .iter()
                            .map(|r| {
                                Json::Obj(vec![
                                    ("pos".into(), json::num(r.pos as i64)),
                                    ("obj".into(), json::num(r.obj.index() as i64)),
                                    ("from".into(), json::num(r.from.map_or(-1, |p| p as i64))),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ]),
            Proof::Cycle(proof) => Json::Obj(vec![
                ("kind".into(), json::str("cycle")),
                (
                    "edges".into(),
                    Json::Arr(
                        proof
                            .edges
                            .iter()
                            .map(|pe| {
                                let mut fields = vec![
                                    ("from".into(), json::num(pe.edge.from.0 as i64)),
                                    ("to".into(), json::num(pe.edge.to.0 as i64)),
                                    ("why".into(), json::str(edge_why(&pe.edge.kind))),
                                ];
                                if let EdgeKind::ReadWrite { beta, obj } = &pe.edge.kind {
                                    fields.push((
                                        "beta".into(),
                                        json::num(beta.map_or(-1, |b| b.0 as i64)),
                                    ));
                                    fields.push(("obj".into(), json::num(obj.index() as i64)));
                                    fields.push((
                                        "via".into(),
                                        Json::Arr(
                                            pe.via.iter().map(|&s| json::num(s as i64)).collect(),
                                        ),
                                    ));
                                }
                                Json::Obj(fields)
                            })
                            .collect(),
                    ),
                ),
                (
                    "cycle".into(),
                    Json::Arr(proof.cycle.iter().map(|&s| json::num(s as i64)).collect()),
                ),
            ]),
            Proof::Exhaustion { stats } => Json::Obj(vec![
                ("kind".into(), json::str("exhaustion")),
                ("nodes".into(), json::num(stats.nodes as i64)),
                ("memo_hits".into(), json::num(stats.memo_hits as i64)),
                ("memo_peak".into(), json::num(stats.memo_peak as i64)),
                ("memo_saturated".into(), Json::Bool(stats.memo_saturated)),
                ("components".into(), json::num(stats.components as i64)),
                ("peeled".into(), json::num(stats.peeled as i64)),
                ("forced_edges".into(), json::num(stats.forced_edges as i64)),
                (
                    "symmetry_skips".into(),
                    json::num(stats.symmetry_skips as i64),
                ),
            ]),
        };
        Json::Obj(vec![
            ("format".into(), json::str(FORMAT)),
            ("version".into(), json::num(VERSION as i64)),
            ("condition".into(), json::str(condition_tag(cert.condition))),
            (
                "verdict".into(),
                json::str(if cert.admissible {
                    "admissible"
                } else {
                    "inadmissible"
                }),
            ),
            (
                "history".into(),
                Json::Obj(vec![
                    ("ops".into(), json::num(cert.ops as i64)),
                    ("objects".into(), json::num(cert.objects as i64)),
                    (
                        "fnv1a".into(),
                        json::str(format!("{:016x}", cert.fingerprint)),
                    ),
                ]),
            ),
            ("proof".into(), proof),
        ])
        .render()
    }

    #[test]
    fn text_matches_the_json_tree_rendering_for_every_proof_kind() {
        let bounds = HistoryBounds {
            processes: 4,
            mops_per_process: 5,
            objects: 3,
            max_span: 3,
            update_fraction: 0.5,
        };
        let mut kinds = [0usize; 3];
        let hand_built = [stale_read(), litmus(), mixed_versions()];
        let grammar = (0..300).map(|seed| arb::history_from_seed(seed, &bounds));
        for (k, h) in hand_built.into_iter().chain(grammar).enumerate() {
            for c in [
                Condition::MSequentialConsistency,
                Condition::MLinearizability,
                Condition::MNormality,
            ] {
                let (_, cert) = check_certified(&h, c, SearchLimits::default()).unwrap();
                assert_eq!(cert.to_text(), reference_text(&cert), "history {k}, {c}");
                kinds[match cert.proof {
                    Proof::Witness { .. } => 0,
                    Proof::Cycle(_) => 1,
                    Proof::Exhaustion { .. } => 2,
                }] += 1;
            }
        }
        assert!(
            kinds.iter().all(|&k| k > 0),
            "witness/cycle/exhaustion: {kinds:?}"
        );
    }

    fn pid(i: u32) -> ProcessId {
        ProcessId::new(i)
    }
    fn oid(i: u32) -> ObjectId {
        ObjectId::new(i)
    }

    fn stale_read() -> History {
        let x = oid(0);
        let mut b = HistoryBuilder::new(1);
        b.mop(pid(0)).at(0, 10).write(x, 1).finish();
        b.mop(pid(1)).at(20, 30).read_init(x).finish();
        b.build().unwrap()
    }

    fn litmus() -> History {
        let x = oid(0);
        let y = oid(1);
        let mut b = HistoryBuilder::new(2);
        b.mop(pid(0)).at(0, 10).write(x, 1).finish();
        b.mop(pid(0)).at(20, 30).read_init(y).finish();
        b.mop(pid(1)).at(0, 10).write(y, 1).finish();
        b.mop(pid(1)).at(20, 30).read_init(x).finish();
        b.build().unwrap()
    }

    /// Inadmissible but with an acyclic `~H+`: a reader mixing versions
    /// from two unordered writers.
    fn mixed_versions() -> History {
        let x = oid(0);
        let y = oid(1);
        let mut b = HistoryBuilder::new(2);
        let alpha = b.mop(pid(0)).at(0, 10).write(x, 1).write(y, 1).finish();
        let beta = b.mop(pid(1)).at(0, 10).write(x, 2).write(y, 2).finish();
        b.mop(pid(2))
            .at(20, 30)
            .read_from(x, 2, beta)
            .read_from(y, 1, alpha)
            .finish();
        b.build().unwrap()
    }

    #[test]
    fn admissible_verdict_carries_a_witness_and_trace() {
        let h = stale_read();
        let (report, cert) = check_certified(
            &h,
            Condition::MSequentialConsistency,
            SearchLimits::default(),
        )
        .unwrap();
        assert!(report.satisfied);
        assert!(cert.admissible);
        let Proof::Witness { order, reads } = &cert.proof else {
            panic!("expected witness proof");
        };
        assert_eq!(order.len(), 2);
        // The read of x's initial value must come before the write of x.
        assert_eq!(reads.len(), 1);
        assert_eq!(reads[0].from, None);
        let doc = parse(&cert.to_text()).unwrap();
        assert_eq!(doc.get("format").unwrap().as_str(), Some(FORMAT));
        assert_eq!(doc.get("verdict").unwrap().as_str(), Some("admissible"));
        assert_eq!(
            doc.get("proof").unwrap().get("kind").unwrap().as_str(),
            Some("witness")
        );
    }

    #[test]
    fn cyclic_fixpoint_yields_a_cycle_certificate() {
        let h = litmus();
        let (report, cert) = check_certified(
            &h,
            Condition::MSequentialConsistency,
            SearchLimits::default(),
        )
        .unwrap();
        assert!(!report.satisfied);
        assert_eq!(report.stats.nodes, 0, "refuted statically");
        let Proof::Cycle(proof) = &cert.proof else {
            panic!("expected cycle proof");
        };
        assert!(proof.cycle.len() >= 2);
        let doc = parse(&cert.to_text()).unwrap();
        let p = doc.get("proof").unwrap();
        assert_eq!(p.get("kind").unwrap().as_str(), Some("cycle"));
        // Every serialized edge has a reason; rw edges carry justification.
        for e in p.get("edges").unwrap().as_arr().unwrap() {
            let why = e.get("why").unwrap().as_str().unwrap();
            if why == "rw" {
                assert!(e.get("beta").is_some());
                assert!(e.get("obj").is_some());
                assert!(e.get("via").is_some());
            }
        }
    }

    #[test]
    fn acyclic_inadmissible_yields_an_exhaustion_certificate() {
        let h = mixed_versions();
        let (report, cert) = check_certified(
            &h,
            Condition::MSequentialConsistency,
            SearchLimits::default(),
        )
        .unwrap();
        assert!(!report.satisfied);
        let Proof::Exhaustion { stats } = &cert.proof else {
            panic!("expected exhaustion proof");
        };
        assert_eq!(*stats, report.stats);
        let doc = parse(&cert.to_text()).unwrap();
        let p = doc.get("proof").unwrap();
        assert_eq!(p.get("kind").unwrap().as_str(), Some("exhaustion"));
    }

    #[test]
    fn certificate_binds_to_its_history() {
        let h1 = stale_read();
        let h2 = litmus();
        let (_, c1) = check_certified(
            &h1,
            Condition::MSequentialConsistency,
            SearchLimits::default(),
        )
        .unwrap();
        assert_eq!(c1.fingerprint, codec::fingerprint(&h1));
        assert_ne!(c1.fingerprint, codec::fingerprint(&h2));
        let doc = parse(&c1.to_text()).unwrap();
        assert_eq!(
            doc.get("history").unwrap().get("fnv1a").unwrap().as_str(),
            Some(format!("{:016x}", c1.fingerprint).as_str())
        );
    }

    #[test]
    fn all_three_conditions_certify_on_all_fixtures() {
        for h in [stale_read(), litmus(), mixed_versions()] {
            for c in [
                Condition::MSequentialConsistency,
                Condition::MLinearizability,
                Condition::MNormality,
            ] {
                let (report, cert) = check_certified(&h, c, SearchLimits::default()).unwrap();
                assert_eq!(report.satisfied, cert.admissible);
                // Agreement with the ordinary checker.
                let plain =
                    crate::conditions::check(&h, c, crate::conditions::Strategy::Auto).unwrap();
                assert_eq!(plain.satisfied, report.satisfied, "{c}");
                parse(&cert.to_text()).expect("certificate is valid JSON");
            }
        }
    }
}
