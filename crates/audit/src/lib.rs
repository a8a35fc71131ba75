//! # moc-audit
//!
//! Independent re-validation of `moc-cert` certificates (the documents
//! `moc_checker::certificate` emits) against raw histories.
//!
//! This crate is the *trusted kernel* of the verdict pipeline: it depends
//! only on `moc-core` — not on the checker whose output it audits — so a
//! bug in the checker's saturation, pruning or search cannot also hide in
//! the auditor. Every check here is polynomial in the size of the history
//! plus the certificate:
//!
//! * a **witness** proof is replayed: the order must be a permutation,
//!   a linear extension of the condition's base relation `~H` (checked by
//!   one scan of the order, no relation built), legal under the
//!   version-replay semantics of D 4.6, and its serialized legality trace
//!   must match the replay exactly;
//! * a **cycle** proof is checked edge by edge: `po`/`rf` edges against the
//!   history, `rt` edges (`resp < inv`) only for m-linearizability, `ox`
//!   edges only for m-normality, and each `~rw` edge against D 4.11 — its
//!   interference triple must exist and its premise `β ~ γ` must be
//!   justified by a chain of strictly earlier edges of the same proof;
//!   finally the named edges must form a closed walk;
//! * an **exhaustion** proof cannot be independently replayed in
//!   polynomial time (Theorems 1–2: the problem is NP-complete), so it is
//!   only *attested*: well-formed, correctly bound, verdict-consistent.
//!
//! A certificate is bound to its history by an FNV-1a fingerprint of the
//! canonical text encoding; a certificate presented with any other history
//! is rejected before any proof checking happens.

use std::collections::{BTreeSet, HashMap};

use moc_core::codec;
use moc_core::commute::{
    derive_class, CommuteCert, CommuteMatrix, MoverClass, COMMUTE_SIDE_CONDITIONS,
};
use moc_core::history::{History, MOpIdx};
use moc_core::ids::ObjectId;
use moc_core::json::{self, Json};
use moc_core::legality::sequence_is_legal;
use moc_core::program::Program;
use moc_core::shard::{fingerprint_programs, ShardCert, ShardComposition, ShardEdgeKind};

/// The condition named by a certificate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Condition {
    /// `"sc"` — m-sequential consistency: `~H = ~p ∪ ~rf`.
    Sc,
    /// `"lin"` — m-linearizability: `~H = ~p ∪ ~rf ∪ ~t`.
    Lin,
    /// `"normal"` — m-normality: `~H = ~p ∪ ~rf ∪ ~x`.
    Normal,
}

/// A successful audit: how much of the certificate was re-validated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The witness linearization replayed end to end.
    WitnessVerified,
    /// The `~H+` refutation cycle checked edge by edge.
    CycleVerified,
    /// The exhaustion attestation is well-formed and correctly bound; its
    /// search cannot be independently replayed in polynomial time.
    ExhaustionAttested {
        /// The checker's transposition table saturated during the search:
        /// memo entries were evicted, so the node budget may have been
        /// consumed by re-exploration rather than by genuinely new states.
        memo_limited: bool,
    },
}

impl Verdict {
    /// Whether the proof was fully re-validated (vs merely attested).
    pub fn is_verified(self) -> bool {
        !matches!(self, Verdict::ExhaustionAttested { .. })
    }
}

/// Audits certificate text against a history. `Err` carries the first
/// reason the certificate was rejected.
///
/// # Errors
///
/// Any malformation, binding mismatch, or proof defect rejects.
pub fn audit(h: &History, cert_text: &str) -> Result<Verdict, String> {
    let doc = json::parse(cert_text).map_err(|e| format!("certificate is not valid JSON: {e}"))?;
    audit_document(h, &doc)
}

/// Audits an already-parsed certificate document against a history.
///
/// # Errors
///
/// Any malformation, binding mismatch, or proof defect rejects.
pub fn audit_document(h: &History, doc: &Json) -> Result<Verdict, String> {
    if field(doc, "format")?.as_str() != Some("moc-cert") {
        return Err("format is not \"moc-cert\"".into());
    }
    if uint(doc, "version")? != 1 {
        return Err("unsupported certificate version (expected 1)".into());
    }
    let condition = match field(doc, "condition")?.as_str() {
        Some("sc") => Condition::Sc,
        Some("lin") => Condition::Lin,
        Some("normal") => Condition::Normal,
        _ => return Err("condition must be \"sc\", \"lin\" or \"normal\"".into()),
    };
    let admissible = match field(doc, "verdict")?.as_str() {
        Some("admissible") => true,
        Some("inadmissible") => false,
        _ => return Err("verdict must be \"admissible\" or \"inadmissible\"".into()),
    };

    let binding = field(doc, "history")?;
    if uint(binding, "ops")? != h.len() as u64 {
        return Err(format!(
            "certificate is for {} m-operations, history has {}",
            uint(binding, "ops")?,
            h.len()
        ));
    }
    if uint(binding, "objects")? != h.num_objects() as u64 {
        return Err("certificate object count does not match the history".into());
    }
    let expected = format!("{:016x}", codec::fingerprint(h));
    if field(binding, "fnv1a")?.as_str() != Some(expected.as_str()) {
        return Err(
            "history fingerprint mismatch: certificate is bound to a different history".into(),
        );
    }

    let proof = field(doc, "proof")?;
    match field(proof, "kind")?.as_str() {
        Some("witness") => {
            if !admissible {
                return Err("witness proof with an inadmissible verdict".into());
            }
            check_witness(h, condition, proof)?;
            Ok(Verdict::WitnessVerified)
        }
        Some("cycle") => {
            if admissible {
                return Err("cycle proof with an admissible verdict".into());
            }
            check_cycle(h, condition, proof)?;
            Ok(Verdict::CycleVerified)
        }
        Some("exhaustion") => {
            if admissible {
                return Err("exhaustion proof with an admissible verdict".into());
            }
            for key in [
                "nodes",
                "memo_hits",
                "memo_peak",
                "components",
                "peeled",
                "forced_edges",
            ] {
                uint(proof, key)?;
            }
            // Run metadata of certificates written while the search was
            // multi-threaded: accepted, no longer written, and nonsensical
            // values reject.
            if proof.get("threads").is_some() && uint(proof, "threads")? == 0 {
                return Err("field \"threads\" must be at least 1".into());
            }
            // Symmetry-reduction statistics, recorded since the reduction
            // landed: optional (older certificates omit it), but when
            // present it must be a well-formed count.
            if proof.get("symmetry_skips").is_some() {
                uint(proof, "symmetry_skips")?;
            }
            let memo_limited = field(proof, "memo_saturated")?
                .as_bool()
                .ok_or("field \"memo_saturated\" must be a boolean")?;
            Ok(Verdict::ExhaustionAttested { memo_limited })
        }
        _ => Err("proof kind must be \"witness\", \"cycle\" or \"exhaustion\"".into()),
    }
}

/// Convenience: parse a `history v1` text and audit a certificate
/// against it.
///
/// # Errors
///
/// History parse failures and all [`audit`] rejections.
pub fn audit_texts(history_text: &str, cert_text: &str) -> Result<Verdict, String> {
    let h = codec::from_text(history_text).map_err(|e| format!("cannot parse history: {e}"))?;
    audit(&h, cert_text)
}

/// A successful shard-certificate audit: what was re-validated.
///
/// Like [`Verdict::ExhaustionAttested`], refined footprint claims are
/// *attested* (checked sound against the syntactic footprint, not
/// re-derived — re-deriving would require the analyzer this crate must
/// not depend on); everything else is fully recomputed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardVerdict {
    /// Number of shards in the validated partition.
    pub num_shards: u32,
    /// Programs whose claimed footprint is closed within one shard.
    pub single_shard_programs: usize,
    /// Cross-shard conflict edges the audit re-derived and matched.
    pub cross_edges: usize,
    /// Whether any entry carries attested (refined) claims.
    pub refined_attested: bool,
}

/// Audits a `moc-shard-cert` document against the program set it claims
/// to describe. Linear in the certificate plus quadratic in the number of
/// *programs* (the edge recomputation) — never in any history.
///
/// Checks, in order: schema + version, program-set fingerprint binding,
/// partition well-formedness (total, disjoint, dense), per-program
/// footprint soundness (claims never exceed the syntactic footprint;
/// unrefined claims equal it exactly) and closure (recomputed shard spans
/// must match, and a single-shard claim must be closed in that shard),
/// cross-shard edge coverage (the certificate must list *exactly* the
/// conflict edges touching a straddling program — a silently dropped
/// conflict and a fabricated edge both reject), and the composition
/// verdict (re-derived from certificate data alone).
///
/// # Errors
///
/// Any malformation, binding mismatch, or violated obligation rejects
/// with the first reason found.
pub fn audit_shard(programs: &[&Program], cert_text: &str) -> Result<ShardVerdict, String> {
    let cert = ShardCert::parse(cert_text)?;

    // Binding: computed from exactly this program set, in this order.
    let expected_fp = fingerprint_programs(programs);
    if cert.programs_fp != expected_fp {
        return Err(format!(
            "program-set fingerprint mismatch: certificate is bound to {:016x}, \
             input set fingerprints to {expected_fp:016x}",
            cert.programs_fp
        ));
    }
    if cert.programs.len() != programs.len() {
        return Err(format!(
            "certificate lists {} programs, input set has {}",
            cert.programs.len(),
            programs.len()
        ));
    }

    // Partition well-formedness: every object in exactly one shard,
    // shard ids dense.
    let plan = cert.plan()?;

    let mut single_shard_programs = 0usize;
    let mut refined_attested = false;
    for (i, entry) in cert.programs.iter().enumerate() {
        let prog = programs[i];
        let fail = |msg: String| Err(format!("program {i} ({}): {msg}", entry.name));
        if entry.name != prog.name() {
            return fail(format!(
                "name mismatch (input program is {:?})",
                prog.name()
            ));
        }
        for (what, claim) in [("reads", &entry.reads), ("writes", &entry.writes)] {
            if !claim.windows(2).all(|w| w[0] < w[1]) {
                return fail(format!("claimed {what} must be strictly ascending"));
            }
        }
        let claim_r: BTreeSet<ObjectId> = entry.reads.iter().copied().collect();
        let claim_w: BTreeSet<ObjectId> = entry.writes.iter().copied().collect();
        // Soundness: refinement may only shrink the syntactic footprint.
        if !claim_r.is_subset(&prog.potential_reads()) {
            return fail("claimed read footprint exceeds the syntactic one".into());
        }
        if !claim_w.is_subset(&prog.potential_writes()) {
            return fail("claimed write footprint exceeds the syntactic one".into());
        }
        if entry.refined {
            refined_attested = true;
        } else if claim_r != prog.potential_reads() || claim_w != prog.potential_writes() {
            return fail(
                "claims differ from the syntactic footprint but are not marked refined".into(),
            );
        }
        if entry.update == claim_w.is_empty() {
            return fail("update flag contradicts the claimed write footprint".into());
        }
        // Footprint closure: bounds-check, then the spans recomputed
        // from the claimed footprint must match the entry.
        let mut spans: Vec<u32> = Vec::new();
        for &o in claim_r.union(&claim_w) {
            if o.index() >= cert.num_objects {
                return fail(format!("object {o} outside the certificate's universe"));
            }
            spans.push(plan.shard_of(o));
        }
        spans.sort_unstable();
        spans.dedup();
        if spans != entry.spans {
            return fail(format!(
                "footprint closure violated: footprint touches shards {spans:?}, \
                 certificate says {:?}",
                entry.spans
            ));
        }
        match entry.shard {
            Some(s) => {
                if entry.spans != [s] {
                    return fail(format!(
                        "claimed closed within shard {s} but spans {:?}",
                        entry.spans
                    ));
                }
                single_shard_programs += 1;
            }
            None => {
                if entry.spans.len() == 1 {
                    return fail("single-shard footprint recorded as straddling".into());
                }
            }
        }
    }

    // Edge coverage: recompute, from the (now-validated) claimed
    // footprints, every conflict edge touching a straddling program —
    // exactly the pairs per-shard sequencing cannot order. Pairs of
    // single-shard programs need no entry: a shared object pins both
    // footprints to its one shard, so that shard's order covers them.
    let straddles = |i: usize| cert.programs[i].spans.len() >= 2;
    let objs = |v: &[ObjectId]| v.iter().copied().collect::<BTreeSet<_>>();
    let mut expected: BTreeSet<(usize, usize, ObjectId, &'static str)> = BTreeSet::new();
    for i in 0..cert.programs.len() {
        for j in i..cert.programs.len() {
            if !(straddles(i) || straddles(j)) {
                continue;
            }
            let (p, q) = (&cert.programs[i], &cert.programs[j]);
            let (wi, wj) = (objs(&p.writes), objs(&q.writes));
            let ww: BTreeSet<ObjectId> = wi.intersection(&wj).copied().collect();
            let mut rw: BTreeSet<ObjectId> = wi.intersection(&objs(&q.reads)).copied().collect();
            rw.extend(wj.intersection(&objs(&p.reads)).copied());
            for &o in &ww {
                expected.insert((i, j, o, "ww"));
            }
            for &o in rw.difference(&ww) {
                expected.insert((i, j, o, "rw"));
            }
        }
    }
    let mut listed: BTreeSet<(usize, usize, ObjectId, &'static str)> = BTreeSet::new();
    for (k, e) in cert.cross_edges.iter().enumerate() {
        if e.a > e.b || e.b >= cert.programs.len() {
            return Err(format!(
                "cross edge {k}: program indices out of order or range"
            ));
        }
        let kind = match e.kind {
            ShardEdgeKind::Ww => "ww",
            ShardEdgeKind::Rw => "rw",
        };
        if !listed.insert((e.a, e.b, e.object, kind)) {
            return Err(format!("cross edge {k} is listed twice"));
        }
    }
    if let Some((a, b, o, kind)) = expected.difference(&listed).next() {
        return Err(format!(
            "silently dropped cross-shard conflict: {} ~ {} on object {o} ({kind})",
            cert.programs[*a].name, cert.programs[*b].name
        ));
    }
    if let Some((a, b, o, kind)) = listed.difference(&expected).next() {
        return Err(format!(
            "fabricated cross-shard edge: {} ~ {} on object {o} ({kind})",
            cert.programs[*a].name, cert.programs[*b].name
        ));
    }

    // Composition verdict: re-derivable from certificate data alone.
    let derived = ShardComposition::derive(plan.num_shards(), &cert.programs, &cert.cross_edges);
    if derived != cert.composition {
        return Err("composition verdict does not match the partition and edge set".into());
    }

    Ok(ShardVerdict {
        num_shards: plan.num_shards(),
        single_shard_programs,
        cross_edges: cert.cross_edges.len(),
        refined_attested,
    })
}

/// A successful commutativity-certificate audit: what was re-validated.
///
/// As with [`ShardVerdict`], refined footprint claims are *attested*
/// (checked sound against the syntactic footprint), while the
/// commutativity matrix and every mover class are fully recomputed from
/// the claimed footprints and compared entry-for-entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommuteVerdict {
    /// Number of programs the certificate covers.
    pub num_programs: usize,
    /// Commuting pairs `(i, j)` with `i <= j` (self-pairs model two
    /// concurrent instances of the same program).
    pub commuting_pairs: usize,
    /// Programs recomputed as read-only.
    pub read_only: usize,
    /// Programs recomputed as non-movers.
    pub non_movers: usize,
    /// Whether any entry carries attested (refined) claims.
    pub refined_attested: bool,
}

/// Audits a `moc-commute-cert` document against the program set it
/// claims to describe. Quadratic in the number of *programs* (the
/// pairwise matrix recomputation) — never in any history.
///
/// Checks, in order: schema + version, program-set fingerprint binding,
/// per-program footprint soundness (claims never exceed the syntactic
/// footprint; unrefined claims equal it exactly; the update flag must
/// match the claimed write footprint), matrix well-formedness (CSR
/// shape, sorted rows, symmetry), an exact recomputation of the
/// commutativity matrix from the claimed footprints (a dropped conflict
/// and a fabricated commutation both reject), an exact recomputation of
/// every mover class, and the side-condition list that scopes the
/// certificate to register semantics.
///
/// # Errors
///
/// Any malformation, binding mismatch, or violated obligation rejects
/// with the first reason found.
pub fn audit_commute(programs: &[&Program], cert_text: &str) -> Result<CommuteVerdict, String> {
    let cert = CommuteCert::parse(cert_text)?;

    // Binding: computed from exactly this program set, in this order.
    let expected_fp = fingerprint_programs(programs);
    if cert.programs_fp != expected_fp {
        return Err(format!(
            "program-set fingerprint mismatch: certificate is bound to {:016x}, \
             input set fingerprints to {expected_fp:016x}",
            cert.programs_fp
        ));
    }
    if cert.programs.len() != programs.len() {
        return Err(format!(
            "certificate lists {} programs, input set has {}",
            cert.programs.len(),
            programs.len()
        ));
    }

    let mut refined_attested = false;
    for (i, entry) in cert.programs.iter().enumerate() {
        let prog = programs[i];
        let fail = |msg: String| Err(format!("program {i} ({}): {msg}", entry.name));
        if entry.name != prog.name() {
            return fail(format!(
                "name mismatch (input program is {:?})",
                prog.name()
            ));
        }
        for (what, claim) in [("reads", &entry.reads), ("writes", &entry.writes)] {
            if !claim.windows(2).all(|w| w[0] < w[1]) {
                return fail(format!("claimed {what} must be strictly ascending"));
            }
        }
        let claim_r: BTreeSet<ObjectId> = entry.reads.iter().copied().collect();
        let claim_w: BTreeSet<ObjectId> = entry.writes.iter().copied().collect();
        // Soundness: refinement may only shrink the syntactic footprint.
        if !claim_r.is_subset(&prog.potential_reads()) {
            return fail("claimed read footprint exceeds the syntactic one".into());
        }
        if !claim_w.is_subset(&prog.potential_writes()) {
            return fail("claimed write footprint exceeds the syntactic one".into());
        }
        if entry.refined {
            refined_attested = true;
        } else if claim_r != prog.potential_reads() || claim_w != prog.potential_writes() {
            return fail(
                "claims differ from the syntactic footprint but are not marked refined".into(),
            );
        }
        if entry.update == claim_w.is_empty() {
            return fail("update flag contradicts the claimed write footprint".into());
        }
        for &o in claim_r.union(&claim_w) {
            if o.index() >= cert.num_objects {
                return fail(format!("object {o} outside the certificate's universe"));
            }
        }
    }

    // Matrix: structurally well-formed, then byte-for-byte equal to the
    // one recomputed from the (now-validated) claimed footprints. A
    // missing pair is a silently dropped conflict the fast paths would
    // exploit unsoundly; an extra pair is a fabricated commutation.
    cert.matrix.validate(cert.programs.len())?;
    let derived = CommuteMatrix::derive(&cert.programs);
    if derived != cert.matrix {
        for i in 0..cert.programs.len() {
            for j in 0..cert.programs.len() {
                let (claimed, actual) = (cert.matrix.commutes(i, j), derived.commutes(i, j));
                if claimed && !actual {
                    return Err(format!(
                        "fabricated commutation: {} ~ {} conflict on the claimed footprints",
                        cert.programs[i].name, cert.programs[j].name
                    ));
                }
                if actual && !claimed {
                    return Err(format!(
                        "silently dropped commutation: {} ~ {} commute on the claimed footprints",
                        cert.programs[i].name, cert.programs[j].name
                    ));
                }
            }
        }
        return Err("commutativity matrix does not match the claimed footprints".into());
    }

    // Mover classes: every class fully recomputed from the footprints.
    let mut read_only = 0usize;
    let mut non_movers = 0usize;
    for (i, entry) in cert.programs.iter().enumerate() {
        let actual = derive_class(&cert.programs, i);
        if entry.class != actual {
            return Err(format!(
                "program {i} ({}): mover class claims {} but footprints derive {}",
                entry.name, entry.class, actual
            ));
        }
        match actual {
            MoverClass::ReadOnly => read_only += 1,
            MoverClass::NonMover => non_movers += 1,
            _ => {}
        }
    }

    // Side conditions scope the certificate to register semantics; a
    // consumer under different object semantics must not accept it.
    if cert.side_conditions != COMMUTE_SIDE_CONDITIONS {
        return Err(format!(
            "side conditions must be exactly {COMMUTE_SIDE_CONDITIONS:?}, \
             certificate lists {:?}",
            cert.side_conditions
        ));
    }

    Ok(CommuteVerdict {
        num_programs: cert.programs.len(),
        commuting_pairs: cert.matrix.num_commuting_pairs(),
        read_only,
        non_movers,
        refined_attested,
    })
}

fn field<'a>(doc: &'a Json, key: &str) -> Result<&'a Json, String> {
    doc.get(key).ok_or_else(|| format!("missing field {key:?}"))
}

fn uint(doc: &Json, key: &str) -> Result<u64, String> {
    field(doc, key)?
        .as_u64()
        .ok_or_else(|| format!("field {key:?} must be a non-negative integer"))
}

fn check_witness(h: &History, condition: Condition, proof: &Json) -> Result<(), String> {
    let n = h.len();
    let order_json = field(proof, "order")?
        .as_arr()
        .ok_or("witness order must be an array")?;
    if order_json.len() != n {
        return Err(format!(
            "witness order has {} entries, history has {n} m-operations",
            order_json.len()
        ));
    }
    let mut order = Vec::with_capacity(n);
    let mut position = vec![usize::MAX; n];
    for (pos, v) in order_json.iter().enumerate() {
        let idx = v
            .as_usize()
            .filter(|&i| i < n)
            .ok_or("witness order entry out of range")?;
        if position[idx] != usize::MAX {
            return Err(format!("witness order repeats m-operation {idx}"));
        }
        position[idx] = pos;
        order.push(MOpIdx(idx));
    }

    // Linear extension of the condition's base relation.
    if let Some((i, j)) = first_inversion(h, condition, &order, &position) {
        return Err(format!(
            "witness violates ~H: {} must precede {}",
            h.record(i).id,
            h.record(j).id
        ));
    }

    // Version replay (D 4.6 on total orders).
    if !sequence_is_legal(h, &order) {
        return Err("witness order is not a legal sequential history".into());
    }

    // The serialized legality trace must match the replay exactly.
    let steps = field(proof, "reads")?
        .as_arr()
        .ok_or("witness reads must be an array")?;
    let mut expected = Vec::new();
    for (pos, &alpha) in order.iter().enumerate() {
        for (obj, writer) in h.read_sources(alpha) {
            expected.push((
                pos,
                obj.index(),
                writer.map_or(-1, |w| position[w.0] as i64),
            ));
        }
    }
    if steps.len() != expected.len() {
        return Err(format!(
            "legality trace has {} steps, history has {} external reads",
            steps.len(),
            expected.len()
        ));
    }
    for (step, &(pos, obj, from)) in steps.iter().zip(&expected) {
        let got_pos = uint(step, "pos")? as usize;
        let got_obj = uint(step, "obj")? as usize;
        let got_from = field(step, "from")?
            .as_i64()
            .ok_or("trace field \"from\" must be an integer")?;
        if (got_pos, got_obj, got_from) != (pos, obj, from) {
            return Err(format!(
                "legality trace mismatch at position {pos}: expected read of o{obj} from {from}, \
                 certificate says o{got_obj} from {got_from}"
            ));
        }
    }
    Ok(())
}

/// A pair `(i, j)` of `~H` that `order` places the wrong way round (`j`
/// first), if any, found by scans in witness order rather than over the
/// relation's pairs: `~p` by each process's last sequence number, `~rf` by
/// position, and `~t` (`~x`) by the latest invocation placed so far (on
/// each object), which a response before it contradicts.
fn first_inversion(
    h: &History,
    condition: Condition,
    order: &[MOpIdx],
    position: &[usize],
) -> Option<(MOpIdx, MOpIdx)> {
    let mut last_of_process = HashMap::new();
    // Of the m-operations placed so far (touching each object), the one
    // invoked last; placing `j` returns it if `j` responds before that.
    let mut latest: Option<MOpIdx> = None;
    let mut latest_on: Vec<Option<MOpIdx>> = vec![None; h.num_objects()];
    let place = |slot: &mut Option<MOpIdx>, j: MOpIdx| match *slot {
        Some(i) if h.record(j).responded_at < h.record(i).invoked_at => Some(i),
        Some(i) if h.record(j).invoked_at <= h.record(i).invoked_at => None,
        _ => {
            *slot = Some(j);
            None
        }
    };
    for (pos, &j) in order.iter().enumerate() {
        let id = h.record(j).id;
        if let Some(i) = last_of_process.insert(id.process, j) {
            if h.record(i).id.seq > id.seq {
                return Some((j, i));
            }
        }
        for (_, writer) in h.read_sources(j) {
            if let Some(i) = writer.filter(|w| position[w.0] > pos) {
                return Some((i, j));
            }
        }
        let later = match condition {
            Condition::Sc => None,
            Condition::Lin => place(&mut latest, j),
            Condition::Normal => h
                .objects(j)
                .iter()
                .find_map(|o| place(&mut latest_on[o.index()], j)),
        };
        if let Some(i) = later {
            return Some((j, i));
        }
    }
    None
}

/// One parsed edge of a cycle proof.
struct AuditEdge {
    from: usize,
    to: usize,
    why: String,
    /// For `rw` edges: the read-from writer (`None` = initial).
    beta: Option<usize>,
    /// For `rw` edges: the object whose version would be overwritten.
    obj: usize,
    /// For `rw` edges: justification path slots for the premise.
    via: Vec<usize>,
}

fn check_cycle(h: &History, condition: Condition, proof: &Json) -> Result<(), String> {
    let n = h.len();
    // `a` responds before `b` is invoked: `a ~t b`.
    let responds_before = |a: MOpIdx, b: MOpIdx| h.record(a).responded_at < h.record(b).invoked_at;

    let edges_json = field(proof, "edges")?
        .as_arr()
        .ok_or("cycle edges must be an array")?;
    let mut edges: Vec<AuditEdge> = Vec::with_capacity(edges_json.len());
    for (idx, e) in edges_json.iter().enumerate() {
        let from = uint(e, "from")? as usize;
        let to = uint(e, "to")? as usize;
        if from >= n || to >= n {
            return Err(format!("edge {idx} references an m-operation out of range"));
        }
        if from == to {
            return Err(format!("edge {idx} is a self-loop"));
        }
        let why = field(e, "why")?
            .as_str()
            .ok_or("edge reason must be a string")?
            .to_string();
        let (a, b) = (MOpIdx(from), MOpIdx(to));
        let (beta, obj, via) = match why.as_str() {
            "po" => {
                let (ia, ib) = (h.record(a).id, h.record(b).id);
                if ia.process != ib.process || ia.seq >= ib.seq {
                    return Err(format!("edge {idx}: no process order {from} -> {to}"));
                }
                (None, 0, Vec::new())
            }
            "rf" => {
                let reads = h.read_sources(b).any(|(_, w)| w == Some(a));
                if !reads {
                    return Err(format!(
                        "edge {idx}: m-operation {to} does not read from {from}"
                    ));
                }
                (None, 0, Vec::new())
            }
            "rt" => {
                if condition != Condition::Lin {
                    return Err(format!(
                        "edge {idx}: real-time edges are only admissible for \"lin\""
                    ));
                }
                if !responds_before(a, b) {
                    return Err(format!("edge {idx}: no real-time order {from} -> {to}"));
                }
                (None, 0, Vec::new())
            }
            "ox" => {
                if condition != Condition::Normal {
                    return Err(format!(
                        "edge {idx}: object-order edges are only admissible for \"normal\""
                    ));
                }
                let share = h.objects(a).iter().any(|o| h.objects(b).contains(o));
                if !(share && responds_before(a, b)) {
                    return Err(format!("edge {idx}: no object order {from} -> {to}"));
                }
                (None, 0, Vec::new())
            }
            "rw" => {
                let beta_raw = field(e, "beta")?
                    .as_i64()
                    .ok_or("rw edge field \"beta\" must be an integer")?;
                let beta = if beta_raw < 0 {
                    None
                } else {
                    let beta = beta_raw as usize;
                    if beta >= n {
                        return Err(format!("edge {idx}: beta out of range"));
                    }
                    Some(beta)
                };
                let obj = uint(e, "obj")? as usize;
                if obj >= h.num_objects() {
                    return Err(format!("edge {idx}: object out of range"));
                }
                let oid = ObjectId::new(obj as u32);
                // D 4.11 interference: from reads obj from beta, to also
                // writes obj, and to is neither the reader nor its source.
                if !h.wobjects(b).contains(&oid) {
                    return Err(format!(
                        "edge {idx}: m-operation {to} does not write o{obj}"
                    ));
                }
                let source_matches = h
                    .read_sources(a)
                    .any(|(o, w)| o == oid && w == beta.map(MOpIdx));
                if !source_matches {
                    return Err(format!(
                        "edge {idx}: m-operation {from} does not read o{obj} from the named source"
                    ));
                }
                if beta == Some(to) {
                    return Err(format!("edge {idx}: beta and gamma coincide"));
                }
                let via_json = field(e, "via")?
                    .as_arr()
                    .ok_or("rw edge field \"via\" must be an array")?;
                let mut via = Vec::with_capacity(via_json.len());
                for v in via_json {
                    via.push(v.as_usize().filter(|&s| s < idx).ok_or_else(|| {
                        format!("edge {idx}: via must reference strictly earlier edges")
                    })?);
                }
                (beta, obj, via)
            }
            other => return Err(format!("edge {idx}: unknown reason {other:?}")),
        };
        edges.push(AuditEdge {
            from,
            to,
            why,
            beta,
            obj,
            via,
        });
    }

    // Second pass: each rw premise path must chain beta -> ... -> to over
    // the (already individually validated, strictly earlier) edges. With
    // `via` indices strictly decreasing into the list, this induction
    // grounds out: the premise of D 4.11 holds, so every rw edge holds.
    for (idx, e) in edges.iter().enumerate() {
        if e.why != "rw" {
            continue;
        }
        match e.beta {
            None => {
                // The initial m-operation precedes everything: premise
                // holds vacuously; no path required.
            }
            Some(beta) => {
                if e.via.is_empty() {
                    return Err(format!("edge {idx}: rw premise needs a justification path"));
                }
                let mut cur = beta;
                for &slot in &e.via {
                    if edges[slot].from != cur {
                        return Err(format!("edge {idx}: justification path does not chain"));
                    }
                    cur = edges[slot].to;
                }
                if cur != e.to {
                    return Err(format!(
                        "edge {idx}: justification path does not reach gamma (o{})",
                        e.obj
                    ));
                }
            }
        }
    }

    // The named slots must form a closed walk.
    let cycle_json = field(proof, "cycle")?
        .as_arr()
        .ok_or("cycle must be an array")?;
    if cycle_json.len() < 2 {
        return Err("cycle must contain at least two edges".into());
    }
    let mut cycle = Vec::with_capacity(cycle_json.len());
    for v in cycle_json {
        cycle.push(
            v.as_usize()
                .filter(|&s| s < edges.len())
                .ok_or("cycle references an edge out of range")?,
        );
    }
    for (k, &slot) in cycle.iter().enumerate() {
        let next = cycle[(k + 1) % cycle.len()];
        if edges[slot].to != edges[next].from {
            return Err(format!("cycle breaks between slots {slot} and {next}"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use moc_core::history::HistoryBuilder;
    use moc_core::ids::ProcessId;

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

    fn cert(condition: &str, verdict: &str, h: &History, proof: &str) -> String {
        format!(
            "{{\"format\":\"moc-cert\",\"version\":1,\"condition\":\"{condition}\",\
             \"verdict\":\"{verdict}\",\"history\":{{\"ops\":{},\"objects\":{},\
             \"fnv1a\":\"{:016x}\"}},\"proof\":{proof}}}",
            h.len(),
            h.num_objects(),
            codec::fingerprint(h)
        )
    }

    #[test]
    fn accepts_a_hand_written_witness() {
        let h = stale_read();
        // Read of initial x first, then the write: legal under m-SC.
        let proof = "{\"kind\":\"witness\",\"order\":[1,0],\
                     \"reads\":[{\"pos\":0,\"obj\":0,\"from\":-1}]}";
        let v = audit(&h, &cert("sc", "admissible", &h, proof)).unwrap();
        assert_eq!(v, Verdict::WitnessVerified);
    }

    #[test]
    fn rejects_an_illegal_or_tampered_witness() {
        let h = stale_read();
        // Write first: the read of initial x becomes stale — illegal.
        let proof = "{\"kind\":\"witness\",\"order\":[0,1],\
                     \"reads\":[{\"pos\":1,\"obj\":0,\"from\":-1}]}";
        let err = audit(&h, &cert("sc", "admissible", &h, proof)).unwrap_err();
        assert!(err.contains("not a legal"), "{err}");
        // Tampered trace: claims the read observes the write.
        let proof = "{\"kind\":\"witness\",\"order\":[1,0],\
                     \"reads\":[{\"pos\":0,\"obj\":0,\"from\":1}]}";
        let err = audit(&h, &cert("sc", "admissible", &h, proof)).unwrap_err();
        assert!(err.contains("trace mismatch"), "{err}");
        // Not a permutation.
        let proof = "{\"kind\":\"witness\",\"order\":[1,1],\"reads\":[]}";
        assert!(audit(&h, &cert("sc", "admissible", &h, proof)).is_err());
    }

    #[test]
    fn rejects_wrong_binding_and_malformed_documents() {
        let h = stale_read();
        let proof = "{\"kind\":\"witness\",\"order\":[1,0],\
                     \"reads\":[{\"pos\":0,\"obj\":0,\"from\":-1}]}";
        let good = cert("sc", "admissible", &h, proof);
        // Fingerprint tamper.
        let bad = good.replace(&format!("{:016x}", codec::fingerprint(&h)), &"0".repeat(16));
        assert!(audit(&h, &bad).unwrap_err().contains("fingerprint"));
        // Version bump.
        let bad = good.replace("\"version\":1", "\"version\":2");
        assert!(audit(&h, &bad).unwrap_err().contains("version"));
        // Verdict flipped against the proof kind.
        let bad = good.replace("admissible", "inadmissible");
        assert!(audit(&h, &bad).unwrap_err().contains("witness proof"));
        // Not JSON at all.
        assert!(audit(&h, "not json").unwrap_err().contains("JSON"));
    }

    #[test]
    fn verifies_a_real_time_cycle_for_lin_only() {
        let h = stale_read();
        // Under lin: write ~t read (real time) and read ~rw write (reads
        // initial x that the write overwrites) close a 2-cycle.
        let proof = "{\"kind\":\"cycle\",\"edges\":[\
                     {\"from\":0,\"to\":1,\"why\":\"rt\"},\
                     {\"from\":1,\"to\":0,\"why\":\"rw\",\"beta\":-1,\"obj\":0,\"via\":[]}],\
                     \"cycle\":[0,1]}";
        let v = audit(&h, &cert("lin", "inadmissible", &h, proof)).unwrap();
        assert_eq!(v, Verdict::CycleVerified);
        // The same rt edge is inadmissible under sc.
        let err = audit(&h, &cert("sc", "inadmissible", &h, proof)).unwrap_err();
        assert!(err.contains("only admissible for \"lin\""), "{err}");
    }

    #[test]
    fn rejects_broken_cycles_and_bad_rw_justifications() {
        let h = stale_read();
        // Walk does not close.
        let proof = "{\"kind\":\"cycle\",\"edges\":[\
                     {\"from\":0,\"to\":1,\"why\":\"rt\"},\
                     {\"from\":1,\"to\":0,\"why\":\"rw\",\"beta\":-1,\"obj\":0,\"via\":[]}],\
                     \"cycle\":[0,0]}";
        assert!(audit(&h, &cert("lin", "inadmissible", &h, proof)).is_err());
        // rw names an object the target does not write.
        let proof = "{\"kind\":\"cycle\",\"edges\":[\
                     {\"from\":0,\"to\":1,\"why\":\"rt\"},\
                     {\"from\":1,\"to\":0,\"why\":\"rw\",\"beta\":0,\"obj\":0,\"via\":[0]}],\
                     \"cycle\":[0,1]}";
        // beta=0 is not the read's source (it reads the initial value).
        let err = audit(&h, &cert("lin", "inadmissible", &h, proof)).unwrap_err();
        assert!(err.contains("named source"), "{err}");
        // Forward (non-well-founded) via reference.
        let proof = "{\"kind\":\"cycle\",\"edges\":[\
                     {\"from\":1,\"to\":0,\"why\":\"rw\",\"beta\":-1,\"obj\":0,\"via\":[1]},\
                     {\"from\":0,\"to\":1,\"why\":\"rt\"}],\
                     \"cycle\":[0,1]}";
        let err = audit(&h, &cert("lin", "inadmissible", &h, proof)).unwrap_err();
        assert!(err.contains("strictly earlier"), "{err}");
    }

    #[test]
    fn exhaustion_is_attested_not_verified() {
        let h = stale_read();
        let proof = "{\"kind\":\"exhaustion\",\"nodes\":3,\"memo_hits\":0,\
                     \"memo_peak\":2,\"memo_saturated\":false,\
                     \"components\":1,\"peeled\":0,\"forced_edges\":1}";
        let v = audit(&h, &cert("sc", "inadmissible", &h, proof)).unwrap();
        assert_eq!(
            v,
            Verdict::ExhaustionAttested {
                memo_limited: false
            }
        );
        assert!(!v.is_verified());
        // A saturated table is surfaced as memo-limited.
        let proof = "{\"kind\":\"exhaustion\",\"nodes\":3,\"memo_hits\":0,\
                     \"memo_peak\":2,\"memo_saturated\":true,\
                     \"components\":1,\"peeled\":0,\"forced_edges\":1}";
        let v = audit(&h, &cert("sc", "inadmissible", &h, proof)).unwrap();
        assert_eq!(v, Verdict::ExhaustionAttested { memo_limited: true });
        // The recorded thread count is optional metadata, validated when
        // present: positive accepts, zero rejects.
        let proof = "{\"kind\":\"exhaustion\",\"threads\":4,\"nodes\":3,\
                     \"memo_hits\":0,\"memo_peak\":2,\"memo_saturated\":false,\
                     \"components\":1,\"peeled\":0,\"forced_edges\":1}";
        assert!(audit(&h, &cert("sc", "inadmissible", &h, proof)).is_ok());
        let proof = "{\"kind\":\"exhaustion\",\"threads\":0,\"nodes\":3,\
                     \"memo_hits\":0,\"memo_peak\":2,\"memo_saturated\":false,\
                     \"components\":1,\"peeled\":0,\"forced_edges\":1}";
        let err = audit(&h, &cert("sc", "inadmissible", &h, proof)).unwrap_err();
        assert!(err.contains("threads"), "{err}");
        // Missing a statistics field rejects.
        let proof = "{\"kind\":\"exhaustion\",\"nodes\":3}";
        assert!(audit(&h, &cert("sc", "inadmissible", &h, proof)).is_err());
        // Missing the saturation flag rejects.
        let proof = "{\"kind\":\"exhaustion\",\"nodes\":3,\"memo_hits\":0,\
                     \"memo_peak\":2,\"components\":1,\"peeled\":0,\"forced_edges\":1}";
        assert!(audit(&h, &cert("sc", "inadmissible", &h, proof)).is_err());
    }

    #[test]
    fn audit_texts_parses_the_history_format() {
        let h = stale_read();
        let text = codec::to_text(&h);
        let proof = "{\"kind\":\"witness\",\"order\":[1,0],\
                     \"reads\":[{\"pos\":0,\"obj\":0,\"from\":-1}]}";
        let v = audit_texts(&text, &cert("sc", "admissible", &h, proof)).unwrap();
        assert_eq!(v, Verdict::WitnessVerified);
        assert!(audit_texts("garbage", "{}")
            .unwrap_err()
            .contains("history"));
    }
}

#[cfg(test)]
mod shard_tests {
    use super::*;
    use moc_core::program::{imm, reg, Program, ProgramBuilder};
    use moc_core::shard::{ShardCrossEdge, ShardProgramEntry};

    fn oid(i: u32) -> ObjectId {
        ObjectId::new(i)
    }

    fn writer(name: &str, objs: &[u32]) -> Program {
        let mut b = ProgramBuilder::new(name);
        for &o in objs {
            b.write(oid(o), imm(1));
        }
        b.ret(vec![]);
        b.build().unwrap()
    }

    fn reader(name: &str, objs: &[u32]) -> Program {
        let mut b = ProgramBuilder::new(name);
        for (i, &o) in objs.iter().enumerate() {
            b.read(oid(o), i as u8);
        }
        b.ret(vec![reg(0)]);
        b.build().unwrap()
    }

    fn entry(p: &Program, shard: Option<u32>, spans: &[u32]) -> ShardProgramEntry {
        ShardProgramEntry {
            name: p.name().to_string(),
            update: p.is_potential_update(),
            refined: false,
            reads: p.potential_reads().into_iter().collect(),
            writes: p.potential_writes().into_iter().collect(),
            shard,
            spans: spans.to_vec(),
        }
    }

    /// Two disjoint object groups, cleanly sharded, no cross edges.
    fn disjoint_cert() -> (Vec<Program>, ShardCert) {
        let progs = vec![
            writer("w01", &[0, 1]),
            reader("q0", &[0]),
            writer("w23", &[2, 3]),
        ];
        let refs: Vec<&Program> = progs.iter().collect();
        let programs = vec![
            entry(&progs[0], Some(0), &[0]),
            entry(&progs[1], Some(0), &[0]),
            entry(&progs[2], Some(1), &[1]),
        ];
        let composition = ShardComposition::derive(2, &programs, &[]);
        let cert = ShardCert {
            num_objects: 4,
            programs_fp: fingerprint_programs(&refs),
            shards: vec![vec![oid(0), oid(1)], vec![oid(2), oid(3)]],
            programs,
            cross_edges: vec![],
            composition,
        };
        (progs, cert)
    }

    /// A straddling writer bridging two shards, with its full edge set
    /// (including the self-pair: two concurrent instances conflict).
    fn straddling_cert() -> (Vec<Program>, ShardCert) {
        let progs = vec![writer("w01", &[0, 1]), writer("w1", &[1])];
        let refs: Vec<&Program> = progs.iter().collect();
        let programs = vec![
            entry(&progs[0], None, &[0, 1]),
            entry(&progs[1], Some(1), &[1]),
        ];
        let cross_edges = vec![
            ShardCrossEdge {
                a: 0,
                b: 0,
                object: oid(0),
                kind: ShardEdgeKind::Ww,
            },
            ShardCrossEdge {
                a: 0,
                b: 0,
                object: oid(1),
                kind: ShardEdgeKind::Ww,
            },
            ShardCrossEdge {
                a: 0,
                b: 1,
                object: oid(1),
                kind: ShardEdgeKind::Ww,
            },
        ];
        let composition = ShardComposition::derive(2, &programs, &cross_edges);
        let cert = ShardCert {
            num_objects: 2,
            programs_fp: fingerprint_programs(&refs),
            shards: vec![vec![oid(0)], vec![oid(1)]],
            programs,
            cross_edges,
            composition,
        };
        (progs, cert)
    }

    #[test]
    fn accepts_consistent_certificates() {
        let (progs, cert) = disjoint_cert();
        let refs: Vec<&Program> = progs.iter().collect();
        let v = audit_shard(&refs, &cert.to_json()).unwrap();
        assert_eq!(v.num_shards, 2);
        assert_eq!(v.single_shard_programs, 3);
        assert_eq!(v.cross_edges, 0);
        assert!(!v.refined_attested);

        let (progs, cert) = straddling_cert();
        let refs: Vec<&Program> = progs.iter().collect();
        let v = audit_shard(&refs, &cert.to_json()).unwrap();
        assert_eq!(v.single_shard_programs, 1);
        assert_eq!(v.cross_edges, 3);
    }

    #[test]
    fn rejects_a_moved_object() {
        let (progs, mut cert) = disjoint_cert();
        let refs: Vec<&Program> = progs.iter().collect();
        // Move object 1 into shard 1: w01's footprint now straddles,
        // contradicting its single-shard claim.
        cert.shards = vec![vec![oid(0)], vec![oid(1), oid(2), oid(3)]];
        let err = audit_shard(&refs, &cert.to_json()).unwrap_err();
        assert!(err.contains("footprint closure"), "{err}");
    }

    #[test]
    fn rejects_a_dropped_cross_edge() {
        let (progs, mut cert) = straddling_cert();
        let refs: Vec<&Program> = progs.iter().collect();
        cert.cross_edges.pop();
        let err = audit_shard(&refs, &cert.to_json()).unwrap_err();
        assert!(err.contains("silently dropped"), "{err}");
        assert!(err.contains("w01") && err.contains("w1"), "{err}");
    }

    #[test]
    fn rejects_fabricated_edges_and_tampered_composition() {
        let (progs, cert) = disjoint_cert();
        let refs: Vec<&Program> = progs.iter().collect();

        let mut fab = cert.clone();
        fab.cross_edges.push(ShardCrossEdge {
            a: 0,
            b: 2,
            object: oid(0),
            kind: ShardEdgeKind::Rw,
        });
        let err = audit_shard(&refs, &fab.to_json()).unwrap_err();
        assert!(err.contains("fabricated"), "{err}");

        let mut comp = cert;
        comp.composition.ww = false;
        let err = audit_shard(&refs, &comp.to_json()).unwrap_err();
        assert!(err.contains("composition"), "{err}");
    }

    #[test]
    fn rejects_wrong_program_binding() {
        let (progs, cert) = disjoint_cert();
        // Reordered program set → fingerprint mismatch before anything
        // else is even looked at.
        let refs: Vec<&Program> = vec![&progs[2], &progs[1], &progs[0]];
        let err = audit_shard(&refs, &cert.to_json()).unwrap_err();
        assert!(err.contains("fingerprint"), "{err}");
    }

    #[test]
    fn refined_claims_are_attested_but_bounded() {
        let (progs, cert) = disjoint_cert();
        let refs: Vec<&Program> = progs.iter().collect();

        // Shrunken claim without the refined flag rejects.
        let mut c = cert.clone();
        c.programs[0].writes = vec![oid(0)];
        let err = audit_shard(&refs, &c.to_json()).unwrap_err();
        assert!(err.contains("not marked refined"), "{err}");

        // With the flag, a sound shrink is attested (spans still check).
        let mut c = cert.clone();
        c.programs[0].writes = vec![oid(0)];
        c.programs[0].refined = true;
        let v = audit_shard(&refs, &c.to_json()).unwrap();
        assert!(v.refined_attested);

        // An inflated claim rejects even when marked refined.
        let mut c = cert.clone();
        c.programs[1].writes = vec![oid(0)];
        c.programs[1].update = true;
        c.programs[1].refined = true;
        let err = audit_shard(&refs, &c.to_json()).unwrap_err();
        assert!(err.contains("exceeds the syntactic"), "{err}");
    }
}

#[cfg(test)]
mod commute_tests {
    use super::*;
    use moc_core::commute::CommuteProgramEntry;
    use moc_core::program::{imm, reg, Program, ProgramBuilder};

    fn oid(i: u32) -> ObjectId {
        ObjectId::new(i)
    }

    fn writer(name: &str, objs: &[u32]) -> Program {
        let mut b = ProgramBuilder::new(name);
        for &o in objs {
            b.write(oid(o), imm(1));
        }
        b.ret(vec![]);
        b.build().unwrap()
    }

    fn reader(name: &str, objs: &[u32]) -> Program {
        let mut b = ProgramBuilder::new(name);
        for (i, &o) in objs.iter().enumerate() {
            b.read(oid(o), i as u8);
        }
        b.ret(vec![reg(0)]);
        b.build().unwrap()
    }

    fn rmw(name: &str, read: u32, write: u32) -> Program {
        let mut b = ProgramBuilder::new(name);
        b.read(oid(read), 0);
        b.write(oid(write), reg(0));
        b.ret(vec![]);
        b.build().unwrap()
    }

    /// One program per reachable mover class: `q0` read-only, `wp`
    /// both-mover (private object), `wq` right-mover (conflicts only
    /// with the query), `wu`/`wu2` left-movers (conflict only with
    /// each other, both updates).
    fn genuine_cert() -> (Vec<Program>, CommuteCert) {
        let progs = vec![
            reader("q0", &[0]),
            writer("wq", &[0]),
            writer("wp", &[5]),
            writer("wu", &[1]),
            rmw("wu2", 1, 2),
        ];
        let refs: Vec<&Program> = progs.iter().collect();
        let mut programs: Vec<CommuteProgramEntry> = progs
            .iter()
            .map(|p| CommuteProgramEntry {
                name: p.name().to_string(),
                update: p.is_potential_update(),
                refined: false,
                reads: p.potential_reads().into_iter().collect(),
                writes: p.potential_writes().into_iter().collect(),
                class: MoverClass::NonMover,
            })
            .collect();
        for i in 0..programs.len() {
            programs[i].class = derive_class(&programs, i);
        }
        let matrix = CommuteMatrix::derive(&programs);
        let cert = CommuteCert {
            num_objects: 6,
            programs_fp: fingerprint_programs(&refs),
            programs,
            matrix,
            side_conditions: COMMUTE_SIDE_CONDITIONS
                .iter()
                .map(|s| s.to_string())
                .collect(),
        };
        (progs, cert)
    }

    #[test]
    fn accepts_genuine_certificate() {
        let (progs, cert) = genuine_cert();
        let refs: Vec<&Program> = progs.iter().collect();
        let v = audit_commute(&refs, &cert.to_json()).unwrap();
        assert_eq!(v.num_programs, 5);
        assert_eq!(v.read_only, 1);
        assert_eq!(v.non_movers, 0);
        assert!(v.commuting_pairs > 0);
        assert!(!v.refined_attested);
        assert_eq!(cert.programs[0].class, MoverClass::ReadOnly);
        assert_eq!(cert.programs[1].class, MoverClass::RightMover);
        assert_eq!(cert.programs[2].class, MoverClass::BothMover);
        assert_eq!(cert.programs[3].class, MoverClass::LeftMover);
        assert_eq!(cert.programs[4].class, MoverClass::LeftMover);
    }

    #[test]
    fn rejects_a_fabricated_commutation() {
        let (progs, mut cert) = genuine_cert();
        let refs: Vec<&Program> = progs.iter().collect();
        // Pretend the conflicting wq has no writes *for matrix purposes
        // only*: the listed matrix gains pairs its footprints refute.
        let mut forged = cert.programs.clone();
        forged[1].writes.clear();
        cert.matrix = CommuteMatrix::derive(&forged);
        let err = audit_commute(&refs, &cert.to_json()).unwrap_err();
        assert!(err.contains("fabricated commutation"), "{err}");
    }

    #[test]
    fn rejects_a_dropped_commutation() {
        let (progs, mut cert) = genuine_cert();
        let refs: Vec<&Program> = progs.iter().collect();
        // Derive the matrix from footprints with an extra conflict: the
        // listed matrix now *misses* pairs the real footprints admit.
        let mut forged = cert.programs.clone();
        forged[2].writes = vec![oid(0), oid(5)];
        cert.matrix = CommuteMatrix::derive(&forged);
        let err = audit_commute(&refs, &cert.to_json()).unwrap_err();
        assert!(err.contains("silently dropped commutation"), "{err}");
    }

    #[test]
    fn rejects_a_mutated_mover_class() {
        let (progs, mut cert) = genuine_cert();
        let refs: Vec<&Program> = progs.iter().collect();
        cert.programs[0].class = MoverClass::BothMover;
        let err = audit_commute(&refs, &cert.to_json()).unwrap_err();
        assert!(err.contains("mover class"), "{err}");
    }

    #[test]
    fn rejects_wrong_program_binding() {
        let (progs, cert) = genuine_cert();
        let refs: Vec<&Program> = vec![&progs[1], &progs[0], &progs[2], &progs[3], &progs[4]];
        let err = audit_commute(&refs, &cert.to_json()).unwrap_err();
        assert!(err.contains("fingerprint"), "{err}");
    }

    #[test]
    fn rejects_tampered_side_conditions() {
        let (progs, cert) = genuine_cert();
        let refs: Vec<&Program> = progs.iter().collect();

        let mut c = cert.clone();
        c.side_conditions.pop();
        let err = audit_commute(&refs, &c.to_json()).unwrap_err();
        assert!(err.contains("side conditions"), "{err}");

        let mut c = cert;
        c.side_conditions[0] = "footprints-are-exact".into();
        let err = audit_commute(&refs, &c.to_json()).unwrap_err();
        assert!(err.contains("side conditions"), "{err}");
    }

    #[test]
    fn refined_claims_are_attested_but_bounded() {
        let (progs, cert) = genuine_cert();
        let refs: Vec<&Program> = progs.iter().collect();

        // Shrunken claim without the refined flag rejects.
        let mut c = cert.clone();
        c.programs[4].reads.clear();
        let err = audit_commute(&refs, &c.to_json()).unwrap_err();
        assert!(err.contains("not marked refined"), "{err}");

        // With the flag, a sound shrink is attested — but the matrix
        // and classes must be recomputed over the shrunken footprints.
        let mut c = cert.clone();
        c.programs[4].reads.clear();
        c.programs[4].refined = true;
        for i in 0..c.programs.len() {
            c.programs[i].class = derive_class(&c.programs, i);
        }
        c.matrix = CommuteMatrix::derive(&c.programs);
        let v = audit_commute(&refs, &c.to_json()).unwrap();
        assert!(v.refined_attested);

        // An inflated claim rejects even when marked refined.
        let mut c = cert;
        c.programs[2].writes = vec![oid(4), oid(5)];
        c.programs[2].refined = true;
        let err = audit_commute(&refs, &c.to_json()).unwrap_err();
        assert!(err.contains("exceeds the syntactic"), "{err}");
    }

    #[test]
    fn rejects_structural_damage() {
        let (progs, cert) = genuine_cert();
        let refs: Vec<&Program> = progs.iter().collect();

        // Asymmetric matrix: drop one direction of a commuting pair.
        let mut c = cert.clone();
        let row0: Vec<u32> = c.matrix.row(0).to_vec();
        let partner = row0.iter().copied().find(|&j| j != 0).unwrap();
        let cols: Vec<u32> = c
            .matrix
            .cols
            .iter()
            .enumerate()
            .filter(|&(k, &j)| {
                !(j == partner
                    && (c.matrix.offsets[0] as usize..c.matrix.offsets[1] as usize).contains(&k))
            })
            .map(|(_, &j)| j)
            .collect();
        for o in c.matrix.offsets.iter_mut().skip(1) {
            *o -= 1;
        }
        c.matrix.cols = cols;
        let err = audit_commute(&refs, &c.to_json()).unwrap_err();
        assert!(err.contains("symmetric"), "{err}");

        // Universe too small for the footprints.
        let mut c = cert;
        c.num_objects = 2;
        let err = audit_commute(&refs, &c.to_json()).unwrap_err();
        assert!(err.contains("universe"), "{err}");
    }
}
