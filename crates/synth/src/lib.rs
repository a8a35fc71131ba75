//! # moc-synth
//!
//! Grammar-driven adversarial workload synthesis.
//!
//! The repo's hand-written families only ever test histories a human
//! thought of. This crate enumerates the shared [`moc_workload::arb`]
//! grammar over small m-operation programs — bounded processes, objects
//! and operations per m-op, partially overlapping intervals, free read
//! provenance — and hunts the *boundary* of the paper's admissibility
//! problem (D 4.7, NP-complete by Theorems 1–2):
//!
//! * **`lbi`** — legal-but-inadmissible: every read observes a real write
//!   under the closed base relation (D 4.6 legality of `~H`), yet no
//!   legal sequential extension exists, and the precedence analysis finds
//!   no `~H+` cycle — the verdict costs a genuine exhaustive search.
//! * **`edge`** — the derived configuration misses the Theorem 7
//!   polynomial fast path by exactly one uncovered conflict pair.
//! * **`peak`** — the pruned engine's node count is maximal among all
//!   enumerated specimens of the same size: the search-hardest shapes.
//! * **`cycle`** — refuted without search by a `~H+` cycle (D 4.12): the
//!   polynomial-refutation boundary and the zero-search stress base.
//!
//! Candidates are deduplicated up to isomorphism (process/object/value
//! renaming and record reordering) by a Weisfeiler–Leman colour
//! refinement over the typed structure graph (process order, reads-from,
//! co-writer edges) — the same commutation structure PR 7's symmetry
//! reduction exploits: records with disjoint footprints are
//! interchangeable, so permuted generations collapse to one canonical
//! serialization.
//!
//! Survivors are pinned three ways: as named seed-replayable families in
//! [`moc_workload::synth`], as a golden corpus under
//! `tests/fixtures/synth/`, and as stress rows in `BENCH_checker.json`.
//! [`verify_corpus`] re-runs the hunt and diffs it against the checked-in
//! corpus byte for byte — the CI regression gate.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::path::Path;

use moc_analyze::{analyze_set, commute_set};
use moc_checker::conditions::Condition;
use moc_checker::{check_certified, Proof, SearchLimits};
use moc_core::constraints::Constraint;
use moc_core::history::History;
use moc_core::ids::MOpId;
use moc_core::op::OpKind;
use moc_core::program::{imm, Program, ProgramBuilder};
use moc_core::{codec, json, json::Json, legality};
use moc_workload::arb::{self, HistoryBounds};
use moc_workload::synth::{smoke_bounds, SynthCategory};

/// Manifest format tag and version.
pub const FORMAT: &str = "moc-synth-corpus";
/// Manifest version.
pub const VERSION: u32 = 1;

/// An enumeration grammar: which seeds to draw, under which bounds, and
/// how much search to spend deciding each candidate.
#[derive(Debug, Clone, Copy)]
pub struct Grammar {
    /// First seed (inclusive).
    pub seed_base: u64,
    /// Number of consecutive seeds to enumerate.
    pub seeds: u64,
    /// History grammar bounds.
    pub bounds: HistoryBounds,
    /// Per-candidate node budget for the certified checker.
    pub max_nodes: u64,
}

impl Grammar {
    /// The pinned smoke grammar: the corpus under `tests/fixtures/synth/`
    /// and the registry in [`moc_workload::synth`] are exactly the
    /// survivors of this enumeration. Changing it is a corpus-breaking
    /// event.
    pub fn smoke() -> Grammar {
        Grammar {
            seed_base: 0,
            seeds: 1024,
            bounds: smoke_bounds(),
            max_nodes: 200_000,
        }
    }
}

/// How the certified checker decided a candidate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProofKind {
    /// Admissible with a witness linearization.
    Witness,
    /// Refuted statically by a `~H+` cycle.
    Cycle,
    /// Refuted by exhaustive pruned search.
    Exhaustion,
}

impl ProofKind {
    /// Stable tag used in manifests and reports.
    pub fn tag(&self) -> &'static str {
        match self {
            ProofKind::Witness => "witness",
            ProofKind::Cycle => "cycle",
            ProofKind::Exhaustion => "exhaustion",
        }
    }
}

/// Everything the classification pipeline established about a candidate.
#[derive(Debug, Clone)]
pub struct Classification {
    /// Checker verdict under m-sequential consistency.
    pub admissible: bool,
    /// Shape of the certificate's proof.
    pub proof: ProofKind,
    /// Pruned-engine nodes expanded (0 for static refutations).
    pub nodes: u64,
    /// Symmetry-reduction skips recorded by the engine.
    pub symmetry_skips: u64,
    /// D 4.6 legality of `~H` under the closed base relation.
    pub legal_base: bool,
    /// Theorem 7 fast-path eligibility of the derived configuration.
    pub fast_path: bool,
    /// Fewest uncovered pairs across the OO/WW certificates (0 when
    /// certified).
    pub uncovered_pairs: usize,
    /// Conflicting pairs in the derived configuration's conflict graph.
    pub conflict_edges: usize,
    /// Commuting pairs in the derived configuration's commute matrix.
    pub commuting_pairs: usize,
}

/// A selected boundary specimen.
#[derive(Debug, Clone)]
pub struct Specimen {
    /// Stable name (`<category>-<index>` in selection order).
    pub name: String,
    /// The boundary category it was selected for.
    pub category: SynthCategory,
    /// Seed that regenerates it under the grammar bounds.
    pub seed: u64,
    /// The history itself.
    pub history: History,
    /// Classification results.
    pub class: Classification,
    /// The moc-cert text the checker emitted for it.
    pub cert: String,
    /// Regression cap: pinned nodes plus 25% slack.
    pub node_cap: u64,
}

/// Outcome of a hunt over one grammar.
#[derive(Debug, Clone)]
pub struct SynthReport {
    /// The grammar that was enumerated.
    pub grammar: Grammar,
    /// Seeds drawn.
    pub enumerated: u64,
    /// Distinct specimens after isomorphism dedup.
    pub unique: usize,
    /// Selected boundary specimens, in selection order.
    pub specimens: Vec<Specimen>,
}

/// The derived configuration of a history: one straight-line program per
/// m-operation (reads then writes over the same footprint), suitable for
/// the static analyzer. This is the configuration that *produces*
/// histories shaped like the specimen, so Theorem 7 eligibility of the
/// specimen is judged on it.
pub(crate) fn derived_programs(h: &History) -> Vec<Program> {
    h.records()
        .iter()
        .enumerate()
        .map(|(i, r)| {
            let mut b = ProgramBuilder::new(format!("m{i}"));
            let mut reg = 0u8;
            for op in &r.ops {
                if op.kind == OpKind::Read {
                    b.read(op.object, reg);
                    reg += 1;
                }
            }
            for op in &r.ops {
                if op.kind == OpKind::Write {
                    b.write(op.object, imm(op.value));
                }
            }
            b.ret(vec![]);
            b.build().expect("derived program is well-formed")
        })
        .collect()
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x100_0000_01b3;

fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    let mut h = if h == 0 { FNV_OFFSET } else { h };
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

fn fnv_u64(h: u64, v: u64) -> u64 {
    fnv1a(h, &v.to_le_bytes())
}

/// A canonical serialization of `h` up to isomorphism: process, object
/// and value renaming plus record reordering. Two histories with equal
/// keys are the same specimen.
///
/// Implementation: Weisfeiler–Leman colour refinement over the typed
/// structure graph — nodes are m-operation records; edges are process
/// order (`po`), reads-from (`rf`, per external read) and same-object
/// co-writer pairs (`ww`). Initial colours hash each record's label-free
/// shape (class, op kinds, init/self provenance, interval endpoint
/// ranks). After three rounds, records sort by colour and all names are
/// relabelled by first touch in that order. Commuting records (disjoint
/// footprints, no `rf` between them) receive interchangeable colours, so
/// generation-order permutations of independent records — exactly the
/// reorderings PR 7's symmetry reduction prunes — collapse to one key.
pub(crate) fn canonical_key(h: &History) -> String {
    let n = h.len();
    // Interval endpoint ranks.
    let mut endpoints: Vec<u64> = Vec::with_capacity(2 * n);
    for r in h.records() {
        endpoints.push(r.invoked_at.as_nanos());
        endpoints.push(r.responded_at.as_nanos());
    }
    endpoints.sort_unstable();
    endpoints.dedup();
    let rank = |t: u64| endpoints.binary_search(&t).unwrap() as u64;

    // Typed edges.
    #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
    enum Tag {
        PoNext,
        PoPrev,
        RfIn,
        RfOut,
        Ww,
    }
    let mut adj: Vec<Vec<(Tag, usize)>> = vec![Vec::new(); n];
    for (i, r) in h.records().iter().enumerate() {
        // Process order: immediate successor on the same process.
        if let Some(next) = h.records().iter().position(|s| {
            s.id.process == r.id.process && s.id.seq > r.id.seq && {
                // immediate: no m-op strictly between
                !h.records().iter().any(|t| {
                    t.id.process == r.id.process && t.id.seq > r.id.seq && t.id.seq < s.id.seq
                })
            }
        }) {
            adj[i].push((Tag::PoNext, next));
            adj[next].push((Tag::PoPrev, i));
        }
        // Reads-from.
        for (_, writer) in h.read_sources(moc_core::history::MOpIdx(i)) {
            if let Some(w) = writer {
                adj[i].push((Tag::RfOut, w.0));
                adj[w.0].push((Tag::RfIn, i));
            }
        }
    }
    // Co-writers per object.
    for o in 0..h.num_objects() {
        let writers: Vec<usize> = (0..n)
            .filter(|&i| {
                h.records()[i]
                    .ops
                    .iter()
                    .any(|op| op.kind == OpKind::Write && op.object.index() == o)
            })
            .collect();
        for (a, &i) in writers.iter().enumerate() {
            for &j in &writers[a + 1..] {
                adj[i].push((Tag::Ww, j));
                adj[j].push((Tag::Ww, i));
            }
        }
    }

    // Initial colours: label-free record shape.
    let mut color: Vec<u64> = h
        .records()
        .iter()
        .map(|r| {
            let mut c = fnv1a(0, r.treated_as.to_string().as_bytes());
            c = fnv_u64(c, rank(r.invoked_at.as_nanos()));
            c = fnv_u64(c, rank(r.responded_at.as_nanos()));
            let mut shapes: Vec<u64> = r
                .ops
                .iter()
                .map(|op| match op.kind {
                    OpKind::Write => 1,
                    OpKind::Read if op.writer == MOpId::INITIAL => 2,
                    OpKind::Read if op.writer == r.id => 3,
                    OpKind::Read => 4,
                })
                .collect();
            shapes.sort_unstable();
            for s in shapes {
                c = fnv_u64(c, s);
            }
            c
        })
        .collect();

    // Refinement rounds.
    for _ in 0..3 {
        let mut next = Vec::with_capacity(n);
        for i in 0..n {
            let mut sig: Vec<(Tag, u64)> = adj[i].iter().map(|&(t, j)| (t, color[j])).collect();
            sig.sort_unstable();
            let mut c = fnv_u64(0, color[i]);
            for (t, cj) in sig {
                c = fnv_u64(c, t as u64);
                c = fnv_u64(c, cj);
            }
            next.push(c);
        }
        color = next;
    }

    // Canonical record order; ties fall back to the original index (only
    // genuinely automorphic records tie, so any tiebreak serializes the
    // same).
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&i| (color[i], i));

    // Relabel by first touch in canonical order.
    let mut procs: BTreeMap<u32, usize> = BTreeMap::new();
    let mut objs: BTreeMap<u32, usize> = BTreeMap::new();
    let mut vals: BTreeMap<i64, usize> = BTreeMap::new();
    let mut pos_of: Vec<usize> = vec![0; n];
    for (pos, &i) in order.iter().enumerate() {
        pos_of[i] = pos;
    }
    let mut out = String::new();
    for &i in &order {
        let r = &h.records()[i];
        let np = procs.len();
        let p = *procs.entry(r.id.process.index() as u32).or_insert(np);
        let _ = write!(
            out,
            "{} p{p} s{} i{} r{} [",
            r.treated_as,
            r.id.seq,
            rank(r.invoked_at.as_nanos()),
            rank(r.responded_at.as_nanos())
        );
        let mut rendered: Vec<String> = r
            .ops
            .iter()
            .map(|op| {
                let no = objs.len();
                let o = *objs.entry(op.object.index() as u32).or_insert(no);
                let nv = vals.len();
                let v = *vals.entry(op.value).or_insert(nv);
                match op.kind {
                    OpKind::Write => format!("w o{o} v{v}"),
                    OpKind::Read if op.writer == MOpId::INITIAL => format!("r o{o} init"),
                    OpKind::Read if op.writer == r.id => format!("r o{o} self"),
                    OpKind::Read => {
                        let w = h
                            .idx_of(op.writer)
                            .map(|w| pos_of[w.0])
                            .unwrap_or(usize::MAX);
                        format!("r o{o} v{v} m{w}")
                    }
                }
            })
            .collect();
        rendered.sort();
        let _ = writeln!(out, "{}]", rendered.join(", "));
    }
    out
}

/// Runs the full classification pipeline on one candidate: the certified
/// checker (verdict + proof + node count), D 4.6 base-relation legality,
/// and the static analyzer over the derived configuration (Theorem 7
/// fast path, uncovered pairs, conflict and commute structure).
pub fn classify(h: &History, max_nodes: u64) -> (Classification, String) {
    let limits = SearchLimits::with_max_nodes(max_nodes);
    let (report, cert) = check_certified(h, Condition::MSequentialConsistency, limits)
        .expect("bounded grammar candidates stay within limits");
    let proof = match cert.proof {
        Proof::Witness { .. } => ProofKind::Witness,
        Proof::Cycle(_) => ProofKind::Cycle,
        Proof::Exhaustion { .. } => ProofKind::Exhaustion,
    };
    let base = Condition::MSequentialConsistency
        .base_relation(h)
        .transitive_closure();
    let legal_base = legality::is_legal(h, &base);

    let programs = derived_programs(h);
    let refs: Vec<&Program> = programs.iter().collect();
    let set = analyze_set(&refs, &[]);
    // The WW certificate holds for every configuration by construction
    // (WW-obligated pairs are update pairs, covered by the broadcast
    // order), so the only fast-path route that can *fail* on a raw
    // history — which carries no broadcast order — is the OO
    // certificate. Its offending pairs are the conflict edges separating
    // the configuration from query-side Theorem 7 eligibility.
    let uncovered = match &set.certificate(Constraint::Oo).status {
        moc_analyze::CertificateStatus::NotCertified { pairs } => pairs.len(),
        _ => 0,
    };
    let conflict_edges = set.graph.edges.iter().filter(|e| e.conflicts()).count();
    let movers = commute_set(&refs, h.num_objects());
    let commuting_pairs = movers.cert.matrix.num_commuting_pairs();

    (
        Classification {
            admissible: report.satisfied,
            proof,
            nodes: report.stats.nodes,
            symmetry_skips: report.stats.symmetry_skips,
            legal_base,
            fast_path: set.fast_path,
            uncovered_pairs: uncovered,
            conflict_edges,
            commuting_pairs,
        },
        cert.to_text(),
    )
}

struct Candidate {
    seed: u64,
    history: History,
    class: Classification,
    cert: String,
}

fn node_cap(nodes: u64) -> u64 {
    nodes + nodes / 4 + 8
}

/// Enumerates the grammar, dedupes isomorphic candidates, classifies the
/// survivors and selects the boundary specimens. Fully deterministic in
/// the grammar: same input, byte-identical report.
pub fn hunt(grammar: &Grammar) -> SynthReport {
    let mut seen: BTreeSet<String> = BTreeSet::new();
    let mut cands: Vec<Candidate> = Vec::new();
    for i in 0..grammar.seeds {
        let seed = grammar.seed_base + i;
        let h = arb::history_from_seed(seed, &grammar.bounds);
        if !seen.insert(canonical_key(&h)) {
            continue;
        }
        let (class, cert) = classify(&h, grammar.max_nodes);
        cands.push(Candidate {
            seed,
            history: h,
            class,
            cert,
        });
    }

    let mut taken: BTreeSet<u64> = BTreeSet::new();
    let mut specimens: Vec<Specimen> = Vec::new();
    let mut select = |cat: SynthCategory, picks: Vec<&Candidate>| {
        let mut idx = 0usize;
        for c in picks {
            if !taken.insert(c.seed) {
                continue;
            }
            specimens.push(Specimen {
                name: format!("{}-{idx}", cat.tag()),
                category: cat,
                seed: c.seed,
                history: c.history.clone(),
                class: c.class.clone(),
                cert: c.cert.clone(),
                node_cap: node_cap(c.class.nodes),
            });
            idx += 1;
        }
    };

    // Legal-but-inadmissible: exhaustion-refuted with a genuine search.
    select(
        SynthCategory::LegalInadmissible,
        cands
            .iter()
            .filter(|c| {
                c.class.legal_base
                    && !c.class.admissible
                    && c.class.proof == ProofKind::Exhaustion
                    && c.class.nodes > 0
            })
            .take(3)
            .collect(),
    );
    // One conflict edge from the Theorem 7 fast path.
    select(
        SynthCategory::OneEdgeFromFastPath,
        cands
            .iter()
            .filter(|c| c.class.uncovered_pairs == 1)
            .take(3)
            .collect(),
    );
    // Pruned-engine node maxima per size: for every history size the
    // grammar produced, the candidate with the most expanded nodes; the
    // four hardest such maxima are pinned.
    {
        let mut per_size: BTreeMap<usize, &Candidate> = BTreeMap::new();
        for c in &cands {
            let size = c.history.len();
            let best = per_size.entry(size).or_insert(c);
            if c.class.nodes > best.class.nodes {
                *best = c;
            }
        }
        let mut peaks: Vec<&Candidate> = per_size
            .into_values()
            .filter(|c| c.class.nodes > 0)
            .collect();
        peaks.sort_by_key(|c| (std::cmp::Reverse(c.class.nodes), c.seed));
        select(SynthCategory::NodePeak, peaks.into_iter().take(4).collect());
    }
    // Static `~H+` cycle refutations.
    select(
        SynthCategory::StaticCycle,
        cands
            .iter()
            .filter(|c| c.class.proof == ProofKind::Cycle)
            .take(2)
            .collect(),
    );

    SynthReport {
        grammar: *grammar,
        enumerated: grammar.seeds,
        unique: cands.len(),
        specimens,
    }
}

fn grammar_json(g: &Grammar) -> Json {
    Json::Obj(vec![
        ("seed_base".into(), json::num(g.seed_base as i64)),
        ("seeds".into(), json::num(g.seeds as i64)),
        ("processes".into(), json::num(g.bounds.processes as i64)),
        (
            "mops_per_process".into(),
            json::num(g.bounds.mops_per_process as i64),
        ),
        ("objects".into(), json::num(g.bounds.objects as i64)),
        ("max_span".into(), json::num(g.bounds.max_span as i64)),
        (
            "update_permille".into(),
            json::num((g.bounds.update_fraction * 1000.0).round() as i64),
        ),
        ("max_nodes".into(), json::num(g.max_nodes as i64)),
    ])
}

fn specimen_json(s: &Specimen) -> Json {
    Json::Obj(vec![
        ("name".into(), json::str(s.name.clone())),
        ("category".into(), json::str(s.category.tag())),
        ("seed".into(), json::num(s.seed as i64)),
        ("m_ops".into(), json::num(s.history.len() as i64)),
        ("objects".into(), json::num(s.history.num_objects() as i64)),
        (
            "verdict".into(),
            json::str(if s.class.admissible {
                "admissible"
            } else {
                "inadmissible"
            }),
        ),
        ("proof".into(), json::str(s.class.proof.tag())),
        ("nodes".into(), json::num(s.class.nodes as i64)),
        ("node_cap".into(), json::num(s.node_cap as i64)),
        (
            "uncovered_pairs".into(),
            json::num(s.class.uncovered_pairs as i64),
        ),
        (
            "conflict_edges".into(),
            json::num(s.class.conflict_edges as i64),
        ),
        (
            "commuting_pairs".into(),
            json::num(s.class.commuting_pairs as i64),
        ),
        (
            "fnv1a".into(),
            json::str(format!("{:016x}", codec::fingerprint(&s.history))),
        ),
        (
            "history_file".into(),
            json::str(format!("{}.history.txt", s.name)),
        ),
        (
            "cert_file".into(),
            json::str(format!("{}.cert.json", s.name)),
        ),
        (
            "replay".into(),
            json::str(format!("moc synth --family {}", s.name)),
        ),
    ])
}

/// Renders the corpus manifest for a report.
pub(crate) fn render_manifest(report: &SynthReport) -> String {
    let doc = Json::Obj(vec![
        ("format".into(), json::str(FORMAT)),
        ("version".into(), json::num(VERSION as i64)),
        ("grammar".into(), grammar_json(&report.grammar)),
        ("enumerated".into(), json::num(report.enumerated as i64)),
        ("unique".into(), json::num(report.unique as i64)),
        (
            "specimens".into(),
            Json::Arr(report.specimens.iter().map(specimen_json).collect()),
        ),
    ]);
    doc.render()
}

/// Writes the corpus: `corpus.json` plus one history text file and one
/// certificate per specimen.
pub fn write_corpus(dir: &Path, report: &SynthReport) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    std::fs::write(dir.join("corpus.json"), render_manifest(report))?;
    for s in &report.specimens {
        std::fs::write(
            dir.join(format!("{}.history.txt", s.name)),
            codec::to_text(&s.history),
        )?;
        std::fs::write(dir.join(format!("{}.cert.json", s.name)), &s.cert)?;
    }
    Ok(())
}

/// One manifest entry of a checked-in corpus.
#[derive(Debug, Clone)]
pub struct CorpusEntry {
    /// Specimen name.
    pub name: String,
    /// Category tag.
    pub category: String,
    /// Regenerating seed.
    pub seed: u64,
    /// Pinned verdict.
    pub admissible: bool,
    /// Pinned proof kind tag.
    pub proof: String,
    /// Pinned node count at authoring time.
    pub nodes: u64,
    /// Regression cap on nodes.
    pub node_cap: u64,
    /// Pinned history fingerprint.
    pub fingerprint: u64,
    /// History file name relative to the corpus dir.
    pub history_file: String,
    /// Certificate file name relative to the corpus dir.
    pub cert_file: String,
    /// Replay command line.
    pub replay: String,
}

/// A parsed corpus: the grammar it was hunted under and its entries.
#[derive(Debug, Clone)]
pub struct Corpus {
    /// The pinned grammar.
    pub grammar: Grammar,
    /// Manifest entries in selection order.
    pub entries: Vec<CorpusEntry>,
}

fn uint(doc: &Json, key: &str) -> Result<u64, String> {
    doc.get(key)
        .and_then(|v| v.as_u64())
        .ok_or_else(|| format!("manifest field {key:?} must be a non-negative integer"))
}

fn text(doc: &Json, key: &str) -> Result<String, String> {
    doc.get(key)
        .and_then(|v| v.as_str())
        .map(str::to_owned)
        .ok_or_else(|| format!("manifest field {key:?} must be a string"))
}

/// Loads and parses a checked-in corpus manifest.
pub fn load_corpus(dir: &Path) -> Result<Corpus, String> {
    let path = dir.join("corpus.json");
    let raw = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = json::parse(&raw).map_err(|e| format!("{}: {e:?}", path.display()))?;
    if text(&doc, "format")? != FORMAT {
        return Err("not a moc-synth-corpus manifest".into());
    }
    if uint(&doc, "version")? != VERSION as u64 {
        return Err("unsupported corpus version".into());
    }
    let g = doc.get("grammar").ok_or("manifest missing grammar")?;
    let grammar = Grammar {
        seed_base: uint(g, "seed_base")?,
        seeds: uint(g, "seeds")?,
        bounds: HistoryBounds {
            processes: uint(g, "processes")? as usize,
            mops_per_process: uint(g, "mops_per_process")? as usize,
            objects: uint(g, "objects")? as usize,
            max_span: uint(g, "max_span")? as usize,
            update_fraction: uint(g, "update_permille")? as f64 / 1000.0,
        },
        max_nodes: uint(g, "max_nodes")?,
    };
    let mut entries = Vec::new();
    for s in doc
        .get("specimens")
        .and_then(|v| v.as_arr())
        .ok_or("manifest missing specimens")?
    {
        entries.push(CorpusEntry {
            name: text(s, "name")?,
            category: text(s, "category")?,
            seed: uint(s, "seed")?,
            admissible: text(s, "verdict")? == "admissible",
            proof: text(s, "proof")?,
            nodes: uint(s, "nodes")?,
            node_cap: uint(s, "node_cap")?,
            fingerprint: u64::from_str_radix(&text(s, "fnv1a")?, 16)
                .map_err(|e| format!("bad fnv1a: {e}"))?,
            history_file: text(s, "history_file")?,
            cert_file: text(s, "cert_file")?,
            replay: text(s, "replay")?,
        });
    }
    Ok(Corpus { grammar, entries })
}

/// Re-runs the hunt for a checked-in corpus and diffs the result against
/// it: same specimens (name, seed, verdict, fingerprint), regenerated
/// history and certificate files byte-identical, fresh node counts within
/// the pinned caps, and every checked-in certificate accepted by the
/// independent auditor against the regenerated history. Returns the
/// mismatches.
pub fn verify_corpus(dir: &Path) -> Result<Vec<String>, String> {
    let corpus = load_corpus(dir)?;
    let report = hunt(&corpus.grammar);
    let mut problems = Vec::new();
    if report.specimens.len() != corpus.entries.len() {
        problems.push(format!(
            "hunt found {} specimens, corpus pins {}",
            report.specimens.len(),
            corpus.entries.len()
        ));
    }
    for (s, e) in report.specimens.iter().zip(&corpus.entries) {
        if s.name != e.name || s.seed != e.seed {
            problems.push(format!(
                "selection drift: hunt {}@{} vs corpus {}@{}",
                s.name, s.seed, e.name, e.seed
            ));
            continue;
        }
        if s.class.admissible != e.admissible {
            problems.push(format!("{}: verdict flipped", e.name));
        }
        if s.class.proof.tag() != e.proof {
            problems.push(format!(
                "{}: proof kind {} vs pinned {}",
                e.name,
                s.class.proof.tag(),
                e.proof
            ));
        }
        if s.class.nodes > e.node_cap {
            problems.push(format!(
                "{}: {} nodes exceeds pinned cap {}",
                e.name, s.class.nodes, e.node_cap
            ));
        }
        if codec::fingerprint(&s.history) != e.fingerprint {
            problems.push(format!("{}: history fingerprint drifted", e.name));
        }
        let hist_path = dir.join(&e.history_file);
        match std::fs::read_to_string(&hist_path) {
            Ok(fixture) => {
                if fixture != codec::to_text(&s.history) {
                    problems.push(format!(
                        "{}: history file differs from regeneration",
                        e.name
                    ));
                }
            }
            Err(err) => problems.push(format!("{}: {err}", hist_path.display())),
        }
        let cert_path = dir.join(&e.cert_file);
        match std::fs::read_to_string(&cert_path) {
            Ok(cert) => {
                if cert != s.cert {
                    problems.push(format!("{}: certificate differs from regeneration", e.name));
                }
                if let Err(err) = moc_audit::audit(&s.history, &cert) {
                    problems.push(format!(
                        "{}: checked-in certificate fails audit: {err}",
                        e.name
                    ));
                }
            }
            Err(err) => problems.push(format!("{}: {err}", cert_path.display())),
        }
    }
    Ok(problems)
}

/// Renders a human-readable hunt report.
pub fn render_report(report: &SynthReport) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "synth: {} seeds enumerated, {} unique after isomorphism dedup, {} boundary specimens",
        report.enumerated,
        report.unique,
        report.specimens.len()
    );
    let _ = writeln!(
        out,
        "{:<8} {:>5} {:>5} {:>12} {:>10} {:>6} {:>5} replay",
        "name", "seed", "m-ops", "verdict", "proof", "nodes", "edge"
    );
    for s in &report.specimens {
        let _ = writeln!(
            out,
            "{:<8} {:>5} {:>5} {:>12} {:>10} {:>6} {:>5} moc synth --family {}",
            s.name,
            s.seed,
            s.history.len(),
            if s.class.admissible {
                "admissible"
            } else {
                "inadmissible"
            },
            s.class.proof.tag(),
            s.class.nodes,
            s.class.uncovered_pairs,
            s.name
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use moc_core::ids::{ObjectId, ProcessId};
    use moc_core::mop::{EventTime, MOpClass, MOpRecord};
    use moc_core::op::CompletedOp;

    #[test]
    fn canonical_key_collapses_renamings() {
        // Two concurrent single-object writers and one reader, generated
        // twice with processes/objects/values permuted.
        let build = |procs: [u32; 3], obj: u32, vals: [i64; 2]| {
            let w0 = MOpId::new(ProcessId::new(procs[0]), 0);
            let w1 = MOpId::new(ProcessId::new(procs[1]), 0);
            let r0 = MOpId::new(ProcessId::new(procs[2]), 0);
            let o = ObjectId::new(obj);
            let rec = |id, op| MOpRecord {
                id,
                invoked_at: EventTime::from_nanos(0),
                responded_at: EventTime::from_nanos(100),
                ops: [op].into(),
                outputs: Default::default(),
                treated_as: MOpClass::Update,
                label: Default::default(),
            };
            let records = vec![
                rec(w0, CompletedOp::write(o, vals[0], w0, 1)),
                rec(w1, CompletedOp::write(o, vals[1], w1, 2)),
                rec(r0, CompletedOp::read(o, vals[0], w0, 1)),
            ];
            History::new((obj + 1) as usize, records).unwrap()
        };
        let a = build([0, 1, 2], 0, [10, 20]);
        let b = build([5, 3, 9], 0, [77, -4]);
        assert_eq!(canonical_key(&a), canonical_key(&b));
    }

    #[test]
    fn canonical_key_separates_structures() {
        let g = Grammar::smoke();
        let a = arb::history_from_seed(0, &g.bounds);
        let b = arb::history_from_seed(1, &g.bounds);
        // Different seeds usually give different structures; these two do.
        assert_ne!(canonical_key(&a), canonical_key(&b));
    }

    #[test]
    fn hunt_is_deterministic() {
        let g = Grammar {
            seeds: 24,
            ..Grammar::smoke()
        };
        let a = hunt(&g);
        let b = hunt(&g);
        assert_eq!(render_manifest(&a), render_manifest(&b));
    }

    #[test]
    fn derived_programs_mirror_footprints() {
        let h = arb::history_from_seed(3, &Grammar::smoke().bounds);
        let ps = derived_programs(&h);
        assert_eq!(ps.len(), h.len());
    }
}
