//! Commutativity certificates and Lipton-style mover classes.
//!
//! The Figure 4/6 protocols (and the sharded variant) totally order every
//! pair of update m-operations — even pairs whose footprints can never
//! interact. A [`CommuteCert`] is the analyzer's proof document that two
//! program instances *commute*: running them in either order produces the
//! same object states **and** the same return values, because neither may
//! write an object the other may touch. The certificate carries the full
//! pairwise commutativity matrix in CSR form plus a per-program
//! [`MoverClass`] summarizing how each program sits relative to the two
//! ordering mechanisms the protocols use (the broadcast update order and
//! local query linearization).
//!
//! Downstream the certificate is spent twice: the admissibility engine
//! prunes symmetric interleavings of commuting branches, and the sharded
//! broadcast applies commuting deliveries without waiting for cross-shard
//! barriers (deriving a [`CommutePlan`] against a [`ShardPlan`]).
//!
//! As with [`crate::shard`], this module owns only the data model and its
//! JSON codec so the emitter (`moc-analyze`) and the independent
//! validator (`moc-audit`) share one schema without sharing analysis
//! code.

use std::collections::BTreeSet;
use std::fmt;

use crate::ids::ObjectId;
use crate::json::{self, Json};
use crate::shard::{objects_json, parse_objects, parse_u32s, ShardPlan};

/// Version tag of the commute-certificate JSON schema.
pub const COMMUTE_CERT_FORMAT: &str = "moc-commute-cert";
/// Current schema version.
pub const COMMUTE_CERT_VERSION: u64 = 1;

/// The side conditions under which the certificate's commutation claims
/// are valid, tied to the register semantics of the m-operation DSL. The
/// auditor rejects a certificate whose conditions differ: a document
/// produced for different semantics proves nothing here.
///
/// - `footprints-over-approximate-register-semantics`: the claimed
///   read/write sets over-approximate every object access any execution
///   of the program can perform under the register machine of
///   [`crate::program`].
/// - `commutation-is-state-and-observation`: a matrix pair commutes as
///   state transformers *and* in returned values — neither side may write
///   an object the other may touch.
/// - `self-pairs-model-concurrent-instances`: the diagonal entry `(i,i)`
///   claims two concurrent instances of program `i` commute with each
///   other (true exactly when the program may write nothing).
pub const COMMUTE_SIDE_CONDITIONS: &[&str] = &[
    "footprints-over-approximate-register-semantics",
    "commutation-is-state-and-observation",
    "self-pairs-model-concurrent-instances",
];

/// Lipton-style mover class of one program within a configuration,
/// derived from which *other* programs it commutes with (the diagonal
/// self-pair is recorded in the matrix but does not affect the class:
/// classes describe a program's freedom relative to the rest of the set).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MoverClass {
    /// May write nothing: invisible to every replica state, so it never
    /// needs a sequencer stamp at all.
    ReadOnly,
    /// Commutes with every other program (updates and queries alike):
    /// its position in any order is free.
    BothMover,
    /// Commutes with every other *update* but some query reads its
    /// writes: its slot in the broadcast update order is irrelevant to
    /// replica state — it can be delayed (moved right) past other
    /// updates; only query visibility pins it.
    RightMover,
    /// Conflicts with some update but no query observes it: it must keep
    /// its place in the update order, yet it can be advanced (moved left)
    /// past any query without changing what the query returns.
    LeftMover,
    /// Conflicts with an update and with a query: fully pinned.
    NonMover,
}

impl MoverClass {
    /// Stable tag used in the JSON document.
    pub fn tag(&self) -> &'static str {
        match self {
            MoverClass::ReadOnly => "read-only",
            MoverClass::BothMover => "both-mover",
            MoverClass::RightMover => "right-mover",
            MoverClass::LeftMover => "left-mover",
            MoverClass::NonMover => "non-mover",
        }
    }

    /// Parses a tag back.
    pub fn from_tag(tag: &str) -> Option<Self> {
        match tag {
            "read-only" => Some(MoverClass::ReadOnly),
            "both-mover" => Some(MoverClass::BothMover),
            "right-mover" => Some(MoverClass::RightMover),
            "left-mover" => Some(MoverClass::LeftMover),
            "non-mover" => Some(MoverClass::NonMover),
            _ => None,
        }
    }
}

impl fmt::Display for MoverClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.tag())
    }
}

/// One program's entry in a commute certificate: the claimed (possibly
/// refined) footprint the matrix was computed from, plus its class.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommuteProgramEntry {
    /// Program name (unique within a certificate).
    pub name: String,
    /// Whether the program is classified as an update.
    pub update: bool,
    /// Whether the claimed footprint/classification is refined below the
    /// syntactic one (attested, not re-derived, by the auditor).
    pub refined: bool,
    /// Claimed read footprint (sorted, deduplicated).
    pub reads: Vec<ObjectId>,
    /// Claimed write footprint (sorted, deduplicated).
    pub writes: Vec<ObjectId>,
    /// The program's mover class within this configuration.
    pub class: MoverClass,
}

/// Whether two footprint claims commute: neither side may write an
/// object the other may touch (the exact negation of the conflict-graph
/// rule of [`crate::shard::conflicts`]).
pub fn footprints_commute(p: &CommuteProgramEntry, q: &CommuteProgramEntry) -> bool {
    let writes = |e: &CommuteProgramEntry| e.writes.iter().copied().collect::<BTreeSet<_>>();
    let touches = |e: &CommuteProgramEntry| {
        e.reads
            .iter()
            .chain(e.writes.iter())
            .copied()
            .collect::<BTreeSet<_>>()
    };
    writes(p).intersection(&touches(q)).next().is_none()
        && writes(q).intersection(&touches(p)).next().is_none()
}

/// Derives the mover class of program `i` from the full matrix rows.
/// Only off-diagonal pairs matter; the diagonal self-pair is a property
/// of concurrent instances, not of the program's place among the others.
pub fn derive_class(entries: &[CommuteProgramEntry], i: usize) -> MoverClass {
    if entries[i].writes.is_empty() {
        return MoverClass::ReadOnly;
    }
    let mut conflicts_update = false;
    let mut conflicts_query = false;
    for (j, q) in entries.iter().enumerate() {
        if j == i || footprints_commute(&entries[i], q) {
            continue;
        }
        if q.update {
            conflicts_update = true;
        } else {
            conflicts_query = true;
        }
    }
    match (conflicts_update, conflicts_query) {
        (false, false) => MoverClass::BothMover,
        (false, true) => MoverClass::RightMover,
        (true, false) => MoverClass::LeftMover,
        (true, true) => MoverClass::NonMover,
    }
}

/// The full symmetric pairwise commutativity matrix over a program set,
/// in compressed sparse row form: row `i` lists every `j` (ascending,
/// including `j == i` when two instances of `i` commute) such that the
/// pair `(i, j)` commutes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommuteMatrix {
    /// Row offsets into `cols`; `offsets.len() == n + 1`.
    pub offsets: Vec<u32>,
    /// Column indices, ascending within each row.
    pub cols: Vec<u32>,
}

impl CommuteMatrix {
    /// Computes the matrix from footprint claims.
    pub fn derive(entries: &[CommuteProgramEntry]) -> Self {
        let n = entries.len();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut cols = Vec::new();
        offsets.push(0u32);
        for p in entries {
            for (j, q) in entries.iter().enumerate() {
                if footprints_commute(p, q) {
                    cols.push(j as u32);
                }
            }
            offsets.push(cols.len() as u32);
        }
        CommuteMatrix { offsets, cols }
    }

    /// Number of rows (programs).
    pub fn num_rows(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// Row `i` as a slice of commuting partners.
    pub fn row(&self, i: usize) -> &[u32] {
        let lo = self.offsets[i] as usize;
        let hi = self.offsets[i + 1] as usize;
        &self.cols[lo..hi]
    }

    /// Whether the pair `(i, j)` commutes.
    pub fn commutes(&self, i: usize, j: usize) -> bool {
        self.row(i).binary_search(&(j as u32)).is_ok()
    }

    /// Number of unordered commuting pairs `i <= j` (the diagonal counts
    /// once).
    pub fn num_commuting_pairs(&self) -> usize {
        (0..self.num_rows())
            .map(|i| self.row(i).iter().filter(|&&j| j as usize >= i).count())
            .sum()
    }

    /// Structural well-formedness: monotone offsets covering `cols`,
    /// ascending in-range rows, and symmetry.
    pub fn validate(&self, n: usize) -> Result<(), String> {
        if self.offsets.len() != n + 1 || self.offsets[0] != 0 {
            return Err("matrix offsets must have n+1 entries starting at 0".into());
        }
        if *self.offsets.last().unwrap() as usize != self.cols.len() {
            return Err("matrix offsets must cover the column arena".into());
        }
        for i in 0..n {
            if self.offsets[i] > self.offsets[i + 1] {
                return Err("matrix offsets must be monotone".into());
            }
            let row = self.row(i);
            if !row.windows(2).all(|w| w[0] < w[1]) {
                return Err(format!("matrix row {i} is not strictly ascending"));
            }
            if row.iter().any(|&j| j as usize >= n) {
                return Err(format!("matrix row {i} references a program out of range"));
            }
        }
        for i in 0..n {
            for &j in self.row(i) {
                if !self.commutes(j as usize, i) {
                    return Err(format!("matrix is not symmetric at ({i}, {j})"));
                }
            }
        }
        Ok(())
    }
}

/// A versioned commutativity certificate: footprint claims, the pairwise
/// matrix, mover classes and the side conditions tying it all to the
/// register semantics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommuteCert {
    /// Size of the object universe the claims range over.
    pub num_objects: usize,
    /// FNV-1a fingerprint binding the certificate to the program set it
    /// was computed from (see [`crate::shard::fingerprint_programs`]).
    pub programs_fp: u64,
    /// One entry per analyzed program, in input order.
    pub programs: Vec<CommuteProgramEntry>,
    /// The pairwise commutativity matrix.
    pub matrix: CommuteMatrix,
    /// Semantic side conditions (must equal [`COMMUTE_SIDE_CONDITIONS`]).
    pub side_conditions: Vec<String>,
}

impl CommuteCert {
    /// Serializes the certificate to its canonical JSON document.
    pub fn to_json(&self) -> String {
        let programs = self
            .programs
            .iter()
            .map(|p| {
                Json::Obj(vec![
                    ("name".to_string(), json::str(p.name.clone())),
                    ("update".to_string(), Json::Bool(p.update)),
                    ("refined".to_string(), Json::Bool(p.refined)),
                    ("reads".to_string(), objects_json(&p.reads)),
                    ("writes".to_string(), objects_json(&p.writes)),
                    ("class".to_string(), json::str(p.class.tag())),
                ])
            })
            .collect();
        let matrix = Json::Obj(vec![
            (
                "offsets".to_string(),
                Json::Arr(self.matrix.offsets.iter().map(|&o| json::num(o)).collect()),
            ),
            (
                "cols".to_string(),
                Json::Arr(self.matrix.cols.iter().map(|&c| json::num(c)).collect()),
            ),
        ]);
        Json::Obj(vec![
            ("format".to_string(), json::str(COMMUTE_CERT_FORMAT)),
            (
                "version".to_string(),
                json::num(COMMUTE_CERT_VERSION as u32),
            ),
            (
                "num_objects".to_string(),
                json::num(self.num_objects as u32),
            ),
            (
                "programs_fingerprint".to_string(),
                json::str(format!("{:016x}", self.programs_fp)),
            ),
            ("programs".to_string(), Json::Arr(programs)),
            ("matrix".to_string(), matrix),
            (
                "side_conditions".to_string(),
                Json::Arr(
                    self.side_conditions
                        .iter()
                        .map(|s| json::str(s.clone()))
                        .collect(),
                ),
            ),
        ])
        .render()
    }

    /// Parses a certificate document, checking format and version tags.
    /// Structural parse only — semantic validation is the auditor's job.
    pub fn parse(text: &str) -> Result<CommuteCert, String> {
        let doc = json::parse(text).map_err(|e| format!("malformed JSON: {e:?}"))?;
        let field = |key: &str| doc.get(key).ok_or_else(|| format!("missing field '{key}'"));
        let format = field("format")?.as_str().ok_or("format: expected string")?;
        if format != COMMUTE_CERT_FORMAT {
            return Err(format!("not a commute certificate (format '{format}')"));
        }
        let version = field("version")?.as_u64().ok_or("version: expected uint")?;
        if version != COMMUTE_CERT_VERSION {
            return Err(format!("unsupported commute-cert version {version}"));
        }
        let num_objects = field("num_objects")?
            .as_usize()
            .ok_or("num_objects: expected uint")?;
        let fp_hex = field("programs_fingerprint")?
            .as_str()
            .ok_or("programs_fingerprint: expected string")?;
        let programs_fp = u64::from_str_radix(fp_hex, 16)
            .map_err(|_| "programs_fingerprint: expected hex u64".to_string())?;
        let programs = field("programs")?
            .as_arr()
            .ok_or("programs: expected array")?
            .iter()
            .map(|p| {
                let get = |key: &str| {
                    p.get(key)
                        .ok_or_else(|| format!("program entry missing '{key}'"))
                };
                Ok(CommuteProgramEntry {
                    name: get("name")?
                        .as_str()
                        .ok_or("name: expected string")?
                        .to_string(),
                    update: get("update")?.as_bool().ok_or("update: expected bool")?,
                    refined: get("refined")?.as_bool().ok_or("refined: expected bool")?,
                    reads: parse_objects(get("reads")?, "reads")?,
                    writes: parse_objects(get("writes")?, "writes")?,
                    class: MoverClass::from_tag(
                        get("class")?.as_str().ok_or("class: expected string")?,
                    )
                    .ok_or("class: expected a mover-class tag")?,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        let m = field("matrix")?;
        let matrix = CommuteMatrix {
            offsets: parse_u32s(
                m.get("offsets").ok_or("matrix missing 'offsets'")?,
                "matrix offsets",
            )?,
            cols: parse_u32s(m.get("cols").ok_or("matrix missing 'cols'")?, "matrix cols")?,
        };
        let side_conditions = field("side_conditions")?
            .as_arr()
            .ok_or("side_conditions: expected array")?
            .iter()
            .map(|s| {
                s.as_str()
                    .map(str::to_string)
                    .ok_or_else(|| "side_conditions: expected string".to_string())
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(CommuteCert {
            num_objects,
            programs_fp,
            programs,
            matrix,
            side_conditions,
        })
    }

    /// Derives the delivery-time commute plan for a shard partition: the
    /// per-shard unions of claimed touch/write footprints that let the
    /// broadcast layer decide, from an item's own footprint, whether the
    /// item commutes with *everything* a shard channel can ever carry.
    pub fn delivery_plan(&self, plan: &ShardPlan) -> CommutePlan {
        let num_shards = plan.num_shards() as usize;
        let mut touch: Vec<BTreeSet<ObjectId>> = vec![BTreeSet::new(); num_shards];
        let mut write: Vec<BTreeSet<ObjectId>> = vec![BTreeSet::new(); num_shards];
        for p in &self.programs {
            let mut spans = BTreeSet::new();
            for o in p.reads.iter().chain(p.writes.iter()) {
                if o.index() < plan.num_objects() {
                    spans.insert(plan.shard_of(*o));
                }
            }
            for &s in &spans {
                let s = s as usize;
                touch[s].extend(p.reads.iter().copied());
                touch[s].extend(p.writes.iter().copied());
                write[s].extend(p.writes.iter().copied());
            }
        }
        CommutePlan {
            shard_touch: touch.into_iter().map(|s| s.into_iter().collect()).collect(),
            shard_write: write.into_iter().map(|s| s.into_iter().collect()).collect(),
        }
    }
}

/// The delivery-time view of a commute certificate, installed into the
/// sharded broadcast: for each shard, the union of (claimed) touched and
/// written objects over every program whose footprint spans that shard.
///
/// A cross-shard item `g` commutes with shard `s` — and may therefore
/// apply without waiting for `s`'s barrier frontier — exactly when `g`
/// writes nothing shard `s`'s programs touch and `s`'s programs write
/// nothing `g` touches.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommutePlan {
    /// Per shard: every object a program spanning the shard may touch.
    pub shard_touch: Vec<Vec<ObjectId>>,
    /// Per shard: every object a program spanning the shard may write.
    pub shard_write: Vec<Vec<ObjectId>>,
}

impl CommutePlan {
    /// Number of shards the plan covers.
    pub fn num_shards(&self) -> usize {
        self.shard_touch.len()
    }

    /// Whether an item with the given footprints commutes with every
    /// program spanning shard `s`.
    pub fn commutes_with_shard(&self, s: usize, touches: &[ObjectId], writes: &[ObjectId]) -> bool {
        let shard_touch = &self.shard_touch[s];
        let shard_write = &self.shard_write[s];
        writes.iter().all(|o| shard_touch.binary_search(o).is_err())
            && touches
                .iter()
                .all(|o| shard_write.binary_search(o).is_err())
    }

    /// A sabotage plan for the chaos suite's wrong-cert negative control:
    /// claims every shard's programs touch and write nothing, so every
    /// cross-shard item "commutes" with every shard — exactly the damage
    /// a fabricated certificate does. Never use outside tests.
    pub fn vacuous(num_shards: usize) -> Self {
        CommutePlan {
            shard_touch: vec![Vec::new(); num_shards],
            shard_write: vec![Vec::new(); num_shards],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn oid(i: u32) -> ObjectId {
        ObjectId::new(i)
    }

    fn entry(
        name: &str,
        update: bool,
        reads: &[u32],
        writes: &[u32],
        class: MoverClass,
    ) -> CommuteProgramEntry {
        CommuteProgramEntry {
            name: name.to_string(),
            update,
            refined: false,
            reads: reads.iter().map(|&i| oid(i)).collect(),
            writes: writes.iter().map(|&i| oid(i)).collect(),
            class,
        }
    }

    #[test]
    fn commutation_is_the_negation_of_conflict() {
        let w0 = entry("w0", true, &[], &[0], MoverClass::NonMover);
        let w1 = entry("w1", true, &[], &[1], MoverClass::NonMover);
        let q0 = entry("q0", false, &[0], &[], MoverClass::ReadOnly);
        assert!(footprints_commute(&w0, &w1));
        assert!(!footprints_commute(&w0, &q0));
        assert!(footprints_commute(&w1, &q0));
        assert!(!footprints_commute(&w0, &w0), "self WW pins instances");
        assert!(footprints_commute(&q0, &q0), "read-only self-commutes");
    }

    #[test]
    fn mover_classes_cover_the_lattice() {
        // w-priv writes an object nobody else touches: both-mover.
        // w-q's writes are read by a query but no update: right-mover.
        // w-u / w-u2 / w-x conflict with another update but no query:
        // left-movers. w-uq conflicts with a query (object 3) and an
        // update (object 4): non-mover. q0 / q3 are read-only.
        let entries = vec![
            entry("w-priv", true, &[], &[9], MoverClass::BothMover),
            entry("w-q", true, &[], &[0], MoverClass::RightMover),
            entry("q0", false, &[0], &[], MoverClass::ReadOnly),
            entry("w-u", true, &[], &[1], MoverClass::LeftMover),
            entry("w-u2", true, &[1], &[2], MoverClass::LeftMover),
            entry("w-uq", true, &[], &[3, 4], MoverClass::NonMover),
            entry("q3", false, &[3], &[], MoverClass::ReadOnly),
            entry("w-x", true, &[], &[4], MoverClass::LeftMover),
        ];
        for (i, e) in entries.iter().enumerate() {
            assert_eq!(derive_class(&entries, i), e.class, "{}", e.name);
        }
    }

    #[test]
    fn matrix_is_symmetric_and_counts_pairs() {
        let entries = vec![
            entry("w0", true, &[], &[0], MoverClass::BothMover),
            entry("w1", true, &[], &[1], MoverClass::BothMover),
            entry("q2", false, &[2], &[], MoverClass::ReadOnly),
        ];
        let m = CommuteMatrix::derive(&entries);
        assert!(m.validate(3).is_ok());
        assert!(m.commutes(0, 1) && m.commutes(1, 0));
        assert!(m.commutes(0, 2) && m.commutes(2, 0));
        assert!(!m.commutes(0, 0), "writer self-pair conflicts");
        assert!(m.commutes(2, 2), "query self-pair commutes");
        // Pairs i <= j: (0,1), (0,2), (1,2), (2,2).
        assert_eq!(m.num_commuting_pairs(), 4);
    }

    #[test]
    fn matrix_validation_rejects_malformed_shapes() {
        let good = CommuteMatrix {
            offsets: vec![0, 1, 2],
            cols: vec![1, 0],
        };
        assert!(good.validate(2).is_ok());
        let bad_offsets = CommuteMatrix {
            offsets: vec![0, 2],
            cols: vec![0, 1],
        };
        assert!(bad_offsets.validate(2).is_err());
        let asym = CommuteMatrix {
            offsets: vec![0, 1, 1],
            cols: vec![1],
        };
        assert!(asym.validate(2).is_err(), "asymmetric matrix rejected");
        let out_of_range = CommuteMatrix {
            offsets: vec![0, 1],
            cols: vec![7],
        };
        assert!(out_of_range.validate(1).is_err());
        let unsorted = CommuteMatrix {
            offsets: vec![0, 2, 3, 4],
            cols: vec![2, 1, 2, 0],
        };
        assert!(unsorted.validate(3).is_err());
    }

    fn sample_cert() -> CommuteCert {
        let entries = vec![
            entry("w0", true, &[], &[0], MoverClass::BothMover),
            entry("w1", true, &[1], &[1], MoverClass::BothMover),
            entry("q2", false, &[2], &[], MoverClass::ReadOnly),
        ];
        let matrix = CommuteMatrix::derive(&entries);
        CommuteCert {
            num_objects: 3,
            programs_fp: 0x0123_4567_89ab_cdef,
            programs: entries,
            matrix,
            side_conditions: COMMUTE_SIDE_CONDITIONS
                .iter()
                .map(|s| s.to_string())
                .collect(),
        }
    }

    #[test]
    fn cert_json_round_trips() {
        let cert = sample_cert();
        let text = cert.to_json();
        let back = CommuteCert::parse(&text).expect("round trip");
        assert_eq!(back, cert);
    }

    #[test]
    fn parse_rejects_foreign_documents() {
        assert!(CommuteCert::parse("{}").is_err());
        assert!(CommuteCert::parse("{\"format\":\"moc-shard-cert\",\"version\":1}").is_err());
        assert!(CommuteCert::parse("not json").is_err());
        let v2 = sample_cert()
            .to_json()
            .replace("\"version\":1", "\"version\":2");
        assert!(CommuteCert::parse(&v2).is_err());
    }

    #[test]
    fn delivery_plan_unions_spanning_footprints() {
        // Objects 0,1 in shard 0; 2,3 in shard 1. w01 spans only shard 0,
        // bridge spans both.
        let plan = ShardPlan::new(vec![0, 0, 1, 1]).unwrap();
        let entries = vec![
            entry("w01", true, &[0], &[1], MoverClass::NonMover),
            entry("bridge", true, &[1], &[2], MoverClass::NonMover),
            entry("q3", false, &[3], &[], MoverClass::ReadOnly),
        ];
        let cert = CommuteCert {
            num_objects: 4,
            programs_fp: 0,
            matrix: CommuteMatrix::derive(&entries),
            programs: entries,
            side_conditions: vec![],
        };
        let cp = cert.delivery_plan(&plan);
        assert_eq!(cp.num_shards(), 2);
        // Shard 0 is touched by w01 and bridge: objects {0,1,2} touched,
        // {1,2} written. Shard 1 by bridge and q3: {1,2,3} touched, {2}
        // written.
        assert_eq!(cp.shard_touch[0], vec![oid(0), oid(1), oid(2)]);
        assert_eq!(cp.shard_write[0], vec![oid(1), oid(2)]);
        assert_eq!(cp.shard_touch[1], vec![oid(1), oid(2), oid(3)]);
        assert_eq!(cp.shard_write[1], vec![oid(2)]);
        // An item writing only object 3 commutes with shard 0 but not
        // shard 1 (q3 reads 3).
        assert!(cp.commutes_with_shard(0, &[oid(3)], &[oid(3)]));
        assert!(!cp.commutes_with_shard(1, &[oid(3)], &[oid(3)]));
        // A read-only item on object 0 conflicts with shard 0 (written
        // object 1? no — it reads 0, shard 0 writes {1,2}: commutes) and
        // commutes with shard 1.
        assert!(cp.commutes_with_shard(0, &[oid(0)], &[]));
        assert!(cp.commutes_with_shard(1, &[oid(0)], &[]));
        assert!(!cp.commutes_with_shard(0, &[oid(1)], &[]));
        // The vacuous sabotage plan commutes with everything.
        let bad = CommutePlan::vacuous(2);
        assert!(bad.commutes_with_shard(0, &[oid(1)], &[oid(1)]));
    }
}
