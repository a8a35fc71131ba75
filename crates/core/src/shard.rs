//! Shard plans and shard certificates.
//!
//! The Figure 4/6 protocols funnel every update through one global total
//! order. The static conflict graph often proves that whole groups of
//! objects can never interact: no program's footprint bridges them. A
//! [`ShardPlan`] records such a partition of the object universe, and a
//! [`ShardCert`] is the *proof document* the analyzer emits alongside it —
//! per-shard footprint-closure obligations, an explicit enumeration of
//! every cross-shard conflict edge, and a composition verdict stating
//! which Section 4 constraint classes (OO/WW/WO, Theorem 7) remain
//! enforceable by *per-shard* sequencing, per the Gotsman–Burckhardt
//! composition rule.
//!
//! This module owns only the data model and its JSON codec so that the
//! emitting side (`moc-analyze`) and the independent validator
//! (`moc-audit`) share one schema without sharing any analysis code; the
//! envelope and program claims it shares with `moc-commute-cert` live in
//! [`crate::claim`].

use std::fmt;

use crate::claim::{
    conflicts, entry_field, field, objects_json, parse_objects, parse_programs, parse_u32s, Family,
    ProgramClaim,
};
use crate::ids::ObjectId;
use crate::json::{self, Json};
use crate::program::Program;

const SHARD_CERT: Family = Family {
    format: "moc-shard-cert",
    version: 1,
    noun: "shard",
};

/// How a sharded broadcast routes an m-operation whose footprint spans
/// shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RoutePolicy {
    /// The certified policy: a footprint closed within one shard goes to
    /// that shard's channel; anything else falls back to the global
    /// channel (which every replica merges after its shard channels).
    #[default]
    Certified,
    /// Sabotage hook for the chaos suite: route by the *first* footprint
    /// object's shard even when the footprint spans shards — exactly the
    /// damage a mis-sharded hub object does. Never use outside tests.
    FirstObject,
}

/// Where an m-operation's footprint sends it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// Footprint closed within this shard: shard-local channel.
    Shard(u32),
    /// Footprint spans shards (or is empty): the global fallback channel.
    Global,
}

/// A total partition of the object universe into shards.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardPlan {
    shard_of: Vec<u32>,
    num_shards: u32,
    policy: RoutePolicy,
}

impl ShardPlan {
    /// Creates a plan from a per-object shard assignment. Shard ids must
    /// be dense: every id in `0..max+1` must own at least one object.
    pub fn new(shard_of: Vec<u32>) -> Result<Self, String> {
        if shard_of.is_empty() {
            return Err("shard plan must cover at least one object".into());
        }
        let num_shards = shard_of.iter().copied().max().unwrap_or(0) + 1;
        let mut seen = vec![false; num_shards as usize];
        for &s in &shard_of {
            seen[s as usize] = true;
        }
        if let Some(hole) = seen.iter().position(|&s| !s) {
            return Err(format!("shard {hole} owns no object (ids must be dense)"));
        }
        Ok(ShardPlan {
            shard_of,
            num_shards,
            policy: RoutePolicy::Certified,
        })
    }

    /// A degenerate single-shard plan (everything global-equivalent).
    pub fn single(num_objects: usize) -> Self {
        ShardPlan {
            shard_of: vec![0; num_objects.max(1)],
            num_shards: 1,
            policy: RoutePolicy::Certified,
        }
    }

    /// Overrides the routing policy (chaos-sabotage hook).
    pub fn with_route_policy(mut self, policy: RoutePolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Number of objects the plan covers.
    pub fn num_objects(&self) -> usize {
        self.shard_of.len()
    }

    /// Number of shards.
    pub fn num_shards(&self) -> u32 {
        self.num_shards
    }

    /// The shard owning `obj`.
    ///
    /// # Panics
    ///
    /// Panics if `obj` lies outside the plan's universe.
    pub fn shard_of(&self, obj: ObjectId) -> u32 {
        self.shard_of[obj.index()]
    }

    /// Routes a footprint under the plan's policy.
    pub fn route<I: IntoIterator<Item = ObjectId>>(&self, footprint: I) -> Route {
        let mut shards = footprint.into_iter().map(|o| self.shard_of(o));
        let Some(first) = shards.next() else {
            return Route::Global;
        };
        match self.policy {
            RoutePolicy::FirstObject => Route::Shard(first),
            RoutePolicy::Certified => {
                if shards.all(|s| s == first) {
                    Route::Shard(first)
                } else {
                    Route::Global
                }
            }
        }
    }

    /// Shards grouped by id: element `s` lists the objects of shard `s`.
    pub fn shards(&self) -> Vec<Vec<ObjectId>> {
        let mut out = vec![Vec::new(); self.num_shards as usize];
        for (i, &s) in self.shard_of.iter().enumerate() {
            out[s as usize].push(ObjectId::new(i as u32));
        }
        out
    }
}

/// Something with a static object footprint, routable by a [`ShardPlan`].
///
/// The footprint must *over-approximate* every object the value can
/// dynamically read or write — the property that makes shard-local
/// ordering of same-shard conflicts sound.
pub trait Footprinted {
    /// The objects the value may touch.
    fn footprint(&self) -> Vec<ObjectId>;

    /// The objects the value may *write* — must over-approximate every
    /// dynamic write. The default claims the whole touch footprint,
    /// which is always sound; implementations with a tighter may-write
    /// set override this so commutativity-gated delivery (an item with
    /// disjoint writes may apply out of order) can actually engage.
    fn write_footprint(&self) -> Vec<ObjectId> {
        self.footprint()
    }
}

/// Conflict kind of a cross-shard edge, mirroring the conflict graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardEdgeKind {
    /// Both programs may write the object (WW-constraint obligation; also
    /// OO and WO).
    Ww,
    /// One program may write, the other may (only) read the object
    /// (OO/WO obligations).
    Rw,
}

impl ShardEdgeKind {
    /// Stable tag used in the JSON document.
    pub fn tag(&self) -> &'static str {
        match self {
            ShardEdgeKind::Ww => "ww",
            ShardEdgeKind::Rw => "rw",
        }
    }

    /// Parses a tag back.
    pub(crate) fn from_tag(tag: &str) -> Option<Self> {
        match tag {
            "ww" => Some(ShardEdgeKind::Ww),
            "rw" => Some(ShardEdgeKind::Rw),
            _ => None,
        }
    }
}

impl fmt::Display for ShardEdgeKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.tag())
    }
}

/// One program's entry in a shard certificate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardProgramEntry {
    /// The program's footprint claim.
    pub claim: ProgramClaim,
    /// `Some(s)` when the whole footprint is closed within shard `s`;
    /// `None` for a cross-shard (straddling) program.
    pub shard: Option<u32>,
    /// The shards the footprint touches, ascending. A single-shard
    /// program lists exactly its shard; an empty-footprint program lists
    /// nothing.
    pub spans: Vec<u32>,
}

/// A cross-shard conflict edge: the exact reason a pair of programs still
/// needs the *global* order under the partition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardCrossEdge {
    /// Index of the first program (into [`ShardCert::programs`]).
    pub a: usize,
    /// Index of the second program; `a <= b`, self-edges allowed.
    pub b: usize,
    /// The conflicting object.
    pub object: ObjectId,
    /// Conflict kind.
    pub kind: ShardEdgeKind,
}

/// Which constraint classes survive per-shard sequencing (the
/// certificate's composition verdict).
///
/// The static booleans follow from edge coverage: a WW- or WO-obligated
/// pair always shares a *written* object, and a shared object pins both
/// single-shard footprints to one shard — so per-shard sequencing orders
/// the pair unless a straddling program drags it onto the global channel.
/// The condition strings record the *dynamic* side conditions: m-lin
/// composes by locality (Herlihy–Wing), while m-SC does **not** compose
/// in general (IRIW across shards) and is only recovered when each
/// process confines itself to a single shard, making the history a
/// disjoint union of per-shard histories.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardComposition {
    /// Every OO-obligated pair is ordered by some single shard's
    /// sequencer: no conflicting pair involves a query and no cross-shard
    /// edge exists.
    pub oo: bool,
    /// Every WW-obligated pair is ordered per-shard: no cross-shard WW
    /// edge.
    pub ww: bool,
    /// Every WO-obligated pair is ordered per-shard: no cross-shard edge
    /// at all (every conflict edge involves a write).
    pub wo: bool,
    /// Side condition under which global m-SC survives per-shard orders.
    pub msc: String,
    /// Side condition for m-linearizability.
    pub mlin: String,
}

/// The m-SC side condition for a multi-shard plan.
pub(crate) const MSC_PROCESS_CONFINED: &str = "per-shard-with-process-confinement";
/// The m-SC verdict for a degenerate single-shard plan.
pub(crate) const MSC_SINGLE_ORDER: &str = "single-global-order";
/// The m-lin verdict: composes by locality when each shard order respects
/// real time.
pub(crate) const MLIN_COMPOSES: &str = "composes-by-locality";

impl ShardComposition {
    /// Recomputes the verdict from certificate data alone. Used by the
    /// emitter to fill the field and by the auditor to cross-check it.
    pub fn derive(
        num_shards: u32,
        programs: &[ShardProgramEntry],
        cross_edges: &[ShardCrossEdge],
    ) -> Self {
        let any_cross = !cross_edges.is_empty();
        let any_cross_ww = cross_edges.iter().any(|e| e.kind == ShardEdgeKind::Ww);
        // OO additionally requires that no conflicting pair involves a
        // query — queries are never routed through a sequencer, so no
        // shard order covers them (same rule as the flat OO certificate).
        let query_conflict = {
            let mut found = false;
            'outer: for (i, p) in programs.iter().enumerate() {
                for q in &programs[i..] {
                    if (p.claim.update && q.claim.update) || !conflicts(&p.claim, &q.claim) {
                        continue;
                    }
                    found = true;
                    break 'outer;
                }
            }
            found
        };
        ShardComposition {
            oo: !any_cross && !query_conflict,
            ww: !any_cross_ww,
            wo: !any_cross,
            msc: if num_shards <= 1 {
                MSC_SINGLE_ORDER.to_string()
            } else {
                MSC_PROCESS_CONFINED.to_string()
            },
            mlin: MLIN_COMPOSES.to_string(),
        }
    }

    /// Whether the named constraint class is enforced per-shard
    /// (`"oo"`, `"ww"`, `"wo"`).
    pub fn enforced(&self, class: &str) -> Option<bool> {
        match class {
            "oo" => Some(self.oo),
            "ww" => Some(self.ww),
            "wo" => Some(self.wo),
            _ => None,
        }
    }
}

/// A versioned shard certificate: the partition plus its proof
/// obligations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardCert {
    /// Size of the object universe the partition covers.
    pub num_objects: usize,
    /// FNV-1a fingerprint binding the certificate to the program set it
    /// was computed from (see [`fingerprint_programs`]).
    pub programs_fp: u64,
    /// Objects of each shard, ascending within a shard.
    pub shards: Vec<Vec<ObjectId>>,
    /// One entry per analyzed program, in input order.
    pub programs: Vec<ShardProgramEntry>,
    /// Every conflict edge that crosses a shard boundary (involves a
    /// straddling program), sorted by `(a, b, object, kind)`.
    pub cross_edges: Vec<ShardCrossEdge>,
    /// The composition verdict.
    pub composition: ShardComposition,
}

/// A stable fingerprint of a program set for certificate binding: FNV-1a
/// over a canonical encoding of each program's name, syntactic footprint
/// and instruction count. The certificate's claims are all footprint
/// level, so binding footprints (rather than instruction streams) is
/// exactly as strong as the claims it protects.
pub fn fingerprint_programs(programs: &[&Program]) -> u64 {
    let mut text = String::new();
    for p in programs {
        text.push_str(p.name());
        text.push(';');
        text.push('R');
        for o in p.potential_reads() {
            text.push_str(&format!(":{}", o.index()));
        }
        text.push(';');
        text.push('W');
        for o in p.potential_writes() {
            text.push_str(&format!(":{}", o.index()));
        }
        text.push_str(&format!(";I:{}\n", p.instrs().len()));
    }
    fnv1a(text.as_bytes())
}

/// FNV-1a 64 over a byte string — the workspace's one fingerprint kernel.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

impl ShardCert {
    /// Serializes the certificate to its canonical JSON document.
    pub fn to_json(&self) -> String {
        let programs = self
            .programs
            .iter()
            .map(|p| {
                let mut fields = p.claim.fields();
                fields.push(("shard".to_string(), p.shard.map_or(Json::Null, json::num)));
                fields.push((
                    "spans".to_string(),
                    Json::Arr(p.spans.iter().map(|&s| json::num(s)).collect()),
                ));
                Json::Obj(fields)
            })
            .collect();
        let edges = self
            .cross_edges
            .iter()
            .map(|e| {
                Json::Obj(vec![
                    ("a".to_string(), json::num(e.a as u32)),
                    ("b".to_string(), json::num(e.b as u32)),
                    ("object".to_string(), json::num(e.object.as_u32())),
                    ("kind".to_string(), json::str(e.kind.tag())),
                ])
            })
            .collect();
        let composition = Json::Obj(vec![
            ("oo".to_string(), Json::Bool(self.composition.oo)),
            ("ww".to_string(), Json::Bool(self.composition.ww)),
            ("wo".to_string(), Json::Bool(self.composition.wo)),
            ("msc".to_string(), json::str(self.composition.msc.clone())),
            ("mlin".to_string(), json::str(self.composition.mlin.clone())),
        ]);
        SHARD_CERT.render(
            self.num_objects,
            self.programs_fp,
            vec![
                (
                    "shards".to_string(),
                    Json::Arr(self.shards.iter().map(|s| objects_json(s)).collect()),
                ),
                ("programs".to_string(), Json::Arr(programs)),
                ("cross_edges".to_string(), Json::Arr(edges)),
                ("composition".to_string(), composition),
            ],
        )
    }

    /// Parses a certificate document, checking format and version tags.
    /// Structural parse only — semantic validation is the auditor's job.
    pub fn parse(text: &str) -> Result<ShardCert, String> {
        let (doc, num_objects, programs_fp) = SHARD_CERT.parse(text)?;
        let shards = field(&doc, "shards")?
            .as_arr()
            .ok_or("shards: expected array")?
            .iter()
            .map(|s| parse_objects(s, "shard"))
            .collect::<Result<Vec<_>, _>>()?;
        let programs = parse_programs(&doc, |p| {
            let shard = match entry_field(p, "shard")? {
                Json::Null => None,
                v => Some(v.as_u32().ok_or("shard: expected u32 or null")?),
            };
            Ok(ShardProgramEntry {
                claim: ProgramClaim::parse(p)?,
                shard,
                spans: parse_u32s(entry_field(p, "spans")?, "spans")?,
            })
        })?;
        let cross_edges = field(&doc, "cross_edges")?
            .as_arr()
            .ok_or("cross_edges: expected array")?
            .iter()
            .map(|e| {
                let get = |key: &str| {
                    e.get(key)
                        .ok_or_else(|| format!("cross edge missing '{key}'"))
                };
                Ok(ShardCrossEdge {
                    a: get("a")?.as_usize().ok_or("edge a: expected uint")?,
                    b: get("b")?.as_usize().ok_or("edge b: expected uint")?,
                    object: ObjectId::new(
                        get("object")?.as_u32().ok_or("edge object: expected u32")?,
                    ),
                    kind: ShardEdgeKind::from_tag(
                        get("kind")?.as_str().ok_or("edge kind: expected string")?,
                    )
                    .ok_or("edge kind: expected 'ww' or 'rw'")?,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        let comp = field(&doc, "composition")?;
        let cget = |key: &str| {
            comp.get(key)
                .ok_or_else(|| format!("composition missing '{key}'"))
        };
        let composition = ShardComposition {
            oo: cget("oo")?
                .as_bool()
                .ok_or("composition oo: expected bool")?,
            ww: cget("ww")?
                .as_bool()
                .ok_or("composition ww: expected bool")?,
            wo: cget("wo")?
                .as_bool()
                .ok_or("composition wo: expected bool")?,
            msc: cget("msc")?
                .as_str()
                .ok_or("composition msc: expected string")?
                .to_string(),
            mlin: cget("mlin")?
                .as_str()
                .ok_or("composition mlin: expected string")?
                .to_string(),
        };
        Ok(ShardCert {
            num_objects,
            programs_fp,
            shards,
            programs,
            cross_edges,
            composition,
        })
    }

    /// The plan the certificate describes, rebuilt from the shard lists.
    /// A total, disjoint partition lists each object exactly once, so a
    /// universe the lists do not add up to is refused before anything is
    /// allocated for it.
    pub fn plan(&self) -> Result<ShardPlan, String> {
        let listed: usize = self.shards.iter().map(Vec::len).sum();
        if listed != self.num_objects {
            return Err(format!(
                "the shards list {listed} object ids for a universe of {} objects",
                self.num_objects
            ));
        }
        let mut shard_of = vec![u32::MAX; self.num_objects];
        for (s, objs) in self.shards.iter().enumerate() {
            for o in objs {
                if o.index() >= self.num_objects {
                    return Err(format!("object {o} outside the universe"));
                }
                if shard_of[o.index()] != u32::MAX {
                    return Err(format!("object {o} assigned to two shards"));
                }
                shard_of[o.index()] = s as u32;
            }
        }
        // With as many ids as objects, in range and none twice, every
        // object is assigned.
        ShardPlan::new(shard_of)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::ProgramBuilder;

    fn oid(i: u32) -> ObjectId {
        ObjectId::new(i)
    }

    #[test]
    fn plan_routes_closed_footprints_to_their_shard() {
        let plan = ShardPlan::new(vec![0, 0, 1, 1]).unwrap();
        assert_eq!(plan.num_shards(), 2);
        assert_eq!(plan.route([oid(0), oid(1)]), Route::Shard(0));
        assert_eq!(plan.route([oid(2)]), Route::Shard(1));
        assert_eq!(plan.route([oid(1), oid(2)]), Route::Global);
        assert_eq!(plan.route([]), Route::Global);
    }

    #[test]
    fn first_object_policy_misroutes_spanning_footprints() {
        let plan = ShardPlan::new(vec![0, 1])
            .unwrap()
            .with_route_policy(RoutePolicy::FirstObject);
        assert_eq!(plan.route([oid(0), oid(1)]), Route::Shard(0));
        assert_eq!(plan.route([oid(1), oid(0)]), Route::Shard(1));
    }

    #[test]
    fn plan_rejects_sparse_shard_ids() {
        assert!(ShardPlan::new(vec![0, 2]).is_err());
        assert!(ShardPlan::new(vec![]).is_err());
        assert!(ShardPlan::new(vec![1, 0, 1]).is_ok());
    }

    fn claim(
        name: &str,
        update: bool,
        refined: bool,
        reads: &[u32],
        writes: &[u32],
    ) -> ProgramClaim {
        ProgramClaim {
            name: name.to_string(),
            update,
            refined,
            reads: reads.iter().map(|&i| oid(i)).collect(),
            writes: writes.iter().map(|&i| oid(i)).collect(),
        }
    }

    fn entry(name: &str, update: bool, reads: &[u32], writes: &[u32]) -> ShardProgramEntry {
        ShardProgramEntry {
            claim: claim(name, update, false, reads, writes),
            shard: Some(0),
            spans: vec![0],
        }
    }

    #[test]
    fn composition_derivation_matches_edge_shape() {
        let progs = vec![entry("w", true, &[], &[0]), entry("q", false, &[0], &[])];
        let none = ShardComposition::derive(2, &progs, &[]);
        assert!(none.ww && none.wo);
        assert!(!none.oo, "a query conflict blocks OO even with no edges");
        assert_eq!(none.msc, MSC_PROCESS_CONFINED);

        let updates_only = vec![entry("w1", true, &[], &[0]), entry("w2", true, &[], &[0])];
        let clean = ShardComposition::derive(1, &updates_only, &[]);
        assert!(clean.oo && clean.ww && clean.wo);
        assert_eq!(clean.msc, MSC_SINGLE_ORDER);

        let rw_edge = ShardCrossEdge {
            a: 0,
            b: 1,
            object: oid(0),
            kind: ShardEdgeKind::Rw,
        };
        let with_rw = ShardComposition::derive(2, &updates_only, std::slice::from_ref(&rw_edge));
        assert!(with_rw.ww && !with_rw.wo && !with_rw.oo);

        let ww_edge = ShardCrossEdge {
            kind: ShardEdgeKind::Ww,
            ..rw_edge
        };
        let with_ww = ShardComposition::derive(2, &updates_only, &[ww_edge]);
        assert!(!with_ww.ww && !with_ww.wo);
    }

    #[test]
    fn cert_json_round_trips() {
        let programs = vec![
            ShardProgramEntry {
                claim: claim("rmw", true, false, &[0], &[0]),
                shard: Some(0),
                spans: vec![0],
            },
            ShardProgramEntry {
                claim: claim("bridge", true, true, &[0, 1], &[1]),
                shard: None,
                spans: vec![0, 1],
            },
        ];
        let cross_edges = vec![ShardCrossEdge {
            a: 0,
            b: 1,
            object: oid(0),
            kind: ShardEdgeKind::Rw,
        }];
        let composition = ShardComposition::derive(2, &programs, &cross_edges);
        let cert = ShardCert {
            num_objects: 2,
            programs_fp: 0xdead_beef_0123_4567,
            shards: vec![vec![oid(0)], vec![oid(1)]],
            programs,
            cross_edges,
            composition,
        };
        let text = cert.to_json();
        let back = ShardCert::parse(&text).expect("round trip");
        assert_eq!(back, cert);
        let plan = back.plan().unwrap();
        assert_eq!(plan.shard_of(oid(0)), 0);
        assert_eq!(plan.shard_of(oid(1)), 1);
    }

    #[test]
    fn parse_rejects_foreign_documents() {
        assert!(ShardCert::parse("{}").is_err());
        assert!(ShardCert::parse("{\"format\":\"moc-cert\",\"version\":1}").is_err());
        assert!(ShardCert::parse("not json").is_err());
    }

    #[test]
    fn plan_refuses_a_universe_the_shards_do_not_add_up_to() {
        let mut cert = ShardCert {
            num_objects: 2,
            programs_fp: 0,
            shards: vec![vec![oid(0)], vec![oid(1)]],
            programs: vec![],
            cross_edges: vec![],
            composition: ShardComposition::derive(2, &[], &[]),
        };
        assert!(cert.plan().is_ok());
        // `usize::MAX` would abort a check that allocated first.
        for n in [1, 3, usize::MAX] {
            cert.num_objects = n;
            assert!(cert.plan().unwrap_err().contains("universe"));
        }
        cert.num_objects = 2;
        cert.shards = vec![vec![oid(0), oid(0)]];
        assert!(cert.plan().unwrap_err().contains("two shards"));
    }

    #[test]
    fn program_fingerprint_tracks_footprints() {
        let mk = |name: &str, obj: u32| {
            let mut b = ProgramBuilder::new(name);
            b.write(oid(obj), crate::program::imm(1)).ret(vec![]);
            b.build().unwrap()
        };
        let a = mk("w", 0);
        let b = mk("w", 1);
        let c = mk("w", 0);
        assert_ne!(
            fingerprint_programs(&[&a]),
            fingerprint_programs(&[&b]),
            "footprint change moves the fingerprint"
        );
        assert_eq!(fingerprint_programs(&[&a]), fingerprint_programs(&[&c]));
        assert_ne!(
            fingerprint_programs(&[&a, &b]),
            fingerprint_programs(&[&b, &a]),
            "program order is part of the binding"
        );
    }
}
