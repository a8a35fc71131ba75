//! What the two program-set certificate families share.
//!
//! A `moc-shard-cert` and a `moc-commute-cert` both bind a *program set*,
//! not a history. Each opens with the same envelope — `format`, `version`,
//! `num_objects`, `programs_fingerprint` — and lists one entry per program
//! that starts with the same five claim fields ([`ProgramClaim`]). A
//! family appends its own entry fields and top-level fields after those.
//! This module owns the shared part of the schema, its codec, and the one
//! conflict predicate both families' obligations are stated in, so
//! [`crate::shard`] and [`crate::commute`] keep only what differs.

use crate::ids::ObjectId;
use crate::json::{self, Json};

/// One program's footprint claim, the first five fields of every program
/// entry of a program-set certificate (in this order).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProgramClaim {
    /// Program name (names must be unique within a certificate).
    pub name: String,
    /// Whether the program is classified as an update.
    pub update: bool,
    /// Whether the claimed footprint/classification is *refined* below
    /// the syntactic one (reachability analysis). Refined claims are
    /// attested, not re-derived, by the auditor — mirroring how
    /// exhaustion proofs are attested in `moc-cert` documents.
    pub refined: bool,
    /// Claimed read footprint (sorted, deduplicated).
    pub reads: Vec<ObjectId>,
    /// Claimed write footprint (sorted, deduplicated).
    pub writes: Vec<ObjectId>,
}

impl ProgramClaim {
    /// The claim's entry fields, in schema order.
    pub(crate) fn fields(&self) -> Vec<(String, Json)> {
        vec![
            ("name".to_string(), json::str(self.name.clone())),
            ("update".to_string(), Json::Bool(self.update)),
            ("refined".to_string(), Json::Bool(self.refined)),
            ("reads".to_string(), objects_json(&self.reads)),
            ("writes".to_string(), objects_json(&self.writes)),
        ]
    }

    /// Parses the claim fields of one program entry.
    pub(crate) fn parse(entry: &Json) -> Result<Self, String> {
        Ok(ProgramClaim {
            name: entry_field(entry, "name")?
                .as_str()
                .ok_or("name: expected string")?
                .to_string(),
            update: entry_field(entry, "update")?
                .as_bool()
                .ok_or("update: expected bool")?,
            refined: entry_field(entry, "refined")?
                .as_bool()
                .ok_or("refined: expected bool")?,
            reads: parse_objects(entry_field(entry, "reads")?, "reads")?,
            writes: parse_objects(entry_field(entry, "writes")?, "writes")?,
        })
    }
}

/// Whether two claims conflict: a shared object that at least one of them
/// may write (the conflict-graph rule, restated over claimed footprints).
/// Two programs commute exactly when they do not conflict.
pub fn conflicts(p: &ProgramClaim, q: &ProgramClaim) -> bool {
    let touches = |c: &ProgramClaim, o: &ObjectId| c.reads.contains(o) || c.writes.contains(o);
    p.writes.iter().any(|o| touches(q, o)) || q.writes.iter().any(|o| touches(p, o))
}

/// A program-set certificate family: the format tag and schema version
/// its documents carry, and the noun its parse errors call it by.
pub(crate) struct Family {
    pub(crate) format: &'static str,
    pub(crate) version: u64,
    pub(crate) noun: &'static str,
}

impl Family {
    /// Renders a document: the envelope, then the family's own fields.
    pub(crate) fn render(
        &self,
        num_objects: usize,
        programs_fp: u64,
        body: Vec<(String, Json)>,
    ) -> String {
        let mut fields = vec![
            ("format".to_string(), json::str(self.format)),
            ("version".to_string(), json::num(self.version as u32)),
            ("num_objects".to_string(), json::num(num_objects as u32)),
            (
                "programs_fingerprint".to_string(),
                json::str(format!("{programs_fp:016x}")),
            ),
        ];
        fields.extend(body);
        Json::Obj(fields).render()
    }

    /// Parses a document's envelope, checking the format and version
    /// tags: the document, its `num_objects` and its program-set
    /// fingerprint. Structural parse only — semantic validation is the
    /// auditor's job.
    pub(crate) fn parse(&self, text: &str) -> Result<(Json, usize, u64), String> {
        let doc = json::parse(text).map_err(|e| format!("malformed JSON: {e:?}"))?;
        let format = field(&doc, "format")?
            .as_str()
            .ok_or("format: expected string")?;
        if format != self.format {
            return Err(format!(
                "not a {} certificate (format '{format}')",
                self.noun
            ));
        }
        let version = field(&doc, "version")?
            .as_u64()
            .ok_or("version: expected uint")?;
        if version != self.version {
            return Err(format!("unsupported {}-cert version {version}", self.noun));
        }
        let num_objects = field(&doc, "num_objects")?
            .as_usize()
            .ok_or("num_objects: expected uint")?;
        let fp_hex = field(&doc, "programs_fingerprint")?
            .as_str()
            .ok_or("programs_fingerprint: expected string")?;
        let programs_fp = u64::from_str_radix(fp_hex, 16)
            .map_err(|_| "programs_fingerprint: expected hex u64".to_string())?;
        Ok((doc, num_objects, programs_fp))
    }
}

/// A top-level field of a certificate document.
pub(crate) fn field<'a>(doc: &'a Json, key: &str) -> Result<&'a Json, String> {
    doc.get(key).ok_or_else(|| format!("missing field '{key}'"))
}

/// A field of one program entry.
pub(crate) fn entry_field<'a>(entry: &'a Json, key: &str) -> Result<&'a Json, String> {
    entry
        .get(key)
        .ok_or_else(|| format!("program entry missing '{key}'"))
}

/// Parses the document's `programs` array, one entry at a time.
pub(crate) fn parse_programs<T>(
    doc: &Json,
    entry: impl Fn(&Json) -> Result<T, String>,
) -> Result<Vec<T>, String> {
    field(doc, "programs")?
        .as_arr()
        .ok_or("programs: expected array")?
        .iter()
        .map(entry)
        .collect()
}

pub(crate) fn objects_json(objs: &[ObjectId]) -> Json {
    Json::Arr(objs.iter().map(|o| json::num(o.as_u32())).collect())
}

/// Parses an array of ids; anything outside `u32` is an error, not a wrap.
pub(crate) fn parse_u32s(v: &Json, what: &str) -> Result<Vec<u32>, String> {
    let arr = v
        .as_arr()
        .ok_or_else(|| format!("{what}: expected array"))?;
    arr.iter()
        .map(|x| {
            x.as_u32()
                .ok_or_else(|| format!("{what}: expected uint in u32 range"))
        })
        .collect()
}

pub(crate) fn parse_objects(v: &Json, what: &str) -> Result<Vec<ObjectId>, String> {
    Ok(parse_u32s(v, what)?
        .into_iter()
        .map(ObjectId::new)
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn claim(name: &str, reads: &[u32], writes: &[u32]) -> ProgramClaim {
        ProgramClaim {
            name: name.to_string(),
            update: !writes.is_empty(),
            refined: false,
            reads: reads.iter().map(|&i| ObjectId::new(i)).collect(),
            writes: writes.iter().map(|&i| ObjectId::new(i)).collect(),
        }
    }

    #[test]
    fn conflict_rule_needs_a_write_on_a_shared_object() {
        let q1 = claim("q1", &[0], &[]);
        let q2 = claim("q2", &[0], &[]);
        let w = claim("w", &[], &[0]);
        let w_other = claim("w2", &[], &[1]);
        assert!(!conflicts(&q1, &q2), "read-read never conflicts");
        assert!(conflicts(&q1, &w) && conflicts(&w, &q1));
        assert!(conflicts(&w, &w), "self WW pins instances");
        assert!(!conflicts(&w, &w_other));
        assert!(!conflicts(&q1, &q1), "read-only self-commutes");
    }

    #[test]
    fn claim_round_trips_through_its_fields() {
        let c = claim("rmw", &[0, 3], &[3]);
        let entry = Json::Obj(c.fields());
        assert_eq!(ProgramClaim::parse(&entry).unwrap(), c);
        let err = ProgramClaim::parse(&Json::Obj(vec![])).unwrap_err();
        assert!(err.ends_with("'name'"), "{err}");
    }
}
