//! Named, seed-replayable regression families discovered by `moc synth`.
//!
//! `crates/synth` enumerates the [`crate::arb`] history grammar, dedupes
//! isomorphic specimens, and hunts the boundary: legal-but-inadmissible
//! histories, configurations one conflict edge away from the Theorem 7
//! fast path, pruned-engine node-count maxima, and statically refutable
//! cycles. Every survivor of a pinned hunt lives here as a named family
//! so `moc synth --family NAME` (and the golden corpus under
//! `tests/fixtures/synth/`) replays it from nothing but a seed.
//!
//! Like the chaos registries, [`SynthFamily::ALL`] is append-only **per
//! hunt generation**: entries regenerate from `(seed, smoke_bounds())`,
//! so reordering or re-seeding silently changes every replay line and
//! fixture ever printed. New hunts append; they never reshuffle.

use moc_core::history::History;
use moc_core::ids::{MOpId, ProcessId};
use moc_core::mop::MOpRecord;

use crate::arb::{self, HistoryBounds};

/// The bounded grammar every pinned family regenerates under — and the
/// grammar `moc synth --smoke` enumerates. Changing any field is a
/// corpus-breaking event (all seeds re-roll); bump the hunt instead of
/// editing in place.
pub fn smoke_bounds() -> HistoryBounds {
    HistoryBounds {
        processes: 4,
        mops_per_process: 2,
        objects: 4,
        max_span: 3,
        update_fraction: 0.7,
    }
}

/// The boundary category a synthesized family was selected for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SynthCategory {
    /// Legal w.r.t. the closed base relation, yet inadmissible — the
    /// checker had to exhaust a genuine search to refute it (D 4.7's
    /// NP-core: no polynomial certificate of either answer is evident).
    LegalInadmissible,
    /// The derived configuration misses the Theorem 7 fast path by
    /// exactly one uncovered conflict pair.
    OneEdgeFromFastPath,
    /// Maximal pruned-engine node count among all enumerated specimens
    /// of the same size — the search-hardest shapes the grammar found.
    NodePeak,
    /// Refuted without search by a `~H+` cycle (D 4.12): the polynomial
    /// refutation boundary, and the zero-search stress base.
    StaticCycle,
}

impl SynthCategory {
    /// Stable tag used in names, manifests and reports.
    pub fn tag(&self) -> &'static str {
        match self {
            SynthCategory::LegalInadmissible => "lbi",
            SynthCategory::OneEdgeFromFastPath => "edge",
            SynthCategory::NodePeak => "peak",
            SynthCategory::StaticCycle => "cycle",
        }
    }
}

/// A pinned synthesis discovery: regenerates from its seed alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SynthFamily {
    /// Stable name (used in replay lines, fixtures and bench rows).
    pub name: &'static str,
    /// Why the hunt selected it.
    pub category: SynthCategory,
    /// Seed into [`arb::history_from_seed`] under [`smoke_bounds`].
    pub seed: u64,
}

impl SynthFamily {
    /// All pinned families, in hunt selection order. Append-only.
    pub const ALL: [SynthFamily; 12] = [
        SynthFamily {
            name: "lbi-0",
            category: SynthCategory::LegalInadmissible,
            seed: 135,
        },
        SynthFamily {
            name: "lbi-1",
            category: SynthCategory::LegalInadmissible,
            seed: 347,
        },
        SynthFamily {
            name: "lbi-2",
            category: SynthCategory::LegalInadmissible,
            seed: 360,
        },
        SynthFamily {
            name: "edge-0",
            category: SynthCategory::OneEdgeFromFastPath,
            seed: 6,
        },
        SynthFamily {
            name: "edge-1",
            category: SynthCategory::OneEdgeFromFastPath,
            seed: 12,
        },
        SynthFamily {
            name: "edge-2",
            category: SynthCategory::OneEdgeFromFastPath,
            seed: 14,
        },
        SynthFamily {
            name: "peak-0",
            category: SynthCategory::NodePeak,
            seed: 697,
        },
        SynthFamily {
            name: "peak-1",
            category: SynthCategory::NodePeak,
            seed: 507,
        },
        SynthFamily {
            name: "peak-2",
            category: SynthCategory::NodePeak,
            seed: 873,
        },
        SynthFamily {
            name: "peak-3",
            category: SynthCategory::NodePeak,
            seed: 705,
        },
        SynthFamily {
            name: "cycle-0",
            category: SynthCategory::StaticCycle,
            seed: 5,
        },
        SynthFamily {
            name: "cycle-1",
            category: SynthCategory::StaticCycle,
            seed: 7,
        },
    ];

    /// Looks a family up by name.
    pub fn by_name(name: &str) -> Option<SynthFamily> {
        SynthFamily::ALL.into_iter().find(|f| f.name == name)
    }

    /// Regenerates the family's history from its seed.
    pub fn history(&self) -> History {
        arb::history_from_seed(self.seed, &smoke_bounds())
    }

    /// The command line that replays this family.
    pub fn replay_line(&self) -> String {
        format!("moc synth --family {}", self.name)
    }
}

/// `copies` disjoint translates of `h`: copy `c` lives on objects
/// `[c·m, (c+1)·m)` and processes `[c·P, (c+1)·P)` where `m`/`P` are the
/// base history's object/process counts. Used to scale a discovered
/// boundary specimen into a checker stress row: interaction components
/// multiply while per-component structure is pinned by the seed.
pub fn tiled(h: &History, copies: usize) -> History {
    let m = h.num_objects();
    let procs = h
        .records()
        .iter()
        .map(|r| r.id.process.index() + 1)
        .max()
        .unwrap_or(1);
    let translate_id = |id: MOpId, c: usize| {
        MOpId::new(
            ProcessId::new((id.process.index() + c * procs) as u32),
            id.seq,
        )
    };
    let mut records = Vec::with_capacity(h.len() * copies);
    for c in 0..copies {
        for r in h.records() {
            let mut rec: MOpRecord = r.clone();
            rec.id = translate_id(r.id, c);
            rec.label = format!("c{c}{}", r.label).into();
            for op in &mut rec.ops {
                op.object = moc_core::ids::ObjectId::new((op.object.index() + c * m) as u32);
                if op.writer != MOpId::INITIAL {
                    op.writer = translate_id(op.writer, c);
                }
            }
            records.push(rec);
        }
    }
    History::new(m * copies, records).expect("disjoint translation preserves well-formedness")
}

#[cfg(test)]
mod tests {
    use super::*;
    use moc_checker::conditions::{check, Condition, Strategy};

    #[test]
    fn names_are_unique_and_round_trip() {
        for f in SynthFamily::ALL {
            assert_eq!(SynthFamily::by_name(f.name), Some(f));
            assert!(f.replay_line().contains(f.name));
        }
        let mut names: Vec<_> = SynthFamily::ALL.iter().map(|f| f.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), SynthFamily::ALL.len());
    }

    #[test]
    fn families_regenerate_deterministically() {
        for f in SynthFamily::ALL {
            assert_eq!(f.history().records(), f.history().records());
        }
    }

    #[test]
    fn tiling_multiplies_disjoint_components() {
        let base = SynthFamily::by_name("lbi-0").unwrap().history();
        let t = tiled(&base, 3);
        assert_eq!(t.len(), base.len() * 3);
        assert_eq!(t.num_objects(), base.num_objects() * 3);
        // The tile preserves the verdict in every copy: an inadmissible
        // base stays inadmissible, and copies do not interfere.
        let br = check(&base, Condition::MSequentialConsistency, Strategy::Auto).unwrap();
        let tr = check(&t, Condition::MSequentialConsistency, Strategy::Auto).unwrap();
        assert_eq!(br.satisfied, tr.satisfied);
    }
}
