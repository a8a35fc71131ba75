//! The synthesized boundary corpus under `tests/fixtures/synth/`: every
//! specimen `moc synth --smoke` discovered is pinned here and must keep
//! regenerating bit-for-bit, verifying within its node cap, and auditing
//! cleanly — while a single mutated byte in any certificate must be
//! rejected by the independent auditor. CI runs the same gate as
//! `moc synth --smoke --verify tests/fixtures/synth`.
//!
//! Regenerate after an intentional grammar or hunt change with:
//!
//! ```text
//! moc synth --smoke --out tests/fixtures/synth
//! ```

use std::path::Path;

use moc_core::codec;
use moc_synth::{load_corpus, verify_corpus};
use moc_workload::synth::SynthFamily;

fn corpus_dir() -> &'static Path {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/synth"))
}

/// Golden-corpus regression gate: re-running the pinned hunt reproduces
/// every specimen (same selection, verdict, proof kind, fingerprint,
/// byte-identical history files) with fresh node counts inside the
/// pinned caps.
#[test]
fn corpus_regenerates_without_drift() {
    let problems = verify_corpus(corpus_dir()).expect("corpus manifest loads");
    assert!(
        problems.is_empty(),
        "corpus drift:\n{}",
        problems.join("\n")
    );
}

/// The gate pins certificate bytes, not only their audit: a copy of the
/// corpus with one certificate re-spaced — still valid JSON, still
/// accepted by the auditor — fails verification, naming that specimen.
#[test]
fn a_respaced_certificate_fails_the_corpus_gate() {
    let copy = std::env::temp_dir().join(format!("moc-synth-respaced-{}", std::process::id()));
    std::fs::create_dir_all(&copy).unwrap();
    for entry in std::fs::read_dir(corpus_dir()).unwrap() {
        let path = entry.unwrap().path();
        std::fs::copy(&path, copy.join(path.file_name().unwrap())).unwrap();
    }
    let e = &load_corpus(&copy).unwrap().entries[0];
    let cert = std::fs::read_to_string(copy.join(&e.cert_file)).unwrap();
    let respaced = cert.replacen("\"format\":", "\"format\": ", 1);
    assert_ne!(respaced, cert);
    let hist = std::fs::read_to_string(copy.join(&e.history_file)).unwrap();
    moc_audit::audit_texts(&hist, &respaced).expect("re-spacing keeps the certificate valid");
    std::fs::write(copy.join(&e.cert_file), respaced).unwrap();

    let problems = verify_corpus(&copy).expect("corpus manifest loads");
    std::fs::remove_dir_all(&copy).unwrap();
    assert_eq!(
        problems,
        [format!("{}: certificate differs from regeneration", e.name)]
    );
}

/// The manifest and the named-family registry are two views of the same
/// hunt: they must agree on names, seeds, categories and replay lines,
/// and the fingerprints must match registry regeneration.
#[test]
fn corpus_matches_the_family_registry() {
    let corpus = load_corpus(corpus_dir()).expect("corpus manifest loads");
    assert_eq!(corpus.entries.len(), SynthFamily::ALL.len());
    for (e, f) in corpus.entries.iter().zip(SynthFamily::ALL) {
        assert_eq!(e.name, f.name);
        assert_eq!(e.seed, f.seed);
        assert_eq!(e.category, f.category.tag());
        assert_eq!(e.replay, f.replay_line());
        assert_eq!(
            e.fingerprint,
            codec::fingerprint(&f.history()),
            "{}: registry regeneration drifted from the manifest",
            f.name
        );
    }
}

/// Differential audit agreement over the whole corpus: every checked-in
/// certificate is accepted against its checked-in history, and becomes
/// unacceptable after mutating a single byte (the fingerprint digit that
/// binds certificate to history).
#[test]
fn every_certificate_audits_and_rejects_one_byte_mutations() {
    let corpus = load_corpus(corpus_dir()).expect("corpus manifest loads");
    assert!(!corpus.entries.is_empty());
    for e in &corpus.entries {
        let hist = std::fs::read_to_string(corpus_dir().join(&e.history_file)).unwrap();
        let cert = std::fs::read_to_string(corpus_dir().join(&e.cert_file)).unwrap();

        moc_audit::audit_texts(&hist, &cert)
            .unwrap_or_else(|err| panic!("{}: genuine certificate rejected: {err}", e.name));

        // Flip one hex digit of the binding fingerprint. The mutated
        // certificate is well-formed JSON but names a different history,
        // so the auditor must refuse it.
        let fp = format!("{:016x}", e.fingerprint);
        assert!(cert.contains(&fp), "{}: cert lacks its fingerprint", e.name);
        let last = fp.as_bytes()[15];
        let flipped_digit = if last == b'0' { b'1' } else { b'0' };
        let mut mutated_fp = fp.clone().into_bytes();
        mutated_fp[15] = flipped_digit;
        let mutated = cert.replace(&fp, std::str::from_utf8(&mutated_fp).unwrap());
        assert_ne!(mutated, cert);
        assert!(
            moc_audit::audit_texts(&hist, &mutated).is_err(),
            "{}: auditor accepted a certificate with a mutated fingerprint",
            e.name
        );

        // Flip the verdict instead: the proof no longer matches the claim.
        let (from, to) = if e.admissible {
            ("\"verdict\":\"admissible\"", "\"verdict\":\"inadmissible\"")
        } else {
            ("\"verdict\":\"inadmissible\"", "\"verdict\":\"admissible\"")
        };
        let flipped = cert.replace(from, to);
        assert_ne!(flipped, cert, "{}: cert carries its pinned verdict", e.name);
        assert!(
            moc_audit::audit_texts(&hist, &flipped).is_err(),
            "{}: auditor accepted a verdict-flipped certificate",
            e.name
        );
    }
}

/// The ISSUE's floor on hunt yield: at least two specimens in each of
/// the legal-but-inadmissible and one-edge categories, at least two node
/// peaks, and at least ten distinct boundary specimens overall.
#[test]
fn corpus_meets_the_discovery_floor() {
    let corpus = load_corpus(corpus_dir()).expect("corpus manifest loads");
    let count = |tag: &str| corpus.entries.iter().filter(|e| e.category == tag).count();
    assert!(corpus.entries.len() >= 10);
    assert!(count("lbi") >= 2, "need >= 2 legal-but-inadmissible");
    assert!(count("edge") >= 2, "need >= 2 one-edge-from-fast-path");
    assert!(count("peak") >= 2, "need >= 2 node peaks");
    let mut seeds: Vec<u64> = corpus.entries.iter().map(|e| e.seed).collect();
    seeds.sort_unstable();
    seeds.dedup();
    assert_eq!(seeds.len(), corpus.entries.len(), "seeds are distinct");
}
