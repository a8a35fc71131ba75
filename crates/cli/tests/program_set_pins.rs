//! Pins the bytes of the program-set certificates (`moc-shard-cert`,
//! `moc-commute-cert`) and the auditor's rejection lines.
//!
//! * Every `moc shard` / `moc commute` report over the named workloads, in
//!   both formats and with `--certificate -`, is pinned by the FNV-1a of
//!   its output and its exit code.
//! * One doctored certificate per mutation family is pinned by the full
//!   line `moc audit --programs` prints for it and its exit code.
//!
//! A deliberate change to either family's schema or wording fails these
//! tables; each failure prints the whole table as it now reads, ready to
//! paste back after review.

use moc_cli::dispatch_with_status;
use moc_core::shard::fnv1a;

fn run(line: &str, stdin: &str) -> (String, i32) {
    let argv: Vec<String> = line.split_whitespace().map(str::to_string).collect();
    let (out, code) = dispatch_with_status(&argv, stdin);
    (out.unwrap_or_else(|e| e), code)
}

/// The certificate a `moc shard` / `moc commute` run prints last.
fn certificate(line: &str) -> String {
    let (out, code) = run(&format!("{line} --certificate -"), "");
    assert_eq!(code, 0, "{line}: {out}");
    out.lines()
        .rfind(|l| l.starts_with('{'))
        .expect("certificate line")
        .to_string()
}

/// `(command line, FNV-1a of the human report + certificate, FNV-1a of
/// the JSON report + certificate, exit code)`.
#[rustfmt::skip]
const REPORTS: &[(&str, u64, u64, i32)] = &[
    ("shard --workload demo", 0x130c425020dabd06, 0xa609860a234cebcd, 0),
    ("shard --workload disjoint", 0x25f8b80949d4ecf4, 0xf037baeeeb08ec43, 0),
    ("shard --workload protocol", 0x668c334bda74ba81, 0x603ab7f43d13bb75, 0),
    ("shard --workload shardable --shards 2", 0x0aea70dfa133b54e, 0xf070dbe2f967005e, 0),
    ("shard --workload shardable --shards 3", 0xb4be39cb58b9eaec, 0x3aef84338fb5b44b, 0),
    ("shard --workload hub", 0xb5467782d24b5294, 0xf6ff2b1c85d192f3, 0),
    ("shard --workload hub --max-shard-size 2", 0x2c2a319ba59dae1b, 0x4b4b5d1d7687653a, 0),
    ("commute --workload demo", 0xb48b35be7c74e521, 0xef15807e92073e1c, 0),
    ("commute --workload disjoint", 0x97893809902173c9, 0x448a23532a4ce078, 0),
    ("commute --workload protocol", 0x4e257c0279963496, 0x982674e6d9f2d14b, 0),
    ("commute --workload shardable --shards 2", 0xb2aa63a36d216284, 0x95f041b6b64397f0, 0),
    ("commute --workload shardable --shards 3", 0xddbdf70d6b3c96c6, 0x0327f2044fc01960, 0),
    ("commute --workload hub", 0xad0cf62765f92577, 0x9e695145c0b6cf53, 0),
    ("commute --workload hub --max-shard-size 2", 0x4f35c2a684aa7921, 0x8575611f8d3999f9, 0),
];

#[test]
fn reports_and_certificates_are_pinned() {
    let mut actual = Vec::new();
    for &(line, ..) in REPORTS {
        let (human, code) = run(&format!("{line} --certificate -"), "");
        let (json, json_code) = run(&format!("{line} --format json --certificate -"), "");
        assert_eq!(code, json_code, "{line}");
        actual.push((line, fnv1a(human.as_bytes()), fnv1a(json.as_bytes()), code));
    }
    if actual != REPORTS {
        let rows: String = actual
            .iter()
            .map(|(line, h, j, c)| format!("    ({line:?}, {h:#018x}, {j:#018x}, {c}),\n"))
            .collect();
        panic!("program-set reports drifted; they now read:\n{rows}");
    }
}

/// `(emitting command, audit workload options, replacements applied to
/// the emitted certificate, expected output of the audit, exit code)`.
type Mutation = (
    &'static str,
    &'static str,
    &'static [(&'static str, &'static str)],
    &'static str,
    i32,
);

const MUTATIONS: &[Mutation] = &[
    // Binding.
    (
        "shard --workload demo",
        "demo",
        &[("\"programs_fingerprint\":\"7c6d", "\"programs_fingerprint\":\"8c6d")],
        "shard certificate REJECTED: program-set fingerprint mismatch: certificate is bound to 8c6de31f73e1e43f, input set fingerprints to 7c6de31f73e1e43f",
        1,
    ),
    (
        "commute --workload demo",
        "demo",
        &[("\"programs_fingerprint\":\"7c6d", "\"programs_fingerprint\":\"8c6d")],
        "commute certificate REJECTED: program-set fingerprint mismatch: certificate is bound to 8c6de31f73e1e43f, input set fingerprints to 7c6de31f73e1e43f",
        1,
    ),
    // Claims.
    (
        "commute --workload demo",
        "demo",
        &[("\"name\":\"q2\"", "\"name\":\"q3\"")],
        "commute certificate REJECTED: program 0 (q3): name mismatch (input program is \"q2\")",
        1,
    ),
    (
        "shard --workload disjoint",
        "disjoint",
        &[("\"refined\":false,\"reads\":[0]", "\"refined\":false,\"reads\":[]")],
        "shard certificate REJECTED: program 0 (q1): claims differ from the syntactic footprint but are not marked refined",
        1,
    ),
    (
        "commute --workload disjoint",
        "disjoint",
        &[("\"refined\":false,\"reads\":[0]", "\"refined\":false,\"reads\":[0,1]")],
        "commute certificate REJECTED: program 0 (q1): claimed read footprint exceeds the syntactic one",
        1,
    ),
    (
        "commute --workload demo",
        "demo",
        &[("\"num_objects\":2", "\"num_objects\":1")],
        "commute certificate REJECTED: program 0 (q2): object y outside the certificate's universe",
        1,
    ),
    (
        "shard --workload demo",
        "demo",
        &[
            ("\"num_objects\":2", "\"num_objects\":1"),
            ("\"shards\":[[0,1]]", "\"shards\":[[0]]"),
        ],
        "shard certificate REJECTED: program 0 (q2): object y outside the certificate's universe",
        1,
    ),
    // Envelope.
    (
        "commute --workload demo",
        "demo",
        &[("\"format\":\"moc-commute-cert\"", "\"format\":\"moc-shard-cert\"")],
        "shard certificate REJECTED: missing field 'shards'",
        1,
    ),
    (
        "shard --workload demo",
        "demo",
        &[("\"format\":\"moc-shard-cert\"", "\"format\":\"moc-shard-cert-2\"")],
        "unknown certificate format \"moc-shard-cert-2\" (moc-shard-cert|moc-commute-cert)",
        2,
    ),
    (
        "shard --workload demo",
        "demo",
        &[("\"version\":1", "\"version\":2")],
        "shard certificate REJECTED: unsupported shard-cert version 2",
        1,
    ),
    (
        "commute --workload demo",
        "demo",
        &[("\"version\":1", "\"version\":2")],
        "commute certificate REJECTED: unsupported commute-cert version 2",
        1,
    ),
    (
        "shard --workload shardable",
        "shardable",
        &[("\"shards\":[[0,", "\"shards\":[[4294967296,")],
        "shard certificate REJECTED: shard: expected uint in u32 range",
        1,
    ),
    // Hostile shapes: an offset past the column arena once panicked the
    // auditor (exit 101) and a huge universe aborted it on allocation
    // (exit 134); a universe the shard lists do not add up to is refused
    // before anything is allocated for it.
    (
        "commute --workload demo",
        "demo",
        &[("\"offsets\":[0,2,2,3,3,6,8]", "\"offsets\":[0,13,8,8,8,8,8]")],
        "commute certificate REJECTED: matrix offsets must be monotone",
        1,
    ),
    (
        "shard --workload demo",
        "demo",
        &[("\"num_objects\":2", "\"num_objects\":1000000000000")],
        "shard certificate REJECTED: the shards list 2 object ids for a universe of 1000000000000 objects",
        1,
    ),
    (
        "shard --workload demo",
        "demo",
        &[("\"num_objects\":2", "\"num_objects\":3")],
        "shard certificate REJECTED: the shards list 2 object ids for a universe of 3 objects",
        1,
    ),
    // Shard obligations.
    (
        "shard --workload disjoint",
        "disjoint",
        &[("\"shards\":[[0],[1,2]]", "\"shards\":[[0,1],[2]]")],
        "shard certificate REJECTED: program 1 (w2): footprint closure violated: footprint touches shards [0, 1], certificate says [1]",
        1,
    ),
    (
        "shard --workload hub --max-shard-size 2",
        "hub",
        &[("{\"a\":0,\"b\":2,\"object\":0,\"kind\":\"rw\"},", "")],
        "shard certificate REJECTED: silently dropped cross-shard conflict: hub-w0 ~ hub-q0 on object x (rw)",
        1,
    ),
    (
        "shard --workload disjoint",
        "disjoint",
        &[(
            "\"cross_edges\":[]",
            "\"cross_edges\":[{\"a\":0,\"b\":1,\"object\":1,\"kind\":\"rw\"}]",
        )],
        "shard certificate REJECTED: fabricated cross-shard edge: q1 ~ w2 on object y (rw)",
        1,
    ),
    (
        "shard --workload disjoint",
        "disjoint",
        &[("\"oo\":true", "\"oo\":false")],
        "shard certificate REJECTED: composition verdict does not match the partition and edge set",
        1,
    ),
    // Commute obligations.
    (
        "commute --workload disjoint",
        "disjoint",
        &[(
            "\"offsets\":[0,4,5,6,7],\"cols\":[0,1,2,3,0,0,0]",
            "\"offsets\":[0,3,3,4,5],\"cols\":[0,2,3,0,0]",
        )],
        "commute certificate REJECTED: silently dropped commutation: q1 ~ w2 commute on the claimed footprints",
        1,
    ),
    (
        "commute --workload disjoint",
        "disjoint",
        &[(
            "\"offsets\":[0,4,5,6,7],\"cols\":[0,1,2,3,0,0,0]",
            "\"offsets\":[0,4,6,7,8],\"cols\":[0,1,2,3,0,1,0,0]",
        )],
        "commute certificate REJECTED: fabricated commutation: w2 ~ w2 conflict on the claimed footprints",
        1,
    ),
    (
        "commute --workload disjoint",
        "disjoint",
        &[("\"class\":\"read-only\"", "\"class\":\"both-mover\"")],
        "commute certificate REJECTED: program 0 (q1): mover class claims both-mover but footprints derive read-only",
        1,
    ),
    (
        "commute --workload disjoint",
        "disjoint",
        &[(
            "\"self-pairs-model-concurrent-instances\"",
            "\"self-pairs-are-free\"",
        )],
        "commute certificate REJECTED: side conditions must be exactly [\"footprints-over-approximate-register-semantics\", \"commutation-is-state-and-observation\", \"self-pairs-model-concurrent-instances\"], certificate lists [\"footprints-over-approximate-register-semantics\", \"commutation-is-state-and-observation\", \"self-pairs-are-free\"]",
        1,
    ),
];

#[test]
fn rejections_are_pinned() {
    let mut actual = Vec::new();
    for &(emit, programs, edits, ..) in MUTATIONS {
        let mut cert = certificate(emit);
        for (from, to) in edits {
            assert!(cert.contains(from), "{emit}: {from} not in {cert}");
            cert = cert.replacen(from, to, 1);
        }
        let (out, code) = run(&format!("audit - --programs {programs}"), &cert);
        actual.push((out.trim_end().to_string(), code));
    }
    let expected: Vec<(String, i32)> = MUTATIONS
        .iter()
        .map(|&(.., line, code)| (line.to_string(), code))
        .collect();
    if actual != expected {
        let rows: String = actual
            .iter()
            .map(|(line, code)| format!("    {line:?}, {code}\n"))
            .collect();
        panic!("rejection lines drifted; in table order they now read:\n{rows}");
    }
}

/// `moc audit` dispatches on the format tag, so a family's own parser
/// meets a foreign document only through the library.
#[test]
fn foreign_documents_name_the_family() {
    let shard = certificate("shard --workload demo");
    let commute = certificate("commute --workload demo");
    assert_eq!(
        moc_core::ShardCert::parse(&commute).unwrap_err(),
        "not a shard certificate (format 'moc-commute-cert')"
    );
    assert_eq!(
        moc_core::CommuteCert::parse(&shard).unwrap_err(),
        "not a commute certificate (format 'moc-shard-cert')"
    );
}
