//! Wire-protocol round trips: every message type of the multi-process
//! campaign fabric must survive serialise → parse bit-exactly — including
//! violation fragments carrying µarch diffs, whose contents feed the
//! campaign fingerprint — and the operator's handbook must document
//! exactly the tag set the protocol emits.

use amulet::fuzz::proto::{
    CampaignSpec, FragmentReport, Hello, Msg, ReportWire, ResultMsg, PROTO_VERSION,
};
use amulet::fuzz::{
    load_journal, BatchSpec, CampaignConfig, JournalHeader, ScanStats, SpecSource, ViolationClass,
    ViolationDigest,
};
use amulet::{contracts::ContractKind, defenses::DefenseKind};
use std::collections::BTreeSet;

/// The handbook the tag test audits.
const HANDBOOK: &str = include_str!("../docs/DISTRIBUTED.md");

fn quick_cfg() -> CampaignConfig {
    CampaignConfig::quick(DefenseKind::Baseline, ContractKind::CtSeq)
}

/// A fragment with the richest payload the protocol carries: multiple
/// violations, full-width digests, diffs in every structure.
fn loaded_fragment() -> FragmentReport {
    FragmentReport {
        index: 17,
        stats: ScanStats {
            cases: 672,
            classes: 96,
            candidates: 5,
            validation_runs: 20,
            confirmed: 2,
            sim_cycles: 0xffff_ffff_ffff_fff1,
            warped_cycles: 1 << 62,
        },
        first_detection_s: Some(0.734_375),
        violations: vec![
            ViolationDigest {
                class: ViolationClass::SpectreV1,
                ctrace_digest: u64::MAX,
                l1d_diff: vec![0x4740, 0x4100, u64::MAX],
                dtlb_diff: vec![4],
                l1i_diff: vec![],
            },
            ViolationDigest {
                class: ViolationClass::SttStoreTlb,
                ctrace_digest: 0,
                l1d_diff: vec![],
                dtlb_diff: vec![0x7f],
                l1i_diff: vec![0x40_1040],
            },
        ],
    }
}

fn all_message_shapes() -> Vec<Msg> {
    vec![
        Msg::Hello(Hello::for_config(&quick_cfg())),
        Msg::Hello(Hello {
            proto: PROTO_VERSION,
            defense: "STT".into(),
            contract: "ARCH-SEQ".into(),
            source: "STL".into(),
            seed: u64::MAX,
            instances: 100,
            programs: 200,
            inputs: 140,
        }),
        Msg::Batch(BatchSpec {
            index: 0,
            instance: 0,
            batch: 0,
            programs: 1,
        }),
        Msg::Batch(BatchSpec {
            index: usize::MAX >> 1,
            instance: 99,
            batch: 1_000_000,
            programs: 4,
        }),
        Msg::Ping { token: 0 },
        Msg::Ping { token: u64::MAX },
        Msg::Pong { token: 0xdead_beef },
        Msg::Shutdown,
        Msg::Fragment(FragmentReport {
            index: 3,
            stats: ScanStats::default(),
            first_detection_s: None,
            violations: vec![],
        }),
        Msg::Fragment(loaded_fragment()),
        // Protocol v3: the service flow.
        Msg::Submit(CampaignSpec {
            defense: "Baseline".into(),
            contract: "CT-SEQ".into(),
            source: "PHT".into(),
            seed: u64::MAX,
            scale: None,
            find_first: false,
            batch_programs: 3,
            cycle_skip: true,
        }),
        Msg::Submit(CampaignSpec {
            defense: "STT".into(),
            contract: "ARCH-SEQ".into(),
            source: "STL".into(),
            seed: 7,
            scale: Some(0.25),
            find_first: true,
            batch_programs: 8,
            cycle_skip: false,
        }),
        Msg::Accepted {
            campaign: 1,
            cached: false,
        },
        Msg::Accepted {
            campaign: u64::MAX,
            cached: true,
        },
        // Protocol v5: admission control and graceful drain.
        Msg::Rejected {
            reason: "admit queue full (4 active, 16 queued)".into(),
            retry_after_ms: 2_100,
        },
        Msg::Rejected {
            reason: "draining: not admitting new campaigns".into(),
            retry_after_ms: u64::MAX,
        },
        Msg::Draining { active: 0 },
        Msg::Draining { active: u64::MAX },
        // Protocol v4: the crash-recovery announcement.
        Msg::Recovering {
            campaign: 1,
            recovered: 0,
            total: 8,
        },
        Msg::Recovering {
            campaign: u64::MAX,
            recovered: u64::MAX - 1,
            total: u64::MAX,
        },
        Msg::Progress {
            campaign: 3,
            done: 5,
            total: 8,
            cases: 420,
        },
        Msg::CampaignResult(ResultMsg {
            campaign: 3,
            cached: false,
            cancelled: false,
            executed_batches: 8,
            report: Some(loaded_report_wire()),
            error: None,
        }),
        Msg::CampaignResult(ResultMsg {
            campaign: 4,
            cached: true,
            cancelled: false,
            executed_batches: 0,
            report: Some(loaded_report_wire()),
            error: None,
        }),
        Msg::CampaignResult(ResultMsg {
            campaign: 5,
            cached: false,
            cancelled: true,
            executed_batches: 2,
            report: None,
            error: None,
        }),
        Msg::CampaignResult(ResultMsg {
            campaign: u64::MAX,
            cached: false,
            cancelled: false,
            executed_batches: 0,
            report: None,
            error: Some("unknown defense \"Nope\"".into()),
        }),
        // An STL result: the non-default source must ride the report object.
        Msg::CampaignResult(ResultMsg {
            campaign: 6,
            cached: false,
            cancelled: false,
            executed_batches: 8,
            report: Some(ReportWire {
                source: "STL".into(),
                ..loaded_report_wire()
            }),
            error: None,
        }),
        Msg::CancelCampaign { campaign: 3 },
        Msg::CancelCampaign { campaign: u64::MAX },
    ]
}

/// A wire report with full-width counters and loaded digests — the
/// richest `result` payload the service can emit.
fn loaded_report_wire() -> ReportWire {
    ReportWire {
        defense: "Baseline".into(),
        contract: "CT-SEQ".into(),
        mode: "Opt".into(),
        format: "CacheLines".into(),
        source: "PHT".into(),
        include_l1i: false,
        seed: u64::MAX,
        instances: 2,
        programs: 12,
        inputs: 28,
        stats: ScanStats {
            cases: 672,
            classes: 96,
            candidates: 5,
            validation_runs: 20,
            confirmed: 2,
            sim_cycles: 0xffff_ffff_ffff_fff1,
            warped_cycles: 1 << 62,
        },
        detections: 2,
        digests: loaded_fragment().violations,
    }
}

#[test]
fn every_message_type_survives_serialise_parse() {
    for msg in all_message_shapes() {
        let line = msg.to_line();
        assert!(
            !line.contains('\n'),
            "line protocol: one message per line ({line})"
        );
        let parsed = Msg::parse_line(&line).expect(&line);
        assert_eq!(parsed, msg, "round trip changed {line}");
        // And a second trip is a fixed point.
        assert_eq!(parsed.to_line(), line);
    }
}

#[test]
fn violation_digests_cross_the_wire_bit_exactly() {
    let msg = Msg::Fragment(loaded_fragment());
    let Msg::Fragment(parsed) = Msg::parse_line(&msg.to_line()).unwrap() else {
        panic!("tag changed");
    };
    let original = loaded_fragment();
    assert_eq!(parsed.violations, original.violations);
    assert_eq!(parsed.stats, original.stats);
    // The digests are hex strings on the wire so double-based JSON readers
    // can't round them; make sure full-width values really are present.
    let line = msg.to_line();
    assert!(line.contains("\"0xffffffffffffffff\""), "{line}");
}

#[test]
fn every_violation_class_round_trips_in_a_fragment() {
    for class in ViolationClass::ALL {
        let frag = FragmentReport {
            violations: vec![ViolationDigest {
                class,
                ctrace_digest: 1,
                l1d_diff: vec![],
                dtlb_diff: vec![],
                l1i_diff: vec![],
            }],
            ..loaded_fragment()
        };
        let Msg::Fragment(parsed) = Msg::parse_line(&Msg::Fragment(frag).to_line()).unwrap() else {
            panic!("tag changed");
        };
        assert_eq!(parsed.violations[0].class, class, "{}", class.paper_id());
    }
}

/// `fragment` as a pre-v6 peer wrote it: today's line plus a `skipped`
/// flag right after the index.
fn pre_v6_fragment_line(frag: &FragmentReport, skipped: bool) -> String {
    let line = Msg::Fragment(frag.clone()).to_line();
    let at = line
        .find(",\"cases\":")
        .expect("fragment lines carry cases");
    format!("{},\"skipped\":{skipped}{}", &line[..at], &line[at..])
}

/// Protocol v6 dropped `skipped`: a v5 line with `"skipped":false` still
/// parses to the same fragment (16 bytes longer than its v6 form), and a
/// `"skipped":true` line — a batch that was never executed — is a
/// protocol error.
#[test]
fn pre_v6_fragment_lines_parse_and_skipped_ones_are_refused() {
    let frag = loaded_fragment();
    let v5 = pre_v6_fragment_line(&frag, false);
    assert_eq!(Msg::parse_line(&v5).unwrap(), Msg::Fragment(frag.clone()));
    assert_eq!(v5.len(), Msg::Fragment(frag.clone()).to_line().len() + 16);
    let err = Msg::parse_line(&pre_v6_fragment_line(&frag, true)).unwrap_err();
    assert!(err.contains("skipped"), "{err}");
}

/// A journal written by a pre-v6 daemon replays; one holding a
/// `"skipped":true` record is refused, so the service recomputes.
#[test]
fn pre_v6_journals_replay_and_a_skipped_record_is_refused() {
    let dir = std::env::temp_dir().join(format!(
        "amulet_proto_v5_journal_{}_{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let spec = CampaignSpec {
        defense: "Baseline".into(),
        contract: "CT-SEQ".into(),
        source: "PHT".into(),
        seed: 2025,
        scale: None,
        find_first: false,
        batch_programs: 3,
        cycle_skip: true,
    };
    let header = JournalHeader::for_spec(&spec, 4);
    let frags: Vec<FragmentReport> = (0..2)
        .map(|index| FragmentReport {
            index,
            ..loaded_fragment()
        })
        .collect();
    let write = |name: &str, last_skipped: bool| {
        let path = dir.join(name);
        let text = format!(
            "{}\n{}\n{}\n",
            header.to_line(),
            pre_v6_fragment_line(&frags[0], false),
            pre_v6_fragment_line(&frags[1], last_skipped)
        );
        std::fs::write(&path, text).unwrap();
        path
    };

    let replay = load_journal(&write("v5.jsonl", false), &header.key)
        .unwrap()
        .expect("a v5 journal replays");
    assert_eq!(replay.fragments, frags);
    assert!(!replay.skipped_torn);

    let err = load_journal(&write("skipped.jsonl", true), &header.key).unwrap_err();
    assert!(err.contains("skipped"), "{err}");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The acceptance gate for the operator's handbook: the set of message
/// tags it documents (every `"type":"..."` occurrence in its worked
/// examples) is exactly the set the protocol can emit. A message type
/// added without documentation — or documentation of a type that no
/// longer exists — fails here.
#[test]
fn handbook_documents_exactly_the_emitted_tag_set() {
    let mut documented = BTreeSet::new();
    let mut rest = HANDBOOK;
    while let Some(at) = rest.find("\"type\":\"") {
        rest = &rest[at + "\"type\":\"".len()..];
        let end = rest.find('"').expect("unterminated tag in handbook");
        documented.insert(&rest[..end]);
        rest = &rest[end..];
    }
    let emitted: BTreeSet<&str> = Msg::TAGS.into_iter().collect();
    assert_eq!(
        documented, emitted,
        "docs/DISTRIBUTED.md worked examples must cover exactly the protocol's tags"
    );
    // The version constant is part of the documented contract too.
    assert!(
        HANDBOOK.contains(&format!("\"proto\":{PROTO_VERSION}")),
        "handbook hello example must show the current protocol version"
    );
}

#[test]
fn hello_handshake_rejects_version_and_config_drift() {
    let cfg = quick_cfg();
    let good = Hello::for_config(&cfg);
    assert!(good.check(&cfg).is_ok());

    let mut other_seed = cfg.clone();
    other_seed.seed += 1;
    assert!(good.check(&other_seed).is_err());

    // A shape mismatch (what a --scale drift produces: same
    // defense/contract/seed, different case stream) must also fail.
    let mut other_shape = cfg.clone();
    other_shape.programs_per_instance *= 2;
    assert!(
        good.check(&other_shape).unwrap_err().contains("shape"),
        "shape drift must fail the handshake"
    );

    // A source mismatch (an STL driver against a PHT worker, e.g. an old
    // binary that silently dropped `--source`) must fail like any other
    // config drift.
    let stl_cfg = cfg.clone().with_source(SpecSource::Stl);
    assert!(
        good.check(&stl_cfg).unwrap_err().contains("STL"),
        "source drift must fail the handshake"
    );

    let stale = Hello {
        proto: PROTO_VERSION + 1,
        ..good
    };
    assert!(stale.check(&cfg).unwrap_err().contains("version"));
}

/// Pre-STL peers never wrote a `source` field; the default must be
/// invisible on the wire (so journals, caches and CI greps written before
/// the field existed stay byte-identical) and lines that omit it must
/// parse as PHT.
#[test]
fn default_source_is_invisible_on_the_wire() {
    let hello = Msg::Hello(Hello::for_config(&quick_cfg()));
    assert!(!hello.to_line().contains("source"), "{}", hello.to_line());

    let legacy = r#"{"type":"submit","defense":"Baseline","contract":"CT-SEQ","seed":"1","find_first":false,"batch":3,"cycle_skip":true}"#;
    let Msg::Submit(spec) = Msg::parse_line(legacy).unwrap() else {
        panic!("tag changed");
    };
    assert_eq!(spec.source, "PHT");
    assert_eq!(spec.resolve().unwrap().source, SpecSource::Pht);

    // The non-default source, by contrast, must be loud everywhere.
    let stl = Msg::Hello(Hello::for_config(&quick_cfg().with_source(SpecSource::Stl)));
    assert!(
        stl.to_line().contains(r#""source":"STL""#),
        "{}",
        stl.to_line()
    );
}
