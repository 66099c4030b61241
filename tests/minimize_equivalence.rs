//! Differential oracle for the corpus minimiser: the production path
//! (digest-only replays, one reused contract-trace scratch, a per-program
//! memo of the shared side) must reduce every violation exactly as the
//! plain greedy does — logged `run_case_with_ctx` replays compared as full
//! `UTrace`s, and a fresh-machine `LeakageModel::ctrace` per check.
//!
//! The sample is every violation of two Baseline STL CT-SEQ quick
//! campaigns (about 85 each, many sharing a program) and one Baseline PHT
//! CT-SEQ quick campaign, through `records_from_report` as the corpus
//! writes them.

use amulet::contracts::{ContractKind, LeakageModel};
use amulet::defenses::DefenseKind;
use amulet::fuzz::{
    minimize_program, records_from_report, CampaignConfig, CampaignReport, Detector, Executor,
    ExecutorConfig, ShardConfig, ShardedCampaign, SpecSource, Violation,
};
use amulet::isa::Program;

/// The greedy as a test-only oracle: one instruction deleted at a time,
/// rescanning from the top after every accepted deletion; a candidate is
/// kept when it validates, both inputs' contract traces are equal and
/// their µarch traces still differ under `ctx_a`.
fn oracle(v: &Violation, model: &LeakageModel, executor: &mut Executor) -> (Program, usize, usize) {
    let mut program = v.program.clone();
    let mut removed = 0usize;
    let mut attempts = 0usize;
    let mut still_violates = |p: &Program, executor: &mut Executor| -> bool {
        attempts += 1;
        if p.validate().is_err() {
            return false;
        }
        let flat = p.flatten_shared();
        if model.ctrace(&flat, &v.input_a) != model.ctrace(&flat, &v.input_b) {
            return false;
        }
        let a = executor.run_case_with_ctx(&flat, &v.input_a, &v.ctx_a);
        let b = executor.run_case_with_ctx(&flat, &v.input_b, &v.ctx_a);
        a.utrace != b.utrace
    };
    if !still_violates(&program, executor) {
        return (program, 0, attempts);
    }
    loop {
        let mut changed = false;
        'scan: for bi in 0..program.blocks.len() {
            for ii in 0..program.blocks[bi].instrs.len() {
                let mut candidate = program.clone();
                candidate.blocks[bi].instrs.remove(ii);
                if still_violates(&candidate, executor) {
                    program = candidate;
                    removed += 1;
                    changed = true;
                    break 'scan;
                }
            }
        }
        if !changed {
            break;
        }
    }
    (program, removed, attempts)
}

/// The executor `records_from_report` minimises on.
fn executor_for(cfg: &CampaignConfig) -> Executor {
    Executor::new(ExecutorConfig {
        mode: cfg.mode,
        defense: cfg.defense,
        format: cfg.format,
        include_l1i: cfg.include_l1i,
        sim: cfg.sim.clone(),
        keep_sandbox: false,
        log_hot_path: cfg.log_hot_path,
    })
}

fn report(source: SpecSource, seed: u64) -> CampaignReport {
    let mut cfg =
        CampaignConfig::quick(DefenseKind::Baseline, ContractKind::CtSeq).with_source(source);
    cfg.seed = seed;
    ShardedCampaign::new(
        cfg,
        ShardConfig {
            workers: 2,
            batch_programs: 4,
        },
    )
    .run()
}

#[test]
fn production_minimiser_equals_the_logged_greedy_oracle() {
    let mut shared_programs = 0;
    for (source, seed) in [
        (SpecSource::Stl, 1),
        (SpecSource::Stl, 2),
        (SpecSource::Pht, 2025),
    ] {
        let report = report(source, seed);
        let cfg = &report.config;
        assert!(
            !report.violations.is_empty(),
            "{source:?} seed {seed}: Baseline must leak under CT-SEQ"
        );
        let model = LeakageModel::new(cfg.contract);
        let mut executor = executor_for(cfg);
        let expected: Vec<(Program, usize, usize)> = report
            .violations
            .iter()
            .map(|(v, _)| oracle(v, &model, &mut executor))
            .collect();

        // The corpus path: grouped by program, written back in report order.
        let records = records_from_report(&report);
        assert_eq!(records.len(), expected.len());
        for (i, (rec, (program, removed, _))) in records.iter().zip(&expected).enumerate() {
            assert_eq!(
                rec.program,
                program.to_string(),
                "{source:?} seed {seed}, #{i}"
            );
            assert_eq!(rec.removed, *removed as u64, "{source:?} seed {seed}, #{i}");
        }

        // Attempt counts too, one program group at a time.
        let detector = Detector::new(model);
        let mut done = vec![false; expected.len()];
        for i in 0..expected.len() {
            if done[i] {
                continue;
            }
            let program = &report.violations[i].0.program;
            let group: Vec<usize> = (i..expected.len())
                .filter(|&j| report.violations[j].0.program == *program)
                .collect();
            shared_programs += (group.len() > 1) as usize;
            let violations: Vec<&Violation> =
                group.iter().map(|&j| &report.violations[j].0).collect();
            let minimized = minimize_program(&violations, &detector, &mut executor);
            for (&j, min) in group.iter().zip(&minimized) {
                let (program, removed, attempts) = &expected[j];
                assert_eq!(
                    (&min.program, min.removed, min.attempts),
                    (program, *removed, *attempts),
                    "{source:?} seed {seed}, #{j}"
                );
                done[j] = true;
            }
        }
    }
    assert!(
        shared_programs > 0,
        "the sample must exercise a memo shared by several violations"
    );
}
