//! Violation minimisation — the Revizor-style post-processing pass that
//! shrinks a violating test program before manual root-causing (§3.3's
//! "identifying the mis-speculated instruction sequence" is far easier on a
//! minimal program).
//!
//! Greedy delta-debugging: repeatedly try deleting one instruction; keep the
//! deletion when the program still validates, the two inputs still have
//! equal contract traces, and their µarch traces still differ under the
//! violation's shared starting context. Sound by construction (the result
//! is still a confirmed violation); best-effort in coverage (deleting an
//! instruction shifts PCs, which can de-train the predictor context and
//! block a reduction).
//!
//! # Cost
//!
//! The greedy check only asks whether the µarch traces *differ*, so its
//! simulator runs are digest-only replays ([`Executor::replay_digest`]: no
//! debug log, snapshot or materialised trace), and its contract traces
//! reuse one [`ModelScratch`] per minimisation.
//!
//! Violations of one program mostly share their `(input_a, ctx_a)` side —
//! the class representative and its starting context — so
//! [`minimize_program`] minimises them together over one memo of that
//! side. A memo key is `(candidate, input id, context id)`, where a
//! candidate is the original program plus a deletion bitmask over its
//! original instruction positions; a memo value holds only 64-bit digests
//! (the shared side's µtrace digest and contract-trace digest). The memo
//! lives for one program's violations and is dropped with them.
//!
//! # Exactness
//!
//! Every decision equals the plain greedy's, so the reduced program,
//! `removed` and `attempts` are the same whether a violation is minimised
//! alone or in a group. A memoised contract-trace digest may only *reject*
//! a candidate (different digests mean different traces); an accepted
//! deletion still compares the full contract traces of both inputs.
//! µtrace digests stand in for trace equality exactly as in the detector's
//! first pass (equal up to 64-bit hash collisions).

use crate::detect::{Detector, Violation};
use crate::executor::Executor;
use amulet_contracts::{CTrace, LeakageModel, ModelScratch};
use amulet_isa::{Program, TestInput};
use amulet_sim::UarchContext;
use amulet_util::BitSet;
use std::collections::HashMap;

/// Result of a minimisation pass.
#[derive(Debug, Clone)]
pub struct Minimized {
    /// The reduced program (still a confirmed violation for the original
    /// input pair and context).
    pub program: Program,
    /// Instructions removed.
    pub removed: usize,
    /// Reduction checks decided, the unreduced program's included. A check
    /// costs at most two contract traces and two digest-only simulator
    /// runs, fewer when the memoised shared side answers part of it.
    pub attempts: usize,
}

/// Shrinks `violation.program` while preserving the violation — the
/// one-violation case of [`minimize_program`].
///
/// The `executor` must be configured identically to the one that found the
/// violation (same defense, trace format, and simulator config).
pub fn minimize(violation: &Violation, detector: &Detector, executor: &mut Executor) -> Minimized {
    minimize_program(&[violation], detector, executor)
        .pop()
        .expect("one violation in, one result out")
}

/// Minimises violations that share one program, in order, over one memo of
/// their shared `(input_a, ctx_a)` side (see the module docs). Each result
/// equals what [`minimize`] returns for that violation alone.
///
/// # Panics
///
/// Panics if the violations do not all carry the same program.
pub fn minimize_program(
    violations: &[&Violation],
    detector: &Detector,
    executor: &mut Executor,
) -> Vec<Minimized> {
    let Some(first) = violations.first() else {
        return Vec::new();
    };
    assert!(
        violations.iter().all(|v| v.program == first.program),
        "minimize_program: every violation must carry the same program"
    );
    let mut shrinker = Shrinker {
        original: &first.program,
        positions: first.program.len(),
        model: detector.model(),
        scratch: ModelScratch::new(),
        memo: HashMap::new(),
    };
    let mut inputs: Vec<&TestInput> = Vec::new();
    let mut ctxs: Vec<&UarchContext> = Vec::new();
    violations
        .iter()
        .map(|v| {
            let side = (intern(&mut inputs, &v.input_a), intern(&mut ctxs, &v.ctx_a));
            shrinker.minimize(v, side, executor)
        })
        .collect()
}

/// The id of `item` among the distinct values seen so far.
fn intern<'a, T: PartialEq>(seen: &mut Vec<&'a T>, item: &'a T) -> u32 {
    let id = match seen.iter().position(|s| *s == item) {
        Some(id) => id,
        None => {
            seen.push(item);
            seen.len() - 1
        }
    };
    id as u32
}

/// Memoised digests of one candidate's shared side, filled lazily.
#[derive(Default)]
struct SideDigests {
    ctrace: Option<u64>,
    utrace: Option<u64>,
}

/// The greedy over one program: deletion bitmasks over `original`.
struct Shrinker<'p> {
    original: &'p Program,
    positions: usize,
    model: &'p LeakageModel,
    scratch: ModelScratch,
    /// Keyed on (deletions, input id, context id).
    memo: HashMap<(BitSet, u32, u32), SideDigests>,
}

impl Shrinker<'_> {
    fn minimize(&mut self, v: &Violation, side: (u32, u32), executor: &mut Executor) -> Minimized {
        let mut deleted = BitSet::new();
        let mut attempts = 1;
        // The violation must reproduce before we start shrinking; otherwise
        // return it untouched (e.g. executor configured differently).
        if !self.still_violates(&deleted, v, side, executor) {
            return Minimized {
                program: self.original.clone(),
                removed: 0,
                attempts,
            };
        }
        let mut removed = 0;
        loop {
            let mut changed = false;
            // Original positions in order, skipping deleted ones: the
            // current program's (block, instruction) scan order.
            for pos in (0..self.positions).filter(|&p| !deleted.contains(p)) {
                let mut candidate = deleted.clone();
                candidate.insert(pos);
                attempts += 1;
                if self.still_violates(&candidate, v, side, executor) {
                    deleted = candidate;
                    removed += 1;
                    changed = true;
                    break; // rescan from the top
                }
            }
            if !changed {
                break;
            }
        }
        Minimized {
            program: with_deletions(self.original, &deleted),
            removed,
            attempts,
        }
    }

    fn still_violates(
        &mut self,
        deleted: &BitSet,
        v: &Violation,
        side: (u32, u32),
        executor: &mut Executor,
    ) -> bool {
        let program = with_deletions(self.original, deleted);
        if program.validate().is_err() {
            return false;
        }
        let flat = program.flatten_shared();
        let memo = self
            .memo
            .entry((deleted.clone(), side.0, side.1))
            .or_default();
        let mut ctrace_a: Option<CTrace> = None;
        let digest_a = *memo.ctrace.get_or_insert_with(|| {
            ctrace_a
                .insert(self.model.ctrace_with(&flat, &v.input_a, &mut self.scratch))
                .digest()
        });
        let ctrace_b = self.model.ctrace_with(&flat, &v.input_b, &mut self.scratch);
        if ctrace_b.digest() != digest_a {
            return false;
        }
        let ctrace_a = ctrace_a
            .unwrap_or_else(|| self.model.ctrace_with(&flat, &v.input_a, &mut self.scratch));
        if ctrace_a != ctrace_b {
            return false;
        }
        let utrace_a = *memo
            .utrace
            .get_or_insert_with(|| executor.replay_digest(&flat, &v.input_a, &v.ctx_a));
        executor.replay_digest(&flat, &v.input_b, &v.ctx_a) != utrace_a
    }
}

/// `original` without the instructions at the `deleted` positions.
fn with_deletions(original: &Program, deleted: &BitSet) -> Program {
    let mut program = original.clone();
    let mut pos = 0;
    for block in &mut program.blocks {
        block.instrs.retain(|_| {
            pos += 1;
            !deleted.contains(pos - 1)
        });
    }
    program
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::ExecutorConfig;
    use amulet_contracts::ContractKind;
    use amulet_defenses::gadgets;
    use amulet_defenses::DefenseKind;
    use amulet_isa::parse_program;

    #[test]
    fn minimizer_shrinks_a_padded_v1_gadget() {
        // A v1 gadget padded with junk that contributes nothing to the leak.
        let payload = "AND RBX, 0b111111111111
             MOV RDX, qword ptr [R14 + RBX]
             ADD RSI, 17
             XOR RDI, RDI
             INC R9";
        let src = gadgets::spectre_v1(payload).replace(
            "JMP .exit\n         .exit:",
            "JMP .exit\n         .exit:\n         ADD R12, 5\n         SUB R13, 3",
        );
        let program = parse_program(&src).unwrap();
        let flat = program.flatten_shared();
        let mut executor = Executor::new(ExecutorConfig::new(DefenseKind::Baseline));
        for _ in 0..12 {
            executor.run_case(&flat, &gadgets::train_input(1));
        }
        let mut a = gadgets::victim_input(1);
        a.regs[1] = 0x740;
        let mut b = gadgets::victim_input(1);
        b.regs[1] = 0x340;
        let mut detector = Detector::new(LeakageModel::new(ContractKind::CtSeq));
        let (violations, _) = detector.scan(&program, &flat, &[a, b], &mut executor);
        let v = violations.first().expect("padded gadget violates");

        let before = v.program.len();
        let result = minimize(v, &detector, &mut executor);
        assert!(
            result.removed > 0,
            "at least the junk instructions must go (attempts: {})",
            result.attempts
        );
        assert_eq!(result.program.len(), before - result.removed);
        // The reduced program is still a confirmed violation.
        let flat = result.program.flatten_shared();
        let model = detector.model();
        assert_eq!(
            model.ctrace(&flat, &v.input_a),
            model.ctrace(&flat, &v.input_b)
        );
        let ra = executor.run_case_with_ctx(&flat, &v.input_a, &v.ctx_a);
        let rb = executor.run_case_with_ctx(&flat, &v.input_b, &v.ctx_a);
        assert_ne!(ra.utrace, rb.utrace);
        // The transmitter load must have survived minimisation.
        let text = result.program.to_string();
        assert!(text.contains("qword ptr [R14 + RBX]"), "{text}");
    }

    #[test]
    fn minimizer_is_a_noop_when_nothing_reproduces() {
        // A fabricated "violation" that does not reproduce (identical
        // inputs): the minimiser must return the program untouched.
        let src = gadgets::spectre_v1("AND RBX, 0b1");
        let program = parse_program(&src).unwrap();
        let input = gadgets::victim_input(1);
        let mut executor = Executor::new(ExecutorConfig::new(DefenseKind::Baseline));
        let run = executor.run_case_traced(&program.flatten_shared(), &input);
        let fake = Violation {
            program: program.clone(),
            input_a: input.clone(),
            input_b: input,
            ctrace_digest: 0,
            utrace_a: run.utrace.clone(),
            utrace_b: run.utrace,
            ctx_a: run.start_ctx.clone(),
            ctx_b: run.start_ctx,
            log_a: Vec::new(),
            log_b: Vec::new(),
        };
        let detector = Detector::new(LeakageModel::new(ContractKind::CtSeq));
        let result = minimize(&fake, &detector, &mut executor);
        assert_eq!(result.removed, 0);
        assert_eq!(result.program, program);
    }
}
