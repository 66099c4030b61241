//! The executor: runs test cases on the simulator+defense and extracts
//! µarch traces (paper Figure 2).
//!
//! Two modes, mirroring §3.2-C3:
//!
//! - **AMuLeT-Naive** restarts the simulator for every input — predictors
//!   reset, full startup cost per test case (accounted by [`crate::cost`]).
//! - **AMuLeT-Opt** keeps the simulator alive per program, overwriting
//!   registers and memory between inputs; predictor state (branch and
//!   memory-dependence) survives across inputs, which both amortises startup
//!   and widens the variety of predictions — the paper's key throughput and
//!   efficacy win.
//!
//! Cache initialisation per §3.5: defenses tested from a prefilled L1D
//! (conflicting out-of-sandbox addresses; InvisiSpec/STT/Baseline) or a
//! clean flush (CleanupSpec/SpecLFB).

use crate::trace::{TraceFormat, UTrace};
use amulet_defenses::DefenseKind;
use amulet_isa::{SharedProgram, TestInput};
use amulet_sim::{DebugEvent, LogMode, SimConfig, SimResult, Simulator, UarchContext};

/// Naive vs. Opt execution (§3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExecMode {
    /// Fresh simulator state per input (restart semantics).
    Naive,
    /// Simulator reused across inputs of a program (startup amortised,
    /// predictor state preserved).
    Opt,
}

impl ExecMode {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            ExecMode::Naive => "Naive",
            ExecMode::Opt => "Opt",
        }
    }
}

/// Executor configuration.
#[derive(Debug, Clone)]
pub struct ExecutorConfig {
    /// Execution mode.
    pub mode: ExecMode,
    /// Defense under test.
    pub defense: DefenseKind,
    /// µarch trace format.
    pub format: TraceFormat,
    /// Extend the baseline format with the L1I (KV1/KV2 campaigns).
    pub include_l1i: bool,
    /// Simulator configuration (sandbox size is overridden from the
    /// defense's harness hints unless `keep_sandbox` is set).
    pub sim: SimConfig,
    /// Keep `sim.sandbox_size` instead of the defense harness hint.
    pub keep_sandbox: bool,
    /// Record debug events on the [`Executor::run_case`] hot path too
    /// (normally only validation re-runs log). Simulation results are
    /// bit-identical either way; this exists for determinism regression
    /// tests and for benchmarking the always-log legacy hot path.
    pub log_hot_path: bool,
}

impl ExecutorConfig {
    /// Standard configuration for a defense: default simulator, paper
    /// harness hints, Opt mode, baseline trace format.
    pub fn new(defense: DefenseKind) -> Self {
        ExecutorConfig {
            mode: ExecMode::Opt,
            defense,
            format: TraceFormat::L1dTlb,
            include_l1i: false,
            sim: SimConfig::default(),
            keep_sandbox: false,
            log_hot_path: false,
        }
    }

    /// Sandbox pages after applying harness hints.
    pub fn pages(&self) -> usize {
        if self.keep_sandbox {
            self.sim.sandbox_size / self.sim.page_bytes as usize
        } else {
            self.defense.harness_hints().sandbox_pages
        }
    }

    fn resolved_sim(&self) -> SimConfig {
        let mut sim = self.sim.clone();
        if !self.keep_sandbox {
            sim = sim.with_sandbox_pages(self.defense.harness_hints().sandbox_pages);
        }
        sim
    }
}

/// The hot-path outcome of one executed test case: a trace digest instead of
/// a materialised trace. `digest` equality is (up to 64-bit hash collisions)
/// equivalent to [`UTrace`] equality in the executor's configured format, so
/// the detector's first pass compares digests and only candidate pairs pay
/// for full traces via validation re-runs.
///
/// Deliberately `Copy`-sized: the starting µarch context is *not* carried
/// here — callers that need it (the detector, for validation) pass a
/// reusable slot to [`Executor::run_case_ctx`], so the hot path never
/// allocates a predictor-state snapshot per case.
#[derive(Debug, Clone)]
pub struct CaseDigest {
    /// Streaming digest of the µarch trace in the configured format.
    pub digest: u64,
    /// Raw simulation result.
    pub result: SimResult,
}

/// The outcome of one executed test case with a materialised µarch trace
/// (validation re-runs and analysis tooling).
#[derive(Debug, Clone)]
pub struct CaseRun {
    /// The µarch trace.
    pub utrace: UTrace,
    /// µarch context (predictor state) *before* the run — needed for
    /// violation validation.
    pub start_ctx: UarchContext,
    /// Raw simulation result.
    pub result: SimResult,
}

/// Runs test cases against a simulator+defense.
///
/// # Examples
///
/// ```
/// use amulet_core::{Executor, ExecutorConfig};
/// use amulet_defenses::DefenseKind;
/// use amulet_isa::{parse_program, TestInput};
///
/// let mut executor = Executor::new(ExecutorConfig::new(DefenseKind::Baseline));
/// let flat = parse_program("MOV RAX, qword ptr [R14 + 8]\nEXIT")
///     .unwrap()
///     .flatten_shared();
/// // The hot path returns a streaming trace digest, not a full trace.
/// let a = executor.run_case(&flat, &TestInput::zeroed(1));
/// let b = executor.run_case(&flat, &TestInput::zeroed(1));
/// assert_eq!(a.digest, b.digest, "identical cases, identical digests");
/// ```
#[derive(Debug)]
pub struct Executor {
    cfg: ExecutorConfig,
    sim: Simulator,
    prefill: bool,
}

impl Executor {
    /// Builds the executor (one simulator instance).
    pub fn new(cfg: ExecutorConfig) -> Self {
        let sim = Simulator::new(cfg.resolved_sim(), cfg.defense.build());
        let prefill = cfg.defense.harness_hints().prefill_l1d;
        Executor { cfg, sim, prefill }
    }

    /// The configuration.
    pub fn config(&self) -> &ExecutorConfig {
        &self.cfg
    }

    /// Runs one test case on the hot path: logging off (unless
    /// `log_hot_path`), no trace materialisation — the simulator streams a
    /// digest of the configured trace format instead. State resets per the
    /// execution mode. The starting µarch context is not captured; use
    /// [`Executor::run_case_ctx`] when validation may need it.
    pub fn run_case(&mut self, flat: &SharedProgram, input: &TestInput) -> CaseDigest {
        self.begin_case();
        self.finish_case(flat, input)
    }

    /// [`Executor::run_case`], saving the starting µarch context (predictor
    /// state, as needed for violation validation) into `start_ctx` in place
    /// — a warm slot makes the capture allocation-free.
    pub fn run_case_ctx(
        &mut self,
        flat: &SharedProgram,
        input: &TestInput,
        start_ctx: &mut UarchContext,
    ) -> CaseDigest {
        self.begin_case();
        self.sim.save_context_into(start_ctx);
        self.finish_case(flat, input)
    }

    /// Per-mode state reset at the top of a hot-path case.
    fn begin_case(&mut self) {
        if self.cfg.mode == ExecMode::Naive {
            self.sim.reset_predictors();
        }
        self.reset_caches();
    }

    fn finish_case(&mut self, flat: &SharedProgram, input: &TestInput) -> CaseDigest {
        self.sim.set_log_mode(if self.cfg.log_hot_path {
            LogMode::Record
        } else {
            LogMode::Off
        });
        self.sim.load_test_shared(flat, input);
        let result = self.sim.run();
        CaseDigest {
            digest: self.sim.trace_digest(self.digest_kind()),
            result,
        }
    }

    /// Resets the executor to batch-fresh semantics: predictors return to
    /// power-on state, exactly as if the executor had just been constructed
    /// (caches are flushed per case anyway). This is what lets a sharded
    /// worker keep one executor alive across batches without perturbing the
    /// deterministic per-batch results — asserted by
    /// `tests/shard_determinism.rs`.
    pub fn reset_unit(&mut self) {
        self.sim.reset_predictors();
    }

    /// The current µarch context (predictor state snapshot).
    pub fn context(&self) -> UarchContext {
        self.sim.context()
    }

    /// Runs one test case with logging on and a materialised µarch trace —
    /// analysis tooling and benches; same reset semantics as
    /// [`Executor::run_case`].
    pub fn run_case_traced(&mut self, flat: &SharedProgram, input: &TestInput) -> CaseRun {
        if self.cfg.mode == ExecMode::Naive {
            self.sim.reset_predictors();
        }
        self.reset_caches();
        let start_ctx = self.sim.context();
        self.run_inner(flat, input, start_ctx)
    }

    /// Runs a test case under an explicit starting µarch context — the
    /// validation step of §3.2 ("re-running the violating inputs with the
    /// other test case's µarch starting context"). Validation re-runs log
    /// events and materialise the full trace.
    pub fn run_case_with_ctx(
        &mut self,
        flat: &SharedProgram,
        input: &TestInput,
        ctx: &UarchContext,
    ) -> CaseRun {
        self.sim.set_context(ctx);
        self.reset_caches();
        self.run_inner(flat, input, ctx.clone())
    }

    /// [`Executor::run_case_with_ctx`] reduced to its trace digest: the
    /// same computation as [`Executor::run_case_ctx`], started from `ctx`
    /// instead of the current predictor state. Logging is off and nothing
    /// is materialised — no debug log, snapshot, [`UTrace`] or context
    /// clone — so digest equality stands in for `UTrace` equality wherever
    /// only "do the traces differ" is asked (the minimiser's greedy check).
    pub fn replay_digest(
        &mut self,
        flat: &SharedProgram,
        input: &TestInput,
        ctx: &UarchContext,
    ) -> u64 {
        self.sim.set_context(ctx);
        self.reset_caches();
        self.sim.set_log_mode(LogMode::Off);
        self.sim.load_test_shared(flat, input);
        self.sim.run();
        self.sim.trace_digest(self.digest_kind())
    }

    fn digest_kind(&self) -> amulet_sim::DigestKind {
        match self.cfg.format {
            TraceFormat::L1dTlb => amulet_sim::DigestKind::L1dTlb {
                include_l1i: self.cfg.include_l1i,
            },
            TraceFormat::BpState => amulet_sim::DigestKind::BpState,
            TraceFormat::MemOrder => amulet_sim::DigestKind::MemOrder,
            TraceFormat::BranchOrder => amulet_sim::DigestKind::BranchOrder,
        }
    }

    fn reset_caches(&mut self) {
        // Conflict-prefill is part of the *Opt* design (§3.2-C2: "initializing
        // the cache state in this way increases the number of detected
        // violations"); the naive baseline starts from a clean cache, which
        // is why the paper's Table 3 shows Opt finding more violations.
        if self.prefill && self.cfg.mode == ExecMode::Opt {
            // The prefill overwrites the L1D from the cached image (an
            // incremental, touched-sets-only copy when the baseline from
            // the previous case survives), so only the other structures
            // are flushed.
            self.sim.flush_caches_keep_l1d();
            self.sim.prefill_l1d_conflicting();
        } else {
            self.sim.flush_caches();
        }
    }

    fn run_inner(&mut self, flat: &SharedProgram, input: &TestInput, ctx: UarchContext) -> CaseRun {
        self.sim.set_log_mode(LogMode::Record);
        self.sim.load_test_shared(flat, input);
        let result = self.sim.run();
        let snap = self.sim.snapshot();
        CaseRun {
            utrace: UTrace::from_snapshot(&snap, self.cfg.format, self.cfg.include_l1i),
            start_ctx: ctx,
            result,
        }
    }

    /// Debug-log events of the most recent run (for violation analysis).
    pub fn last_log(&self) -> Vec<DebugEvent> {
        self.sim.log().events().to_vec()
    }

    /// Debug-log events of the most recent run, truncated to `cap` *before*
    /// copying — violation capture clones at most `cap` events instead of
    /// the full (up to 200k-event) log.
    pub fn last_log_capped(&self, cap: usize) -> Vec<DebugEvent> {
        let events = self.sim.log().events();
        events[..events.len().min(cap)].to_vec()
    }

    /// Exposes the simulator (advanced harness hooks in benches/examples).
    pub fn simulator_mut(&mut self) -> &mut Simulator {
        &mut self.sim
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amulet_isa::parse_program;

    fn flat() -> SharedProgram {
        parse_program("MOV RAX, qword ptr [R14 + 8]\nEXIT")
            .unwrap()
            .flatten_shared()
    }

    #[test]
    fn executor_produces_traces() {
        let mut ex = Executor::new(ExecutorConfig::new(DefenseKind::Baseline));
        let run = ex.run_case_traced(&flat(), &TestInput::zeroed(1));
        assert!(run.result.exit_cycle.is_some());
        assert!(run.utrace.l1d.contains(&0x4000));
    }

    #[test]
    fn digest_agrees_with_materialised_trace_equality() {
        // Two inputs with equal traces share a digest; a differing input
        // (different load address → different L1D line) differs.
        let mut ex = Executor::new(ExecutorConfig::new(DefenseKind::Baseline));
        let flat = flat();
        let a = ex.run_case(&flat, &TestInput::zeroed(1));
        let b = ex.run_case(&flat, &TestInput::zeroed(1));
        assert_eq!(a.digest, b.digest, "identical cases share a digest");

        let src = "MOV RAX, qword ptr [R14 + 256]\nEXIT";
        let other = parse_program(src).unwrap().flatten_shared();
        let c = ex.run_case(&other, &TestInput::zeroed(1));
        assert_ne!(a.digest, c.digest, "different footprints differ");

        // Digest equality must match UTrace equality for the same runs.
        let ta = ex.run_case_traced(&flat, &TestInput::zeroed(1));
        let tb = ex.run_case_traced(&flat, &TestInput::zeroed(1));
        let tc = ex.run_case_traced(&other, &TestInput::zeroed(1));
        assert_eq!(ta.utrace, tb.utrace);
        assert_ne!(ta.utrace, tc.utrace);
    }

    #[test]
    fn hot_path_runs_with_logging_off_but_validation_logs() {
        let mut ex = Executor::new(ExecutorConfig::new(DefenseKind::Baseline));
        let flat = flat();
        let mut start_ctx = UarchContext::default();
        ex.run_case_ctx(&flat, &TestInput::zeroed(1), &mut start_ctx);
        assert!(ex.last_log().is_empty(), "hot path must not record events");
        let replay = ex.run_case_with_ctx(&flat, &TestInput::zeroed(1), &start_ctx);
        assert!(
            !ex.last_log().is_empty(),
            "validation re-runs record events"
        );
        assert!(replay.result.exit_cycle.is_some());
        let capped = ex.last_log_capped(2);
        assert_eq!(capped.len(), 2.min(ex.last_log().len()));
        assert_eq!(capped[..], ex.last_log()[..capped.len()]);
    }

    #[test]
    fn naive_mode_resets_predictors_between_cases() {
        // Two identical cases must see identical start contexts in Naive
        // mode, but diverging ones in Opt mode after a branchy program.
        let src = "
            CMP RAX, 0
            JZ .a
            .a:
            EXIT";
        let flat = parse_program(src).unwrap().flatten_shared();
        let input = TestInput::zeroed(1);

        let mut naive = Executor::new(ExecutorConfig {
            mode: ExecMode::Naive,
            ..ExecutorConfig::new(DefenseKind::Baseline)
        });
        let (mut ctx_a, mut ctx_b) = (UarchContext::default(), UarchContext::default());
        naive.run_case_ctx(&flat, &input, &mut ctx_a);
        naive.run_case_ctx(&flat, &input, &mut ctx_b);
        assert_eq!(ctx_a, ctx_b, "naive restarts fresh");

        let mut opt = Executor::new(ExecutorConfig::new(DefenseKind::Baseline));
        opt.run_case_ctx(&flat, &input, &mut ctx_a);
        opt.run_case_ctx(&flat, &input, &mut ctx_b);
        assert_ne!(ctx_a, ctx_b, "opt preserves predictor state");
    }

    /// `reset_unit` returns a used executor to batch-fresh semantics: the
    /// next case observes power-on predictor state.
    #[test]
    fn reset_unit_restores_constructor_semantics() {
        let src = "
            CMP RAX, 0
            JZ .a
            .a:
            EXIT";
        let flat = parse_program(src).unwrap().flatten_shared();
        let input = TestInput::zeroed(1);
        let mut ex = Executor::new(ExecutorConfig::new(DefenseKind::Baseline));
        let fresh = ex.context();
        ex.run_case(&flat, &input);
        assert_ne!(ex.context(), fresh, "opt mode evolved the predictors");
        ex.reset_unit();
        assert_eq!(ex.context(), fresh, "reset_unit returns to power-on");
    }

    #[test]
    fn prefill_strategy_follows_harness_hints() {
        let mut invisi = Executor::new(ExecutorConfig::new(DefenseKind::InvisiSpec));
        let run = invisi.run_case_traced(&flat(), &TestInput::zeroed(1));
        let cfg = SimConfig::default();
        assert!(
            run.utrace.l1d.len() >= cfg.l1d.sets * cfg.l1d.ways - cfg.l1d.ways,
            "InvisiSpec harness starts from a prefilled L1D"
        );

        let mut cleanup = Executor::new(ExecutorConfig::new(DefenseKind::CleanupSpec));
        let run = cleanup.run_case_traced(&flat(), &TestInput::zeroed(1));
        assert!(
            run.utrace.l1d.len() < 8,
            "CleanupSpec harness starts clean: {:?}",
            run.utrace.l1d
        );
    }

    #[test]
    fn stt_sandbox_is_128_pages() {
        let cfg = ExecutorConfig::new(DefenseKind::Stt);
        assert_eq!(cfg.pages(), 128);
        let mut ex = Executor::new(cfg);
        // An access beyond page 0 stays in the sandbox (no wrap to page 0).
        let src = "MOV RAX, qword ptr [R14 + 8200]\nEXIT";
        let flat = parse_program(src).unwrap().flatten_shared();
        let run = ex.run_case_traced(&flat, &TestInput::zeroed(128));
        assert!(run.utrace.l1d.contains(&(0x4000 + 8192)));
    }

    /// A digest replay depends on its context and input only, answers "do
    /// the traces differ" exactly as the logged validation re-run does,
    /// records no events, and leaves no state behind that a following
    /// validation re-run could observe.
    #[test]
    fn digest_replay_agrees_with_logged_replay_and_leaves_no_trace() {
        // A v1 shape: the load runs only speculatively when the JZ is
        // predicted not-taken, so the predictor context decides the L1D.
        let src = "
            CMP RAX, 0
            JZ .a
            MOV RCX, qword ptr [R14 + RBX]
            .a:
            MOV RDX, qword ptr [R14 + 64]
            EXIT";
        let flat = parse_program(src).unwrap().flatten_shared();
        let input = |rax: u64, rbx: u64| {
            let mut input = TestInput::zeroed(1);
            input.regs[0] = rax;
            input.regs[1] = rbx;
            input
        };
        let trained = |rax: u64| {
            let mut ex = Executor::new(ExecutorConfig::new(DefenseKind::Baseline));
            for _ in 0..12 {
                ex.run_case(&flat, &input(rax, 0));
            }
            ex.context()
        };
        let contexts = [trained(0), trained(1)];
        let inputs = [
            input(0, 0x740),
            input(0, 0x340),
            input(0, 0x340),
            input(1, 0x740),
        ];

        // `ex` carries its own, unrelated history into every replay.
        let mut ex = Executor::new(ExecutorConfig::new(DefenseKind::Baseline));
        let mut reference = Executor::new(ExecutorConfig::new(DefenseKind::Baseline));
        let mut digests = Vec::new();
        for ctx in &contexts {
            let traced: Vec<UTrace> = inputs
                .iter()
                .map(|i| reference.run_case_with_ctx(&flat, i, ctx).utrace)
                .collect();
            let replayed: Vec<u64> = inputs
                .iter()
                .map(|i| {
                    let digest = ex.replay_digest(&flat, i, ctx);
                    assert!(ex.last_log().is_empty(), "a digest replay logs nothing");
                    let fresh = Executor::new(ExecutorConfig::new(DefenseKind::Baseline))
                        .replay_digest(&flat, i, ctx);
                    assert_eq!(digest, fresh, "history must not reach a replay");
                    digest
                })
                .collect();
            for i in 0..inputs.len() {
                for j in 0..inputs.len() {
                    assert_eq!(
                        replayed[i] == replayed[j],
                        traced[i] == traced[j],
                        "inputs {i} and {j}"
                    );
                }
            }
            digests.push(replayed);
        }
        assert_ne!(
            digests[0][0], digests[1][0],
            "the replay context must decide the speculative load"
        );
        assert_ne!(
            digests[1][0], digests[1][1],
            "the inputs must not all trace alike"
        );

        // A logged run, then a replay: the replay clears the log.
        ex.run_case_with_ctx(&flat, &inputs[0], &contexts[1]);
        assert!(!ex.last_log().is_empty());
        ex.replay_digest(&flat, &inputs[1], &contexts[1]);
        assert!(ex.last_log().is_empty());

        // The validation re-run after a replay equals one on an executor
        // that never replayed — trace, result and debug log alike.
        let after = ex.run_case_with_ctx(&flat, &inputs[3], &contexts[1]);
        let fresh = reference.run_case_with_ctx(&flat, &inputs[3], &contexts[1]);
        assert_eq!(after.utrace, fresh.utrace);
        assert_eq!(after.result.cycles, fresh.result.cycles);
        assert_eq!(after.result.exit_cycle, fresh.result.exit_cycle);
        assert_eq!(ex.last_log(), reference.last_log());
    }

    #[test]
    fn validation_context_is_honoured() {
        let src = "
            CMP RAX, 0
            JZ .a
            .a:
            EXIT";
        let flat = parse_program(src).unwrap().flatten_shared();
        let input = TestInput::zeroed(1);
        let mut ex = Executor::new(ExecutorConfig::new(DefenseKind::Baseline));
        let first = ex.run_case_traced(&flat, &input);
        // Re-running under the captured context reproduces the run exactly.
        let replay = ex.run_case_with_ctx(&flat, &input, &first.start_ctx);
        assert_eq!(first.utrace, replay.utrace);
    }
}
