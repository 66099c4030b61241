//! The traced run's passes. Every span is recorded here, around calls into
//! the repository's public functions — nothing inside the program is
//! instrumented.
//!
//! - [`BatchPass`]: drives a workload's exact campaign stream through
//!   `plan_batches` (via `CursorSource`), `run_batch` and
//!   `reduce_fragments` on the same number of worker threads as the timed
//!   run, timing every batch and every reduction.
//! - [`stage_sample`]: drives the same campaign shapes, seeded apart from
//!   the timed stream, through `Generator::program`, `boosted_inputs_into`
//!   and `Detector::scan`; a twin `Executor` and a twin contract scratch
//!   replay `LeakageModel::ctrace_with` and `Executor::run_case_ctx` on the
//!   same inputs, so detect self-time is scan time minus those two.
//! - [`proto_layer`], [`journal_replay`], [`recover_ms`]: time the wire
//!   codec and the journal on the run's own fragments and lines.

use crate::report::{median, Out};
use crate::WORKERS;
use amulet_contracts::{LeakageModel, ModelScratch};
use amulet_core::proto::{CampaignSpec, FragmentReport, Msg};
use amulet_core::{
    boosted_inputs_into, reduce_fragments, run_batch, BatchSource, CampaignConfig, CampaignJournal,
    CampaignReport, CostModel, CursorSource, Detector, ExecMode, Executor, ExecutorConfig,
    Generator, JournalHeader, ScanStats, StateDir, UnitRuntime,
};
use amulet_util::Xoshiro256;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// The wire spec naming a campaign config. Exact for spec-expressible
/// configs (the serve workload); for in-process shapes it only labels the
/// journal header a replay writes.
pub fn spec_of(cfg: &CampaignConfig, batch_programs: usize) -> CampaignSpec {
    CampaignSpec {
        defense: cfg.defense.name().to_string(),
        contract: cfg.contract.name().to_string(),
        source: cfg.source.name().to_string(),
        seed: cfg.seed,
        scale: None,
        find_first: cfg.stop_on_first,
        batch_programs,
        cycle_skip: cfg.sim.cycle_skip,
    }
}

/// One campaign driven batch by batch.
pub struct BatchRun {
    /// The reduced report.
    pub report: CampaignReport,
    /// The executed fragments in wire form (sorted by index), when asked.
    pub fragments: Vec<FragmentReport>,
    /// Batches in the plan.
    pub planned: u64,
}

/// Accumulates the spans of a [`BatchPass`].
#[derive(Default)]
pub struct BatchPass {
    workers: usize,
    batch_ms: Vec<f64>,
    busy_s: f64,
    wall_s: f64,
    reduce_ms: Vec<f64>,
    cases: usize,
}

impl BatchPass {
    /// A pass on `workers` threads.
    pub fn new(workers: usize) -> Self {
        BatchPass {
            workers,
            ..Self::default()
        }
    }

    /// Runs one campaign: `workers` scoped threads, each with its own
    /// `UnitRuntime`, pull batches from a `CursorSource` exactly like
    /// `ShardedCampaign::run`, with a span around every `run_batch` and
    /// around `reduce_fragments`.
    pub fn run(&mut self, cfg: &CampaignConfig, batch_programs: usize, keep: bool) -> BatchRun {
        let source = CursorSource::new(cfg, batch_programs);
        let planned = source.len() as u64;
        let frags = Mutex::new(Vec::new());
        let spans = Mutex::new(Vec::new());
        let start = Instant::now();
        std::thread::scope(|scope| {
            for _ in 0..self.workers {
                scope.spawn(|| {
                    let mut rt = UnitRuntime::new();
                    let mut mine = Vec::new();
                    let mut my_spans = Vec::new();
                    while let Some(spec) = source.next_batch() {
                        let t0 = Instant::now();
                        let frag = run_batch(cfg, &spec, start, &mut rt);
                        my_spans.push(t0.elapsed());
                        if !frag.digests.is_empty() {
                            source.record_hit(spec.index);
                        }
                        mine.push(frag);
                    }
                    frags.lock().expect("a batch worker panicked").extend(mine);
                    spans
                        .lock()
                        .expect("a batch worker panicked")
                        .extend(my_spans);
                });
            }
        });
        let wall = start.elapsed();
        let mut frags = frags.into_inner().expect("a batch worker panicked");
        let fragments = if keep {
            frags.sort_by_key(|f| f.index);
            frags.iter().map(FragmentReport::from_fragment).collect()
        } else {
            Vec::new()
        };
        let t0 = Instant::now();
        let report = reduce_fragments(cfg.clone(), frags, source.earliest_hit(), wall);
        self.reduce_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        for s in spans.into_inner().expect("a batch worker panicked") {
            self.batch_ms.push(s.as_secs_f64() * 1e3);
            self.busy_s += s.as_secs_f64();
        }
        self.wall_s += wall.as_secs_f64();
        self.cases += report.stats.cases;
        BatchRun {
            report,
            fragments,
            planned,
        }
    }

    /// Cases per second of batch-pass wall time.
    pub fn cases_per_s(&self) -> f64 {
        self.cases as f64 / self.wall_s
    }

    /// Adds the `shard.*` and `trace.*` metrics. `untraced_cases_per_s` is
    /// the same campaign list's throughput under `ShardedCampaign::run`.
    pub fn report(&self, out: &mut Out, m: &mut BTreeMap<&'static str, f64>, untraced: f64) {
        let idle = 1.0 - self.busy_s / (self.workers as f64 * self.wall_s);
        let traced = self.cases_per_s();
        let n = self.batch_ms.len() as u64;
        put(out, m, "shard.batch_ms_p50", median(&self.batch_ms), n);
        put(out, m, "shard.worker_idle_share", idle, n);
        put(
            out,
            m,
            "shard.reduce_ms",
            median(&self.reduce_ms),
            self.reduce_ms.len() as u64,
        );
        put(out, m, "trace.cases_per_s", traced, self.cases as u64);
        put(
            out,
            m,
            "trace.overhead_share",
            1.0 - traced / untraced,
            self.cases as u64,
        );
        out.row("tracing_overhead", |o| {
            o.num("untraced_cases_per_s", untraced)
                .num("traced_cases_per_s", traced)
        });
    }
}

/// Records one metric in the summary map and prints its row with `n`.
pub fn put(out: &mut Out, m: &mut BTreeMap<&'static str, f64>, name: &'static str, v: f64, n: u64) {
    out.metric(name, v, |o| o.int("n", n));
    m.insert(name, v);
}

/// The executor a campaign unit runs on (mirrors the campaign's own
/// config-to-executor mapping, from public fields only).
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

/// Per-stage host time over the stage sample pass.
#[derive(Default)]
struct Stages {
    programs: usize,
    inputs: usize,
    generate: Duration,
    boost: Duration,
    scan: Duration,
    ctrace: Duration,
    sim: Duration,
    startup: Duration,
    twin_cycles: u64,
    stats: ScanStats,
}

/// Runs the stage sample pass for about `budget` on one thread, cycling
/// over `configs` one unit (`batch_programs` programs) at a time, and adds
/// the per-stage metrics plus the measured-vs-modelled Table 2 rows.
pub fn stage_sample(
    out: &mut Out,
    m: &mut BTreeMap<&'static str, f64>,
    configs: &[CampaignConfig],
    batch_programs: usize,
    seed: u64,
    budget: Duration,
) {
    let mut st = Stages::default();
    let mut rng = Xoshiro256::seed_from_u64(seed);
    let mut inputs = Vec::new();
    let mut boost = ModelScratch::new();
    let mut twin_ct = ModelScratch::new();
    let mut ctx = Default::default();
    let start = Instant::now();
    let mut unit = 0usize;
    while start.elapsed() < budget || unit < configs.len() {
        let cfg = &configs[unit % configs.len()];
        unit += 1;
        let model = LeakageModel::new(cfg.contract);
        let t = Instant::now();
        let mut executor = executor_for(cfg);
        st.startup += t.elapsed();
        let mut twin = executor_for(cfg);
        let mut detector = Detector::new(model.clone());
        detector.skip_singletons = cfg.skip_singletons;
        let mut generator = Generator::new(cfg.generator.clone(), rng.next_u64());
        for _ in 0..batch_programs {
            let t0 = Instant::now();
            let program = generator.program();
            let t1 = Instant::now();
            let flat = program.flatten_shared();
            boosted_inputs_into(
                &model,
                &flat,
                &cfg.inputs,
                &mut rng,
                &mut boost,
                &mut inputs,
            );
            let t2 = Instant::now();
            let (violations, stats) = detector.scan(&program, &flat, &inputs, &mut executor);
            let t3 = Instant::now();
            black_box(violations);
            for input in &inputs {
                black_box(model.ctrace_with(&flat, input, &mut twin_ct).digest());
            }
            let t4 = Instant::now();
            for input in &inputs {
                st.twin_cycles += twin.run_case_ctx(&flat, input, &mut ctx).result.cycles;
            }
            let t5 = Instant::now();
            st.generate += t1 - t0;
            st.boost += t2 - t1;
            st.scan += t3 - t2;
            st.ctrace += t4 - t3;
            st.sim += t5 - t4;
            st.programs += 1;
            st.inputs += inputs.len();
            st.stats.merge(&stats);
        }
    }
    let us = |d: Duration, per: usize| d.as_secs_f64() * 1e6 / per as f64;
    let s = st.stats;
    let self_time = st.scan.saturating_sub(st.ctrace + st.sim);
    let ratio = |a: usize, b: usize| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let n = st.inputs as u64;
    put(
        out,
        m,
        "inputs.boost_us_per_case",
        us(st.boost, st.inputs),
        n,
    );
    put(
        out,
        m,
        "contracts.ctrace_us_per_case",
        us(st.ctrace, st.inputs),
        n,
    );
    put(
        out,
        m,
        "inputs.cases_per_class",
        ratio(s.cases, s.classes),
        n,
    );
    put(out, m, "sim.us_per_case", us(st.sim, st.inputs), n);
    let ns_cycle = st.sim.as_secs_f64() * 1e9 / st.twin_cycles as f64;
    put(out, m, "sim.ns_per_sim_cycle", ns_cycle, n);
    put(
        out,
        m,
        "sim.cycles_per_case",
        s.sim_cycles as f64 / s.cases as f64,
        n,
    );
    put(
        out,
        m,
        "sim.warp_ratio",
        s.warped_cycles as f64 / s.sim_cycles as f64,
        n,
    );
    put(out, m, "detect.self_us_per_case", us(self_time, s.cases), n);
    let vr = ratio(s.validation_runs, s.cases);
    put(out, m, "detect.validation_runs_per_case", vr, n);
    let cpc = ratio(s.confirmed, s.candidates);
    put(
        out,
        m,
        "detect.confirmed_per_candidate",
        cpc,
        s.candidates as u64,
    );
    let programs = st.programs as u64;
    put(
        out,
        m,
        "generator.us_per_program",
        us(st.generate, st.programs),
        programs,
    );

    // Table 2, measured beside modelled. Startup is `Executor::new`, paid
    // once per worker per campaign, so it is spread over the campaign's
    // programs; the digest is streamed inside the simulator run, so µtrace
    // extraction is part of the simulate share; test generation is program
    // generation plus input boosting; "others" is the detector's own
    // grouping and validation.
    let per_program = |d: Duration| d.as_secs_f64() / st.programs as f64;
    let campaign_programs = configs[0].instances * configs[0].programs_per_instance;
    let startup = st.startup.as_secs_f64() / unit as f64 * WORKERS as f64;
    let measured = [
        ("gem5 startup", startup / campaign_programs as f64),
        ("gem5 simulate", per_program(st.sim)),
        ("uTrace extraction", 0.0),
        ("Test generation", per_program(st.generate + st.boost)),
        ("CTrace extraction", per_program(st.ctrace)),
        ("Others", per_program(self_time)),
    ];
    let total: f64 = measured.iter().map(|(_, v)| v).sum();
    let inputs_per_program = st.inputs / st.programs;
    let modelled = CostModel::default().per_program(ExecMode::Opt, inputs_per_program);
    for ((name, secs), (mname, msecs, mshare)) in measured.iter().zip(modelled.rows()) {
        debug_assert_eq!(*name, mname);
        out.row("table2", |o| {
            o.str("stage", name)
                .num("measured_us_per_program", secs * 1e6)
                .num("measured_share_pct", 100.0 * secs / total)
                .num("modelled_s_per_program", msecs)
                .num("modelled_share_pct", mshare)
                .int("inputs_per_program", inputs_per_program as u64)
        });
    }
}

/// Times `Msg::to_line` and `Msg::parse_line` over the run's fragment lines
/// (as `amulet worker` would send them and the journal stores them) and any
/// client lines, repeating the set for at least `budget`.
pub fn proto_layer(
    out: &mut Out,
    m: &mut BTreeMap<&'static str, f64>,
    campaigns: &[JournalCampaign],
    client_lines: &[String],
    budget: Duration,
) {
    let fragment_lines: Vec<String> = campaigns
        .iter()
        .flat_map(|(_, _, frags)| frags.iter().map(|f| Msg::Fragment(f.clone()).to_line()))
        .collect();
    let lines: Vec<&String> = fragment_lines.iter().chain(client_lines).collect();
    let msgs: Vec<Msg> = lines
        .iter()
        .map(|l| Msg::parse_line(l).expect("the run's own lines parse"))
        .collect();
    let mut encoded = 0usize;
    let start = Instant::now();
    while start.elapsed() < budget || encoded == 0 {
        for msg in &msgs {
            black_box(msg.to_line());
        }
        encoded += msgs.len();
    }
    let encode_us = start.elapsed().as_secs_f64() * 1e6 / encoded as f64;
    let mut decoded = 0usize;
    let start = Instant::now();
    while start.elapsed() < budget || decoded == 0 {
        for line in &lines {
            black_box(Msg::parse_line(line).expect("the run's own lines parse"));
        }
        decoded += lines.len();
    }
    let decode_us = start.elapsed().as_secs_f64() * 1e6 / decoded as f64;
    let bytes: usize = fragment_lines.iter().map(|l| l.len() + 1).sum();
    let n = msgs.len() as u64;
    put(out, m, "proto.encode_us_per_msg", encode_us, n);
    put(out, m, "proto.decode_us_per_msg", decode_us, n);
    let frags = fragment_lines.len();
    put(
        out,
        m,
        "proto.bytes_per_fragment",
        bytes as f64 / frags as f64,
        frags as u64,
    );
}

/// One campaign's journal material: its spec, plan size and fragments.
pub type JournalCampaign = (CampaignSpec, u64, Vec<FragmentReport>);

/// Replays `campaigns` into fresh journals under `dir`, timing every
/// `CampaignJournal::append`.
pub fn journal_replay(
    out: &mut Out,
    m: &mut BTreeMap<&'static str, f64>,
    dir: &Path,
    campaigns: &[JournalCampaign],
) -> Result<(), String> {
    let state = StateDir::open(dir)?;
    let mut appends = Vec::new();
    let mut bytes = 0u64;
    for (spec, planned, frags) in campaigns {
        let path = state.journal_path(&spec.cache_key());
        let mut journal = CampaignJournal::create(&path, &JournalHeader::for_spec(spec, *planned))?;
        for frag in frags {
            let t = Instant::now();
            journal.append(frag)?;
            appends.push(t.elapsed().as_secs_f64() * 1e6);
        }
        drop(journal);
        bytes += std::fs::metadata(&path)
            .map_err(|e| format!("cannot stat {}: {e}", path.display()))?
            .len();
    }
    put(
        out,
        m,
        "journal.append_us",
        median(&appends),
        appends.len() as u64,
    );
    let per_campaign = bytes as f64 / campaigns.len() as f64;
    put(
        out,
        m,
        "journal.bytes_per_campaign",
        per_campaign,
        campaigns.len() as u64,
    );
    Ok(())
}

/// Median of five `StateDir::recover` passes over `dir`, in ms.
pub fn recover_ms(dir: &Path) -> Result<f64, String> {
    let state = StateDir::open(dir)?;
    let mut times = Vec::new();
    for _ in 0..5 {
        let t = Instant::now();
        black_box(state.recover()?);
        times.push(t.elapsed().as_secs_f64() * 1e3);
    }
    Ok(median(&times))
}
