//! The in-process workloads: `ctseq_pht` (Table 4's CT-SEQ throughput) and
//! `stt_kv3` (the STT KV3 hunt). Both run a cyclic, seed-derived stream of
//! `CampaignConfig`s through `ShardedCampaign::run` on [`WORKERS`] threads
//! until the time budget is spent; a campaign met again on a later lap must
//! reproduce its first fingerprint.

use crate::layers::{self, put, BatchPass, JournalCampaign};
use crate::report::{
    campaign_row, classes_row, median, result_metrics, samples, secs, Out, RssWindows,
};
use crate::{derive_seed, Run, SETUP_REPS, SETUP_SEED, WORKERS};
use amulet_contracts::ContractKind;
use amulet_core::{CampaignConfig, ShardConfig, ShardedCampaign, ViolationClass};
use amulet_defenses::DefenseKind;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// An in-process workload's campaign stream.
pub struct Stream {
    /// Distinct campaigns, run in order and cycled.
    pub configs: Vec<CampaignConfig>,
    /// Programs per batch (part of each campaign's identity).
    pub batch_programs: usize,
    /// Batches in each set-up warm-up campaign.
    pub warm_batches: usize,
}

/// The paper's four CT-SEQ targets at the quick per-case shape (1-page
/// sandbox, 4 base inputs × 6 mutations, PHT), 2 instances × 480 programs
/// each; 20 rounds of derived seeds, 80 distinct campaigns, so that even a
/// slow host repeats some of them within a run for the lap check. A
/// campaign takes about a quarter of a second, long enough that the host's
/// moment-to-moment speed (it swings by a quarter from one 200 ms slice to
/// the next) averages out within it and does not set the tail.
pub fn ctseq_pht(seed: u64) -> Stream {
    const TARGETS: [DefenseKind; 4] = [
        DefenseKind::Baseline,
        DefenseKind::InvisiSpec,
        DefenseKind::CleanupSpec,
        DefenseKind::SpecLfb,
    ];
    let mut configs = Vec::new();
    for round in 0..20 {
        for defense in TARGETS {
            let mut cfg = CampaignConfig::quick(defense, ContractKind::CtSeq);
            cfg.programs_per_instance = 480;
            cfg.seed = derive_seed(seed, 1, round);
            configs.push(cfg);
        }
    }
    // Sixteen warm-up batches: about 15 ms of compute per defense. With
    // two, a warm-up was mostly thread start-up and wake-up latency, which
    // the host's load stretches far more than compute (`setup_s` moved by
    // 40 % between two sets of runs whose `cases_per_s` moved by 8 %).
    Stream {
        configs,
        batch_programs: 4,
        warm_batches: 16,
    }
}

/// STT × ARCH-SEQ on the `tests/paper_findings.rs::stt_kv3` sandbox (128
/// pages, stores on), 2 instances × 30 programs, find-first, 64 derived
/// seeds. A campaign takes about a quarter of a second and fewer than one
/// in ten stops early on KV3, so the result-time median stays inside the
/// full-length cluster whatever the seed; the larger `paper_findings`
/// campaigns (4 × 60) stopped early on about four seeds in ten, and the
/// median moved between the two clusters. 64 distinct campaigns
/// leave repeats for the lap check on a slow host too.
pub fn stt_kv3(seed: u64) -> Stream {
    let configs = (0..64)
        .map(|i| {
            let mut cfg = CampaignConfig::quick(DefenseKind::Stt, ContractKind::ArchSeq);
            cfg.instances = 2;
            cfg.programs_per_instance = 30;
            cfg.generator.stores = true;
            cfg.stop_on_first = true;
            cfg.seed = derive_seed(seed, 2, i);
            cfg
        })
        .collect();
    Stream {
        configs,
        batch_programs: 2,
        warm_batches: 2,
    }
}

/// One distinct campaign's first result.
struct Seen {
    fingerprint: u64,
    laps: usize,
}

/// What the timed phase leaves for the checks and the traced passes.
struct Timed {
    order: Vec<usize>,
    walls: Vec<f64>,
    cases: usize,
    busy: f64,
    ttfv: Vec<f64>,
    seen: Vec<Option<Seen>>,
    classes: BTreeMap<ViolationClass, usize>,
    corpus_records: usize,
    failed: u64,
    /// Peak resident set (MiB) of each window.
    rss: Vec<f64>,
}

fn shard(batch_programs: usize) -> ShardConfig {
    ShardConfig {
        workers: WORKERS,
        batch_programs,
    }
}

/// Set-up: build the stream and warm each distinct defense with a
/// one-instance campaign of [`Stream::warm_batches`] batches at
/// [`SETUP_SEED`] (executor construction, prefill images, lazily built
/// tables). Repeated [`SETUP_REPS`] times; returns every set-up time and
/// the stream.
fn setup(make: fn(u64) -> Stream, seed: u64) -> (Vec<f64>, Stream) {
    let mut times = Vec::new();
    let mut stream = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let s = make(seed);
        let mut warmed = Vec::new();
        for cfg in &s.configs {
            if warmed.contains(&cfg.defense) {
                continue;
            }
            warmed.push(cfg.defense);
            let mut warm = cfg.clone();
            warm.instances = 1;
            warm.programs_per_instance = s.warm_batches * s.batch_programs;
            warm.stop_on_first = false;
            warm.seed = SETUP_SEED;
            std::hint::black_box(ShardedCampaign::new(warm, shard(s.batch_programs)).run());
        }
        times.push(secs(t.elapsed()));
        stream = Some(s);
    }
    (times, stream.expect("at least one set-up"))
}

fn timed_phase(out: &mut Out, stream: &Stream, budget: Duration) -> Result<Timed, String> {
    let mut t = Timed {
        order: Vec::new(),
        walls: Vec::new(),
        cases: 0,
        busy: 0.0,
        ttfv: Vec::new(),
        seen: (0..stream.configs.len()).map(|_| None).collect(),
        classes: BTreeMap::new(),
        corpus_records: 0,
        failed: 0,
        rss: Vec::new(),
    };
    let mut rss = RssWindows::start()?;
    let start = Instant::now();
    while start.elapsed() < budget {
        let index = t.order.len() % stream.configs.len();
        let cfg = stream.configs[index].clone();
        let t0 = Instant::now();
        let report = ShardedCampaign::new(cfg, shard(stream.batch_programs)).run();
        let wall = secs(t0.elapsed());
        rss.tick();
        t.order.push(index);
        t.walls.push(wall);
        t.busy += wall;
        t.cases += report.stats.cases;
        let fingerprint = report.fingerprint();
        match &mut t.seen[index] {
            Some(seen) => {
                seen.laps += 1;
                if seen.fingerprint != fingerprint {
                    t.failed += 1;
                    out.row("mismatch", |o| {
                        o.int("index", index as u64)
                            .str("between", "laps of the timed run")
                    });
                }
            }
            slot @ None => {
                *slot = Some(Seen {
                    fingerprint,
                    laps: 1,
                });
                if let Some(d) = report.detection_times.min() {
                    t.ttfv.push(d);
                }
                for (class, n) in report.unique_classes() {
                    *t.classes.entry(class).or_default() += n;
                }
                // `records_from_report` yields one record per violation.
                t.corpus_records += report.digests.len();
                campaign_row(out, index, &report, |o| o);
            }
        }
    }
    t.rss = rss.finish()?;
    Ok(t)
}

/// Runs an in-process workload.
pub fn run(
    out: &mut Out,
    run: &Run,
    make: fn(u64) -> Stream,
) -> Result<(u64, u64, BTreeMap<&'static str, f64>), String> {
    let (setup_times, stream) = setup(make, run.seed);
    let setup_s = median(&setup_times);
    let timed = timed_phase(out, &stream, run.seconds)?;
    let attempted = timed.order.len() as u64;
    let mut e2e = BTreeMap::new();
    let cases_per_s = timed.cases as f64 / timed.busy;
    out.metric("cases_per_s", cases_per_s, |o| {
        o.int("cases", timed.cases as u64)
            .int("campaigns", attempted)
    });
    e2e.insert("cases_per_s", cases_per_s);
    result_metrics(out, &mut e2e, &timed.walls);
    out.metric("setup_s", setup_s, |o| {
        o.raw("samples", &samples(&setup_times))
    });
    e2e.insert("setup_s", setup_s);
    let rss = median(&timed.rss);
    out.metric("peak_rss_mib", rss, |o| {
        o.raw("samples", &samples(&timed.rss))
    });
    e2e.insert("peak_rss_mib", rss);
    let ttfv = median(&timed.ttfv);
    out.metric("ttfv_p50_s", ttfv, |o| o.int("n", timed.ttfv.len() as u64));
    classes_row(out, &timed.classes);
    let laps: Vec<String> = timed
        .seen
        .iter()
        .flatten()
        .map(|s| s.laps.to_string())
        .collect();
    out.row("laps", |o| {
        o.raw("per_campaign", &format!("[{}]", laps.join(",")))
    });

    let mut failed = timed.failed;
    let mut layers = BTreeMap::new();
    if out.traced() {
        failed += traced(out, run, &stream, &timed, cases_per_s, &mut layers)?;
    }
    out.metric("failed_ratio", failed as f64 / attempted as f64, |o| {
        o.int("failed", failed).int("attempted", attempted)
    });
    Ok((attempted, failed, if out.traced() { layers } else { e2e }))
}

/// The traced passes for an in-process workload; returns the fingerprint
/// mismatches between the timed run and the batch pass.
fn traced(
    out: &mut Out,
    run: &Run,
    stream: &Stream,
    timed: &Timed,
    untraced_cases_per_s: f64,
    m: &mut BTreeMap<&'static str, f64>,
) -> Result<u64, String> {
    let mut pass = BatchPass::new(WORKERS);
    let mut failed = 0;
    let mut journal: Vec<JournalCampaign> = Vec::new();
    let mut kept = vec![false; stream.configs.len()];
    for &index in &timed.order {
        let cfg = &stream.configs[index];
        let keep = !kept[index];
        kept[index] = true;
        let b = pass.run(cfg, stream.batch_programs, keep);
        let want = timed.seen[index].as_ref().map(|s| s.fingerprint);
        if want != Some(b.report.fingerprint()) {
            failed += 1;
            out.row("mismatch", |o| {
                o.int("index", index as u64)
                    .str("between", "timed run and batch pass")
            });
        }
        if keep {
            let spec = layers::spec_of(cfg, stream.batch_programs);
            journal.push((spec, b.planned, b.fragments));
        }
    }
    pass.report(out, m, untraced_cases_per_s);
    layers::stage_sample(
        out,
        m,
        &stream.configs,
        stream.batch_programs,
        derive_seed(run.seed, 9, 0),
        run.seconds / 4,
    );
    layers::proto_layer(out, m, &journal, &[], Duration::from_millis(300));
    let dir = run.state_dir.join("journal_replay");
    layers::journal_replay(out, m, &dir, &journal)?;
    put(
        out,
        m,
        "journal.recover_ms",
        layers::recover_ms(&dir)?,
        journal.len() as u64,
    );
    put(
        out,
        m,
        "corpus.records",
        timed.corpus_records as f64,
        timed.seen.iter().flatten().count() as u64,
    );
    Ok(failed)
}
