//! Sharded, work-stealing campaign orchestration — and the scheduling /
//! reduction primitives the multi-process campaign fabric is built from.
//!
//! [`Campaign::run`](crate::Campaign::run) parallelises across campaign
//! *instances* — at most `cfg.instances` threads, which leaves a many-core
//! box idle for the paper's quick shapes (2 instances) and ties parallelism
//! to a semantic knob. The sharded orchestrator decouples the two:
//!
//! - Each instance's program stream is split into fixed-size **batches**
//!   ([`ShardConfig::batch_programs`] programs each). A batch is the unit of
//!   scheduling *and* of determinism: its generator and input RNG streams
//!   are derived from `(campaign seed, instance, batch)` alone, and it runs
//!   on executor state reset to batch-fresh semantics, so its results are
//!   identical no matter which worker runs it, in what order, how many
//!   workers exist — or **which process** they live in.
//! - A [`BatchSource`] hands out batches and carries the find-first
//!   early-exit broadcast. The canonical source is [`CursorSource`] (work
//!   stealing without queues: an atomic cursor hands out batch indices in
//!   order, so a slow batch never blocks the rest), which the in-process
//!   pool ([`ShardedCampaign`]) drains. Every multi-worker fabric path
//!   (`amulet drive`, `amulet serve`) instead leases the *same* plan
//!   ([`plan_batches`]) from the [`Service`](crate::Service) and reduces
//!   with the *same* reducer — which is why their fingerprints agree.
//! - In find-first mode ([`CampaignConfig::stop_on_first`]) a confirmed
//!   violation broadcasts its batch index; the source stops handing out
//!   batches beyond the earliest violating index, and the reducer discards
//!   any speculatively-completed fragment past it. Because the cursor hands
//!   out indices in order, every batch at or before the earliest hit has
//!   run to completion — the surviving prefix is exactly what a single
//!   worker would have produced.
//! - [`reduce_fragments`] merges the per-batch fragments in batch order
//!   into one [`CampaignReport`], so
//!   [`CampaignReport::fingerprint`] is equal across worker counts and
//!   process counts.
//!
//! The batch size is part of the deterministic shape: changing
//! `batch_programs` (like changing the campaign seed) selects a different —
//! equally valid — random case stream. Worker count never does.
//!
//! # Examples
//!
//! ```no_run
//! use amulet_core::{CampaignConfig, ShardConfig, ShardedCampaign};
//! use amulet_defenses::DefenseKind;
//! use amulet_contracts::ContractKind;
//!
//! let cfg = CampaignConfig::quick(DefenseKind::Baseline, ContractKind::CtSeq);
//! // Same seed, same batch size → same fingerprint at any worker count.
//! let serial = ShardedCampaign::new(cfg.clone(), ShardConfig::with_workers(1)).run();
//! let pooled = ShardedCampaign::new(cfg, ShardConfig::with_workers(8)).run();
//! assert_eq!(serial.fingerprint(), pooled.fingerprint());
//! ```

use crate::analyze::ViolationClass;
use crate::campaign::{run_programs, CampaignConfig, CampaignReport, UnitRuntime, ViolationDigest};
use crate::cost::CostModel;
use crate::detect::{ScanStats, Violation};
use amulet_util::{SplitMix64, Summary, Xoshiro256};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// How a campaign is split across a worker pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardConfig {
    /// Worker threads. `0` means one per available hardware thread.
    pub workers: usize,
    /// Programs per batch (the scheduling and determinism unit). Smaller
    /// batches balance load better; larger batches amortise executor
    /// construction. Clamped to at least 1.
    pub batch_programs: usize,
}

impl Default for ShardConfig {
    fn default() -> Self {
        ShardConfig {
            workers: 0,
            batch_programs: 4,
        }
    }
}

impl ShardConfig {
    /// A shard configuration with an explicit worker count.
    pub fn with_workers(workers: usize) -> Self {
        ShardConfig {
            workers,
            ..Self::default()
        }
    }

    /// The effective worker-pool size (resolves `0` to the host's available
    /// parallelism).
    pub fn resolved_workers(&self) -> usize {
        if self.workers > 0 {
            self.workers
        } else {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        }
    }
}

/// One schedulable unit: a contiguous run of programs within an instance.
///
/// A batch is fully identified by its coordinates — results depend on
/// `(campaign seed, instance, batch)` and `programs` only, never on
/// scheduling — which is what makes the spec safe to serialise and ship to
/// another process (`amulet_core::proto`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchSpec {
    /// Global batch index (reducer sort key and early-exit broadcast key).
    pub index: usize,
    /// Campaign instance this batch belongs to.
    pub instance: usize,
    /// Batch number within the instance (RNG derivation key).
    pub batch: usize,
    /// Programs in this batch (the final batch of an instance may be short).
    pub programs: usize,
}

/// Results of one executed batch, merged by [`reduce_fragments`] in `index`
/// order.
///
/// In-process pools carry the full [`Violation`] artefacts; fragments
/// reconstructed from the wire protocol carry only the deterministic
/// [`ViolationDigest`]s (the full artefacts stay in the worker process).
/// `digests` is always authoritative — it is what the campaign fingerprint
/// hashes.
#[derive(Debug, Default)]
pub struct Fragment {
    /// Global batch index this fragment answers.
    pub index: usize,
    /// Full violation artefacts (empty for wire-reduced fragments).
    pub violations: Vec<(Violation, ViolationClass)>,
    /// Deterministic per-violation digests, same order as `violations`.
    pub digests: Vec<ViolationDigest>,
    /// Detector counters for this batch.
    pub stats: ScanStats,
    /// Time from the campaign anchor to this batch's first confirmation.
    pub first_detection: Option<Duration>,
}

/// Hands batches to workers and carries the find-first broadcast.
///
/// The contract every implementation must keep for determinism: batch
/// indices are handed out **in order, each at most once**, and after
/// [`BatchSource::record_hit`]`(i)` no index greater than the smallest
/// recorded `i` need be handed out (handing it out anyway is allowed — the
/// reducer discards fragments past the earliest hit).
pub trait BatchSource: Sync {
    /// The next batch to execute, or `None` when the plan is exhausted (or
    /// everything left is past the earliest recorded hit).
    fn next_batch(&self) -> Option<BatchSpec>;

    /// Broadcasts a confirmed violation in batch `index` (no-op unless the
    /// campaign runs find-first).
    fn record_hit(&self, index: usize);
}

/// The canonical [`BatchSource`]: the whole batch plan behind an atomic
/// cursor, plus the find-first early-exit broadcast (an atomic `fetch_min`
/// of the earliest violating batch index).
#[derive(Debug)]
pub struct CursorSource {
    batches: Vec<BatchSpec>,
    cursor: AtomicUsize,
    earliest_hit: AtomicUsize,
    stop_on_first: bool,
}

impl CursorSource {
    /// Plans `cfg`'s batches at the given batch size.
    pub fn new(cfg: &CampaignConfig, batch_programs: usize) -> Self {
        CursorSource {
            batches: plan_batches(cfg, batch_programs),
            cursor: AtomicUsize::new(0),
            earliest_hit: AtomicUsize::new(usize::MAX),
            stop_on_first: cfg.stop_on_first,
        }
    }

    /// Total batches in the plan.
    pub fn len(&self) -> usize {
        self.batches.len()
    }

    /// Whether the plan is empty.
    pub fn is_empty(&self) -> bool {
        self.batches.is_empty()
    }

    /// The earliest batch index with a recorded hit, if any.
    pub fn earliest_hit(&self) -> Option<usize> {
        let hit = self.earliest_hit.load(Ordering::SeqCst);
        (hit != usize::MAX).then_some(hit)
    }
}

impl BatchSource for CursorSource {
    fn next_batch(&self) -> Option<BatchSpec> {
        let idx = self.cursor.fetch_add(1, Ordering::SeqCst);
        if idx >= self.batches.len() {
            return None;
        }
        // Early-exit: batches past the earliest confirmed hit would be
        // discarded by the reducer anyway. (`earliest_hit` only decreases,
        // so a withheld index can never end up at or before the final hit.)
        if self.stop_on_first && idx > self.earliest_hit.load(Ordering::SeqCst) {
            return None;
        }
        Some(self.batches[idx])
    }

    fn record_hit(&self, index: usize) {
        if self.stop_on_first {
            self.earliest_hit.fetch_min(index, Ordering::SeqCst);
        }
    }
}

/// Splits a campaign into per-instance batches of `batch_programs` programs
/// (clamped to at least 1). Global indices are dense and ordered — the
/// reducer sort key and the find-first broadcast key.
pub fn plan_batches(cfg: &CampaignConfig, batch_programs: usize) -> Vec<BatchSpec> {
    let per_batch = batch_programs.max(1);
    let mut out = Vec::new();
    for instance in 0..cfg.instances {
        let mut remaining = cfg.programs_per_instance;
        let mut batch = 0;
        while remaining > 0 {
            let programs = remaining.min(per_batch);
            out.push(BatchSpec {
                index: out.len(),
                instance,
                batch,
                programs,
            });
            remaining -= programs;
            batch += 1;
        }
    }
    out
}

/// The seed of a batch's RNG stream, derived from the campaign seed and the
/// batch coordinates only — never from scheduling. A SplitMix64 finaliser
/// over golden-ratio-scrambled coordinates keeps neighbouring `(instance,
/// batch)` pairs statistically independent.
fn batch_seed(campaign_seed: u64, instance: usize, batch: usize) -> u64 {
    let mixed = campaign_seed
        ^ (instance as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ (batch as u64 + 1).wrapping_mul(0xD1B5_4A32_D192_ED03);
    SplitMix64::new(mixed).next_u64()
}

/// Runs one batch with its own derived RNG streams, through the same
/// per-program scan loop as the instance-parallel orchestrator. `anchor`
/// ties detection times to the campaign start, so the reducer's min over
/// batches is the true wall-clock time until the campaign first confirmed a
/// violation (a per-batch time would measure schedule position instead; in
/// a multi-process run each worker anchors to its own start, which only
/// shifts the *value* — the fingerprint covers presence, not timing).
///
/// `rt` is the calling worker's persistent [`UnitRuntime`]: the executor
/// and scratch buffers are *reused* across every batch the worker runs, and
/// reset to batch-fresh semantics inside the scan loop — so results stay
/// independent of which worker (thread **or process**) ran the batch.
pub fn run_batch(
    cfg: &CampaignConfig,
    spec: &BatchSpec,
    anchor: Instant,
    rt: &mut UnitRuntime,
) -> Fragment {
    let mut rng = Xoshiro256::seed_from_u64(batch_seed(cfg.seed, spec.instance, spec.batch));
    let scan = run_programs(cfg, &mut rng, spec.programs, anchor, rt);
    let digests = scan
        .violations
        .iter()
        .map(|(v, c)| ViolationDigest::of(v, *c))
        .collect();
    Fragment {
        index: spec.index,
        violations: scan.violations,
        digests,
        stats: scan.stats,
        first_detection: scan.first_detection,
    }
}

/// Verifies that a set of fragments covers the reduced plan exactly: every
/// batch index the reducer will keep (`0..total_batches`, or `0..=hit` in
/// find-first mode) is present exactly once, and no index appears twice.
///
/// The in-process pool satisfies this by construction; the fault-tolerant
/// [`Service`](crate::Service) — where batches are re-run after crashes,
/// re-assigned after quarantines, and adopted by surviving workers — calls
/// this before reducing, so a scheduling bug under churn becomes a loud campaign error
/// instead of a silently wrong (but plausible-looking) fingerprint.
pub fn verify_fragment_coverage(
    cfg: &CampaignConfig,
    fragments: &[Fragment],
    earliest_hit: Option<usize>,
    total_batches: usize,
) -> Result<(), String> {
    let kept_end = match (cfg.stop_on_first, earliest_hit) {
        (true, Some(hit)) => total_batches.min(hit + 1),
        _ => total_batches,
    };
    let mut seen = vec![false; total_batches];
    for frag in fragments {
        if frag.index >= total_batches {
            return Err(format!(
                "fragment for batch {} outside the {}-batch plan",
                frag.index, total_batches
            ));
        }
        if seen[frag.index] {
            return Err(format!("duplicate fragment for batch {}", frag.index));
        }
        seen[frag.index] = true;
    }
    let missing: Vec<String> = (0..kept_end)
        .filter(|&i| !seen[i])
        .map(|i| i.to_string())
        .collect();
    if missing.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "{} of {kept_end} reduced batches missing (indices {})",
            missing.len(),
            missing.join(", ")
        ))
    }
}

/// The deterministic reducer both the in-process pool and the
/// [`Service`](crate::Service) share: sorts fragments by batch index, keeps the
/// `index <= earliest_hit` prefix when find-first trimmed the plan, and
/// folds stats / violations / detection time into one [`CampaignReport`].
///
/// Find-first cancellation can never change the reduced prefix: sources
/// hand out batch indices in order, so every batch at or before the
/// earliest hit ran to completion before the campaign stopped, and
/// fragments past the hit are exactly the ones dropped here.
pub fn reduce_fragments(
    cfg: CampaignConfig,
    mut fragments: Vec<Fragment>,
    earliest_hit: Option<usize>,
    wall: Duration,
) -> CampaignReport {
    fragments.sort_by_key(|r| r.index);
    if cfg.stop_on_first {
        // Keep the deterministic prefix: every batch at or before the
        // earliest hit ran to completion; anything later is a scheduling
        // artefact.
        let hit = earliest_hit.unwrap_or(usize::MAX);
        fragments.retain(|r| r.index <= hit);
    }

    let mut report = CampaignReport {
        violations: Vec::new(),
        digests: Vec::new(),
        stats: ScanStats::default(),
        wall,
        detection_times: Summary::new(),
        modeled_seconds: CostModel::default().campaign_seconds(
            cfg.mode,
            cfg.programs_per_instance,
            cfg.inputs.total(),
        ),
        config: cfg,
    };
    // Detection time: one sample — the earliest confirmation across all
    // batches, i.e. the campaign's wall-clock time-to-first-violation.
    // (Per-batch samples would average schedule position, not detection
    // speed.)
    let first_hit = fragments.iter().filter_map(|r| r.first_detection).min();
    if let Some(d) = first_hit {
        report.detection_times.add(d.as_secs_f64());
    }
    for r in fragments {
        report.stats.merge(&r.stats);
        report.violations.extend(r.violations);
        report.digests.extend(r.digests);
    }
    report
}

/// A campaign run on a sharded worker pool.
///
/// Produces the same [`CampaignReport`] type as
/// [`Campaign::run`](crate::Campaign::run), but with the work split into
/// deterministic batches scheduled over [`ShardConfig::workers`] threads —
/// see the [module docs](self) for the determinism contract.
#[derive(Debug)]
pub struct ShardedCampaign {
    cfg: CampaignConfig,
    shard: ShardConfig,
}

impl ShardedCampaign {
    /// Creates a sharded campaign.
    pub fn new(cfg: CampaignConfig, shard: ShardConfig) -> Self {
        ShardedCampaign { cfg, shard }
    }

    /// Runs all batches on the worker pool and reduces deterministically.
    pub fn run(self) -> CampaignReport {
        let cfg = self.cfg;
        let workers = self.shard.resolved_workers();
        let source = CursorSource::new(&cfg, self.shard.batch_programs);
        let fragments = Mutex::new(Vec::new());
        let start = Instant::now();

        std::thread::scope(|scope| {
            for _ in 0..workers.max(1) {
                scope.spawn(|| {
                    // One executor + scratch set per (worker, defense),
                    // reused across every batch this worker pulls.
                    let mut rt = UnitRuntime::new();
                    while let Some(spec) = source.next_batch() {
                        let frag = run_batch(&cfg, &spec, start, &mut rt);
                        if !frag.digests.is_empty() {
                            source.record_hit(spec.index);
                        }
                        fragments.lock().unwrap().push(frag);
                    }
                });
            }
        });
        let wall = start.elapsed();
        let hit = source.earliest_hit();
        reduce_fragments(cfg, fragments.into_inner().unwrap(), hit, wall)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amulet_contracts::ContractKind;
    use amulet_defenses::DefenseKind;

    #[test]
    fn batches_cover_every_program_exactly_once() {
        let mut cfg = CampaignConfig::quick(DefenseKind::Baseline, ContractKind::CtSeq);
        cfg.instances = 3;
        cfg.programs_per_instance = 10;
        let batches = plan_batches(&cfg, 4);
        // 3 instances × ceil(10/4) = 9 batches; per instance 4+4+2 programs.
        assert_eq!(batches.len(), 9);
        for instance in 0..3 {
            let per_instance: Vec<_> = batches.iter().filter(|b| b.instance == instance).collect();
            assert_eq!(
                per_instance.iter().map(|b| b.programs).sum::<usize>(),
                cfg.programs_per_instance
            );
            assert_eq!(per_instance.last().unwrap().programs, 2);
        }
        // Global indices are dense and ordered.
        for (i, b) in batches.iter().enumerate() {
            assert_eq!(b.index, i);
        }
    }

    #[test]
    fn batch_seeds_are_distinct_across_coordinates() {
        let mut seen = std::collections::HashSet::new();
        for instance in 0..16 {
            for batch in 0..16 {
                assert!(
                    seen.insert(batch_seed(2025, instance, batch)),
                    "seed collision at ({instance}, {batch})"
                );
            }
        }
    }

    #[test]
    fn zero_batch_programs_is_clamped() {
        let mut cfg = CampaignConfig::quick(DefenseKind::Baseline, ContractKind::CtSeq);
        cfg.instances = 1;
        cfg.programs_per_instance = 3;
        let batches = plan_batches(&cfg, 0);
        assert_eq!(batches.len(), 3, "batch size 0 degrades to 1");
    }

    #[test]
    fn cursor_source_hands_out_in_order_and_honours_hits() {
        let mut cfg = CampaignConfig::quick(DefenseKind::Baseline, ContractKind::CtSeq);
        cfg.instances = 1;
        cfg.programs_per_instance = 10;
        cfg.stop_on_first = true;
        let source = CursorSource::new(&cfg, 1);
        assert_eq!(source.len(), 10);
        assert_eq!(source.next_batch().unwrap().index, 0);
        assert_eq!(source.next_batch().unwrap().index, 1);
        source.record_hit(3);
        assert_eq!(source.earliest_hit(), Some(3));
        // Indices at or before the hit still flow; later ones are withheld.
        assert_eq!(source.next_batch().unwrap().index, 2);
        assert_eq!(source.next_batch().unwrap().index, 3);
        assert!(source.next_batch().is_none());
        // The broadcast only ever decreases.
        source.record_hit(7);
        assert_eq!(source.earliest_hit(), Some(3));
        source.record_hit(1);
        assert_eq!(source.earliest_hit(), Some(1));
    }

    #[test]
    fn cursor_source_without_find_first_ignores_hits() {
        let mut cfg = CampaignConfig::quick(DefenseKind::Baseline, ContractKind::CtSeq);
        cfg.instances = 1;
        cfg.programs_per_instance = 4;
        let source = CursorSource::new(&cfg, 1);
        source.record_hit(0);
        assert_eq!(source.earliest_hit(), None, "no-op without stop_on_first");
        let mut count = 0;
        while source.next_batch().is_some() {
            count += 1;
        }
        assert_eq!(count, 4, "every batch still flows");
    }

    #[test]
    fn reducer_trims_to_the_earliest_hit_prefix() {
        let mut cfg = CampaignConfig::quick(DefenseKind::Baseline, ContractKind::CtSeq);
        cfg.stop_on_first = true;
        let frag = |index: usize, cases: usize| Fragment {
            index,
            stats: ScanStats {
                cases,
                ..ScanStats::default()
            },
            ..Fragment::default()
        };
        // Out-of-order arrival, with a speculatively-completed fragment (4)
        // past the hit at 2.
        let report = reduce_fragments(
            cfg,
            vec![frag(4, 100), frag(0, 1), frag(2, 10), frag(1, 2)],
            Some(2),
            Duration::ZERO,
        );
        assert_eq!(report.stats.cases, 13, "fragment 4 was discarded");
    }

    #[test]
    fn coverage_verifier_flags_missing_duplicate_and_stray_fragments() {
        let mut cfg = CampaignConfig::quick(DefenseKind::Baseline, ContractKind::CtSeq);
        let frag = |index: usize| Fragment {
            index,
            ..Fragment::default()
        };
        // Complete plan: fine in any arrival order.
        let full = vec![frag(2), frag(0), frag(1)];
        assert!(verify_fragment_coverage(&cfg, &full, None, 3).is_ok());
        // A hole is an error, and the message names the index.
        let holed = vec![frag(0), frag(2)];
        let err = verify_fragment_coverage(&cfg, &holed, None, 3).unwrap_err();
        assert!(err.contains("indices 1"), "{err}");
        // Duplicates are an error even when every index is covered.
        let duped = vec![frag(0), frag(1), frag(1), frag(2)];
        assert!(verify_fragment_coverage(&cfg, &duped, None, 3)
            .unwrap_err()
            .contains("duplicate"));
        // An index outside the plan is an error.
        let stray = vec![frag(0), frag(5)];
        assert!(verify_fragment_coverage(&cfg, &stray, None, 3)
            .unwrap_err()
            .contains("outside"));
        // Find-first: only the prefix up to the hit must be covered.
        cfg.stop_on_first = true;
        let prefix = vec![frag(0), frag(1)];
        assert!(verify_fragment_coverage(&cfg, &prefix, Some(1), 5).is_ok());
        assert!(verify_fragment_coverage(&cfg, &prefix, Some(2), 5).is_err());
    }

    #[test]
    fn sharded_quick_campaign_finds_baseline_violations() {
        let mut cfg = CampaignConfig::quick(DefenseKind::Baseline, ContractKind::CtSeq);
        cfg.programs_per_instance = 20;
        let report = ShardedCampaign::new(
            cfg,
            ShardConfig {
                workers: 2,
                batch_programs: 4,
            },
        )
        .run();
        assert!(report.violation_found(), "stats: {:?}", report.stats);
        assert_eq!(
            report.stats.cases,
            report.config.total_cases(),
            "without find-first, every planned case executes"
        );
        assert_eq!(
            report.digests.len(),
            report.violations.len(),
            "in-process fragments carry digests alongside full violations"
        );
    }
}
