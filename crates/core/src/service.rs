//! The campaign service state machine behind `amulet serve` — many
//! concurrent campaigns multiplexed over one shared worker fleet, with a
//! fair-share batch scheduler, a fingerprint-keyed result cache, and the
//! persisted violation [`corpus`](crate::corpus).
//!
//! # Fair-share determinism contract
//!
//! The scheduler round-robins batch *leases* across active campaigns, so a
//! submit never starves behind a big earlier campaign. This cannot move
//! any result: a batch's outcome is a pure function of `(campaign config,
//! batch seed)` — see [`run_batch`](crate::shard::run_batch) — so the
//! interleaving chooses only *when* each fragment arrives, never *what* it
//! contains, and the reduction ([`reduce_fragments`]) is order-insensitive
//! by construction. `tests/serve_session.rs` asserts the consequence:
//! interleaved fingerprints byte-equal their solo in-process runs.
//!
//! # Cache semantics
//!
//! A campaign is identified by [`CampaignSpec::cache_key`] — config
//! identity, seed, scale, shape knobs. The service is deterministic, so a
//! repeated submit *is* the earlier campaign; it is answered from the
//! cache with the byte-identical report and `executed_batches: 0`.
//! Cancelled and failed campaigns are never cached.
//!
//! # Crash safety
//!
//! With a [`StateDir`] attached ([`Service::with_persistence`]), the
//! service is a write-ahead machine: every completed fragment is appended
//! to the campaign's [`journal`](crate::journal) *before* the in-memory
//! state advances, and every completed report is written through to the
//! persisted cache before its journal is deleted. A submit that finds a
//! journal on disk resumes it — recovered fragments replay into the
//! campaign and only the missing batch indices are leased — and because
//! batches are pure functions of their seeds, the resumed report is
//! fingerprint-identical to an uninterrupted run. Persistence failures
//! (full disk, torn files) degrade to warnings, never to wrong results:
//! an unusable journal means recomputing, not corrupting.
//!
//! # The fleet
//!
//! The service is the only lease source of every multi-worker path, and
//! it is transport-agnostic: `amulet serve` (the CLI) wires client sockets
//! to [`Service::submit`]/[`Service::subscribe`] and worker slots to
//! [`Service::wait_lease`]/[`Service::complete`]; `amulet drive` is a
//! service holding one campaign ([`Service::submit_config`], read back
//! with [`Service::take_report`]); the in-memory test suite drives the
//! same methods directly.
//!
//! Worker slots announce themselves ([`Service::attach_slot`] /
//! [`Service::detach_slot`]) so the service can apply one dead-fleet rule
//! for every front end: once a slot has attached, a campaign with
//! runnable work fails with an error result — instead of waiting forever —
//! when every attached slot has [rejected](Service::reject) its config, or
//! when the last attached slot detaches. The rule never fires during
//! [`Service::shutdown`] or a [`Service::drain`].

use crate::campaign::{CampaignConfig, CampaignReport};
use crate::corpus::{records_from_report, Corpus};
use crate::journal::{
    load_journal, warn_note, CampaignJournal, CrashPlan, JournalHeader, Recovery, StateDir,
};
use crate::proto::{CampaignSpec, FragmentReport, ReportWire, ResultMsg};
use crate::shard::{plan_batches, reduce_fragments, verify_fragment_coverage, BatchSpec, Fragment};
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// A progress notification broadcast to every [`Service::subscribe`]r.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServiceEvent {
    /// One more batch of `campaign` completed.
    Progress {
        /// The campaign id.
        campaign: u64,
        /// Batches completed so far.
        done: u64,
        /// Batches in the plan.
        total: u64,
        /// Cumulative test cases executed.
        cases: u64,
    },
    /// `campaign` reached its terminal state; its [`ResultMsg`] is ready
    /// via [`Service::take_result`].
    Finished {
        /// The campaign id.
        campaign: u64,
    },
    /// [`Service::drain`] was called: no new campaigns will be admitted.
    /// Session handlers forward this to their clients and wind down.
    Draining {
        /// Campaigns (active + queued) still in flight at drain time.
        active: u64,
    },
}

/// Admission-control limits for [`Service::set_admission`]. `max_active`
/// and `per_client` are "0 = unlimited" (the default is the fully open
/// service); `max_queue` is "0 = nothing queues" — overflow sheds
/// immediately once `max_active` is reached.
///
/// The shed policy, in check order per submit: a client over its
/// [`per_client`](Admission::per_client) quota is rejected; otherwise the
/// campaign activates if the concurrent-campaign cap
/// ([`max_active`](Admission::max_active)) has room, queues FIFO if the
/// bounded admit queue ([`max_queue`](Admission::max_queue)) has room, and
/// is rejected once both are full. Rejections are structured
/// ([`SubmitOutcome::Rejected`]) and carry an actionable
/// `retry_after_ms` hint; cache hits are always answered (they cost no
/// worker time).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Admission {
    /// Campaigns executing concurrently (0 = unlimited).
    pub max_active: usize,
    /// Admitted-but-waiting campaigns in the FIFO queue (0 = none queue:
    /// with a `max_active` cap set, overflow is shed immediately).
    pub max_queue: usize,
    /// In-flight (active + queued) campaigns per client (0 = unlimited).
    pub per_client: usize,
}

/// What [`Service::submit`] decided.
#[derive(Debug)]
pub enum SubmitOutcome {
    /// A new campaign was scheduled; progress events will stream and the
    /// result arrives via [`ServiceEvent::Finished`].
    Accepted {
        /// The assigned campaign id.
        campaign: u64,
        /// Batches in the plan.
        total_batches: u64,
        /// Batches replayed from an on-disk journal instead of executed —
        /// non-zero only when a crashed run's prefix was resumed.
        recovered: u64,
    },
    /// The cache already holds this campaign's report — here it is, with a
    /// fresh id and `executed_batches: 0`. No batch will run. Boxed: a
    /// full report dwarfs the `Accepted` variant.
    Cached {
        /// The assigned (fresh) campaign id.
        campaign: u64,
        /// The replayed result.
        result: Box<ResultMsg>,
    },
    /// Admission control shed the submit — no id was assigned, no batch
    /// will run, and nothing about this campaign is remembered. The same
    /// spec resubmitted after roughly `retry_after_ms` converges on the
    /// identical deterministic result whenever it is finally admitted.
    Rejected {
        /// Why the submit was shed (quota, queue full, draining).
        reason: String,
        /// Actionable backoff hint, in milliseconds.
        retry_after_ms: u64,
    },
}

/// One leased batch: everything a worker needs to execute it and hand the
/// fragment back to the right campaign.
#[derive(Debug)]
pub struct Lease {
    /// The campaign this batch belongs to.
    pub campaign: u64,
    /// The batch assignment.
    pub spec: BatchSpec,
    /// The campaign's config (cloned per lease; workers keyed by campaign
    /// id keep their own persistent [`UnitRuntime`](crate::UnitRuntime)s).
    pub cfg: CampaignConfig,
    /// The campaign's detection-time anchor.
    pub anchor: Instant,
    /// Whether this batch was returned unexecuted by another lease (a
    /// failing slot's orphan) — what the fleet event log calls `adopt`.
    pub adopted: bool,
}

/// The outcome of one [`Service::wait_lease`] call.
#[derive(Debug)]
pub enum LeaseWait {
    /// A batch to execute. Boxed: a [`Lease`] carries a full
    /// [`CampaignConfig`] and dwarfs the other variants.
    Lease(Box<Lease>),
    /// The deadline passed with no runnable batch — poll again.
    Idle,
    /// The service is shutting down — the worker loop should exit.
    Shutdown,
}

/// One in-flight campaign.
#[derive(Debug)]
struct ActiveCampaign {
    id: u64,
    /// The submitting client's identity (`u64::MAX` = anonymous) — what
    /// the per-client in-flight quota counts.
    owner: u64,
    /// The [`CampaignSpec::cache_key`]; `None` for a config admitted by
    /// [`Service::submit_config`], which is neither cached nor journaled
    /// and keeps its reduced report for [`Service::take_report`].
    key: Option<String>,
    cfg: CampaignConfig,
    /// Batches still to execute. After a journal resume this holds only
    /// the *missing* indices — `total_batches` keeps the plan size.
    batches: Vec<BatchSpec>,
    /// Batches in the full plan (progress totals, coverage check).
    total_batches: usize,
    /// Whether this campaign owns an entry in `Inner::journaled_keys`.
    journaled: bool,
    /// Next unleased index into `batches`.
    cursor: usize,
    /// Batches returned unexecuted by a failing worker — re-leased before
    /// the cursor advances, lowest index first.
    orphans: Vec<BatchSpec>,
    /// Earliest batch index with a confirmed violation (find-first).
    earliest_hit: Option<usize>,
    /// Leases handed out and not yet completed or released.
    outstanding: usize,
    executed: u64,
    fragments: Vec<Fragment>,
    cases_done: u64,
    done_batches: u64,
    cancelled: bool,
    start: Instant,
    /// Slots that rejected this campaign's config at the hello handshake,
    /// and the latest mismatch text (the dead-fleet rule's error).
    rejected: Vec<usize>,
    rejection: String,
}

impl ActiveCampaign {
    /// Whether `index` lies past the find-first cancellation floor.
    fn past_hit(&self, index: usize) -> bool {
        self.cfg.stop_on_first && self.earliest_hit.is_some_and(|hit| index > hit)
    }

    /// The next batch to lease, if any, and whether it is an adopted
    /// orphan: orphans first (lowest index — they block the coverage
    /// check), then the cursor, skipping past-hit work.
    fn next_runnable(&mut self) -> Option<(BatchSpec, bool)> {
        loop {
            let (spec, adopted) =
                if let Some(pos) = (0..self.orphans.len()).min_by_key(|&i| self.orphans[i].index) {
                    (self.orphans.swap_remove(pos), true)
                } else if self.cursor < self.batches.len() {
                    self.cursor += 1;
                    (self.batches[self.cursor - 1], false)
                } else {
                    return None;
                };
            if !self.past_hit(spec.index) {
                return Some((spec, adopted));
            }
            // Past-hit batches are dropped, not executed: the reducer
            // keeps only the prefix up to the hit anyway.
        }
    }

    fn has_runnable(&self) -> bool {
        self.orphans.iter().any(|s| !self.past_hit(s.index))
            || self.batches[self.cursor..]
                .iter()
                .any(|s| !self.past_hit(s.index))
    }

    /// Whether every lease is settled and nothing is left to lease.
    fn drained(&self) -> bool {
        self.outstanding == 0 && !self.has_runnable()
    }
}

#[derive(Default)]
struct Inner {
    next_id: u64,
    /// Round-robin pointer into `active` — the fair-share state.
    rr: usize,
    active: Vec<ActiveCampaign>,
    /// Admitted campaigns waiting for an active slot, FIFO. Bounded by
    /// [`Admission::max_queue`]; promoted whenever a campaign leaves
    /// `active`.
    queued: VecDeque<ActiveCampaign>,
    /// The configured admission limits.
    admission: Admission,
    /// Set by [`Service::drain`]: stop admitting, wind down.
    draining: bool,
    /// Terminal results awaiting [`Service::take_result`], with the
    /// reduced report of [`Service::submit_config`] campaigns.
    finished: HashMap<u64, (ResultMsg, Option<CampaignReport>)>,
    /// Completed reports keyed by [`CampaignSpec::cache_key`].
    cache: HashMap<String, ResultMsg>,
    /// Open write-ahead journals keyed by campaign id.
    journals: HashMap<u64, CampaignJournal>,
    /// Cache keys with an open journal — a second concurrent submit of the
    /// same identity runs unjournaled rather than sharing the file.
    journaled_keys: HashSet<String>,
    /// A deterministic crash point armed for the next journal opened
    /// (tests only; consumed by [`Service::submit`]).
    armed_crash: Option<CrashPlan>,
    subscribers: Vec<Sender<ServiceEvent>>,
    shutdown: bool,
    /// Slot ids handed out so far — non-zero arms the dead-fleet rule.
    next_slot: usize,
    /// Attached (live) slot ids.
    slots: Vec<usize>,
}

/// The long-lived campaign service: shared scheduler state plus the
/// optional on-disk corpus. Wrap it in an `Arc` and hand clones to worker
/// loops and client handlers.
pub struct Service {
    inner: Mutex<Inner>,
    wake: Condvar,
    corpus: Option<Corpus>,
    state: Option<StateDir>,
    executed_total: AtomicU64,
}

impl Service {
    /// A service with no corpus persistence.
    pub fn new() -> Self {
        Self::with_corpus(None)
    }

    /// A service appending validated violations to `corpus`.
    pub fn with_corpus(corpus: Option<Corpus>) -> Self {
        Self::build(corpus, None, Vec::new())
    }

    /// A crash-safe service over `state`: the persisted cache entries a
    /// [`StateDir::recover`] pass loaded are seeded into the in-memory
    /// cache (later entries supersede earlier ones), and every future
    /// campaign is journaled through `state`.
    pub fn with_persistence(corpus: Option<Corpus>, state: StateDir, recovery: Recovery) -> Self {
        Self::build(corpus, Some(state), recovery.cache)
    }

    fn build(
        corpus: Option<Corpus>,
        state: Option<StateDir>,
        cache: Vec<(String, ResultMsg)>,
    ) -> Self {
        let mut inner = Inner::default();
        for (key, result) in cache {
            inner.cache.insert(key, result);
        }
        Service {
            inner: Mutex::new(inner),
            wake: Condvar::new(),
            corpus,
            state,
            executed_total: AtomicU64::new(0),
        }
    }

    /// Arms a deterministic storage crash for the next journal
    /// [`Service::submit`] opens — the test hook behind the crash-point
    /// matrix. One-shot: consumed by that submit.
    pub fn arm_crash_plan(&self, plan: CrashPlan) {
        self.inner.lock().unwrap().armed_crash = Some(plan);
    }

    /// Total batches executed across every campaign since startup — the
    /// counter the cache-hit tests pin at "unchanged".
    pub fn executed_batches_total(&self) -> u64 {
        self.executed_total.load(Ordering::SeqCst)
    }

    /// Configures admission control. Raising limits promotes queued
    /// campaigns immediately; lowering them never evicts admitted work —
    /// the new limits apply to future submits.
    pub fn set_admission(&self, admission: Admission) {
        let mut inner = self.inner.lock().unwrap();
        inner.admission = admission;
        Self::promote(&mut inner);
        drop(inner);
        self.wake.notify_all();
    }

    /// Submits a campaign anonymously — [`Service::submit_for`] with the
    /// anonymous client identity (`u64::MAX`).
    pub fn submit(&self, spec: &CampaignSpec) -> Result<SubmitOutcome, String> {
        self.submit_for(u64::MAX, spec)
    }

    /// Submits a campaign on behalf of `client`: a cache hit replays the
    /// stored result under a fresh id; a miss passes admission control
    /// (per-client quota, active cap, bounded FIFO admit queue — see
    /// [`Admission`]) and then plans the batches and joins the fair-share
    /// rotation (or the admit queue). `Err` is reserved for malformed
    /// specs and hard shutdown; overload is the structured
    /// [`SubmitOutcome::Rejected`].
    pub fn submit_for(&self, client: u64, spec: &CampaignSpec) -> Result<SubmitOutcome, String> {
        let cfg = spec.resolve()?;
        self.admit(client, cfg, spec.batch_programs, Some(spec))
    }

    /// Submits an already-resolved config anonymously, planned at
    /// `batch_programs` — for campaigns no [`CampaignSpec`] can name (any
    /// program count, any executor knob). Such a campaign is neither
    /// cached nor journaled, and its terminal outcome is read with
    /// [`Service::take_report`].
    pub fn submit_config(
        &self,
        cfg: CampaignConfig,
        batch_programs: usize,
    ) -> Result<SubmitOutcome, String> {
        self.admit(u64::MAX, cfg, batch_programs, None)
    }

    /// The shared admit step: cache lookup and journal resume for `spec`
    /// campaigns, admission control for everyone.
    fn admit(
        &self,
        client: u64,
        cfg: CampaignConfig,
        batch_programs: usize,
        spec: Option<&CampaignSpec>,
    ) -> Result<SubmitOutcome, String> {
        let key = spec.map(CampaignSpec::cache_key);
        let batches = plan_batches(&cfg, batch_programs);
        let mut inner = self.inner.lock().unwrap();
        if inner.shutdown {
            return Err("service is shutting down".into());
        }
        let id = inner.next_id;
        inner.next_id += 1;
        if let Some(hit) = key.as_ref().and_then(|k| inner.cache.get(k)) {
            let result = ResultMsg {
                campaign: id,
                cached: true,
                executed_batches: 0,
                ..hit.clone()
            };
            return Ok(SubmitOutcome::Cached {
                campaign: id,
                result: Box::new(result),
            });
        }
        // Admission control. Cache hits are always answered (zero worker
        // cost); everything below here would execute batches, so it is
        // subject to the drain state and the configured limits. The
        // retry hint scales with the load actually ahead of the client.
        let load = inner.active.len() + inner.queued.len();
        let retry_after_ms = (100 * (1 + load as u64)).min(5_000);
        if inner.draining {
            return Ok(SubmitOutcome::Rejected {
                reason: "draining: not admitting new campaigns".into(),
                retry_after_ms: 1_000,
            });
        }
        let adm = inner.admission;
        if adm.per_client > 0 {
            let in_flight = inner.active.iter().filter(|c| c.owner == client).count()
                + inner.queued.iter().filter(|c| c.owner == client).count();
            if in_flight >= adm.per_client {
                return Ok(SubmitOutcome::Rejected {
                    reason: format!(
                        "client quota: {in_flight} campaign(s) already in flight (limit {})",
                        adm.per_client
                    ),
                    retry_after_ms,
                });
            }
        }
        let active_full = adm.max_active > 0 && inner.active.len() >= adm.max_active;
        if active_full && inner.queued.len() >= adm.max_queue {
            return Ok(SubmitOutcome::Rejected {
                reason: format!(
                    "admit queue full ({} active, {} queued)",
                    inner.active.len(),
                    inner.queued.len()
                ),
                retry_after_ms,
            });
        }
        let total = batches.len();
        let total_batches = total as u64;

        // Crash recovery: if a state dir holds this identity's journal,
        // replay its fragment prefix and lease only the missing indices. An
        // unusable journal (wrong plan, corruption) means recomputing from
        // scratch over a fresh file — never trusting bad data.
        let mut recovered_frags: Vec<Fragment> = Vec::new();
        let mut journal: Option<CampaignJournal> = None;
        if let (Some(state), Some(spec), Some(key)) = (&self.state, spec, &key) {
            if !inner.journaled_keys.contains(key) {
                let path = state.journal_path(key);
                let header = JournalHeader::for_spec(spec, total_batches);
                let replay = match load_journal(&path, key) {
                    Ok(Some(r)) if r.header.total_batches == total_batches => Some(r),
                    Ok(Some(r)) => {
                        warn_note(
                            "journal_plan_mismatch",
                            &[
                                ("key", key),
                                ("journaled", &r.header.total_batches.to_string()),
                                ("planned", &total_batches.to_string()),
                            ],
                        );
                        None
                    }
                    Ok(None) => None,
                    Err(e) => {
                        warn_note("journal_unusable", &[("key", key), ("error", e.as_str())]);
                        None
                    }
                };
                let opened = match &replay {
                    Some(r) => CampaignJournal::resume(&path, r.valid_len),
                    None => CampaignJournal::create(&path, &header),
                };
                match opened {
                    Ok(j) => journal = Some(j),
                    // Keep the replayed fragments even if the reopen failed:
                    // recovered work is valid work, it just won't extend.
                    Err(e) => warn_note(
                        "journal_open_failed",
                        &[("key", key), ("error", e.as_str())],
                    ),
                }
                if let Some(r) = replay {
                    recovered_frags = r
                        .fragments
                        .into_iter()
                        .map(FragmentReport::into_fragment)
                        .collect();
                }
            }
        }
        if let Some(j) = &mut journal {
            if let Some(plan) = inner.armed_crash.take() {
                j.arm(Some(plan));
            }
        }

        let recovered = recovered_frags.len() as u64;
        let have: HashSet<usize> = recovered_frags.iter().map(|f| f.index).collect();
        let missing: Vec<BatchSpec> = batches
            .into_iter()
            .filter(|b| !have.contains(&b.index))
            .collect();
        let earliest_hit = cfg
            .stop_on_first
            .then(|| {
                recovered_frags
                    .iter()
                    .filter(|f| !f.digests.is_empty())
                    .map(|f| f.index)
                    .min()
            })
            .flatten();
        let cases_done = recovered_frags.iter().map(|f| f.stats.cases as u64).sum();
        let journaled = journal.is_some();
        let camp = ActiveCampaign {
            id,
            owner: client,
            key: key.clone(),
            cfg,
            batches: missing,
            total_batches: total,
            journaled,
            cursor: 0,
            orphans: Vec::new(),
            earliest_hit,
            outstanding: 0,
            executed: 0,
            fragments: recovered_frags,
            cases_done,
            done_batches: recovered,
            cancelled: false,
            start: Instant::now(),
            rejected: Vec::new(),
            rejection: String::new(),
        };
        if let (Some(j), Some(key)) = (journal, key) {
            inner.journals.insert(id, j);
            inner.journaled_keys.insert(key);
        }
        if camp.drained() {
            // The journal already covers the whole plan (modulo past-hit
            // batches): no lease will ever issue, so finalize right here.
            // It consumed no admission slot, so no capacity check applies.
            drop(inner);
            self.finalize(camp, None);
        } else {
            if active_full {
                // Checked above: the queue has room. Journal resume already
                // happened, so a queued campaign loses nothing by waiting.
                inner.queued.push_back(camp);
            } else {
                inner.active.push(camp);
            }
            // A fleet that already died answers at once, not never.
            self.settle(inner);
        }
        Ok(SubmitOutcome::Accepted {
            campaign: id,
            total_batches,
            recovered,
        })
    }

    /// Moves queued campaigns into freed active slots, FIFO, until the
    /// cap is reached again. Queued campaigns are never `cancelled` in
    /// place (cancel removes them from the queue directly) and never
    /// `drained()` (a fully-journaled submit finalizes without queueing),
    /// so every promotion yields leasable work.
    fn promote(inner: &mut Inner) {
        while inner.admission.max_active == 0 || inner.active.len() < inner.admission.max_active {
            match inner.queued.pop_front() {
                Some(camp) => inner.active.push(camp),
                None => break,
            }
        }
    }

    /// Cancels a campaign. Already-leased batches may still complete (their
    /// fragments are discarded); the terminal [`ResultMsg`] has
    /// `cancelled: true` and no report, and the cache is not populated.
    /// Unknown or already-finished ids are a no-op. A queued campaign
    /// resolves immediately — it holds no leases by construction.
    pub fn cancel(&self, campaign: u64) {
        let mut inner = self.inner.lock().unwrap();
        if let Some(pos) = inner.queued.iter().position(|c| c.id == campaign) {
            let camp = inner.queued.remove(pos).expect("position came from iter");
            Self::finish_cancelled(&mut inner, camp);
            drop(inner);
            self.wake.notify_all();
            return;
        }
        let Some(pos) = inner.active.iter().position(|c| c.id == campaign) else {
            return;
        };
        inner.active[pos].cancelled = true;
        if inner.active[pos].outstanding == 0 {
            let camp = inner.active.swap_remove(pos);
            Self::finish_cancelled(&mut inner, camp);
            Self::promote(&mut inner);
        }
        drop(inner);
        self.wake.notify_all();
    }

    /// Enters the drain state: no new campaigns are admitted (submits shed
    /// with a `draining` reason), every subscriber hears
    /// [`ServiceEvent::Draining`], and — on a persistent service — lease
    /// waiters see [`LeaseWait::Shutdown`] so in-flight campaigns stop at
    /// their journaled checkpoint instead of running to completion.
    /// Returns the campaigns (active + queued) still in flight; idempotent
    /// (repeat calls neither re-announce nor change the count's meaning).
    pub fn drain(&self) -> u64 {
        let mut inner = self.inner.lock().unwrap();
        let in_flight = (inner.active.len() + inner.queued.len()) as u64;
        if !inner.draining {
            inner.draining = true;
            Self::broadcast(&mut inner, ServiceEvent::Draining { active: in_flight });
        }
        drop(inner);
        self.wake.notify_all();
        in_flight
    }

    /// Whether [`Service::drain`] has been called.
    pub fn is_draining(&self) -> bool {
        self.inner.lock().unwrap().draining
    }

    /// Whether this service journals through a [`StateDir`] — the switch
    /// between checkpoint-drain (persistent: stop leasing, the journal is
    /// the hand-off) and finish-drain (in-memory: run active campaigns to
    /// completion, results would otherwise be lost).
    pub fn persistent(&self) -> bool {
        self.state.is_some()
    }

    /// Terminal results not yet collected by [`Service::take_result`] —
    /// the overload tests pin this at zero to bound eviction memory.
    pub fn pending_results(&self) -> usize {
        self.inner.lock().unwrap().finished.len()
    }

    /// Waits up to `timeout` for a batch lease from any active campaign.
    pub fn wait_lease(&self, timeout: Duration) -> LeaseWait {
        self.wait_lease_where(timeout, |_| true)
    }

    /// Waits up to `timeout` for a lease from a campaign `eligible`
    /// accepts — the hook TCP slots use to skip campaigns their remote
    /// worker's config cannot serve.
    pub fn wait_lease_where(&self, timeout: Duration, eligible: impl Fn(u64) -> bool) -> LeaseWait {
        let deadline = Instant::now() + timeout;
        let mut inner = self.inner.lock().unwrap();
        loop {
            // Checkpoint-drain: with a journal under every campaign the
            // cheapest correct hand-off is to stop leasing — the executed
            // prefix is already on disk and a restart resumes it exactly.
            // Without persistence the fleet keeps working (finish-drain).
            if inner.shutdown || (inner.draining && self.state.is_some()) {
                return LeaseWait::Shutdown;
            }
            if let Some(lease) = Self::try_lease(&mut inner, &eligible) {
                return LeaseWait::Lease(Box::new(lease));
            }
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return LeaseWait::Idle;
            }
            let (guard, _) = self.wake.wait_timeout(inner, remaining).unwrap();
            inner = guard;
        }
    }

    /// Round-robin lease: resume one past the campaign that got the
    /// previous lease, so concurrent campaigns alternate A, B, A, B...
    fn try_lease(inner: &mut Inner, eligible: &impl Fn(u64) -> bool) -> Option<Lease> {
        let n = inner.active.len();
        for step in 0..n {
            let pos = (inner.rr + step) % n;
            let camp = &mut inner.active[pos];
            if camp.cancelled || !eligible(camp.id) {
                continue;
            }
            if let Some((spec, adopted)) = camp.next_runnable() {
                camp.outstanding += 1;
                let lease = Lease {
                    campaign: camp.id,
                    spec,
                    cfg: camp.cfg.clone(),
                    anchor: camp.start,
                    adopted,
                };
                inner.rr = (pos + 1) % n;
                return Some(lease);
            }
        }
        None
    }

    /// Returns a lease unexecuted (worker failure): the batch goes back
    /// into the campaign's orphan pool for the next taker.
    pub fn release(&self, lease: Lease) {
        let mut inner = self.inner.lock().unwrap();
        Self::orphan(&mut inner, lease);
        drop(inner);
        self.wake.notify_all();
    }

    fn orphan(inner: &mut Inner, lease: Lease) {
        if let Some(pos) = inner.active.iter().position(|c| c.id == lease.campaign) {
            let camp = &mut inner.active[pos];
            camp.outstanding -= 1;
            camp.orphans.push(lease.spec);
            if camp.cancelled && camp.outstanding == 0 {
                let camp = inner.active.swap_remove(pos);
                Self::finish_cancelled(inner, camp);
                Self::promote(inner);
            }
        }
    }

    /// Returns a lease unexecuted because `slot`'s worker rejected the
    /// campaign's config at the hello handshake (`reason` is the mismatch
    /// text). The slot must not lease this campaign again; once every
    /// attached slot has rejected it, the campaign fails with `reason`.
    pub fn reject(&self, lease: Lease, slot: usize, reason: String) {
        let mut inner = self.inner.lock().unwrap();
        if let Some(camp) = inner.active.iter_mut().find(|c| c.id == lease.campaign) {
            if !camp.rejected.contains(&slot) {
                camp.rejected.push(slot);
            }
            camp.rejection = reason;
        }
        Self::orphan(&mut inner, lease);
        self.settle(inner);
    }

    /// Registers a worker slot and returns its id (dense from 0 on a fresh
    /// service). The first attach arms the dead-fleet rule.
    pub fn attach_slot(&self) -> usize {
        let mut inner = self.inner.lock().unwrap();
        let slot = inner.next_slot;
        inner.next_slot += 1;
        inner.slots.push(slot);
        slot
    }

    /// Unregisters a slot that will lease no more (quarantine, shutdown).
    /// When it was the last one, every campaign with runnable work fails.
    pub fn detach_slot(&self, slot: usize) {
        let mut inner = self.inner.lock().unwrap();
        inner.slots.retain(|&s| s != slot);
        self.settle(inner);
    }

    /// Releases the lock after a fleet change: applies the dead-fleet rule
    /// (see the [module docs](self)), wakes waiters, and finalizes every
    /// campaign the rule failed.
    fn settle(&self, mut inner: MutexGuard<'_, Inner>) {
        let mut doomed = Vec::new();
        if !inner.shutdown && !inner.draining && inner.next_slot > 0 {
            let no_slots = inner.slots.is_empty();
            if no_slots {
                doomed.extend(inner.queued.drain(..).map(|c| (c, None)));
            }
            let mut i = 0;
            while i < inner.active.len() {
                let camp = &inner.active[i];
                let stuck = !camp.cancelled && camp.has_runnable();
                if stuck && (no_slots || inner.slots.iter().all(|s| camp.rejected.contains(s))) {
                    let camp = inner.active.swap_remove(i);
                    let rejection = (!no_slots).then(|| camp.rejection.clone());
                    doomed.push((camp, rejection));
                } else {
                    i += 1;
                }
            }
            Self::promote(&mut inner);
        }
        drop(inner);
        self.wake.notify_all();
        for (camp, rejection) in doomed {
            let error = rejection.unwrap_or_else(|| {
                format!(
                    "campaign incomplete: every worker slot detached with {} of {} batch(es) \
                     unfinished (see the fleet event log)",
                    camp.total_batches as u64 - camp.done_batches,
                    camp.total_batches
                )
            });
            self.finalize(camp, Some(error));
        }
    }

    /// Completes a lease with its executed fragment. Drives the campaign's
    /// progress stream and, on the final fragment, the reduction, the cache
    /// fill and the corpus append.
    pub fn complete(&self, lease: Lease, fragment: Fragment) {
        self.executed_total.fetch_add(1, Ordering::SeqCst);
        let mut inner = self.inner.lock().unwrap();
        let Some(pos) = inner.active.iter().position(|c| c.id == lease.campaign) else {
            // Campaign already torn down (cancelled and drained while this
            // batch ran) — the fragment is surplus, drop it.
            return;
        };
        // Write-ahead: the fragment reaches disk before the in-memory state
        // learns about it, so a crash after this point loses nothing. An
        // append failure (full disk, injected crash) downgrades the campaign
        // to unjournaled — the run continues, resume just won't see this
        // suffix.
        if let Some(journal) = inner.journals.get_mut(&lease.campaign) {
            if let Err(e) = journal.append(&FragmentReport::from_fragment(&fragment)) {
                warn_note(
                    "journal_append_failed",
                    &[
                        ("campaign", &lease.campaign.to_string()),
                        ("error", e.as_str()),
                    ],
                );
                inner.journals.remove(&lease.campaign);
            }
        }
        let camp = &mut inner.active[pos];
        camp.outstanding -= 1;
        camp.executed += 1;
        if camp.cancelled {
            if camp.outstanding == 0 {
                let camp = inner.active.swap_remove(pos);
                Self::finish_cancelled(&mut inner, camp);
                Self::promote(&mut inner);
            }
            drop(inner);
            self.wake.notify_all();
            return;
        }
        if camp.cfg.stop_on_first && !fragment.digests.is_empty() {
            camp.earliest_hit = Some(
                camp.earliest_hit
                    .map_or(fragment.index, |hit| hit.min(fragment.index)),
            );
        }
        camp.done_batches += 1;
        camp.cases_done += fragment.stats.cases as u64;
        let event = ServiceEvent::Progress {
            campaign: camp.id,
            done: camp.done_batches,
            total: camp.total_batches as u64,
            cases: camp.cases_done,
        };
        camp.fragments.push(fragment);
        let finished = camp.drained().then(|| inner.active.swap_remove(pos));
        if finished.is_some() {
            Self::promote(&mut inner);
        }
        Self::broadcast(&mut inner, event);
        drop(inner);
        self.wake.notify_all();
        if let Some(camp) = finished {
            self.finalize(camp, None);
        }
    }

    /// Reduces a drained campaign to its terminal result — or fails it
    /// with `failure` — fills the cache (writing through to the state dir,
    /// then retiring the journal), appends to the corpus, and announces
    /// [`ServiceEvent::Finished`].
    fn finalize(&self, camp: ActiveCampaign, failure: Option<String>) {
        let hit = camp
            .cfg
            .stop_on_first
            .then_some(camp.earliest_hit)
            .flatten();
        let reduced = match failure {
            Some(e) => Err(e),
            None => verify_fragment_coverage(&camp.cfg, &camp.fragments, hit, camp.total_batches)
                .map(|()| reduce_fragments(camp.cfg, camp.fragments, hit, camp.start.elapsed()))
                .map_err(|e| format!("campaign incomplete: {e}")),
        };
        if let (Ok(report), Some(corpus)) = (&reduced, &self.corpus) {
            // Best-effort: a full disk must not fail the campaign, but the
            // operator should hear about it.
            if let Err(e) = corpus.append(&records_from_report(report)) {
                eprintln!("corpus append failed: {e}");
            }
        }
        let result = ResultMsg {
            campaign: camp.id,
            cached: false,
            cancelled: false,
            executed_batches: camp.executed,
            report: reduced.as_ref().ok().map(ReportWire::from_report),
            error: reduced.as_ref().err().cloned(),
        };
        let mut inner = self.inner.lock().unwrap();
        // Close the journal handle before any unlink.
        drop(inner.journals.remove(&camp.id));
        if let (true, Some(key)) = (camp.journaled, &camp.key) {
            inner.journaled_keys.remove(key);
        }
        let mut kept = None;
        match (camp.key, reduced) {
            (Some(key), Ok(_)) => {
                if let Some(state) = &self.state {
                    // Write-through THEN delete: a crash between the two
                    // leaves both files, and the startup pass clears the
                    // stale journal against the cache. A failed write-through
                    // keeps the journal, so a restart resumes with zero
                    // re-execution.
                    match state.append_cache(&key, &result) {
                        Ok(()) if camp.journaled => {
                            let _ = std::fs::remove_file(state.journal_path(&key));
                        }
                        Ok(()) => {}
                        Err(e) => warn_note(
                            "cache_write_failed",
                            &[("key", key.as_str()), ("error", e.as_str())],
                        ),
                    }
                }
                inner.cache.insert(key, result.clone());
            }
            (None, reduced) => kept = reduced.ok(),
            (Some(_), Err(_)) => {}
        }
        inner.finished.insert(camp.id, (result, kept));
        Self::broadcast(&mut inner, ServiceEvent::Finished { campaign: camp.id });
        drop(inner);
        self.wake.notify_all();
    }

    fn finish_cancelled(inner: &mut Inner, camp: ActiveCampaign) {
        // The journal handle closes here, but the FILE stays: a cancelled
        // campaign's executed prefix is valid work a resubmit can resume.
        drop(inner.journals.remove(&camp.id));
        if let (true, Some(key)) = (camp.journaled, &camp.key) {
            inner.journaled_keys.remove(key);
        }
        let result = ResultMsg {
            campaign: camp.id,
            cached: false,
            cancelled: true,
            executed_batches: camp.executed,
            report: None,
            error: None,
        };
        inner.finished.insert(camp.id, (result, None));
        Self::broadcast(inner, ServiceEvent::Finished { campaign: camp.id });
    }

    fn broadcast(inner: &mut Inner, event: ServiceEvent) {
        inner
            .subscribers
            .retain(|tx| tx.send(event.clone()).is_ok());
    }

    /// Subscribes to every future [`ServiceEvent`]. A dropped receiver is
    /// pruned on the next broadcast.
    pub fn subscribe(&self) -> Receiver<ServiceEvent> {
        let (tx, rx) = std::sync::mpsc::channel();
        self.inner.lock().unwrap().subscribers.push(tx);
        rx
    }

    /// Removes and returns a finished campaign's terminal result.
    pub fn take_result(&self, campaign: u64) -> Option<ResultMsg> {
        let (result, _) = self.inner.lock().unwrap().finished.remove(&campaign)?;
        Some(result)
    }

    /// Removes a finished [`Service::submit_config`] campaign's terminal
    /// outcome: the reduced report itself (detection times included, which
    /// the wire's [`ReportWire`] drops), or the campaign's error.
    pub fn take_report(&self, campaign: u64) -> Option<Result<CampaignReport, String>> {
        let (result, report) = self.inner.lock().unwrap().finished.remove(&campaign)?;
        Some(report.ok_or_else(|| {
            result
                .error
                .unwrap_or_else(|| format!("campaign {campaign} ended without a report"))
        }))
    }

    /// Whether `campaign` is still in flight (active or queued) — worker
    /// loops use this to garbage-collect per-campaign runtimes.
    pub fn is_active(&self, campaign: u64) -> bool {
        let inner = self.inner.lock().unwrap();
        inner.active.iter().any(|c| c.id == campaign)
            || inner.queued.iter().any(|c| c.id == campaign)
    }

    /// Begins shutdown: no new submits; every [`Service::wait_lease`]
    /// returns [`LeaseWait::Shutdown`] so worker loops drain.
    pub fn shutdown(&self) {
        self.inner.lock().unwrap().shutdown = true;
        self.wake.notify_all();
    }
}

impl Default for Service {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn quick_spec(seed: u64) -> CampaignSpec {
        CampaignSpec {
            defense: "Baseline".into(),
            contract: "CT-SEQ".into(),
            source: "PHT".into(),
            seed,
            scale: None,
            find_first: false,
            batch_programs: 3,
            cycle_skip: true,
        }
    }

    /// With no workers attached, leases are observable one at a time — the
    /// round-robin must alternate strictly between two active campaigns.
    #[test]
    fn fair_share_alternates_between_active_campaigns() {
        let service = Service::new();
        let SubmitOutcome::Accepted { campaign: a, .. } = service.submit(&quick_spec(1)).unwrap()
        else {
            panic!("fresh submit must not hit the cache")
        };
        let SubmitOutcome::Accepted { campaign: b, .. } = service.submit(&quick_spec(2)).unwrap()
        else {
            panic!("fresh submit must not hit the cache")
        };
        let mut owners = Vec::new();
        for _ in 0..6 {
            match service.wait_lease(Duration::from_millis(10)) {
                LeaseWait::Lease(lease) => owners.push(lease.campaign),
                other => panic!("expected a lease, got {other:?}"),
            }
        }
        assert_eq!(owners, vec![a, b, a, b, a, b], "round-robin broke");
    }

    /// Cancelling a campaign that never got a worker resolves immediately
    /// with a cancelled result, and a resubmit is accepted (not cached).
    #[test]
    fn cancel_without_workers_resolves_and_does_not_cache() {
        let service = Service::new();
        let SubmitOutcome::Accepted { campaign, .. } = service.submit(&quick_spec(7)).unwrap()
        else {
            panic!("fresh submit must not hit the cache")
        };
        service.cancel(campaign);
        let result = service.take_result(campaign).expect("cancel is terminal");
        assert!(result.cancelled);
        assert_eq!(result.executed_batches, 0);
        assert!(result.report.is_none());
        assert!(matches!(
            service.submit(&quick_spec(7)).unwrap(),
            SubmitOutcome::Accepted { .. }
        ));
    }

    /// Bad specs are client errors; shutdown refuses new work and turns
    /// lease waits into [`LeaseWait::Shutdown`].
    #[test]
    fn bad_specs_error_and_shutdown_drains_waiters() {
        let service = Service::new();
        let err = service
            .submit(&CampaignSpec {
                defense: "Nope".into(),
                ..quick_spec(1)
            })
            .unwrap_err();
        assert!(err.contains("unknown defense"), "{err}");
        service.shutdown();
        assert!(service.submit(&quick_spec(1)).is_err());
        assert!(matches!(
            service.wait_lease(Duration::from_secs(5)),
            LeaseWait::Shutdown
        ));
    }

    /// With `max_active: 1` the second submit queues (admitted, no lease)
    /// and the third sheds with an actionable hint; freeing the active
    /// slot promotes the queue head FIFO.
    #[test]
    fn admission_caps_queue_fifo_and_shed_overflow() {
        let service = Service::new();
        service.set_admission(Admission {
            max_active: 1,
            max_queue: 1,
            per_client: 0,
        });
        let SubmitOutcome::Accepted { campaign: a, .. } = service.submit(&quick_spec(10)).unwrap()
        else {
            panic!("first submit must activate")
        };
        let SubmitOutcome::Accepted { campaign: b, .. } = service.submit(&quick_spec(11)).unwrap()
        else {
            panic!("second submit must queue")
        };
        assert!(service.is_active(b), "queued campaigns are in flight");
        let SubmitOutcome::Rejected {
            reason,
            retry_after_ms,
        } = service.submit(&quick_spec(12)).unwrap()
        else {
            panic!("third submit must shed")
        };
        assert!(reason.contains("queue full"), "{reason}");
        assert!(retry_after_ms > 0, "hint must be actionable");
        // Only the active campaign leases while b waits in the queue.
        let mut held = Vec::new();
        for _ in 0..3 {
            let LeaseWait::Lease(lease) = service.wait_lease(Duration::from_millis(10)) else {
                panic!("expected a lease")
            };
            assert_eq!(lease.campaign, a, "queued campaign must not lease");
            held.push(lease);
        }
        // A cancelled campaign holds its slot until its leases settle.
        service.cancel(a);
        for lease in held {
            service.release(*lease);
        }
        let LeaseWait::Lease(lease) = service.wait_lease(Duration::from_millis(10)) else {
            panic!("expected a lease after promotion")
        };
        assert_eq!(lease.campaign, b, "queue head must promote FIFO");
    }

    /// The per-client quota counts active + queued per identity and never
    /// penalizes other clients; cancelling a queued campaign resolves it
    /// immediately and frees the quota.
    #[test]
    fn per_client_quota_is_per_identity() {
        let service = Service::new();
        service.set_admission(Admission {
            max_active: 0,
            max_queue: 0,
            per_client: 1,
        });
        let SubmitOutcome::Accepted { campaign, .. } =
            service.submit_for(7, &quick_spec(20)).unwrap()
        else {
            panic!("first submit must activate")
        };
        let SubmitOutcome::Rejected { reason, .. } =
            service.submit_for(7, &quick_spec(21)).unwrap()
        else {
            panic!("over-quota submit must shed")
        };
        assert!(reason.contains("quota"), "{reason}");
        assert!(matches!(
            service.submit_for(8, &quick_spec(21)).unwrap(),
            SubmitOutcome::Accepted { .. }
        ));
        service.cancel(campaign);
        let result = service.take_result(campaign).expect("cancel is terminal");
        assert!(result.cancelled);
        assert!(matches!(
            service.submit_for(7, &quick_spec(22)).unwrap(),
            SubmitOutcome::Accepted { .. }
        ));
    }

    /// Drain announces once, sheds new submits with a `draining` reason,
    /// and — without persistence — keeps leasing so active campaigns can
    /// finish (finish-drain). Cache hits still answer during drain.
    #[test]
    fn drain_sheds_submits_but_finish_drain_keeps_leasing() {
        let service = Service::new();
        let events = service.subscribe();
        let SubmitOutcome::Accepted { campaign, .. } = service.submit(&quick_spec(30)).unwrap()
        else {
            panic!("fresh submit must not hit the cache")
        };
        assert_eq!(service.drain(), 1);
        assert!(service.is_draining());
        assert_eq!(service.drain(), 1, "drain is idempotent");
        assert_eq!(
            events.recv_timeout(Duration::from_secs(5)).unwrap(),
            ServiceEvent::Draining { active: 1 },
            "drain must announce to subscribers"
        );
        let SubmitOutcome::Rejected {
            reason,
            retry_after_ms,
        } = service.submit(&quick_spec(31)).unwrap()
        else {
            panic!("submit during drain must shed")
        };
        assert!(reason.contains("draining"), "{reason}");
        assert!(retry_after_ms > 0);
        let LeaseWait::Lease(lease) = service.wait_lease(Duration::from_millis(10)) else {
            panic!("finish-drain must keep leasing active work")
        };
        assert_eq!(lease.campaign, campaign);
        assert!(!service.persistent());
    }

    /// A released lease goes back to the same campaign and is re-leased
    /// before the cursor advances past it.
    #[test]
    fn released_leases_are_reissued_first() {
        let service = Service::new();
        let SubmitOutcome::Accepted { campaign, .. } = service.submit(&quick_spec(3)).unwrap()
        else {
            panic!("fresh submit must not hit the cache")
        };
        let LeaseWait::Lease(first) = service.wait_lease(Duration::from_millis(10)) else {
            panic!("expected a lease")
        };
        let first_index = first.spec.index;
        service.release(*first);
        let LeaseWait::Lease(again) = service.wait_lease(Duration::from_millis(10)) else {
            panic!("expected a lease")
        };
        assert_eq!(again.campaign, campaign);
        assert_eq!(
            again.spec.index, first_index,
            "orphan must be re-leased first"
        );
    }
}
