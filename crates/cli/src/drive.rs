//! `amulet drive` — the driver end of the multi-process campaign fabric,
//! and the one slot ladder every link-based worker runs.
//!
//! `drive --procs N` runs one campaign sharded over `N` spawned
//! `amulet worker` processes instead of in-process threads, and
//! `drive --connect host:port,...` runs the same campaign over TCP links to
//! remote `amulet worker --listen` processes. The driver is a [`Service`]
//! holding one campaign: its slots lease batches from the service exactly
//! as `amulet serve`'s slots do, and the service reduces the fragments
//! with the in-process pool's reducer — only the transport differs:
//! assignments and results travel as `amulet_core::proto` JSON lines over
//! pipes or sockets. Consequently `drive --procs 1`, `drive --procs 4`,
//! `drive --connect ...` and the in-process `campaign` run (same `--batch`)
//! produce the same [`CampaignReport::fingerprint`] — asserted by
//! `tests/multiproc_determinism.rs`, `tests/fleet_faults.rs` and CI.
//!
//! A slot (`run_slot`) is one thread leasing batches over a
//! [`WorkerLink`] from a per-slot `connect` factory: OS-process links
//! ([`ProcLink`]) and TCP links (`crate::net::TcpLink`) are two
//! implementations, and tests drive the whole fabric through in-memory
//! channels with fault injection (`crate::fault`). `amulet serve`'s
//! `--connect` slots run the same function with [`DriveConfig::default`].
//!
//! # Robustness model
//!
//! Cross-host links fail in ways pipes never did, so every slot runs one
//! failure ladder that keeps the campaign's result bit-identical:
//!
//! - **Heartbeats** — before each batch the slot sends [`Msg::Ping`] and
//!   waits [`DriveConfig::liveness`] for the matching pong, catching a
//!   wedged-but-connected peer cheaply instead of committing a batch to it.
//! - **Per-batch deadline** — a fragment must arrive within
//!   [`DriveConfig::batch_timeout`]; a hung worker consumes the batch's
//!   retry budget exactly like a crashed one.
//! - **Teardown before retry** — any failure kills the link; a batch is
//!   only ever re-sent on a *fresh* session, so a zombie's late fragment
//!   can never be read (at most one accepted fragment per batch index).
//! - **Seeded backoff** — reconnect attempts are spaced by exponential
//!   backoff with deterministic jitter (seeded from
//!   [`DriveConfig::seed`] and the slot id); wall-clock only, never part
//!   of the fingerprint.
//! - **Per-batch retries** — a batch is retried [`DriveConfig::retries`]
//!   times before the slot gives it back to the service as an orphan,
//!   which the next lease of any slot adopts.
//! - **Quarantine** — a slot whose batches keep exhausting their retry
//!   budget ([`DriveConfig::quarantine_after`] consecutive times) detaches
//!   and stops being offered work.
//! - **Graceful degradation** — the campaign completes (same fingerprint)
//!   as long as one slot survives. When the last slot detaches with work
//!   left, or every slot's worker rejected the config at the hello
//!   handshake, the service fails the campaign (its dead-fleet rule).
//!
//! Slots never send `cancel`: the service never leases a batch past the
//! find-first hit (workers still honour it for external drivers). See
//! `docs/DISTRIBUTED.md` for the operator-level picture.

use crate::{print_report, report_json, Args, JsonSink, ShapeOptions};
use amulet_core::proto::{FragmentReport, Msg, PROTO_VERSION};
use amulet_core::{
    BatchSpec, CampaignConfig, CampaignReport, LeaseWait, Service, ServiceEvent, SubmitOutcome,
};
use amulet_util::{JsonObj, Xoshiro256};
use std::collections::HashSet;
use std::io::{BufRead, BufReader, Write};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::mpsc::{Receiver, RecvTimeoutError};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

/// How long an idle slot waits for a lease before housekeeping (closing
/// sessions of finished campaigns, shutdown checks).
pub(crate) const LEASE_POLL: Duration = Duration::from_millis(250);

/// A bidirectional, line-delimited message channel to one worker.
///
/// Implementations must deliver messages in order and flush eagerly; an
/// `Err` from either direction marks the link dead (the slot tears it
/// down, reconnects, and re-runs the in-flight batch on the fresh session).
pub trait WorkerLink {
    /// Sends one message.
    fn send(&mut self, msg: &Msg) -> Result<(), String>;

    /// Waits up to `timeout` for the next message. `Ok(None)` means the
    /// deadline passed with the link still (apparently) alive; partial
    /// data already received must be retained for the next call.
    fn recv_timeout(&mut self, timeout: Duration) -> Result<Option<Msg>, String>;

    /// Receives the next message, waiting effectively forever (one year —
    /// large enough to mean "no deadline", small enough that deadline
    /// arithmetic on `Instant` cannot overflow).
    fn recv(&mut self) -> Result<Msg, String> {
        match self.recv_timeout(Duration::from_secs(365 * 24 * 3600))? {
            Some(msg) => Ok(msg),
            None => Err("link timed out".into()),
        }
    }
}

/// Slot-ladder knobs: `drive`'s command line, and the defaults `serve`'s
/// `--connect` slots run with.
#[derive(Debug, Clone, Copy)]
pub struct DriveConfig {
    /// Worker links (slots) to drive concurrently.
    pub procs: usize,
    /// Programs per batch — part of the deterministic stream identity,
    /// exactly as for the in-process pool.
    pub batch_programs: usize,
    /// Reconnect-and-retry attempts per batch before the batch is
    /// orphaned (returned to the service for another slot).
    pub retries: usize,
    /// Deadline for the hello handshake and for each ping → pong
    /// heartbeat; a peer that cannot answer within this window is treated
    /// as dead.
    pub liveness: Duration,
    /// Deadline for a batch assignment to produce its fragment. Workers
    /// are single-threaded and cannot answer pings mid-batch, so this is
    /// deliberately much longer than `liveness`.
    pub batch_timeout: Duration,
    /// First reconnect delay; doubles per consecutive failed attempt.
    pub backoff_base: Duration,
    /// Upper bound on the reconnect delay.
    pub backoff_max: Duration,
    /// Consecutive retry-budget exhaustions before a slot is quarantined
    /// (detached from the fleet).
    pub quarantine_after: usize,
    /// Seed for the backoff jitter (wall-clock only — never observable in
    /// the campaign fingerprint).
    pub seed: u64,
}

impl Default for DriveConfig {
    fn default() -> Self {
        DriveConfig {
            procs: 2,
            batch_programs: amulet_core::ShardConfig::default().batch_programs,
            retries: 2,
            liveness: Duration::from_secs(10),
            batch_timeout: Duration::from_secs(120),
            backoff_base: Duration::from_millis(50),
            backoff_max: Duration::from_secs(2),
            quarantine_after: 3,
            seed: 2025,
        }
    }
}

/// The one structured JSONL event writer: `drive --events FILE` (the
/// fleet flight recorder CI uploads) and the `serve` daemon's stderr.
/// Every row is `event`, a dense monotonic `seq`, `t_s` (seconds since the
/// log opened), then the event's own fields — so consumers can detect
/// truncation and order rows even when `t_s` values collide.
pub(crate) struct EventLog {
    // The counter lives under the same lock as the writer so seq order
    // and output order can never disagree across racing threads.
    out: Option<Mutex<(u64, Box<dyn Write + Send>)>>,
    start: Instant,
}

impl EventLog {
    /// A log writing to `out`, or a no-op log.
    pub(crate) fn new(out: Option<Box<dyn Write + Send>>) -> Self {
        EventLog {
            out: out.map(|w| Mutex::new((0, w))),
            start: Instant::now(),
        }
    }

    /// The process's stderr log — one `seq` across every session and slot
    /// thread of a `serve` daemon.
    pub(crate) fn stderr() -> &'static EventLog {
        static LOG: OnceLock<EventLog> = OnceLock::new();
        LOG.get_or_init(|| EventLog::new(Some(Box::new(std::io::stderr()))))
    }

    /// Writes one row (best-effort: logging never takes a campaign down).
    pub(crate) fn emit(&self, event: &str, fields: impl FnOnce(JsonObj) -> JsonObj) {
        let Some(out) = &self.out else { return };
        let mut guard = out.lock().unwrap();
        let (seq, w) = &mut *guard;
        let mut line = fields(
            JsonObj::new()
                .str("event", event)
                .int("seq", *seq)
                .num("t_s", self.start.elapsed().as_secs_f64()),
        )
        .finish();
        line.push('\n');
        *seq += 1;
        // One write per row, so rows never interleave with other stderr
        // writers mid-line.
        let _ = w.write_all(line.as_bytes());
        let _ = w.flush();
    }
}

/// How a batch attempt (or handshake) failed.
enum SlotError {
    /// Version/config mismatch: a deployment bug no retry can fix — the
    /// slot rejects the campaign.
    Fatal(String),
    /// Transport-level failure (EOF, timeout, truncation, refused
    /// connection): retry/backoff/quarantine territory.
    Transient(String),
}

/// A fragment tee: the live writer, or the write error that ended it (and
/// failed the campaign).
type Tee = Mutex<Result<Box<dyn Write + Send>, String>>;

/// Drives one campaign over `drive.procs` worker links and returns the
/// deterministically reduced report.
///
/// The driver is a [`Service`] holding this one campaign
/// ([`Service::submit_config`]); `drive.procs` slot-ladder threads lease
/// from it, and the service reduces, after checking that exactly one
/// fragment arrived per planned batch (or per batch in the find-first
/// prefix), however chaotic the failure schedule was.
///
/// `connect` is called with the slot index — once when the slot first
/// leases, plus once per reconnect after a link failure — so a TCP fleet
/// can map slots to addresses and tests can inject per-connection faults.
/// Each fresh link must open with a `hello` whose version and config echo
/// match `cfg` ([`PROTO_VERSION`]) within [`DriveConfig::liveness`]; a
/// hello *mismatch* is a configuration error no retry can fix, while every
/// transport-shaped handshake failure is transient and consumes retry
/// budget. `tee`, when given, receives every accepted fragment as one
/// JSONL line; `events`, when given, receives the fleet event log (JSONL:
/// `connect`, `link_failure`, `backoff`, `orphan`, `adopt`, `reject`,
/// `quarantine`, `drained` events with slot numbers and timestamps).
pub fn run_driver<L, C>(
    cfg: &CampaignConfig,
    drive: &DriveConfig,
    connect: C,
    tee: Option<Box<dyn Write + Send>>,
    events: Option<Box<dyn Write + Send>>,
) -> Result<CampaignReport, String>
where
    L: WorkerLink,
    C: Fn(usize) -> Result<L, String> + Sync,
{
    let service = Service::new();
    let events = EventLog::new(events);
    let tee: Option<Tee> = tee.map(|t| Mutex::new(Ok(t)));
    let slots: Vec<usize> = (0..drive.procs.max(1))
        .map(|_| service.attach_slot())
        .collect();
    let finished = service.subscribe();
    let campaign = match service.submit_config(cfg.clone(), drive.batch_programs)? {
        SubmitOutcome::Accepted { campaign, .. } => campaign,
        other => {
            return Err(format!(
                "the driver's service refused the campaign: {other:?}"
            ))
        }
    };
    std::thread::scope(|scope| {
        for slot in slots {
            let (service, connect, tee, events) = (&service, &connect, tee.as_ref(), &events);
            scope.spawn(move || run_slot(service, slot, drive, connect, tee, events));
        }
        // The campaign ends exactly once: reduced, or failed by the
        // service's dead-fleet rule.
        while let Ok(event) = finished.recv() {
            if event == (ServiceEvent::Finished { campaign }) {
                break;
            }
        }
        service.shutdown();
    });
    if let Some(Err(e)) = tee.map(|t| t.into_inner().unwrap()) {
        return Err(e);
    }
    service
        .take_report(campaign)
        .expect("a finished campaign holds its outcome")
}

/// One slot: lease a batch from `service`, run it through the ladder (see
/// the [module docs](self)), and complete it, orphan it, or reject its
/// campaign. A worker serves one config, so a lease from a different
/// campaign than the live session's opens a fresh session. Exits on
/// service shutdown (or drain checkpoint) and on quarantine, detaching
/// the slot either way.
pub(crate) fn run_slot<L: WorkerLink>(
    service: &Service,
    slot: usize,
    drive: &DriveConfig,
    connect: &impl Fn(usize) -> Result<L, String>,
    tee: Option<&Tee>,
    events: &EventLog,
) {
    let id = slot as u64;
    let mut rng = Xoshiro256::seed_from_u64(drive.seed ^ id.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    // The live session and the campaign it was opened for.
    let mut session: Option<(u64, L)> = None;
    // Campaigns whose config this slot's worker rejected.
    let mut rejected: HashSet<u64> = HashSet::new();
    // Consecutive batches that exhausted their retry budget on this slot.
    let mut strikes = 0usize;
    // Heartbeat tokens, unique per slot so a cross-wired reply is caught.
    let mut token = id << 32;
    // Best-effort: a worker that misses the shutdown exits on EOF or its
    // idle timeout.
    let close = |session: &mut Option<(u64, L)>| {
        if let Some((_, mut live)) = session.take() {
            let _ = live.send(&Msg::Shutdown);
        }
    };

    loop {
        let lease = match service.wait_lease_where(LEASE_POLL, |c| !rejected.contains(&c)) {
            LeaseWait::Shutdown => break,
            LeaseWait::Idle => {
                rejected.retain(|&c| service.is_active(c));
                if session
                    .as_ref()
                    .is_some_and(|(c, _)| !service.is_active(*c))
                {
                    close(&mut session);
                }
                continue;
            }
            LeaseWait::Lease(lease) => lease,
        };
        let batch = lease.spec.index as u64;
        if lease.adopted {
            events.emit("adopt", |o| o.int("slot", id).int("batch", batch));
        }
        if session.as_ref().is_some_and(|(c, _)| *c != lease.campaign) {
            close(&mut session);
        }

        // ---- the retry/backoff ladder for this batch ---------------------
        let mut attempts = 0usize;
        let outcome = loop {
            token += 1;
            let attempt = match session.as_mut() {
                Some((_, live)) => {
                    call_worker(live, &lease.spec, drive, token).map_err(SlotError::Transient)
                }
                None => {
                    connect_checked(&lease.cfg, slot, connect, drive.liveness).and_then(|fresh| {
                        events.emit("connect", |o| o.int("slot", id));
                        let (_, live) = session.insert((lease.campaign, fresh));
                        call_worker(live, &lease.spec, drive, token).map_err(SlotError::Transient)
                    })
                }
            };
            match attempt {
                Ok(reply) => break Ok(reply),
                Err(SlotError::Fatal(e)) => break Err(SlotError::Fatal(e)),
                Err(SlotError::Transient(e)) => {
                    // Tear the link down before any retry: a batch is only
                    // ever re-sent on a fresh session, so a zombie's late
                    // fragment can never be read.
                    session = None;
                    events.emit("link_failure", |o| {
                        o.int("slot", id)
                            .int("batch", batch)
                            .int("attempt", attempts as u64)
                            .str("error", &e)
                    });
                    if attempts >= drive.retries {
                        break Err(SlotError::Transient(e));
                    }
                    attempts += 1;
                    let delay = backoff_delay(&mut rng, drive, attempts);
                    events.emit("backoff", |o| {
                        o.int("slot", id).num("delay_s", delay.as_secs_f64())
                    });
                    std::thread::sleep(delay);
                }
            }
        };

        // ---- hand the outcome back to the service ------------------------
        match outcome {
            Ok(reply) => {
                strikes = 0;
                if let Some(tee) = tee {
                    let mut tee = tee.lock().unwrap();
                    if let Ok(out) = tee.as_mut() {
                        if let Err(e) = writeln!(out, "{}", Msg::Fragment(reply.clone()).to_line())
                        {
                            *tee = Err(format!("fragment tee write failed: {e}"));
                            service.cancel(lease.campaign);
                        }
                    }
                }
                service.complete(*lease, reply.into_fragment());
            }
            Err(SlotError::Fatal(e)) => {
                events.emit("reject", |o| {
                    o.int("slot", id)
                        .int("campaign", lease.campaign)
                        .str("error", &e)
                });
                rejected.insert(lease.campaign);
                service.reject(*lease, slot, e);
            }
            Err(SlotError::Transient(e)) => {
                strikes += 1;
                events.emit("orphan", |o| {
                    o.int("slot", id).int("batch", batch).str("error", &e)
                });
                service.release(*lease);
                if strikes >= drive.quarantine_after {
                    events.emit("quarantine", |o| {
                        o.int("slot", id).int("strikes", strikes as u64)
                    });
                    service.detach_slot(slot);
                    return;
                }
            }
        }
    }

    close(&mut session);
    events.emit("drained", |o| o.int("slot", id));
    service.detach_slot(slot);
}

/// Connects a link and consumes its `hello` handshake under a deadline.
/// Only a hello that *arrives but mismatches* is fatal; everything else
/// about a bad handshake looks like a transport failure and stays
/// transient.
fn connect_checked<L: WorkerLink>(
    cfg: &CampaignConfig,
    slot: usize,
    connect: &impl Fn(usize) -> Result<L, String>,
    liveness: Duration,
) -> Result<L, SlotError> {
    let mut link = connect(slot).map_err(SlotError::Transient)?;
    match link.recv_timeout(liveness) {
        Ok(Some(Msg::Hello(hello))) => hello.check(cfg).map_err(SlotError::Fatal)?,
        Ok(Some(other)) => {
            return Err(SlotError::Transient(format!(
                "expected hello, got {:?}",
                other.tag()
            )))
        }
        Ok(None) => {
            return Err(SlotError::Transient(format!(
                "handshake timed out after {liveness:?}"
            )))
        }
        Err(e) => return Err(SlotError::Transient(e)),
    }
    Ok(link)
}

/// One batch over a live link: heartbeat probe, assign the batch, await
/// its fragment under the batch deadline. A skipped fragment is an error —
/// slots never send cancel floors, so a skip means a confused peer.
fn call_worker<L: WorkerLink>(
    link: &mut L,
    spec: &BatchSpec,
    drive: &DriveConfig,
    token: u64,
) -> Result<FragmentReport, String> {
    // The probe catches a wedged-but-connected peer within `liveness`
    // instead of committing a batch and waiting out the much longer batch
    // deadline. Workers answer pings between batches only — they are
    // single-threaded by design (one persistent runtime per session).
    link.send(&Msg::Ping { token })?;
    match link.recv_timeout(drive.liveness)? {
        Some(Msg::Pong { token: t }) if t == token => {}
        Some(Msg::Pong { token: t }) => {
            return Err(format!("pong token mismatch: sent {token:#x}, got {t:#x}"))
        }
        Some(other) => return Err(format!("expected pong, got {:?}", other.tag())),
        None => return Err(format!("heartbeat timed out after {:?}", drive.liveness)),
    }
    link.send(&Msg::Batch(*spec))?;
    match link.recv_timeout(drive.batch_timeout)? {
        Some(Msg::Fragment(reply)) if reply.index == spec.index && !reply.skipped => Ok(reply),
        Some(Msg::Fragment(reply)) => Err(format!(
            "unusable fragment for batch {} (index {}, skipped {})",
            spec.index, reply.index, reply.skipped
        )),
        Some(other) => Err(format!("expected fragment, got {:?}", other.tag())),
        None => Err(format!(
            "batch {} timed out after {:?}",
            spec.index, drive.batch_timeout
        )),
    }
}

/// Exponential backoff with deterministic jitter: `base × 2^attempt`
/// capped at `max`, then jittered uniformly into `[cap/2, cap]` so a
/// fleet's reconnects decorrelate without losing reproducibility.
pub(crate) fn backoff_delay(rng: &mut Xoshiro256, drive: &DriveConfig, attempt: usize) -> Duration {
    let base = drive.backoff_base.as_nanos().min(u128::from(u64::MAX)) as u64;
    let max = drive.backoff_max.as_nanos().min(u128::from(u64::MAX)) as u64;
    let cap = base
        .saturating_mul(1u64 << attempt.min(20))
        .min(max.max(base))
        .max(2);
    Duration::from_nanos(cap / 2 + rng.range(0, cap / 2 + 1))
}

/// A [`WorkerLink`] over a spawned `amulet worker` child process's
/// stdin/stdout pipes (stderr is inherited, so worker logs interleave with
/// the driver's). A detached reader thread pumps stdout lines into a
/// channel so receives can carry a deadline.
#[derive(Debug)]
pub struct ProcLink {
    child: Child,
    stdin: Option<ChildStdin>,
    lines: Receiver<Result<String, String>>,
}

impl ProcLink {
    /// Spawns `program worker <worker_args...>` and wires up its pipes.
    pub fn spawn(program: &std::path::Path, worker_args: &[String]) -> Result<Self, String> {
        let mut child = Command::new(program)
            .arg("worker")
            .args(worker_args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot spawn worker {}: {e}", program.display()))?;
        let stdin = child.stdin.take().expect("piped stdin");
        let stdout = child.stdout.take().expect("piped stdout");
        let (tx, lines) = std::sync::mpsc::channel();
        // The thread exits on EOF/error, or when the link (receiver) is
        // dropped and a send fails — it can never outlive its purpose by
        // more than one line.
        std::thread::spawn(move || {
            let mut reader = BufReader::new(stdout);
            loop {
                let mut line = String::new();
                match reader.read_line(&mut line) {
                    Ok(0) => break,
                    Ok(_) if line.ends_with('\n') => {
                        if tx.send(Ok(line)).is_err() {
                            break;
                        }
                    }
                    Ok(n) => {
                        // A partial line at EOF: the worker died mid-frame.
                        let _ = tx.send(Err(format!("worker died mid-frame ({n} bytes)")));
                        break;
                    }
                    Err(e) => {
                        let _ = tx.send(Err(format!("worker read failed: {e}")));
                        break;
                    }
                }
            }
        });
        Ok(ProcLink {
            child,
            stdin: Some(stdin),
            lines,
        })
    }
}

impl WorkerLink for ProcLink {
    fn send(&mut self, msg: &Msg) -> Result<(), String> {
        let stdin = self.stdin.as_mut().ok_or("worker stdin closed")?;
        writeln!(stdin, "{}", msg.to_line())
            .and_then(|()| stdin.flush())
            .map_err(|e| format!("worker write failed: {e}"))
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Result<Option<Msg>, String> {
        match self.lines.recv_timeout(timeout) {
            Ok(Ok(line)) => Msg::parse_line(&line).map(Some),
            Ok(Err(e)) => Err(e),
            Err(RecvTimeoutError::Timeout) => Ok(None),
            Err(RecvTimeoutError::Disconnected) => Err("worker exited (EOF on stdout)".into()),
        }
    }
}

impl Drop for ProcLink {
    /// Closes the worker's stdin (EOF ends its serve loop), gives it a
    /// moment to exit cleanly, then kills and reaps — a dropped link never
    /// leaks a child process, even on error paths.
    fn drop(&mut self) {
        drop(self.stdin.take());
        for _ in 0..100 {
            match self.child.try_wait() {
                Ok(Some(_)) => return,
                Ok(None) => std::thread::sleep(Duration::from_millis(2)),
                Err(_) => break,
            }
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// `amulet drive`.
pub(crate) fn cmd_drive(mut args: Args) -> Result<(), String> {
    let shape = ShapeOptions::parse(&mut args)?;
    let procs = args.parsed::<usize>("--procs")?.unwrap_or(2).max(1);
    let batch_programs = args
        .parsed::<usize>("--batch")?
        .unwrap_or(DriveConfig::default().batch_programs)
        .max(1);
    let connect_list = args.value("--connect")?;
    let retries = args.parsed::<usize>("--retries")?;
    let quarantine_after = args.parsed::<usize>("--quarantine-after")?;
    let liveness_s = args.parsed::<f64>("--liveness-s")?;
    let batch_timeout_s = args.parsed::<f64>("--batch-timeout-s")?;
    let fragments_path = args.value("--fragments")?;
    let events_path = args.value("--events")?;
    let mut sink = JsonSink::open(args.value("--json")?)?;
    args.finish()?;

    let cfg = shape.config();
    let mut drive = DriveConfig {
        procs,
        batch_programs,
        seed: cfg.seed,
        ..DriveConfig::default()
    };
    if let Some(r) = retries {
        drive.retries = r;
    }
    if let Some(q) = quarantine_after {
        drive.quarantine_after = q.max(1);
    }
    if let Some(s) = liveness_s {
        drive.liveness = parse_seconds("--liveness-s", s)?;
    }
    if let Some(s) = batch_timeout_s {
        drive.batch_timeout = parse_seconds("--batch-timeout-s", s)?;
    }

    let open_append = |path: Option<&str>| -> Result<Option<Box<dyn Write + Send>>, String> {
        match path {
            None => Ok(None),
            Some(p) => Ok(Some(Box::new(
                std::fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(p)
                    .map_err(|e| format!("cannot open {p}: {e}"))?,
            ))),
        }
    };
    let tee = open_append(fragments_path.as_deref())?;
    let events = open_append(events_path.as_deref())?;

    let report = match connect_list.as_deref() {
        Some(list) => {
            let addrs = crate::net::parse_connect_list(list)?;
            drive.procs = addrs.len();
            eprintln!(
                "driving {} × {} ({} cases) over {} TCP workers, proto v{PROTO_VERSION}",
                shape.defense.name(),
                shape.contract.name(),
                cfg.total_cases(),
                addrs.len()
            );
            run_driver(
                &cfg,
                &drive,
                |slot| crate::net::TcpLink::connect(&addrs[slot % addrs.len()], drive.liveness),
                tee,
                events,
            )?
        }
        None => {
            let exe =
                std::env::current_exe().map_err(|e| format!("cannot locate own binary: {e}"))?;
            let worker_args = shape.worker_argv();
            eprintln!(
                "driving {} × {} ({} cases) over {procs} worker processes, proto v{PROTO_VERSION}",
                shape.defense.name(),
                shape.contract.name(),
                cfg.total_cases()
            );
            run_driver(
                &cfg,
                &drive,
                |_slot| ProcLink::spawn(&exe, &worker_args),
                tee,
                events,
            )?
        }
    };
    print_report(&report);
    sink.line(&report_json(&report, "drive", drive.procs, batch_programs))
}

/// Converts a `--*-s` seconds flag into a `Duration`, rejecting values a
/// deadline cannot represent.
fn parse_seconds(flag: &str, s: f64) -> Result<Duration, String> {
    if s.is_finite() && s > 0.0 {
        Ok(Duration::from_secs_f64(s))
    } else {
        Err(format!("{flag}: expected a positive number of seconds"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amulet_contracts::ContractKind;
    use amulet_core::proto::Hello;
    use amulet_defenses::DefenseKind;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    /// Deadlines everywhere so failure paths resolve in milliseconds.
    fn quick_drive() -> DriveConfig {
        DriveConfig {
            procs: 1,
            batch_programs: 2,
            retries: 1,
            liveness: ms(25),
            batch_timeout: ms(60),
            backoff_base: ms(1),
            backoff_max: ms(4),
            quarantine_after: 2,
            seed: 11,
        }
    }

    /// A worker that completes the handshake and then wedges: sends
    /// succeed, nothing ever comes back — the failure mode a blocking
    /// `recv` would stall on forever.
    struct HungLink {
        cfg: CampaignConfig,
        hello_sent: bool,
    }

    impl WorkerLink for HungLink {
        fn send(&mut self, _msg: &Msg) -> Result<(), String> {
            Ok(())
        }
        fn recv_timeout(&mut self, timeout: Duration) -> Result<Option<Msg>, String> {
            if !self.hello_sent {
                self.hello_sent = true;
                return Ok(Some(Msg::Hello(Hello::for_config(&self.cfg))));
            }
            std::thread::sleep(timeout);
            Ok(None)
        }
    }

    /// The hardening satellite: a hung (not crashed) worker consumes the
    /// retry budget through its deadlines and the campaign fails cleanly
    /// and promptly instead of stalling.
    #[test]
    fn a_hung_worker_exhausts_the_retry_budget_cleanly() {
        let mut cfg = CampaignConfig::quick(DefenseKind::Baseline, ContractKind::CtSeq);
        cfg.instances = 1;
        cfg.programs_per_instance = 2;
        let drive = quick_drive();
        let t0 = Instant::now();
        let err = run_driver(
            &cfg,
            &drive,
            |_slot| {
                Ok(HungLink {
                    cfg: cfg.clone(),
                    hello_sent: false,
                })
            },
            None,
            None,
        )
        .unwrap_err();
        assert!(
            err.contains("campaign incomplete"),
            "expected a clean budget-exhaustion error, got: {err}"
        );
        assert!(
            t0.elapsed() < Duration::from_secs(10),
            "deadlines must bound the stall ({:?})",
            t0.elapsed()
        );
    }

    /// A hello that *arrives but mismatches* is a deployment bug: the
    /// campaign aborts at once, with no reconnect burning the budget.
    #[test]
    fn a_mismatched_hello_aborts_without_retries() {
        let cfg = CampaignConfig::quick(DefenseKind::Baseline, ContractKind::CtSeq);
        let mut wrong = cfg.clone();
        wrong.seed ^= 0xdead;
        let connects = AtomicUsize::new(0);
        let err = run_driver(
            &cfg,
            &quick_drive(),
            |_slot| {
                connects.fetch_add(1, Ordering::SeqCst);
                Ok(HungLink {
                    cfg: wrong.clone(),
                    hello_sent: false,
                })
            },
            None,
            None,
        )
        .unwrap_err();
        assert_eq!(
            connects.load(Ordering::SeqCst),
            1,
            "a config mismatch must not be retried: {err}"
        );
        assert!(
            !err.contains("campaign incomplete"),
            "the handshake mismatch itself must surface: {err}"
        );
    }

    /// Backoff is deterministic in (seed, attempt), grows exponentially,
    /// and respects the cap.
    #[test]
    fn backoff_is_seeded_capped_and_monotone_in_expectation() {
        let drive = DriveConfig {
            backoff_base: ms(2),
            backoff_max: ms(100),
            ..DriveConfig::default()
        };
        let delays = |seed: u64| -> Vec<Duration> {
            let mut rng = Xoshiro256::seed_from_u64(seed);
            (1..=10)
                .map(|a| backoff_delay(&mut rng, &drive, a))
                .collect()
        };
        assert_eq!(delays(1), delays(1), "same seed, same schedule");
        for (attempt, d) in delays(2).iter().enumerate() {
            // cap = min(base × 2^attempt, max); jitter keeps it in [cap/2, cap].
            let cap = ms(2 * (1 << (attempt + 1))).min(ms(100));
            assert!(
                *d >= cap / 2 && *d <= cap,
                "attempt {attempt}: {d:?} vs cap {cap:?}"
            );
        }
    }
}
