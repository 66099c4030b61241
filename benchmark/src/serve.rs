//! The daemon workload `serve_stl`: STL CT-SEQ campaigns through a
//! restarted, crash-safe `Service` — the only workload that runs the wire
//! protocol, the journal, the service scheduler and the corpus.
//!
//! Set-up warms a fresh state dir, then restarts the daemon on it the way
//! `amulet serve --state-dir` starts (`StateDir::open` + `recover`,
//! `Service::with_persistence`, `ServiceHost::start(service, 2, &[])`).
//! The load is one closed-loop `serve_client` conversation over in-memory
//! pipes that keeps [`IN_FLIGHT`] campaigns in flight; every
//! [`REPEAT_EVERY`]th submit repeats a spec warmed before the restart, so it
//! is answered from the cache recovery loaded.

use crate::layers::{self, put, BatchPass, JournalCampaign};
use crate::report::{
    campaign_row, classes_row, median, result_metrics, samples, secs, Out, RssSpan,
};
use crate::{derive_seed, Run, SETUP_REPS, SETUP_SEED, WORKERS};
use amulet_cli::ServiceHost;
use amulet_core::proto::{CampaignSpec, Msg, ResultMsg};
use amulet_core::{
    CampaignConfig, Corpus, Service, ServiceEvent, ShardConfig, ShardedCampaign, StateDir,
    ViolationClass,
};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io::{BufReader, Read, Write};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Campaigns the client keeps in flight.
const IN_FLIGHT: usize = 2;
/// Every this-many-th submit repeats a warmed spec.
const REPEAT_EVERY: usize = 4;
/// Specs warmed before the restart. Their results are the cache the
/// restart recovers, so this sets how much work `setup_s` times: enough
/// that parsing and verifying the cache outweighs thread-start jitter.
const WARM: u64 = 16;
/// Submits over which `peak_rss_mib` is read: fewer than a slow host gets
/// through in a 30-second run (about 100). The daemon's resident set grows
/// by about 0.2 MiB with every fresh result it caches.
const RSS_SUBMITS: usize = 64;
/// Longest wait for any one service line.
const LINE_TIMEOUT: Duration = Duration::from_secs(120);

/// The defense of the leaking specs. Their results wait for the corpus
/// minimisation of every violation, so they alone take the whole result
/// path, and `result_*` are read over them.
const LEAKING: &str = "Baseline";

/// STL CT-SEQ quick campaign `i` of a stream: three in four are
/// [`LEAKING`] (Baseline leaks Spectre-v4), the fourth DelayAll (clean).
fn spec(i: u64, seed: u64) -> CampaignSpec {
    CampaignSpec {
        defense: if i % 4 == 3 { "DelayAll" } else { LEAKING }.into(),
        contract: "CT-SEQ".into(),
        source: "STL".into(),
        seed,
        scale: None,
        find_first: false,
        batch_programs: 3,
        cycle_skip: true,
    }
}

/// The in-process reference for a spec.
fn in_process(spec: &CampaignSpec) -> Result<(amulet_core::CampaignReport, f64), String> {
    let cfg = spec.resolve()?;
    let shard = ShardConfig {
        workers: WORKERS,
        batch_programs: spec.batch_programs,
    };
    let t = Instant::now();
    let report = ShardedCampaign::new(cfg, shard).run();
    Ok((report, secs(t.elapsed())))
}

/// A daemon start on `dir`, as `amulet serve --state-dir` starts.
fn start(dir: &Path) -> Result<ServiceHost, String> {
    let state = StateDir::open(dir)?;
    let recovery = state.recover()?;
    let corpus = Corpus::open(dir.join("corpus.jsonl"));
    let service = Arc::new(Service::with_persistence(Some(corpus), state, recovery));
    Ok(ServiceHost::start(service, WORKERS, &[]))
}

/// Client side of an in-memory conversation with `serve_client`.
struct Client {
    tx: Option<Sender<String>>,
    rx: Receiver<(Instant, String)>,
    handle: JoinHandle<Result<amulet_cli::ClientStats, String>>,
}

/// Lines into `serve_client`: each received string is one line.
struct LineReader {
    rx: Receiver<String>,
    pending: Vec<u8>,
    pos: usize,
}

impl Read for LineReader {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if self.pos >= self.pending.len() {
            match self.rx.recv() {
                Ok(line) => {
                    self.pending = line.into_bytes();
                    self.pending.push(b'\n');
                    self.pos = 0;
                }
                Err(_) => return Ok(0),
            }
        }
        let n = buf.len().min(self.pending.len() - self.pos);
        buf[..n].copy_from_slice(&self.pending[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

/// Lines out of `serve_client`, stamped when written.
struct LineWriter {
    tx: Sender<(Instant, String)>,
    buf: Vec<u8>,
}

impl Write for LineWriter {
    fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
        self.buf.extend_from_slice(data);
        while let Some(nl) = self.buf.iter().position(|&b| b == b'\n') {
            let line: Vec<u8> = self.buf.drain(..=nl).collect();
            let line = String::from_utf8_lossy(&line[..nl]).into_owned();
            let _ = self.tx.send((Instant::now(), line));
        }
        Ok(data.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

impl Client {
    fn connect(service: &Arc<Service>) -> Self {
        let (tx, service_rx) = channel();
        let (service_tx, rx) = channel();
        let service = service.clone();
        let handle = std::thread::spawn(move || {
            let reader = BufReader::new(LineReader {
                rx: service_rx,
                pending: Vec::new(),
                pos: 0,
            });
            let writer = LineWriter {
                tx: service_tx,
                buf: Vec::new(),
            };
            amulet_cli::serve_client(&service, reader, writer)
        });
        Client {
            tx: Some(tx),
            rx,
            handle,
        }
    }

    fn send(&self, line: String) -> Result<(), String> {
        self.tx
            .as_ref()
            .expect("client is open")
            .send(line)
            .map_err(|_| "serve_client hung up".to_string())
    }

    /// Ends the conversation and waits for the session to finish.
    fn close(mut self) -> Result<(), String> {
        self.tx = None;
        let stats = self
            .handle
            .join()
            .map_err(|_| "serve_client panicked".to_string())??;
        if stats.rejected > 0 || stats.malformed > 0 || stats.evicted.is_some() {
            return Err(format!("unexpected session outcome {stats:?}"));
        }
        Ok(())
    }
}

/// One answered submit.
struct Answer {
    /// Index into the submitted list.
    submit: usize,
    /// Campaign id the service assigned.
    campaign: u64,
    /// Submit line sent.
    sent: Instant,
    /// `result` line written.
    done: Instant,
    result: Outcome,
}

/// What the checks need of a `result`. The full message is dropped on
/// arrival, so the benchmark's own bookkeeping does not grow the resident
/// set that `peak_rss_mib` reads.
struct Outcome {
    /// Report fingerprint; `None` without a report.
    fingerprint: Option<u64>,
    /// No error and not cancelled.
    ok: bool,
    cached: bool,
    cases: usize,
}

impl Outcome {
    fn of(result: &ResultMsg) -> Self {
        Outcome {
            fingerprint: result.report.as_ref().map(|r| r.fingerprint()),
            ok: result.error.is_none() && !result.cancelled,
            cached: result.cached,
            cases: result.report.as_ref().map_or(0, |r| r.stats.cases),
        }
    }
}

/// What a closed-loop conversation exchanged.
struct Conversation {
    /// Every answered submit, in answer order.
    answers: Vec<Answer>,
    /// Every submitted spec, in submit order.
    submitted: Vec<CampaignSpec>,
    /// Every line sent and received (only when asked).
    lines: Vec<String>,
}

/// A closed-loop conversation: keeps [`IN_FLIGHT`] submits outstanding,
/// drawing the next one from `next` until it returns `None`.
fn closed_loop(
    client: &Client,
    mut next: impl FnMut(usize) -> Option<CampaignSpec>,
    keep_lines: bool,
) -> Result<Conversation, String> {
    let mut submitted = Vec::new();
    let mut lines = Vec::new();
    let mut awaiting: VecDeque<(usize, Instant)> = VecDeque::new();
    let mut open: HashMap<u64, (usize, Instant)> = HashMap::new();
    let mut answers = Vec::new();
    let mut exhausted = false;
    loop {
        while !exhausted && awaiting.len() + open.len() < IN_FLIGHT {
            match next(submitted.len()) {
                Some(spec) => {
                    let line = Msg::Submit(spec.clone()).to_line();
                    if keep_lines {
                        lines.push(line.clone());
                    }
                    awaiting.push_back((submitted.len(), Instant::now()));
                    client.send(line)?;
                    submitted.push(spec);
                }
                None => exhausted = true,
            }
        }
        if awaiting.is_empty() && open.is_empty() {
            break;
        }
        let (at, line) = client
            .rx
            .recv_timeout(LINE_TIMEOUT)
            .map_err(|_| "no service line within the timeout".to_string())?;
        let msg = Msg::parse_line(&line)?;
        if keep_lines {
            lines.push(line);
        }
        match msg {
            Msg::Accepted { campaign, .. } => {
                let pending = awaiting.pop_front().ok_or("accepted without a submit")?;
                open.insert(campaign, pending);
            }
            Msg::CampaignResult(result) => {
                let (submit, sent) = match open.remove(&result.campaign) {
                    Some(p) => p,
                    None => return Err(format!("result without a campaign: {:?}", result.error)),
                };
                answers.push(Answer {
                    submit,
                    campaign: result.campaign,
                    sent,
                    done: at,
                    result: Outcome::of(&result),
                });
            }
            Msg::Progress { .. } => {}
            other => return Err(format!("unexpected {:?} from the service", other.tag())),
        }
    }
    Ok(Conversation {
        answers,
        submitted,
        lines,
    })
}

/// Collects `Service::subscribe` progress events with arrival times until
/// stopped.
fn collect_events(
    service: &Arc<Service>,
    stop: Arc<AtomicBool>,
) -> JoinHandle<Vec<(Instant, u64)>> {
    let events = service.subscribe();
    std::thread::spawn(move || {
        let mut seen = Vec::new();
        while !stop.load(Ordering::SeqCst) {
            if let Ok(ServiceEvent::Progress { campaign, .. }) =
                events.recv_timeout(Duration::from_millis(20))
            {
                seen.push((Instant::now(), campaign));
            }
        }
        seen
    })
}

/// Runs `serve_stl`.
pub fn run(out: &mut Out, run: &Run) -> Result<(u64, u64, BTreeMap<&'static str, f64>), String> {
    let dir = run.state_dir.join("serve_state");
    let warm: Vec<CampaignSpec> = (0..WARM)
        .map(|i| spec(i, derive_seed(SETUP_SEED, 3, i)))
        .collect();

    // Warm-up pass on a fresh state dir.
    let host = start(&dir)?;
    let client = Client::connect(host.service());
    let mut it = warm.iter().cloned();
    let warm_answers = closed_loop(&client, |_| it.next(), false)?.answers;
    client.close()?;
    host.shutdown();
    let mut warm_fp = vec![None; warm.len()];
    for a in &warm_answers {
        warm_fp[a.submit] = a.result.fingerprint;
    }

    // Set-up: restart the daemon on the warmed dir; the last start serves.
    let mut setup = Vec::new();
    let mut host = None;
    for _ in 0..SETUP_REPS {
        if let Some(h) = host.take() {
            ServiceHost::shutdown(h);
        }
        let t = Instant::now();
        let h = start(&dir)?;
        setup.push(secs(t.elapsed()));
        host = Some(h);
    }
    let host = host.expect("at least one start");
    let service = host.service().clone();

    // Timed phase.
    let stop = Arc::new(AtomicBool::new(false));
    let collector = out.traced().then(|| collect_events(&service, stop.clone()));
    let client = Client::connect(&service);
    let mut rss = RssSpan::start()?;
    let start_at = Instant::now();
    let budget = run.seconds;
    let mut fresh = 0u64;
    let Conversation {
        answers,
        submitted,
        lines: client_lines,
    } = closed_loop(
        &client,
        |k| {
            rss.tick();
            if k == RSS_SUBMITS {
                rss.close();
            }
            if start_at.elapsed() >= budget {
                None
            } else if k % REPEAT_EVERY == REPEAT_EVERY - 1 {
                Some(warm[(k / REPEAT_EVERY) % warm.len()].clone())
            } else {
                fresh += 1;
                Some(spec(fresh - 1, derive_seed(run.seed, 4, fresh - 1)))
            }
        },
        out.traced(),
    )?;
    let rss = rss.finish()?;
    let phase = answers
        .iter()
        .map(|a| a.done)
        .max()
        .map_or(0.0, |d| secs(d - start_at));
    client.close()?;
    stop.store(true, Ordering::SeqCst);
    let progress = collector
        .map(|c| c.join().map_err(|_| "event collector panicked".to_string()))
        .transpose()?;
    ServiceHost::shutdown(host);
    let corpus_records = corpus_check(out, &dir.join("corpus.jsonl"))?;

    // Checks: fresh results against the in-process campaign of the same
    // spec, repeats against the warm-up result.
    let attempted = submitted.len() as u64;
    let mut failed = attempted - answers.len() as u64;
    let mut fresh_walls = Vec::new();
    let mut leak_walls = Vec::new();
    let mut hit_ms = Vec::new();
    let mut fresh_cases = 0usize;
    let mut inproc_wall = 0.0;
    let mut inproc_cases = 0usize;
    let mut classes: BTreeMap<ViolationClass, usize> = BTreeMap::new();
    let mut fresh_specs: Vec<(usize, CampaignSpec, u64)> = Vec::new();
    let mut sent_by_id = HashMap::new();
    let mut sorted: Vec<&Answer> = answers.iter().collect();
    sorted.sort_by_key(|a| a.submit);
    for a in sorted {
        let spec = &submitted[a.submit];
        let latency = secs(a.done - a.sent);
        let fp = a.result.fingerprint;
        let ok_result = a.result.ok && fp.is_some();
        if let Some(w) = warm.iter().position(|s| s == spec) {
            hit_ms.push(latency * 1e3);
            if !(ok_result && a.result.cached && fp == warm_fp[w]) {
                failed += 1;
                out.row("mismatch", |o| {
                    o.int("submit", a.submit as u64)
                        .str("between", "cached repeat and warm-up result")
                });
            }
            continue;
        }
        let (report, wall) = in_process(spec)?;
        fresh_walls.push(latency);
        if spec.defense == LEAKING {
            leak_walls.push(latency);
        }
        fresh_cases += a.result.cases;
        inproc_wall += wall;
        inproc_cases += report.stats.cases;
        sent_by_id.insert(a.campaign, a.sent);
        if !(ok_result && !a.result.cached && fp == Some(report.fingerprint())) {
            failed += 1;
            out.row("mismatch", |o| {
                o.int("submit", a.submit as u64)
                    .str("between", "serve result and in-process campaign")
            });
        }
        for (class, n) in report.unique_classes() {
            *classes.entry(class).or_default() += n;
        }
        campaign_row(out, a.submit, &report, |o| o.num("result_s", latency));
        fresh_specs.push((a.submit, spec.clone(), report.fingerprint()));
    }

    let mut e2e = BTreeMap::new();
    let cases_per_s = fresh_cases as f64 / phase;
    out.metric("cases_per_s", cases_per_s, |o| {
        o.int("cases", fresh_cases as u64)
            .int("fresh", fresh_walls.len() as u64)
            .int("cached", hit_ms.len() as u64)
    });
    e2e.insert("cases_per_s", cases_per_s);
    // A clean campaign's result comes in a few ms, a leaking one's after
    // about 0.7 s of minimisation: over all fresh results the median would
    // sit at the leaking cluster's 33rd percentile, whose run-to-run spread
    // is half again that of the cluster's median.
    result_metrics(out, &mut e2e, &leak_walls);
    let setup_s = median(&setup);
    out.metric("setup_s", setup_s, |o| o.raw("samples", &samples(&setup)));
    e2e.insert("setup_s", setup_s);
    let rss_submits = submitted.len().min(RSS_SUBMITS) as u64;
    out.metric("peak_rss_mib", rss, |o| o.int("submits", rss_submits));
    e2e.insert("peak_rss_mib", rss);
    classes_row(out, &classes);

    let mut layers = BTreeMap::new();
    if let Some(progress) = progress {
        // Service-layer rows from the subscribed progress events.
        let mut per: HashMap<u64, Vec<Instant>> = HashMap::new();
        for (at, id) in progress {
            per.entry(id).or_default().push(at);
        }
        let (mut first, mut between) = (Vec::new(), Vec::new());
        for (id, times) in &per {
            if let Some(&sent) = sent_by_id.get(id) {
                first.push(secs(times[0] - sent) * 1e3);
                between.extend(times.windows(2).map(|w| secs(w[1] - w[0]) * 1e3));
            }
        }
        let n = first.len() as u64;
        out.metric("service.first_batch_ms_p50", median(&first), |o| {
            o.int("n", n)
        });
        let nb = between.len() as u64;
        out.metric("service.batch_ms_p50", median(&between), |o| o.int("n", nb));
        let overhead = 1.0 - inproc_wall / phase;
        out.metric("service.overhead_share", overhead, |o| {
            o.num("inproc_wall_s", inproc_wall)
                .num("serve_wall_s", phase)
        });
        let nh = hit_ms.len() as u64;
        out.metric("service.cache_hit_ms_p50", median(&hit_ms), |o| {
            o.int("n", nh)
        });

        failed += traced(
            out,
            run,
            &fresh_specs,
            inproc_cases as f64 / inproc_wall,
            &client_lines,
            &dir,
            &mut layers,
        )?;
        let n = fresh_specs.len() as u64;
        put(out, &mut layers, "corpus.records", corpus_records as f64, n);
    }
    out.metric("failed_ratio", failed as f64 / attempted as f64, |o| {
        o.int("failed", failed).int("attempted", attempted)
    });
    Ok((attempted, failed, if out.traced() { layers } else { e2e }))
}

/// The traced passes for `serve_stl`; returns batch-pass mismatches.
fn traced(
    out: &mut Out,
    run: &Run,
    fresh: &[(usize, CampaignSpec, u64)],
    untraced_cases_per_s: f64,
    client_lines: &[String],
    state_dir: &Path,
    m: &mut BTreeMap<&'static str, f64>,
) -> Result<u64, String> {
    let mut pass = BatchPass::new(WORKERS);
    let mut failed = 0;
    let mut journal: Vec<JournalCampaign> = Vec::new();
    let mut shapes: Vec<CampaignConfig> = Vec::new();
    for (submit, spec, reference) in fresh {
        let cfg = spec.resolve()?;
        let b = pass.run(&cfg, spec.batch_programs, true);
        if b.report.fingerprint() != *reference {
            failed += 1;
            out.row("mismatch", |o| {
                o.int("submit", *submit as u64)
                    .str("between", "in-process campaign and batch pass")
            });
        }
        if shapes.iter().all(|c| c.defense != cfg.defense) {
            shapes.push(cfg);
        }
        journal.push((spec.clone(), b.planned, b.fragments));
    }
    pass.report(out, m, untraced_cases_per_s);
    layers::stage_sample(
        out,
        m,
        &shapes,
        3,
        derive_seed(run.seed, 9, 0),
        run.seconds / 4,
    );
    layers::proto_layer(out, m, &journal, client_lines, Duration::from_millis(300));
    layers::journal_replay(out, m, &run.state_dir.join("journal_replay"), &journal)?;
    let recover = layers::recover_ms(state_dir)?;
    put(out, m, "journal.recover_ms", recover, 5);
    Ok(failed)
}

/// Checks that the corpus file the daemon wrote loads through
/// `Corpus::load`, and returns how many records were written (counted by
/// record openings, so the count survives a file that does not load).
///
/// The outcome is a `corpus_check` row, not a failed campaign: a campaign
/// fails on its own result (error, rejection, cancellation, fingerprint),
/// and every campaign's result is checked above. At the commit this
/// benchmark was written on the check can fail — two workers finishing
/// campaigns at the same moment append to the corpus concurrently, and
/// `Corpus::append` writes a record and its newline in separate writes, so
/// records can interleave (see README.md, "Known defect").
fn corpus_check(out: &mut Out, path: &Path) -> Result<usize, String> {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => String::new(),
        Err(e) => return Err(format!("cannot read {}: {e}", path.display())),
    };
    let written = text.matches("{\"defense\":").count();
    let loaded = Corpus::open(path).load();
    out.row("corpus_check", |o| {
        let o = o
            .int("records_written", written as u64)
            .bool("loads", loaded.is_ok());
        match &loaded {
            Ok(_) => o,
            Err(e) => o.str("error", e),
        }
    });
    Ok(written)
}
