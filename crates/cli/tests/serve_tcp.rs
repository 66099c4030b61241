//! End-to-end service determinism over real sockets and processes:
//! `amulet serve` fed by one remote `amulet worker --listen` plus one
//! in-process worker, driven twice by the `amulet submit` client — with
//! the remote worker killed once the daemon is up. The first result must
//! carry the in-process CLI fingerprint (the slot ladder's orphaning and
//! adoption holding under the service), the second must be a byte-equal
//! cache hit that executes zero batches, the daemon must exit cleanly
//! after its session budget with a structured event log, and the corpus
//! file must hold the findings.
//!
//! The in-memory version of these assertions (more campaigns, controlled
//! scheduling) lives at the workspace root in `tests/serve_session.rs`.

use amulet_cli::ServiceHost;
use amulet_core::proto::CampaignSpec;
use amulet_core::{Service, ServiceEvent, SubmitOutcome};
use std::io::{BufRead, BufReader, Read};
use std::net::TcpListener;
use std::process::{Child, Command, Stdio};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const BIN: &str = env!("CARGO_BIN_EXE_amulet");
// The quick shape at batch 3 — same campaign identity for the in-process
// reference, the remote worker, and both submits.
const SHAPE: &[&str] = &[
    "--defense",
    "Baseline",
    "--contract",
    "CT-SEQ",
    "--batch",
    "3",
];
const WORKER_SHAPE: &[&str] = &["--defense", "Baseline", "--contract", "CT-SEQ"];

/// A child process that announced an address on stderr (worker or serve
/// daemon), with stderr captured for later assertions.
struct Announced {
    child: Child,
    addr: String,
    stderr: Arc<Mutex<Vec<u8>>>,
}

impl Announced {
    /// Spawns the binary and scrapes `"addr":"..."` from the first
    /// structured announcement line on stderr (every stderr line, the
    /// scraped ones included, is kept for later assertions).
    fn spawn(args: &[&str]) -> Self {
        let mut child = Command::new(BIN)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn amulet");
        let mut reader = BufReader::new(child.stderr.take().unwrap());
        let mut seen = Vec::new();
        let addr = loop {
            let mut line = String::new();
            let n = reader.read_line(&mut line).expect("read stderr");
            assert!(n > 0, "{args:?} exited before announcing its address");
            seen.extend_from_slice(line.as_bytes());
            if let Some(at) = line.find("\"addr\":\"") {
                let rest = &line[at + "\"addr\":\"".len()..];
                break rest[..rest.find('"').unwrap()].to_string();
            }
        };
        // Keep draining stderr (the process must never block on a full
        // pipe) into a buffer the test can assert on.
        let stderr = Arc::new(Mutex::new(seen));
        let sink = stderr.clone();
        std::thread::spawn(move || {
            let mut buf = [0u8; 4096];
            loop {
                match reader.read(&mut buf) {
                    Ok(0) | Err(_) => return,
                    Ok(n) => sink.lock().unwrap().extend_from_slice(&buf[..n]),
                }
            }
        });
        Announced {
            child,
            addr,
            stderr,
        }
    }
}

impl Drop for Announced {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Runs the binary, asserts success, and returns the last JSON line on
/// stdout.
fn json_line_of(args: &[&str]) -> String {
    let out = Command::new(BIN).args(args).output().expect("spawn amulet");
    assert!(
        out.status.success(),
        "amulet {args:?} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    stdout
        .lines()
        .rfind(|l| l.starts_with('{'))
        .unwrap_or_else(|| panic!("no JSON line in:\n{stdout}"))
        .to_string()
}

fn field<'a>(json: &'a str, key: &str) -> &'a str {
    let tag = format!("\"{key}\":");
    let at = json
        .find(&tag)
        .unwrap_or_else(|| panic!("no {key} in {json}"));
    let rest = &json[at + tag.len()..];
    let end = rest
        .find([',', '}'])
        .unwrap_or_else(|| panic!("unterminated {key} in {json}"));
    rest[..end].trim_matches('"')
}

#[test]
fn serve_caches_resubmits_and_survives_a_worker_killed_mid_run() {
    let reference = {
        let line = json_line_of(&[&["campaign", "--workers", "2", "--json", "-"], SHAPE].concat());
        field(&line, "fingerprint").to_string()
    };

    let worker = Announced::spawn(&[&["worker", "--listen", "127.0.0.1:0"], WORKER_SHAPE].concat());
    let corpus = std::env::temp_dir().join(format!("amulet_serve_corpus_{}", std::process::id()));
    let _ = std::fs::remove_file(&corpus);
    let mut serve = Announced::spawn(&[
        "serve",
        "--listen",
        "127.0.0.1:0",
        "--workers",
        "1",
        "--connect",
        &worker.addr,
        "--corpus",
        corpus.to_str().unwrap(),
        "--sessions",
        "2",
    ]);

    // Kill the remote worker before the first campaign starts: the quick
    // campaign runs in milliseconds, so a kill timed mid-run would land
    // after the result. The daemon's TCP slot now fails its first lease,
    // and the local worker adopts the orphaned batch. The deterministic
    // mid-batch story is covered by the in-memory suites.
    drop(worker);

    let submit_args: Vec<&str> = [&["submit", "--connect", &serve.addr], SHAPE].concat();
    let first = json_line_of(&submit_args);
    assert_eq!(
        field(&first, "fingerprint"),
        reference,
        "service result diverged from the in-process run: {first}"
    );
    assert_eq!(field(&first, "cached"), "false", "{first}");

    // Same campaign again: served from the cache, zero batches executed,
    // same fingerprint — even though the remote worker is long dead.
    let second = json_line_of(&submit_args);
    assert_eq!(field(&second, "cached"), "true", "{second}");
    assert_eq!(field(&second, "executed_batches"), "0", "{second}");
    assert_eq!(field(&second, "fingerprint"), reference, "{second}");

    // Two sessions served: the daemon exits on its own, cleanly, with
    // both conversations accounted for in its structured log.
    let status = serve.child.wait().expect("wait for serve");
    assert!(status.success(), "serve exited with {status}");
    // The drainer thread may still be flushing the last lines — poll.
    let mut log = String::new();
    for _ in 0..50 {
        log = String::from_utf8_lossy(&serve.stderr.lock().unwrap()).into_owned();
        if log.matches("\"event\":\"session_end\"").count() == 2 {
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    assert_eq!(
        log.matches("\"event\":\"session_end\"").count(),
        2,
        "both client sessions must close cleanly:\n{log}"
    );
    // The TCP slot's failures are structured rows, and every daemon event
    // row — sessions and slots alike — carries one dense monotonic seq.
    assert!(
        log.contains("\"event\":\"link_failure\""),
        "the dead worker's failures must be logged as events:\n{log}"
    );
    let seqs: Vec<u64> = log
        .lines()
        .filter(|line| line.contains("\"event\":"))
        .map(|line| {
            amulet_util::parse_json(line)
                .unwrap_or_else(|e| panic!("event row is not JSON ({e}): {line}"))
                .get("seq")
                .and_then(|seq| seq.as_u64())
                .unwrap_or_else(|| panic!("event row lacks a seq: {line}"))
        })
        .collect();
    let expected: Vec<u64> = (0..seqs.len() as u64).collect();
    assert_eq!(seqs, expected, "seq must be dense and monotonic:\n{log}");

    // The violating campaign left its findings in the corpus, and the
    // query tool reads them back.
    let text = std::fs::read_to_string(&corpus).expect("corpus file written");
    assert!(!text.trim().is_empty(), "corpus is empty");
    for line in text.lines() {
        assert!(
            line.starts_with('{') && line.ends_with('}') && line.contains("\"class\""),
            "corpus line is not a record: {line}"
        );
    }
    let queried = Command::new(BIN)
        .args(["corpus", "--file", corpus.to_str().unwrap()])
        .output()
        .expect("spawn corpus query");
    assert!(queried.status.success());
    let listed = String::from_utf8(queried.stdout).unwrap();
    assert_eq!(listed.lines().count(), text.lines().count());
    let _ = std::fs::remove_file(&corpus);
}

/// The dead-fleet rule over real sockets: a daemon whose only slot is a
/// `--connect` address that can never run the campaign — refused, or a
/// worker serving a different config — fails the campaign with an error
/// `result` promptly instead of leaving it runnable forever.
#[test]
fn a_dead_or_mismatched_fleet_fails_the_campaign_instead_of_hanging() {
    // Reserve a port, then free it: a refused (not hanging) connect.
    let refused = {
        let placeholder = TcpListener::bind("127.0.0.1:0").unwrap();
        placeholder.local_addr().unwrap().to_string()
    };
    let other = Announced::spawn(&[
        "worker",
        "--listen",
        "127.0.0.1:0",
        "--defense",
        "STT",
        "--contract",
        "ARCH-SEQ",
    ]);
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
    for (addr, expect) in [
        (refused, "campaign incomplete"),
        (other.addr.clone(), "config mismatch"),
    ] {
        let service = Arc::new(Service::new());
        let events = service.subscribe();
        let host = ServiceHost::start(service.clone(), 0, std::slice::from_ref(&addr));
        let SubmitOutcome::Accepted { campaign, .. } = service.submit(&spec).unwrap() else {
            panic!("a fresh service cannot answer from its cache")
        };
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match events.recv_timeout(deadline.saturating_duration_since(Instant::now())) {
                Ok(ServiceEvent::Finished { campaign: c }) if c == campaign => break,
                Ok(_) => {}
                Err(_) => panic!("campaign on a dead fleet ({addr}) hung past 30 s"),
            }
        }
        let result = service.take_result(campaign).expect("finished");
        let error = result
            .error
            .expect("a dead fleet must yield an error result");
        assert!(error.contains(expect), "{addr}: {error}");
        if expect == "config mismatch" {
            assert!(!error.contains("campaign incomplete"), "{error}");
        }
        assert!(result.report.is_none() && !result.cancelled);
        host.shutdown();
    }
}
