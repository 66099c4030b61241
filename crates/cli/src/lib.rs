//! The `amulet` command line — campaigns, scenario matrices, contract
//! boundaries, and the multi-process campaign fabric, with zero
//! external dependencies (the argument parser is hand-rolled here; the
//! JSON writer/parser live in `amulet_util::json`).
//!
//! Subcommands, mirroring how the paper's evaluation is driven:
//!
//! - `amulet campaign` — one defense × contract campaign, sharded across a
//!   worker pool.
//! - `amulet matrix` — every requested defense × contract scenario at the
//!   quick or paper-scaled shape, one summary row each, optionally as
//!   machine-readable JSON lines.
//! - `amulet drive` — the same campaign sharded over `--procs` **worker
//!   processes** (spawned `amulet worker` children speaking
//!   `amulet_core::proto` over pipes) or over `--connect host:port,...`
//!   **TCP workers** on other hosts, fingerprint-identical to the
//!   in-process run and robust to worker crashes, hangs and churn; see
//!   [`drive`], [`net`] and `docs/DISTRIBUTED.md`.
//! - `amulet worker` — the serving end of `drive`: stdin/stdout when
//!   spawned, `--listen ADDR` for TCP (also usable by external drivers
//!   speaking the protocol); see [`worker`].
//! - `amulet serve` — the long-lived campaign service: accepts `submit`
//!   requests over TCP, fair-shares one worker fleet (in-process threads
//!   plus `--connect` TCP workers) across concurrent campaigns, answers
//!   repeated submits from a fingerprint-keyed result cache, and persists
//!   validated violations to a corpus; with the `amulet submit` client and
//!   the `amulet corpus` query tool. See [`serve`].
//!
//! The library half exists so the parsing, report formatting and the
//! fabric's driver/worker loops are unit testable; `src/main.rs` only
//! forwards `std::env::args` to [`run`].
//!
//! # Examples
//!
//! ```
//! use amulet_cli::{parse_defense, parse_contract};
//! use amulet_defenses::DefenseKind;
//! use amulet_contracts::ContractKind;
//!
//! assert_eq!(parse_defense("baseline"), Ok(DefenseKind::Baseline));
//! assert_eq!(parse_contract("ct-seq"), Ok(ContractKind::CtSeq));
//! ```

pub mod drive;
pub mod fault;
pub mod net;
pub mod serve;
pub mod worker;

use amulet_contracts::ContractKind;
use amulet_core::{
    boundary_row, BoundaryConfig, Campaign, CampaignConfig, CampaignReport, ShardConfig, SpecSource,
};
use amulet_defenses::DefenseKind;

pub use amulet_util::{json_string, JsonObj};
pub use drive::{run_driver, DriveConfig, ProcLink, WorkerLink};
pub use fault::{AdversarialPlan, FaultCounters, FaultPlan, FaultyLink};
pub use net::{parse_connect_list, serve_listener, ListenConfig, TcpLink};
pub use serve::{serve_client, serve_client_with, ClientStats, ServiceHost, SessionLimits};
pub use worker::{serve_session, serve_worker, SessionStats};

/// Usage text printed by `amulet help` (and on usage errors).
pub const USAGE: &str = "\
amulet — automated design-time testing of secure speculation countermeasures

USAGE:
    amulet <SUBCOMMAND> [OPTIONS]

SUBCOMMANDS:
    campaign    Run one defense × contract campaign (sharded)
    matrix      Run a defense × contract scenario matrix
    boundary    Walk the contract lattice to localise each defense's
                leakage boundary (one campaign per contract, by strength)
    drive       Run one campaign across worker *processes* (multi-process fabric)
    worker      Serve batches over stdin/stdout (spawned by `drive`)
    serve       Long-lived campaign service (submit/cache/corpus over TCP)
    submit      Submit one campaign to a running `amulet serve` daemon
    corpus      Query a persisted violation corpus file
    list        List available defenses and contracts
    help        Show this message

CAMPAIGN OPTIONS:
    --defense NAME        Defense under test (default: Baseline; see `amulet list`)
    --contract NAME       Contract to test against (default: CT-SEQ)
    --scale X             Paper-scaled shape at scale X (default: quick shape)
    --seed N              Campaign seed (default: 2025)
    --find-first          Stop at the first confirmed violation
    --source NAME         Speculation source: PHT (branch misprediction, the
                          default) or STL (store-to-load misspeculation)
    --workers N           Worker threads (default: all hardware threads)
    --batch N             Programs per shard batch (default: 4)
    --no-cycle-skip       Step every simulator cycle (disable the event-driven
                          time-warp scheduler; results are bit-identical)
    --json PATH           Append a JSON report line to PATH (`-` = stdout)

MATRIX OPTIONS:
    --quick               Quick shape (the default)
    --scale X             Paper-scaled shape at scale X
    --defenses A,B,...    Defenses to include (default: all)
    --contracts A,B,...   Contracts to include (default: all)
    --sources A,B,...     Speculation sources to include (default: PHT)
    --seed N, --workers N, --batch N, --no-cycle-skip, --json PATH   As above

BOUNDARY OPTIONS:
    --defenses A,B,...    Defenses to probe (default: all)
    --source NAME         Speculation source the probes test (default: PHT)
    --scale X, --seed N, --workers N, --batch N, --no-cycle-skip     As above
    --json PATH           Append one boundary row per defense as JSONL

DRIVE OPTIONS (shape options as for campaign):
    --procs N             Worker processes to spawn (default: 2)
    --connect A,B,...     Drive remote workers over TCP (host:port list;
                          one slot per address, --procs is ignored)
    --batch N             Programs per batch (part of the stream identity)
    --retries N           Reconnect-and-retry attempts per batch (default: 2)
    --quarantine-after N  Retire a slot after N consecutive batch failures
                          (default: 3)
    --liveness-s S        Handshake/heartbeat deadline in seconds (default: 10)
    --batch-timeout-s S   Per-batch fragment deadline in seconds (default: 120)
    --fragments PATH      Tee received fragment JSONL to PATH
    --events PATH         Append the fleet event log (connects, failures,
                          backoff, quarantines) as JSONL to PATH
    --json PATH           Append the reduced campaign report line to PATH

WORKER OPTIONS (shape options as for campaign):
    --listen ADDR         Serve the protocol over TCP on ADDR (e.g.
                          0.0.0.0:7711; :0 picks a port, announced on stderr)
    --sessions N          With --listen: exit after N driver sessions (0 = forever)
    --idle-timeout-s S    With --listen: end a session after S idle seconds
    without --listen: speaks the wire protocol on stdin/stdout
    (see docs/DISTRIBUTED.md)

SERVE OPTIONS:
    --listen ADDR         Accept campaign clients on ADDR (required; :0 picks
                          a port, announced on stderr)
    --workers N           In-process worker threads (default: 1)
    --connect A,B,...     Also lease batches to remote `amulet worker --listen`
                          processes at these addresses
    --corpus PATH         Append validated violations to this corpus JSONL file
    --state-dir DIR       Crash-safe persistence: write-ahead journal every
                          campaign and persist the result cache under DIR;
                          on startup, recover and resume interrupted work
    --sessions N          Exit after N client sessions (0 = forever)
    --max-campaigns N     Admission: campaigns executing concurrently
                          (default: 0 = unlimited)
    --admit-queue N       Admitted-but-waiting campaigns beyond the cap,
                          FIFO (default: 16); overflow is shed with a
                          rejected{retry_after_ms} answer
    --client-quota N      In-flight campaigns per client connection
                          (default: 0 = unlimited)
    SIGTERM drains gracefully: stop admitting, announce `draining`,
    checkpoint (--state-dir) or finish active campaigns, exit 0.

SUBMIT OPTIONS (shape options as for campaign):
    --connect ADDR        The serve daemon's address (required)
    --batch N             Programs per batch (part of the campaign identity)
    --timeout-s S         Give up after S seconds (default: 600)
    --retries N           Reconnect-and-resubmit attempts after connection
                          loss or an admission shed (which waits out the
                          server's retry_after_ms hint), seeded-jitter
                          backoff (default: 0)
    --json PATH           Append the result line to PATH (`-` = stdout)

CORPUS OPTIONS:
    --file PATH           Corpus JSONL file to query (required)
    --class ID            Only violations of this class (e.g. V1, UV2)
    --defense NAME        Only violations found under this defense
";

/// A hand-rolled argument scanner: flags and `--key value` / `--key=value`
/// pairs are consumed by the accessors, and [`Args::finish`] rejects
/// anything left over, so typos fail loudly instead of being ignored.
#[derive(Debug)]
pub struct Args {
    tokens: Vec<Option<String>>,
}

impl Args {
    /// Wraps raw arguments (without the binary and subcommand names).
    pub fn new(raw: &[String]) -> Self {
        Args {
            tokens: raw.iter().cloned().map(Some).collect(),
        }
    }

    /// Consumes a boolean flag, returning whether it was present.
    pub fn flag(&mut self, name: &str) -> bool {
        let mut found = false;
        for slot in &mut self.tokens {
            if slot.as_deref() == Some(name) {
                *slot = None;
                found = true;
            }
        }
        found
    }

    /// Consumes `--key value` or `--key=value`. Last occurrence wins.
    pub fn value(&mut self, name: &str) -> Result<Option<String>, String> {
        let mut out = None;
        let mut i = 0;
        while i < self.tokens.len() {
            let matches_bare = self.tokens[i].as_deref() == Some(name);
            let eq_value = self.tokens[i]
                .as_deref()
                .and_then(|t| t.strip_prefix(name))
                .and_then(|rest| rest.strip_prefix('='))
                .map(str::to_owned);
            if matches_bare {
                self.tokens[i] = None;
                let value = self.tokens.get_mut(i + 1).and_then(Option::take);
                match value {
                    Some(v) => out = Some(v),
                    None => return Err(format!("{name} expects a value")),
                }
                i += 2;
            } else if let Some(v) = eq_value {
                self.tokens[i] = None;
                out = Some(v);
                i += 1;
            } else {
                i += 1;
            }
        }
        Ok(out)
    }

    /// Like [`Args::value`] but parsed, with the flag name in the error.
    pub fn parsed<T: std::str::FromStr>(&mut self, name: &str) -> Result<Option<T>, String> {
        match self.value(name)? {
            None => Ok(None),
            Some(v) => v
                .parse()
                .map(Some)
                .map_err(|_| format!("{name}: cannot parse {v:?}")),
        }
    }

    /// Errors on any argument no accessor consumed.
    pub fn finish(self) -> Result<(), String> {
        let leftover: Vec<String> = self.tokens.into_iter().flatten().collect();
        if leftover.is_empty() {
            Ok(())
        } else {
            Err(format!("unrecognised arguments: {}", leftover.join(" ")))
        }
    }
}

/// Parses a defense by its display name, case-insensitively.
pub fn parse_defense(name: &str) -> Result<DefenseKind, String> {
    DefenseKind::ALL
        .iter()
        .copied()
        .find(|d| d.name().eq_ignore_ascii_case(name))
        .ok_or_else(|| {
            format!(
                "unknown defense {name:?}; one of: {}",
                DefenseKind::ALL.map(|d| d.name()).join(", ")
            )
        })
}

/// Parses a contract by its paper name (`CT-SEQ`, ...), case-insensitively;
/// the dash may be omitted (`ctseq`).
pub fn parse_contract(name: &str) -> Result<ContractKind, String> {
    let norm = |s: &str| s.replace('-', "").to_ascii_lowercase();
    ContractKind::ALL
        .iter()
        .copied()
        .find(|c| norm(c.name()) == norm(name))
        .ok_or_else(|| {
            format!(
                "unknown contract {name:?}; one of: {}",
                ContractKind::ALL.map(|c| c.name()).join(", ")
            )
        })
}

/// Parses a speculation source by name (`PHT`, `STL`), case-insensitively.
pub fn parse_source(name: &str) -> Result<SpecSource, String> {
    SpecSource::from_name(name).ok_or_else(|| {
        format!(
            "unknown source {name:?}; one of: {}",
            SpecSource::ALL.map(|s| s.name()).join(", ")
        )
    })
}

/// Parses a comma-separated list with a per-item parser, or returns the
/// default when the flag was absent.
fn parse_list<T>(
    raw: Option<String>,
    parse: impl Fn(&str) -> Result<T, String>,
    default: &[T],
) -> Result<Vec<T>, String>
where
    T: Copy,
{
    match raw {
        None => Ok(default.to_vec()),
        Some(s) => s.split(',').map(|item| parse(item.trim())).collect(),
    }
}

/// Serialises one campaign report as a self-contained JSON line (the
/// machine-readable form of [`CampaignReport::summary_row`], plus the
/// deterministic fingerprint). `batch_programs` is recorded because the
/// batch size is part of the deterministic case-stream identity (see
/// `amulet_core::shard`) — a line without it could not be reproduced.
pub fn report_json(
    report: &CampaignReport,
    orchestrator: &str,
    workers: usize,
    batch_programs: usize,
) -> String {
    let mut classes = JsonObj::new();
    for (class, count) in report.unique_classes() {
        classes = classes.int(class.paper_id(), count as u64);
    }
    let mut obj = JsonObj::new()
        .str("defense", report.config.defense.name())
        .str("contract", report.config.contract.name())
        .str("mode", report.config.mode.name());
    // Omitted for the default source so pre-STL report lines (and the CI
    // greps pinned against them) stay byte-identical.
    if report.config.source != SpecSource::Pht {
        obj = obj.str("source", report.config.source.name());
    }
    obj.str("orchestrator", orchestrator)
        .int("workers", workers as u64)
        .int("batch_programs", batch_programs as u64)
        // The seed is a string for the same reason the fingerprint is: a
        // u64 above 2^53 would be silently rounded by double-based JSON
        // readers, and a wrong seed makes the line irreproducible.
        .str("seed", &report.config.seed.to_string())
        .int("instances", report.config.instances as u64)
        .int(
            "programs_per_instance",
            report.config.programs_per_instance as u64,
        )
        .int("inputs_per_program", report.config.inputs.total() as u64)
        .int("cases", report.stats.cases as u64)
        .int("candidates", report.stats.candidates as u64)
        .int("validation_runs", report.stats.validation_runs as u64)
        .int("confirmed", report.stats.confirmed as u64)
        .bool("violation", report.violation_found())
        .int("unique_violations", report.unique_violation_count() as u64)
        .raw("classes", &classes.finish())
        .num(
            "avg_detection_s",
            report.avg_detection_seconds().unwrap_or(f64::NAN),
        )
        .num("cases_per_sec", report.throughput())
        .bool("cycle_skip", report.config.sim.cycle_skip)
        .int("sim_cycles", report.stats.sim_cycles)
        .num("cycles_per_case", report.cycles_per_case())
        .num("warp_ratio", report.warp_ratio())
        .num("wall_s", report.wall.as_secs_f64())
        .num("modeled_s", report.modeled_seconds)
        .str("fingerprint", &format!("{:#018x}", report.fingerprint()))
        .finish()
}

/// Where `--json` output goes.
pub(crate) enum JsonSink {
    None,
    Stdout,
    File(std::fs::File),
}

impl JsonSink {
    pub(crate) fn open(path: Option<String>) -> Result<Self, String> {
        match path.as_deref() {
            None => Ok(JsonSink::None),
            Some("-") => Ok(JsonSink::Stdout),
            Some(p) => std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(p)
                .map(JsonSink::File)
                .map_err(|e| format!("cannot open {p}: {e}")),
        }
    }

    pub(crate) fn line(&mut self, line: &str) -> Result<(), String> {
        use std::io::Write as _;
        match self {
            JsonSink::None => Ok(()),
            JsonSink::Stdout => {
                println!("{line}");
                Ok(())
            }
            JsonSink::File(f) => writeln!(f, "{line}").map_err(|e| format!("write failed: {e}")),
        }
    }
}

/// Shape options shared by `campaign` and `matrix`.
fn shape_config(
    defense: DefenseKind,
    contract: ContractKind,
    scale: Option<f64>,
    seed: Option<u64>,
) -> CampaignConfig {
    let mut cfg = match scale {
        Some(s) => CampaignConfig::paper_scaled(defense, contract, s),
        None => CampaignConfig::quick(defense, contract),
    };
    if let Some(seed) = seed {
        cfg.seed = seed;
    }
    cfg
}

/// The campaign-identity flags shared by `campaign`, `drive` and `worker` —
/// everything that determines the deterministic case stream (and therefore
/// the fingerprint), parsed once and reproducible as a worker command line.
#[derive(Debug, Clone)]
pub struct ShapeOptions {
    /// Defense under test.
    pub defense: DefenseKind,
    /// Contract to test against.
    pub contract: ContractKind,
    /// Paper-scaled shape at this scale (`None` = the quick shape).
    pub scale: Option<f64>,
    /// Campaign seed override.
    pub seed: Option<u64>,
    /// Stop at the first confirmed violation.
    pub find_first: bool,
    /// Speculation source under test (default: PHT branch misprediction).
    pub source: SpecSource,
    /// Disable the event-driven time-warp cycle scheduler.
    pub no_cycle_skip: bool,
}

impl ShapeOptions {
    /// Consumes the shape flags from `args`.
    pub fn parse(args: &mut Args) -> Result<Self, String> {
        Ok(ShapeOptions {
            defense: match args.value("--defense")? {
                Some(name) => parse_defense(&name)?,
                None => DefenseKind::Baseline,
            },
            contract: match args.value("--contract")? {
                Some(name) => parse_contract(&name)?,
                None => ContractKind::CtSeq,
            },
            scale: args.parsed::<f64>("--scale")?,
            seed: args.parsed::<u64>("--seed")?,
            find_first: args.flag("--find-first"),
            source: match args.value("--source")? {
                Some(name) => parse_source(&name)?,
                None => SpecSource::Pht,
            },
            no_cycle_skip: args.flag("--no-cycle-skip"),
        })
    }

    /// The campaign configuration these flags select.
    pub fn config(&self) -> CampaignConfig {
        let mut cfg = shape_config(self.defense, self.contract, self.scale, self.seed)
            .with_source(self.source);
        cfg.stop_on_first = self.find_first;
        cfg.sim.cycle_skip = !self.no_cycle_skip;
        cfg
    }

    /// The argument vector reproducing these flags on an `amulet worker`
    /// command line — how `drive` guarantees its workers resolve the exact
    /// campaign it will fingerprint (double-checked by the hello handshake).
    pub fn worker_argv(&self) -> Vec<String> {
        let cfg = self.config();
        let mut argv = vec![
            "--defense".into(),
            self.defense.name().into(),
            "--contract".into(),
            self.contract.name().into(),
            "--seed".into(),
            cfg.seed.to_string(),
        ];
        if let Some(scale) = self.scale {
            argv.push(format!("--scale={scale}"));
        }
        if self.find_first {
            argv.push("--find-first".into());
        }
        if self.source != SpecSource::Pht {
            argv.push("--source".into());
            argv.push(self.source.name().into());
        }
        if self.no_cycle_skip {
            argv.push("--no-cycle-skip".into());
        }
        argv
    }
}

fn shard_options(args: &mut Args) -> Result<ShardConfig, String> {
    let mut shard = ShardConfig::default();
    if let Some(w) = args.parsed::<usize>("--workers")? {
        shard.workers = w;
    }
    if let Some(b) = args.parsed::<usize>("--batch")? {
        shard.batch_programs = b.max(1);
    }
    Ok(shard)
}

/// `amulet campaign`.
fn cmd_campaign(mut args: Args) -> Result<(), String> {
    let shape = ShapeOptions::parse(&mut args)?;
    let shard = shard_options(&mut args)?;
    let mut sink = JsonSink::open(args.value("--json")?)?;
    args.finish()?;

    let cfg = shape.config();
    let workers = shard.resolved_workers();
    eprintln!(
        "running {} × {} ({} cases, sharded orchestrator, {workers} workers)",
        shape.defense.name(),
        shape.contract.name(),
        cfg.total_cases()
    );
    let report = Campaign::new(cfg).run_sharded(shard);
    print_report(&report);
    sink.line(&report_json(
        &report,
        "sharded",
        workers,
        shard.batch_programs,
    ))
}

/// The human-readable campaign summary `campaign` and `drive` share.
pub(crate) fn print_report(report: &CampaignReport) {
    println!("{}", CampaignReport::summary_header());
    println!("{}", report.summary_row());
    for (class, count) in report.unique_classes() {
        println!("  {:<12} × {count}", class.paper_id());
    }
    println!(
        "cycles/case: {:.0} (warp ratio {:.3})",
        report.cycles_per_case(),
        report.warp_ratio()
    );
    println!("fingerprint: {:#018x}", report.fingerprint());
}

/// `amulet matrix`.
fn cmd_matrix(mut args: Args) -> Result<(), String> {
    let _quick = args.flag("--quick"); // the default shape, accepted for symmetry
    let scale = args.parsed::<f64>("--scale")?;
    let seed = args.parsed::<u64>("--seed")?;
    let defenses = parse_list(args.value("--defenses")?, parse_defense, &DefenseKind::ALL)?;
    let contracts = parse_list(
        args.value("--contracts")?,
        parse_contract,
        &ContractKind::ALL,
    )?;
    let sources = parse_list(args.value("--sources")?, parse_source, &[SpecSource::Pht])?;
    let no_cycle_skip = args.flag("--no-cycle-skip");
    let shard = shard_options(&mut args)?;
    let mut sink = JsonSink::open(args.value("--json")?)?;
    args.finish()?;

    let workers = shard.resolved_workers();
    eprintln!(
        "matrix: {} defenses × {} contracts × {} sources, {} shape, {workers} workers",
        defenses.len(),
        contracts.len(),
        sources.len(),
        if scale.is_some() {
            "paper-scaled"
        } else {
            "quick"
        },
    );
    println!("{}", CampaignReport::summary_header());
    for &source in &sources {
        for &defense in &defenses {
            for &contract in &contracts {
                let mut cfg = shape_config(defense, contract, scale, seed).with_source(source);
                cfg.sim.cycle_skip = !no_cycle_skip;
                let report = Campaign::new(cfg).run_sharded(shard);
                println!("{}", report.summary_row());
                sink.line(&report_json(
                    &report,
                    "sharded",
                    workers,
                    shard.batch_programs,
                ))?;
            }
        }
    }
    Ok(())
}

/// `amulet boundary`: one campaign per contract in strength order, per
/// defense — the [`amulet_core::boundary`] search with a summary line per
/// defense and the deterministic JSONL table behind `--json`.
fn cmd_boundary(mut args: Args) -> Result<(), String> {
    let defenses = parse_list(args.value("--defenses")?, parse_defense, &DefenseKind::ALL)?;
    let source = match args.value("--source")? {
        Some(name) => parse_source(&name)?,
        None => SpecSource::Pht,
    };
    let scale = args.parsed::<f64>("--scale")?;
    let seed = args.parsed::<u64>("--seed")?;
    let no_cycle_skip = args.flag("--no-cycle-skip");
    let shard = shard_options(&mut args)?;
    let mut sink = JsonSink::open(args.value("--json")?)?;
    args.finish()?;

    let opts = BoundaryConfig {
        source,
        scale,
        seed,
        cycle_skip: !no_cycle_skip,
    };
    eprintln!(
        "boundary: {} defenses × {} contracts (by strength), source {source}, {} workers",
        defenses.len(),
        ContractKind::BY_STRENGTH.len(),
        shard.resolved_workers(),
    );
    let fmt = |c: Option<ContractKind>| c.map(ContractKind::name).unwrap_or("-");
    for &defense in &defenses {
        let row = boundary_row(defense, &opts, shard);
        println!(
            "{:<20} strongest satisfied: {:<8} weakest violated: {:<8} {:#018x}",
            defense.name(),
            fmt(row.strongest_satisfied()),
            fmt(row.weakest_violated()),
            row.fingerprint()
        );
        sink.line(&row.to_json())?;
    }
    Ok(())
}

/// `amulet list`.
fn cmd_list(args: Args) -> Result<(), String> {
    args.finish()?;
    println!("defenses:");
    for d in DefenseKind::ALL {
        println!("  {}", d.name());
    }
    println!("contracts:");
    for c in ContractKind::ALL {
        println!("  {}", c.name());
    }
    Ok(())
}

/// Dispatches a full argument vector (without the binary name). Returns the
/// process exit code.
pub fn run(argv: &[String]) -> i32 {
    let (sub, rest) = match argv.split_first() {
        Some((sub, rest)) => (sub.as_str(), rest),
        None => {
            eprint!("{USAGE}");
            return 2;
        }
    };
    let args = Args::new(rest);
    let result = match sub {
        "campaign" => cmd_campaign(args),
        "matrix" => cmd_matrix(args),
        "boundary" => cmd_boundary(args),
        "drive" => drive::cmd_drive(args),
        "worker" => worker::cmd_worker(args),
        "serve" => serve::cmd_serve(args),
        "submit" => serve::cmd_submit(args),
        "corpus" => serve::cmd_corpus(args),
        "list" => cmd_list(args),
        "help" | "--help" | "-h" => {
            print!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown subcommand {other:?}\n\n{USAGE}")),
    };
    match result {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("error: {e}");
            2
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amulet_core::ScanStats;
    use amulet_util::Summary;
    use std::time::Duration;

    #[test]
    fn args_flags_values_and_leftovers() {
        let raw: Vec<String> = [
            "--find-first",
            "--seed",
            "7",
            "--batch=3",
            "--defense",
            "STT",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let mut args = Args::new(&raw);
        assert!(args.flag("--find-first"));
        assert!(!args.flag("--find-first"), "flags are consumed");
        assert_eq!(args.parsed::<u64>("--seed").unwrap(), Some(7));
        assert_eq!(args.parsed::<usize>("--batch").unwrap(), Some(3));
        assert_eq!(args.value("--defense").unwrap().as_deref(), Some("STT"));
        args.finish().unwrap();

        let mut args = Args::new(&["--seed".to_string()]);
        assert!(args.value("--seed").is_err(), "dangling value flag");

        let args = Args::new(&["--bogus".to_string()]);
        assert!(args.finish().is_err(), "unknown arguments are rejected");
    }

    #[test]
    fn last_occurrence_wins() {
        let raw: Vec<String> = ["--seed=1", "--seed", "2"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let mut args = Args::new(&raw);
        assert_eq!(args.parsed::<u64>("--seed").unwrap(), Some(2));
        args.finish().unwrap();
    }

    #[test]
    fn defense_and_contract_names_round_trip() {
        for d in DefenseKind::ALL {
            assert_eq!(parse_defense(d.name()), Ok(d));
            assert_eq!(parse_defense(&d.name().to_lowercase()), Ok(d));
        }
        for c in ContractKind::ALL {
            assert_eq!(parse_contract(c.name()), Ok(c));
            assert_eq!(parse_contract(&c.name().replace('-', "")), Ok(c));
        }
        assert!(parse_defense("NoSuchDefense").is_err());
        assert!(parse_contract("CT-???").is_err());
    }

    #[test]
    fn json_escaping_and_object_building() {
        assert_eq!(json_string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_string("\u{1}"), "\"\\u0001\"");
        let obj = JsonObj::new()
            .str("name", "x")
            .int("n", 3)
            .bool("ok", true)
            .num("nan", f64::NAN)
            .raw("nested", "{}")
            .finish();
        assert_eq!(
            obj,
            "{\"name\":\"x\",\"n\":3,\"ok\":true,\"nan\":null,\"nested\":{}}"
        );
    }

    #[test]
    fn report_json_is_wellformed_and_complete() {
        let report = CampaignReport {
            config: CampaignConfig::quick(DefenseKind::SpecLfb, ContractKind::CtSeq),
            violations: Vec::new(),
            digests: Vec::new(),
            stats: ScanStats {
                cases: 672,
                classes: 96,
                candidates: 3,
                validation_runs: 12,
                confirmed: 0,
                sim_cycles: 134_400,
                warped_cycles: 100_800,
            },
            wall: Duration::from_millis(500),
            detection_times: Summary::new(),
            modeled_seconds: 1.5,
        };
        let json = report_json(&report, "sharded", 8, 4);
        for key in [
            "\"defense\":\"SpecLFB\"",
            "\"contract\":\"CT-SEQ\"",
            "\"orchestrator\":\"sharded\"",
            "\"workers\":8",
            "\"batch_programs\":4",
            "\"cases\":672",
            "\"violation\":false",
            "\"avg_detection_s\":null",
            "\"cycle_skip\":true",
            "\"sim_cycles\":134400",
            "\"cycles_per_case\":200",
            "\"warp_ratio\":0.75",
            "\"fingerprint\":\"0x",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        assert!(json.starts_with('{') && json.ends_with('}'));
    }

    #[test]
    fn parse_list_defaults_and_splits() {
        let all = parse_list(None, parse_defense, &DefenseKind::ALL).unwrap();
        assert_eq!(all, DefenseKind::ALL.to_vec());
        let two = parse_list(
            Some("Baseline, stt".into()),
            parse_defense,
            &DefenseKind::ALL,
        )
        .unwrap();
        assert_eq!(two, vec![DefenseKind::Baseline, DefenseKind::Stt]);
        assert!(parse_list(Some("nope".into()), parse_defense, &DefenseKind::ALL).is_err());
    }
}
