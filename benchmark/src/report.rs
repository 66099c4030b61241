//! Output rows, the metric registry, provenance and the small statistics
//! every workload shares.
//!
//! Every line the benchmark prints to stdout is one JSON object. The last
//! line is the summary (`correct`, `attempted`, `failed`, `metrics`); every
//! line before it is a row tagged by its `row` field.

use amulet_core::{CampaignReport, ViolationClass};
use amulet_util::JsonObj;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Duration;

/// End-to-end metrics, printed by every workload with `--trace 0`:
/// `(name, unit)`. `BENCHMARK.json` declares exactly this list.
pub const END_TO_END: &[(&str, &str)] = &[
    ("cases_per_s", "1/s"),
    ("result_p50_s", "s"),
    ("result_tail_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics, printed by every workload with `--trace 1`.
/// `BENCHMARK.json` declares exactly this list. Serve-only layer metrics
/// (`service.*`) are printed as rows by `serve_stl` and are not in this
/// list, because the in-process workloads have no service layer to time.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("inputs.boost_us_per_case", "us"),
    ("contracts.ctrace_us_per_case", "us"),
    ("inputs.cases_per_class", "count"),
    ("sim.us_per_case", "us"),
    ("sim.ns_per_sim_cycle", "ns"),
    ("sim.cycles_per_case", "count"),
    ("sim.warp_ratio", "ratio"),
    ("detect.self_us_per_case", "us"),
    ("detect.validation_runs_per_case", "count"),
    ("detect.confirmed_per_candidate", "ratio"),
    ("generator.us_per_program", "us"),
    ("shard.batch_ms_p50", "ms"),
    ("shard.worker_idle_share", "ratio"),
    ("shard.reduce_ms", "ms"),
    ("proto.encode_us_per_msg", "us"),
    ("proto.decode_us_per_msg", "us"),
    ("proto.bytes_per_fragment", "bytes"),
    ("journal.append_us", "us"),
    ("journal.bytes_per_campaign", "bytes"),
    ("journal.recover_ms", "ms"),
    ("corpus.records", "count"),
    ("trace.cases_per_s", "1/s"),
    ("trace.overhead_share", "ratio"),
];

/// Metrics printed as rows only, never in the summary line:
/// `ttfv_p50_s` (KV3 detection is too rare for a steady median within one
/// run — see README.md), `failed_ratio` (0 on a correct run; the summary's
/// `failed`/`attempted` carry it) and the serve-only `service.*` layer.
pub const ROW_ONLY: &[(&str, &str)] = &[
    ("ttfv_p50_s", "s"),
    ("failed_ratio", "ratio"),
    ("service.first_batch_ms_p50", "ms"),
    ("service.batch_ms_p50", "ms"),
    ("service.overhead_share", "ratio"),
    ("service.cache_hit_ms_p50", "ms"),
];

/// The unit of a registered metric.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .chain(ROW_ONLY)
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
}

/// Where a run came from, stamped on every metric row.
#[derive(Debug, Clone)]
pub struct Provenance {
    /// `git rev-parse HEAD` when the checkout is a git work tree, else
    /// `"none"`.
    pub rev: String,
    /// FNV-1a over the repository's build inputs (every file under
    /// `crates/` plus the root manifest and lock file) — identifies the
    /// code in checkouts that are not git work trees.
    pub tree: String,
    /// `rustc --version`.
    pub rustc: String,
    /// Hardware threads available to this process.
    pub nproc: usize,
    /// Whether this run is the traced one.
    pub trace: bool,
}

impl Provenance {
    /// Collects provenance for a run from the checkout in the current
    /// directory.
    pub fn collect(trace: bool) -> Self {
        let rev = if Path::new(".git").exists() {
            command_line("git", &["rev-parse", "HEAD"])
        } else {
            None
        };
        Provenance {
            rev: rev.unwrap_or_else(|| "none".into()),
            tree: format!("{:016x}", tree_hash(Path::new("."))),
            rustc: command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into()),
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            trace,
        }
    }

    fn stamp(&self, obj: JsonObj) -> JsonObj {
        obj.str("rev", &self.rev)
            .str("tree", &self.tree)
            .str("rustc", &self.rustc)
            .int("nproc", self.nproc as u64)
            .bool("traced", self.trace)
    }
}

/// First stdout line of a command, if it ran and succeeded.
fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(program)
        .args(args)
        .output()
        .ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8_lossy(&out.stdout);
    text.lines().next().map(|l| l.trim().to_string())
}

/// FNV-1a over the relative path and bytes of every file under `crates/`,
/// plus the root `Cargo.toml` and `Cargo.lock`, in sorted path order.
fn tree_hash(root: &Path) -> u64 {
    fn walk(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            match entry.file_type() {
                Ok(t) if t.is_dir() => walk(&path, out),
                Ok(t) if t.is_file() => out.push(path),
                _ => {}
            }
        }
    }
    let mut files = vec![root.join("Cargo.toml"), root.join("Cargo.lock")];
    walk(&root.join("crates"), &mut files);
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut feed = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for f in files {
        if let Ok(bytes) = std::fs::read(&f) {
            feed(f.to_string_lossy().as_bytes());
            feed(&bytes);
        }
    }
    h
}

/// The row sink: prints each row as it is made (unless captured) and keeps
/// a copy for the self-test.
#[derive(Debug)]
pub struct Out {
    prov: Provenance,
    workload: &'static str,
    echo: bool,
    /// Every line emitted so far.
    pub lines: Vec<String>,
}

impl Out {
    /// A sink for `workload`; `echo` prints to stdout as rows are made.
    pub fn new(prov: Provenance, workload: &'static str, echo: bool) -> Self {
        Out {
            prov,
            workload,
            echo,
            lines: Vec::new(),
        }
    }

    /// Whether this is the traced run.
    pub fn traced(&self) -> bool {
        self.prov.trace
    }

    fn emit(&mut self, line: String) {
        if self.echo {
            println!("{line}");
        }
        self.lines.push(line);
    }

    /// A row of the given kind, pre-filled with the workload name; `build`
    /// adds the row's own fields.
    pub fn row(&mut self, kind: &str, build: impl FnOnce(JsonObj) -> JsonObj) {
        let obj = JsonObj::new()
            .str("row", kind)
            .str("workload", self.workload);
        self.emit(build(obj).finish());
    }

    /// A metric row: name, value, unit, any extra fields, and provenance.
    pub fn metric(&mut self, name: &str, value: f64, extra: impl FnOnce(JsonObj) -> JsonObj) {
        let unit = unit_of(name).unwrap_or_else(|| panic!("unregistered metric {name}"));
        let obj = JsonObj::new()
            .str("row", "metric")
            .str("workload", self.workload)
            .str("name", name)
            .num("value", value)
            .str("unit", unit);
        let line = self.prov.stamp(extra(obj)).finish();
        self.emit(line);
    }

    /// The summary line: the metrics of this run's mode, every one of them
    /// present, plus the campaign counts.
    pub fn summary(&mut self, metrics: &BTreeMap<&'static str, f64>, attempted: u64, failed: u64) {
        let list = if self.prov.trace {
            PER_LAYER
        } else {
            END_TO_END
        };
        let mut m = JsonObj::new();
        for (name, unit) in list {
            let value = metrics
                .get(name)
                .copied()
                .unwrap_or_else(|| panic!("workload produced no {name}"));
            m = m.raw(
                name,
                &JsonObj::new()
                    .num("value", value)
                    .str("unit", unit)
                    .finish(),
            );
        }
        let line = JsonObj::new()
            .bool("correct", failed == 0 && attempted > 0)
            .int("attempted", attempted)
            .int("failed", failed)
            .raw("metrics", &m.finish())
            .finish();
        self.emit(line);
    }
}

/// Median of `xs` (0 when empty).
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 50)
}

/// Nearest-rank percentile `p` of `xs` (0 when empty).
pub fn percentile(xs: &[f64], p: usize) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v[rank(v.len(), p)]
}

/// Zero-based nearest-rank index of percentile `p` among `n` samples.
fn rank(n: usize, p: usize) -> usize {
    ((p * n).div_ceil(100)).clamp(1, n) - 1
}

/// Highest percentile a tail is read at. Higher ones rest on the few
/// slowest samples of a run, which a moment of host contention sets.
const TAIL_MAX: usize = 90;

/// The highest percentile of `n` samples, at most [`TAIL_MAX`], that leaves
/// at least ten samples above it; 50 when there are too few samples for any
/// tail.
pub fn tail_percentile(n: usize) -> usize {
    (50..=TAIL_MAX)
        .rev()
        .find(|&p| n > 0 && n - 1 - rank(n, p) >= 10)
        .unwrap_or(50)
}

/// Seconds as `f64`.
pub fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Length of one peak-memory window.
const RSS_WINDOW: Duration = Duration::from_secs(3);

/// Peak resident memory per [`RSS_WINDOW`] of a timed phase. At every
/// window boundary the process's high-water mark (`VmHWM`) is read, free
/// heap memory is returned to the kernel, and the mark is reset to the
/// current resident set (`/proc/self/clear_refs`, value 5);
/// `peak_rss_mib` is the median window peak. The lifetime peak is not
/// steady: one campaign that holds large violation artefacts (inputs and
/// validation debug logs) for a moment sets it for the whole run, and
/// whether a run meets such a campaign depends on the seed.
#[derive(Debug)]
pub struct RssWindows {
    start: std::time::Instant,
    peaks: Vec<f64>,
    error: Option<String>,
}

impl RssWindows {
    /// Resets the high-water mark and opens the first window.
    pub fn start() -> Result<Self, String> {
        reset_peak_rss()?;
        Ok(RssWindows {
            start: std::time::Instant::now(),
            peaks: Vec::new(),
            error: None,
        })
    }

    /// Closes the current window if it is a second old. Call it often.
    pub fn tick(&mut self) {
        if self.start.elapsed() >= RSS_WINDOW {
            self.close();
        }
    }

    fn close(&mut self) {
        let peak = peak_rss_mib();
        release_free_memory();
        match peak.and_then(|p| reset_peak_rss().map(|()| p)) {
            Ok(p) => self.peaks.push(p),
            Err(e) => self.error = Some(e),
        }
        self.start = std::time::Instant::now();
    }

    /// Closes the last window; returns every window's peak (MiB).
    pub fn finish(mut self) -> Result<Vec<f64>, String> {
        self.close();
        match self.error {
            Some(e) => Err(e),
            None => Ok(self.peaks),
        }
    }
}

/// Peak resident memory over a fixed amount of work rather than a fixed
/// time: the high-water mark is reset when the span opens and read once,
/// when its work is done. For a workload whose resident set grows with the
/// work done — the daemon caches every result — a median over time windows
/// would read higher the faster the program runs.
#[derive(Debug)]
pub struct RssSpan {
    trimmed: std::time::Instant,
    peak: Option<Result<f64, String>>,
}

impl RssSpan {
    /// Resets the high-water mark and opens the span.
    pub fn start() -> Result<Self, String> {
        reset_peak_rss()?;
        Ok(RssSpan {
            trimmed: std::time::Instant::now(),
            peak: None,
        })
    }

    /// Returns free heap memory to the kernel if that was last done a
    /// [`RSS_WINDOW`] ago, so the mark follows the live set rather than
    /// what the allocator keeps. Call it often.
    pub fn tick(&mut self) {
        if self.peak.is_none() && self.trimmed.elapsed() >= RSS_WINDOW {
            release_free_memory();
            self.trimmed = std::time::Instant::now();
        }
    }

    /// Reads the span's peak (MiB); later calls keep the first reading.
    pub fn close(&mut self) {
        if self.peak.is_none() {
            self.peak = Some(peak_rss_mib());
        }
    }

    /// The span's peak (MiB), read now if the span is still open.
    pub fn finish(mut self) -> Result<f64, String> {
        self.close();
        self.peak.expect("closed above")
    }
}

/// Returns the allocator's free memory to the kernel (glibc `malloc_trim`).
///
/// Worker threads are started per campaign; when a campaign's threads start
/// while the previous campaign's threads are still exiting, glibc gives them
/// a fresh arena, and the old arena keeps the freed input images resident.
/// Without a trim at each window boundary the resident set steps up by one
/// worker's images (14 MiB on the STT shape) on some runs and not others,
/// so the window peaks would measure that race instead of the working set.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn release_free_memory() {
    extern "C" {
        fn malloc_trim(pad: usize) -> i32;
    }
    // SAFETY: `malloc_trim` is glibc's documented call to release free heap
    // memory; it takes a size by value, locks each arena it trims, and only
    // returns pages that hold no live allocation.
    unsafe {
        malloc_trim(0);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn release_free_memory() {}

fn reset_peak_rss() -> Result<(), String> {
    std::fs::write("/proc/self/clear_refs", "5")
        .map_err(|e| format!("cannot reset the peak resident set: {e}"))
}

/// Peak resident set of this process in MiB (`VmHWM`).
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kib / 1024.0)
}

/// Prints one campaign's fingerprint, counters and classes.
pub fn campaign_row(
    out: &mut Out,
    index: usize,
    report: &CampaignReport,
    extra: impl FnOnce(JsonObj) -> JsonObj,
) {
    let s = report.stats;
    let classes: Vec<String> = report
        .unique_classes()
        .keys()
        .map(|c| format!("\"{}\"", c.paper_id()))
        .collect();
    out.row("campaign", |o| {
        extra(o.int("index", index as u64))
            .str("defense", report.config.defense.name())
            .str("contract", report.config.contract.name())
            .str("source", report.config.source.name())
            .int("seed", report.config.seed)
            .str("fingerprint", &format!("{:#018x}", report.fingerprint()))
            .int("cases", s.cases as u64)
            .int("classes", s.classes as u64)
            .int("candidates", s.candidates as u64)
            .int("validation_runs", s.validation_runs as u64)
            .int("confirmed", s.confirmed as u64)
            .int("sim_cycles", s.sim_cycles)
            .raw("violation_classes", &format!("[{}]", classes.join(",")))
            .num("wall_s", report.wall.as_secs_f64())
    });
}

/// A JSON array of sample values.
pub fn samples(xs: &[f64]) -> String {
    let items: Vec<String> = xs.iter().map(|x| format!("{x}")).collect();
    format!("[{}]", items.join(","))
}

/// Prints every violation class a workload found, with counts.
pub fn classes_row(out: &mut Out, classes: &BTreeMap<ViolationClass, usize>) {
    let list: Vec<String> = classes
        .iter()
        .map(|(c, n)| format!("\"{}\":{n}", c.paper_id()))
        .collect();
    out.row("violation_classes", |o| {
        o.raw("classes", &format!("{{{}}}", list.join(",")))
    });
}

/// Prints the result-time metrics shared by every workload: `result_p50_s`
/// and `result_tail_s` over `walls`.
pub fn result_metrics(out: &mut Out, m: &mut BTreeMap<&'static str, f64>, walls: &[f64]) {
    let n = walls.len() as u64;
    let p = tail_percentile(walls.len());
    let p50 = median(walls);
    let tail = percentile(walls, p);
    out.metric("result_p50_s", p50, |o| o.int("n", n));
    out.metric("result_tail_s", tail, |o| {
        o.int("percentile", p as u64).int("n", n)
    });
    m.insert("result_p50_s", p50);
    m.insert("result_tail_s", tail);
}

#[cfg(test)]
/// Parses a summary line and checks its shape against the registry:
/// exactly the four keys, and for the given mode exactly the registered
/// metric names, each with its registered unit and a finite value.
pub fn check_summary(line: &str, traced: bool) -> Result<BTreeMap<String, f64>, String> {
    use amulet_util::{parse_json, JsonValue};
    let v = parse_json(line)?;
    let JsonValue::Obj(fields) = &v else {
        return Err("summary is not an object".into());
    };
    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    if keys != ["correct", "attempted", "failed", "metrics"] {
        return Err(format!("summary keys {keys:?}"));
    }
    let attempted = v.get("attempted").and_then(JsonValue::as_u64);
    let failed = v.get("failed").and_then(JsonValue::as_u64);
    if attempted.unwrap_or(0) < 1 || failed.is_none() {
        return Err("attempted/failed must be whole numbers, attempted >= 1".into());
    }
    v.get("correct")
        .and_then(JsonValue::as_bool)
        .ok_or("correct is not a boolean")?;
    let Some(JsonValue::Obj(metrics)) = v.get("metrics") else {
        return Err("metrics is not an object".into());
    };
    let want = if traced { PER_LAYER } else { END_TO_END };
    let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
    let want_names: Vec<&str> = want.iter().map(|(n, _)| *n).collect();
    if names != want_names {
        return Err(format!("metric names {names:?}, want {want_names:?}"));
    }
    let mut out = BTreeMap::new();
    for ((name, m), (_, unit)) in metrics.iter().zip(want) {
        let value = m
            .get("value")
            .and_then(JsonValue::as_f64)
            .filter(|x| x.is_finite())
            .ok_or(format!("{name}: no finite value"))?;
        if m.get("unit").and_then(JsonValue::as_str) != Some(unit) {
            return Err(format!("{name}: unit is not {unit}"));
        }
        out.insert(name.clone(), value);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(median(&xs), 50.0);
        assert_eq!(percentile(&xs, 90), 90.0);
        assert_eq!(percentile(&[3.0], 99), 3.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        assert_eq!(tail_percentile(100), 90);
        assert_eq!(tail_percentile(1000), 90, "capped at TAIL_MAX");
        assert_eq!(tail_percentile(50), 80);
        assert_eq!(tail_percentile(12), 50, "too few samples for a tail");
        for n in [21, 50, 333, 5000] {
            let p = tail_percentile(n);
            assert!(n - 1 - rank(n, p) >= 10, "n={n} p={p}");
        }
    }

    #[test]
    fn summary_checker_rejects_wrong_shapes() {
        assert!(check_summary(r#"{"correct":true,"attempted":1,"failed":0}"#, false).is_err());
        assert!(check_summary(
            r#"{"correct":true,"attempted":0,"failed":0,"metrics":{}}"#,
            false
        )
        .is_err());
    }
}
