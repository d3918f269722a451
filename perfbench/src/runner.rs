//! The runner: runs rounds as child processes until the time is up.

use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Command, Stdio};

use maly_model::json;

use crate::clock;
use crate::report::Sample;
use crate::round::RoundReport;
use crate::workload::Workload;

/// Longest a run keeps starting rounds, whatever `--seconds` says.
const MAX_RUN_SECONDS: f64 = 150.0;

/// One benchmark run's settings.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// The workload.
    pub workload: Workload,
    /// The input seed.
    pub seed: u64,
    /// How long to keep starting rounds.
    pub seconds: f64,
    /// Whether to alternate traced rounds in (per-layer run).
    pub trace: bool,
    /// Timed ops per round (the workload's default when `None`).
    pub ops: Option<usize>,
}

/// Where a traced round of `workload` writes its span ndjson.
#[must_use]
pub fn trace_path(workload: Workload) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("{}.trace.ndjson", workload.name()))
}

/// The steal ticks `/proc/stat` reports so far, summed over the
/// machine's CPUs, and the number of CPUs (`None` where it is not
/// readable). Steal is time the hypervisor ran something else while a
/// CPU of this machine had work; on a shared VM it is what moves the
/// figures most from one run to the next.
#[must_use]
pub fn steal_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let mut lines = stat.lines();
    let steal = lines.next()?.split_whitespace().nth(8)?.parse().ok()?;
    let cpus = lines.filter(|l| l.starts_with("cpu")).count() as u64;
    Some((steal, cpus))
}

/// Steal as a percentage of the CPU time that passed in `elapsed_ns`
/// since `before` was taken by [`steal_ticks`] (ticks are 1/100 s).
#[must_use]
pub fn steal_pct(before: Option<(u64, u64)>, elapsed_ns: u64) -> Option<f64> {
    let (b, cpus) = before?;
    let (a, _) = steal_ticks()?;
    let cpu_ticks = cpus as f64 * elapsed_ns as f64 / 1.0e7;
    (cpu_ticks > 0.0).then(|| 100.0 * a.saturating_sub(b) as f64 / cpu_ticks)
}

/// Runs rounds until `config.seconds` have passed: at least three
/// untraced rounds, or, with `trace`, untraced and traced rounds in
/// turn, at least one of each.
///
/// # Errors
///
/// Returns a message when a round cannot start or ends without a
/// report.
pub fn run(config: &RunConfig) -> Result<Vec<Sample>, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let start = clock::now();
    let mut samples: Vec<Sample> = Vec::new();
    loop {
        let traced = config.trace && samples.len() % 2 == 1;
        let trace_out = (traced && samples.len() == 1).then(|| trace_path(config.workload));
        samples.push(spawn_round(&exe, config, traced, trace_out)?);
        let elapsed = clock::ns_since(start) as f64 / 1.0e9;
        let per_round = elapsed / samples.len() as f64;
        let enough = samples.len() >= if config.trace { 2 } else { 3 };
        if enough && (elapsed + per_round > config.seconds || elapsed > MAX_RUN_SECONDS) {
            return Ok(samples);
        }
    }
}

/// Runs one round in a child process of this executable and times its
/// set-up from spawn to its `ready` line.
fn spawn_round(
    exe: &PathBuf,
    config: &RunConfig,
    traced: bool,
    trace_out: Option<PathBuf>,
) -> Result<Sample, String> {
    let mut cmd = Command::new(exe);
    cmd.args([
        "--round",
        "--workload",
        config.workload.name(),
        "--seed",
        &config.seed.to_string(),
        "--ops",
        &config
            .ops
            .unwrap_or(config.workload.ops_per_round())
            .to_string(),
    ]);
    if let Some(path) = &trace_out {
        cmd.arg("--trace-out").arg(path);
    }
    cmd.env("MALY_OBS", if traced { "1" } else { "0" })
        .env_remove("MALY_OBS_OUT")
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    let start = clock::now();
    let mut child = cmd
        .spawn()
        .map_err(|e| format!("cannot start a round: {e}"))?;
    let mut setup_ns = None;
    let mut lines = Vec::new();
    if let Some(stdout) = child.stdout.take() {
        for line in BufReader::new(stdout).lines() {
            let Ok(line) = line else { break };
            if setup_ns.is_none() && line == "ready" {
                setup_ns = Some(clock::ns_since(start));
            } else {
                lines.push(line);
            }
        }
    }
    let status = child.wait().map_err(|e| e.to_string())?;
    let (Some(setup_ns), true) = (setup_ns, status.success()) else {
        return Err(format!(
            "a {} round failed ({status})",
            config.workload.name()
        ));
    };
    let last = lines.last().map_or("", String::as_str);
    let report = RoundReport::from_json(&json::parse(last)?)?;
    Ok(Sample {
        setup_s: setup_ns as f64 / 1.0e9,
        report,
    })
}
