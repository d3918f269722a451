//! Command line of the end-to-end benchmark (see the library docs).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::process::ExitCode;

use maly_perfbench::clock;
use maly_perfbench::report::{self, END_TO_END, PER_LAYER};
use maly_perfbench::round::{self, RoundConfig};
use maly_perfbench::runner::{self, RunConfig};
use maly_perfbench::workload::Workload;

const USAGE: &str = "usage: perfbench --workload <serve_point|serve_explore|fig8_map> \
                     --seed <n> --seconds <n> --trace <0|1> [--ops <n>]";

/// Parsed command line.
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    ops: Option<usize>,
    round: bool,
    trace_out: Option<std::path::PathBuf>,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut ops = None;
    let mut round = false;
    let mut trace_out = None;
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().ok_or(format!("`{flag}` needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload =
                    Some(Workload::parse(&name).ok_or(format!("unknown workload `{name}`"))?);
            }
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => trace = value()? == "1",
            "--ops" => ops = Some(value()?.parse().map_err(|e| format!("--ops: {e}"))?),
            "--round" => round = true,
            "--trace-out" => trace_out = Some(value()?.into()),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
        ops,
        round,
        trace_out,
    })
}

/// Child mode: one round, reported as one JSON line.
fn run_round(args: &Args) -> ExitCode {
    let config = RoundConfig {
        workload: args.workload,
        seed: args.seed,
        ops: args.ops.unwrap_or(args.workload.ops_per_round()),
        trace_out: args.trace_out.clone(),
    };
    match round::run(&config, &|| println!("ready")) {
        Ok(report) => {
            println!("{}", report.to_json().write());
            ExitCode::SUCCESS
        }
        Err(e) => {
            clock::warn(&e);
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(a) => a,
        Err(e) => {
            clock::warn(&format!("{e}\n{USAGE}"));
            return ExitCode::from(2);
        }
    };
    if args.round {
        return run_round(&args);
    }
    let config = RunConfig {
        workload: args.workload,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        ops: args.ops,
    };
    let steal_before = runner::steal_ticks();
    let start = clock::now();
    let samples = match runner::run(&config) {
        Ok(s) => s,
        Err(e) => {
            clock::warn(&e);
            return ExitCode::FAILURE;
        }
    };
    let (attempted, failed) = report::attempted_failed(&samples);
    let traced = samples.iter().filter(|s| s.report.traced).count();
    let steal = runner::steal_pct(steal_before, clock::ns_since(start))
        .map_or("n/a".to_string(), |p| format!("{p:.1}"));
    println!(
        "perfbench workload={} seed={} rounds={} traced={traced} host_steal_pct={steal}",
        args.workload.name(),
        args.seed,
        samples.len(),
    );
    let e2e = report::end_to_end(&samples);
    for m in &e2e {
        println!("metric {} {} {} {}", m.name, m.value, m.unit, m.note);
    }
    let line = if args.trace {
        let layers = report::per_layer(args.workload, &samples);
        for m in &layers {
            println!("layer {} {} {} {}", m.name, m.value, m.unit, m.note);
        }
        for s in report::identities(args.workload, &layers) {
            println!("{s}");
        }
        println!("trace {}", runner::trace_path(args.workload).display());
        report::result_line(attempted, failed, &layers, &PER_LAYER)
    } else {
        report::result_line(attempted, failed, &e2e, &END_TO_END)
    };
    println!("{line}");
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        clock::warn(&format!(
            "{failed} of {attempted} ops failed their output check"
        ));
        ExitCode::FAILURE
    }
}
