//! The benchmark's own tests: tiny runs of every workload, seeded
//! generation, the `BENCHMARK.json` contract, the trace format and the
//! workspace lint.

use std::path::Path;
use std::process::Command;

use maly_model::json::{self, Json};
use maly_perfbench::report::{END_TO_END, PER_LAYER};
use maly_perfbench::runner::trace_path;
use maly_perfbench::workload::{calibration, serve_lines, Workload};

/// Per-layer metrics printed on `layer` lines of every traced run.
const PRINTED_LAYERS: &[&str] = &[
    "transport.self_us",
    "protocol.handle_us",
    "transport.refused",
    "codec.parse_us",
    "codec.write_us",
    "codec.bytes_in",
    "codec.bytes_out",
    "planner.plan_us",
    "planner.eval_ratio",
    "planner.fused_dispatches",
    "tile_cache.hit_ratio",
    "model.tile_cells",
    "model.eval_us",
    "surface.compute_us",
    "eq1.cells",
    "surface.ns_per_cell",
    "eq4.hit_ratio",
    "eq4.misses",
    "contour.extract_us",
    "contour.segments",
    "optimum.us",
    "chiplet.partitions",
    "chiplet.die_points",
    "par.parallel_maps",
    "par.serial_maps",
    "par.speedup.surface",
    "par.speedup.contour",
    "obs.overhead_pct",
    "obs.rss_growth_mib",
];

/// Runs the benchmark with a tiny op count; returns stdout and the
/// parsed result line.
fn tiny_run(workload: Workload, trace: bool) -> (String, Json) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload.name(),
            "--seed",
            "5",
            "--seconds",
            "0",
            "--trace",
            if trace { "1" } else { "0" },
            "--ops",
            "24",
        ])
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{} failed: {stdout}\n{}",
        workload.name(),
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    let result = json::parse(last).expect("the result line is JSON");
    (stdout, result)
}

/// Asserts the result line is correct and carries exactly `names`.
fn assert_result(result: &Json, names: &[(&str, &str)]) {
    assert!(matches!(result.get("correct"), Some(Json::Bool(true))));
    assert_eq!(result.get("failed").and_then(Json::as_f64), Some(0.0));
    let attempted = result.get("attempted").and_then(Json::as_f64);
    assert!(attempted.is_some_and(|a| a >= 1.0), "{attempted:?}");
    let Some(Json::Obj(metrics)) = result.get("metrics") else {
        panic!("no metrics object");
    };
    assert_eq!(metrics.len(), names.len());
    for (name, unit) in names {
        let m = result.get("metrics").and_then(|m| m.get(name));
        let m = m.unwrap_or_else(|| panic!("metric {name} missing"));
        assert_eq!(m.get("unit").and_then(Json::as_str), Some(*unit), "{name}");
        let value = m.get("value").and_then(Json::as_f64);
        assert!(value.is_some_and(f64::is_finite), "{name}: {value:?}");
    }
}

#[test]
fn every_workload_prints_its_end_to_end_metrics() {
    for w in Workload::ALL {
        let (stdout, result) = tiny_run(w, false);
        assert_result(&result, &END_TO_END);
        for (name, unit) in END_TO_END {
            assert!(
                stdout.contains(&format!("metric {name} "))
                    && stdout.contains(&format!(" {unit} ")),
                "{name} not printed with {unit}:\n{stdout}"
            );
        }
        assert!(stdout.contains("metric fail_ratio 0 1"), "{stdout}");
    }
}

#[test]
fn every_workload_prints_its_per_layer_metrics_and_a_valid_trace() {
    for w in Workload::ALL {
        let (stdout, result) = tiny_run(w, true);
        assert_result(&result, &PER_LAYER);
        for name in PRINTED_LAYERS
            .iter()
            .chain(PER_LAYER.iter().map(|(n, _)| n))
        {
            assert!(
                stdout.contains(&format!("layer {name} ")),
                "{name}:\n{stdout}"
            );
        }
        assert!(stdout.contains("\nsum "), "{stdout}");
        let trace = std::fs::read_to_string(trace_path(w)).expect("trace written");
        let summary = xtask::trace::check_trace(&trace).expect("trace passes trace-check");
        assert!(summary.spans > 0);
        assert!(
            trace.contains("\"name\":\"bench."),
            "benchmark spans recorded"
        );
    }
}

#[test]
fn generation_is_a_pure_function_of_the_seed() {
    for w in [Workload::ServePoint, Workload::ServeExplore] {
        let a = serve_lines(w, 7, 0..40);
        assert_eq!(a, serve_lines(w, 7, 0..40));
        assert_ne!(a, serve_lines(w, 8, 0..40));
        // Any index range regenerates the same lines.
        assert_eq!(a[10..20], serve_lines(w, 7, 10..20)[..]);
    }
    let maps = |seed| (0..40).map(|i| calibration(seed, i)).collect::<Vec<_>>();
    let bits = |v: Vec<(f64, f64)>| {
        v.iter()
            .map(|(a, b)| (a.to_bits(), b.to_bits()))
            .collect::<Vec<_>>()
    };
    assert_eq!(bits(maps(7)), bits(maps(7)));
    assert_ne!(bits(maps(7)), bits(maps(8)));
}

#[test]
fn explore_windows_never_repeat() {
    let lines = serve_lines(Workload::ServeExplore, 3, 0..400);
    let mut texts: Vec<String> = lines
        .iter()
        .map(|l| {
            l.text
                .split("\"id\":")
                .skip(1)
                .map(|e| e.split_once(',').map_or("", |x| x.1))
                .collect()
        })
        .collect();
    let n = texts.len();
    texts.sort();
    texts.dedup();
    assert_eq!(texts.len(), n);
}

#[test]
fn benchmark_json_names_what_the_code_prints() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let spec = json::parse(&text).expect("BENCHMARK.json is JSON");
    let list = |key: &str| spec.get(key).and_then(Json::as_arr).expect(key).to_vec();
    let names = |items: &[Json]| -> Vec<(String, String)> {
        items
            .iter()
            .map(|m| {
                let s = |k: &str| m.get(k).and_then(Json::as_str).unwrap_or("").to_string();
                (s("name"), s("unit"))
            })
            .collect()
    };
    let own = |v: &[(&str, &str)]| -> Vec<(String, String)> {
        v.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(names(&list("end_to_end")), own(&END_TO_END));
    assert_eq!(names(&list("per_layer")), own(&PER_LAYER));
    let workloads: Vec<String> = names(&list("workloads"))
        .into_iter()
        .map(|(n, _)| n)
        .collect();
    let ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(workloads, ours);
}

#[test]
fn benchmark_code_passes_the_workspace_lint() {
    let report = xtask::run_lint(Path::new(env!("CARGO_MANIFEST_DIR"))).expect("lint runs");
    assert!(report.is_clean(), "{}", report.render());
}
