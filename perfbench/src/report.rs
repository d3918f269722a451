//! Turns a run's rounds into named metrics.
//!
//! End-to-end metrics come only from untraced rounds. Per-layer
//! metrics come from traced rounds and are per-op *means*, so they add
//! up: on a serve workload `transport.self_us + protocol.handle_us` is
//! the mean round trip, and `protocol.handle_us` is parse + evaluate +
//! write + a printed residual; on `fig8_map` the map time is surface +
//! contour + optimum + residual.

use maly_model::json::Json;

use crate::round::RoundReport;
use crate::stats::{median, quantile, ratio};
use crate::workload::{Kind, Workload};

/// One measured round and its set-up time.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Seconds from spawning the round's process to its first answer
    /// (checked correct before the round goes on).
    pub setup_s: f64,
    /// What the round measured.
    pub report: RoundReport,
}

/// A named value with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Extra context printed beside it (sample counts, bases).
    pub note: String,
}

fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
        note: String::new(),
    }
}

impl Metric {
    fn noted(mut self, note: String) -> Metric {
        self.note = note;
        self
    }
}

/// The end-to-end metrics, as named in `BENCHMARK.json`.
pub const END_TO_END: [(&str, &str); 6] = [
    ("throughput_ops_s", "ops/s"),
    ("latency_p50_us", "us"),
    ("latency_p99_us", "us"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("ok_ratio", "1"),
];

/// The per-layer metrics carried in the result line of a traced run,
/// as named in `BENCHMARK.json`. Times a workload does not exercise
/// would read a constant 0, so the result line carries each layer's
/// time as a share of the mean op; the absolute means are printed.
pub const PER_LAYER: [(&str, &str); 25] = [
    ("op.traced_us", "us"),
    ("transport.share_pct", "%"),
    ("codec.parse.share_pct", "%"),
    ("codec.write.share_pct", "%"),
    ("model.eval.share_pct", "%"),
    ("protocol.residual.share_pct", "%"),
    ("planner.plan.share_pct", "%"),
    ("surface.share_pct", "%"),
    ("contour.share_pct", "%"),
    ("optimum.share_pct", "%"),
    ("codec.bytes_out", "B/op"),
    ("planner.eval_ratio", "1"),
    ("planner.fused_dispatches", "1/op"),
    ("tile_cache.hit_ratio", "1"),
    ("model.tile_cells", "1/op"),
    ("eq1.cells", "1/op"),
    ("eq4.hit_ratio", "1"),
    ("eq4.misses", "1/op"),
    ("chiplet.die_points", "1/op"),
    ("par.parallel_maps", "1/op"),
    ("par.serial_maps", "1/op"),
    ("par.speedup.surface", "1"),
    ("par.speedup.contour", "1"),
    ("obs.overhead_pct", "%"),
    ("obs.rss_growth_mib", "MiB"),
];

fn throughput(r: &RoundReport) -> f64 {
    ratio(r.ops as f64 * 1.0e9, r.elapsed_ns as f64)
}

/// Ops attempted and failed over every round.
#[must_use]
pub fn attempted_failed(samples: &[Sample]) -> (u64, u64) {
    samples
        .iter()
        .fold((0, 0), |(a, f), s| (a + s.report.ops, f + s.report.failed))
}

/// The best tenth of the rounds that were (or were not) `traced`, at
/// least one, ranked by throughput. On a shared machine, contention
/// only ever slows a round down — in a timeline of back-to-back rounds,
/// the slow ones were the ones in which the hypervisor stole the most
/// CPU time — so the fastest rounds are the ones that measure the
/// program rather than its neighbours. Over 40-round windows of that
/// timeline, the best tenth spread least across windows; the best
/// quarter, half and the median round spread more.
fn best_rounds(samples: &[Sample], traced: bool) -> Vec<&RoundReport> {
    let mut rounds: Vec<&RoundReport> = samples
        .iter()
        .map(|s| &s.report)
        .filter(|r| r.traced == traced)
        .collect();
    rounds.sort_unstable_by(|a, b| throughput(b).total_cmp(&throughput(a)));
    rounds.truncate(rounds.len().div_ceil(10));
    rounds
}

/// The mean of `f` over `rounds` (`0.0` when empty).
fn mean_of(rounds: &[&RoundReport], f: &dyn Fn(&RoundReport) -> f64) -> f64 {
    ratio(rounds.iter().map(|r| f(r)).sum(), rounds.len() as f64)
}

/// The end-to-end metrics over the untraced rounds. Throughput and
/// peak memory are means over the best tenth of rounds; the latency
/// percentiles pool those rounds' per-op times; set-up time is the
/// median over every untraced round.
#[must_use]
pub fn end_to_end(samples: &[Sample]) -> Vec<Metric> {
    let best = best_rounds(samples, false);
    let mean = |f: &dyn Fn(&RoundReport) -> f64| mean_of(&best, f);
    let mut latencies: Vec<u64> = best
        .iter()
        .flat_map(|r| r.latencies_ns.iter().copied())
        .collect();
    latencies.sort_unstable();
    let n = latencies.len();
    let setup: Vec<f64> = samples
        .iter()
        .filter(|s| !s.report.traced)
        .map(|s| s.setup_s)
        .collect();
    let (attempted, failed) = attempted_failed(samples);
    let checked: u64 = samples.iter().map(|s| s.report.checked).sum();
    let fail_ratio = ratio(failed as f64, attempted as f64);
    let rounds_note = format!("best {} of {} rounds", best.len(), setup.len());
    vec![
        metric("throughput_ops_s", mean(&throughput), "ops/s").noted(rounds_note.clone()),
        metric(
            "latency_p50_us",
            quantile(&latencies, 0.50) as f64 / 1.0e3,
            "us",
        )
        .noted(format!("{rounds_note}, n={n}")),
        metric(
            "latency_p99_us",
            quantile(&latencies, 0.99) as f64 / 1.0e3,
            "us",
        )
        .noted(format!("{rounds_note}, n={n}, {} beyond", n / 100)),
        metric("setup_s", median(&setup), "s").noted(format!("median of {} set-ups", setup.len())),
        metric("peak_rss_mib", mean(&|r| r.hwm_kib as f64 / 1024.0), "MiB").noted(rounds_note),
        metric("ok_ratio", 1.0 - fail_ratio, "1").noted(format!(
            "{} of {attempted} ops correct, {checked} of them re-evaluated",
            attempted - failed
        )),
        metric("fail_ratio", fail_ratio, "1")
            .noted(format!("{failed} of {attempted} ops failed or wrong")),
    ]
}

/// Every per-layer metric over the traced rounds: the ones in
/// [`PER_LAYER`] plus the absolute means and counts printed beside
/// them.
#[must_use]
pub fn per_layer(workload: Workload, samples: &[Sample]) -> Vec<Metric> {
    let rounds: Vec<&RoundReport> = samples
        .iter()
        .map(|s| &s.report)
        .filter(|r| r.traced)
        .collect();
    let ops: u64 = rounds.iter().map(|r| r.ops).sum();
    let total_op_ns: f64 = rounds
        .iter()
        .flat_map(|r| r.latencies_ns.iter())
        .map(|&v| v as f64)
        .sum();
    let op_ns = ratio(total_op_ns, ops as f64);
    let counter = |name: &str| rounds.iter().map(|r| r.counter(name)).sum::<u64>() as f64;
    let per_op = |name: &str| ratio(counter(name), ops as f64);
    let hist = |name: &str| {
        rounds.iter().fold((0.0, 0.0), |(n, t), r| {
            let (rn, rt) = r.hist(name);
            (n + rn as f64, t + rt)
        })
    };
    let hist_mean_ns = |name: &str| {
        let (n, t) = hist(name);
        ratio(t, n)
    };
    let layer_ns = |name: &str| rounds.iter().map(|r| r.layer(name)).sum::<f64>();
    let share = |ns: f64| ratio(ns, op_ns) * 100.0;
    let us = |ns: f64| ns / 1.0e3;

    let mut out = vec![metric("op.traced_us", us(op_ns), "us")];

    // Serve layers: transport, protocol, codec, model, planner.
    let handle = hist_mean_ns("serve.request_ns");
    let parse = hist_mean_ns("serve.parse_ns");
    let eval = hist_mean_ns("serve.evaluate_ns");
    let write = hist_mean_ns("serve.write_ns");
    let transport = if workload.is_served() {
        op_ns - handle
    } else {
        0.0
    };
    let residual = handle - parse - eval - write;
    let (plan_n, plan_total) = hist("model.plan_ns");
    out.extend([
        metric("transport.self_us", us(transport), "us"),
        metric("protocol.handle_us", us(handle), "us"),
        metric("codec.parse_us", us(parse), "us"),
        metric("model.eval_us", us(eval), "us"),
        metric("codec.write_us", us(write), "us"),
        metric("protocol.residual_us", us(residual), "us"),
        metric("planner.plan_us", us(ratio(plan_total, plan_n)), "us"),
        metric("transport.share_pct", share(transport), "%"),
        metric("codec.parse.share_pct", share(parse), "%"),
        metric("codec.write.share_pct", share(write), "%"),
        metric("model.eval.share_pct", share(eval), "%"),
        metric("protocol.residual.share_pct", share(residual), "%"),
        metric(
            "planner.plan.share_pct",
            share(ratio(plan_total, ops as f64)),
            "%",
        ),
        metric("transport.refused", counter("serve.refused"), "count"),
        metric(
            "codec.bytes_in",
            ratio(
                rounds.iter().map(|r| r.bytes_in).sum::<u64>() as f64,
                ops as f64,
            ),
            "B/op",
        ),
        metric(
            "codec.bytes_out",
            ratio(
                rounds.iter().map(|r| r.bytes_out).sum::<u64>() as f64,
                ops as f64,
            ),
            "B/op",
        ),
        metric(
            "planner.eval_ratio",
            ratio(
                counter("plan.nodes_evaluated"),
                counter("plan.nodes_requested"),
            ),
            "1",
        ),
        metric(
            "planner.fused_dispatches",
            per_op("plan.fused_dispatches"),
            "1/op",
        ),
        metric(
            "tile_cache.hit_ratio",
            ratio(
                counter("model.tile_hits"),
                counter("model.tile_hits") + counter("model.tile_misses"),
            ),
            "1",
        ),
        metric("model.tile_cells", per_op("model.tile_cells"), "1/op"),
    ]);
    for kind in Kind::ALL {
        let (n, t) = rounds
            .iter()
            .flat_map(|r| r.kinds.iter())
            .filter(|(k, _, _)| k == kind.name())
            .fold((0u64, 0u64), |(n, t), (_, kn, kt)| (n + kn, t + kt));
        if n > 0 {
            out.push(
                metric(
                    &format!("kind.{}.rtt_us", kind.name()),
                    us(ratio(t as f64, n as f64)),
                    "us",
                )
                .noted(format!("n={n}")),
            );
        }
    }

    // Cost-model, cost-optim, wafer-geom, chiplet and par layers.
    let surface = ratio(layer_ns("surface"), ops as f64);
    let contour = ratio(layer_ns("contour"), ops as f64);
    let optimum = ratio(layer_ns("optimum"), ops as f64);
    let map_residual = if workload.is_served() {
        0.0
    } else {
        op_ns - surface - contour - optimum
    };
    let eq4_lookups = counter("eq4.hits") + counter("eq4.misses");
    let all_rounds = samples.iter().map(|s| &s.report);
    let speedup = |layer: &str| {
        let (serial, ambient) = all_rounds.clone().fold((0.0, 0.0), |(s, a), r| {
            (
                s + r.layer(&format!("{layer}.serial")),
                a + r.layer(&format!("{layer}.ambient")),
            )
        });
        ratio(serial, ambient)
    };
    out.extend([
        metric("surface.compute_us", us(surface), "us"),
        metric("contour.extract_us", us(contour), "us"),
        metric("optimum.us", us(optimum), "us"),
        metric("map.residual_us", us(map_residual), "us"),
        metric("surface.share_pct", share(surface), "%"),
        metric("contour.share_pct", share(contour), "%"),
        metric("optimum.share_pct", share(optimum), "%"),
        metric(
            "surface.ns_per_cell",
            ratio(layer_ns("surface"), counter("eq1.cells")),
            "ns",
        ),
        metric("eq1.cells", per_op("eq1.cells"), "1/op"),
        metric(
            "eq4.hit_ratio",
            ratio(counter("eq4.hits"), eq4_lookups),
            "1",
        ),
        metric("eq4.misses", per_op("eq4.misses"), "1/op"),
        metric(
            "contour.segments",
            ratio(
                rounds.iter().map(|r| r.segments).sum::<u64>() as f64,
                ops as f64,
            ),
            "1/op",
        ),
        metric("chiplet.partitions", per_op("chiplet.partitions"), "1/op"),
        metric("chiplet.die_points", per_op("chiplet.die_points"), "1/op"),
        metric("par.parallel_maps", per_op("par.parallel_maps"), "1/op"),
        metric("par.serial_maps", per_op("par.serial_maps"), "1/op"),
        metric("par.speedup.surface", speedup("surface"), "1"),
        metric("par.speedup.contour", speedup("contour"), "1"),
    ]);

    // Observability cost: traced against untraced rounds, each side
    // summarised like the end-to-end metrics.
    let (plain, traced_best) = (best_rounds(samples, false), best_rounds(samples, true));
    let rss = |r: &RoundReport| r.hwm_kib as f64 / 1024.0;
    let plain_tput = mean_of(&plain, &throughput);
    out.extend([
        metric(
            "obs.overhead_pct",
            ratio(plain_tput - mean_of(&traced_best, &throughput), plain_tput) * 100.0,
            "%",
        ),
        metric(
            "obs.rss_growth_mib",
            mean_of(&traced_best, &rss) - mean_of(&plain, &rss),
            "MiB",
        ),
    ]);
    out
}

/// The sums a traced report must satisfy, as printable lines.
#[must_use]
pub fn identities(workload: Workload, layers: &[Metric]) -> Vec<String> {
    let get = |name: &str| {
        layers
            .iter()
            .find(|m| m.name == name)
            .map_or(0.0, |m| m.value)
    };
    let op = get("op.traced_us");
    if workload.is_served() {
        vec![
            format!(
                "sum transport.self_us {:.3} + protocol.handle_us {:.3} = {:.3} us = mean round trip {op:.3} us",
                get("transport.self_us"),
                get("protocol.handle_us"),
                get("transport.self_us") + get("protocol.handle_us"),
            ),
            format!(
                "sum protocol.handle_us {:.3} = codec.parse_us {:.3} + model.eval_us {:.3} + codec.write_us {:.3} + residual {:.3} us",
                get("protocol.handle_us"),
                get("codec.parse_us"),
                get("model.eval_us"),
                get("codec.write_us"),
                get("protocol.residual_us"),
            ),
        ]
    } else {
        vec![format!(
            "sum map {op:.3} us = surface.compute_us {:.3} + contour.extract_us {:.3} + optimum.us {:.3} + residual {:.3} us",
            get("surface.compute_us"),
            get("contour.extract_us"),
            get("optimum.us"),
            get("map.residual_us"),
        )]
    }
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`
/// with the metrics named in `names`.
#[must_use]
pub fn result_line(
    attempted: u64,
    failed: u64,
    metrics: &[Metric],
    names: &[(&str, &str)],
) -> String {
    let chosen: Vec<(String, Json)> = names
        .iter()
        .map(|(name, unit)| {
            let value = metrics
                .iter()
                .find(|m| m.name == *name)
                .map_or(0.0, |m| m.value);
            (
                (*name).to_string(),
                Json::obj(vec![
                    ("value", Json::Num(value)),
                    ("unit", Json::Str((*unit).to_string())),
                ]),
            )
        })
        .collect();
    Json::obj(vec![
        ("correct", Json::Bool(failed == 0 && attempted > 0)),
        ("attempted", Json::Num(attempted as f64)),
        ("failed", Json::Num(failed as f64)),
        ("metrics", Json::Obj(chosen)),
    ])
    .write()
}
