//! One round: a fresh process that sets up, runs a fixed op sequence,
//! and checks its outputs.
//!
//! The runner starts each round as a child process and times it from
//! spawn until the round prints `ready`, which it does as soon as its
//! first warm-up answer arrives. The round then checks every warm-up
//! answer against a fresh evaluation (a wrong one fails the round), so
//! the set-up time ends at an answer known to be correct but does not
//! include the benchmark's own checking. It then times its ops,
//! re-checks a seeded sample of them, and prints one [`RoundReport`]
//! line.

use std::io::{BufRead, BufReader, Write};
use std::path::Path;
use std::sync::{Mutex, PoisonError};

use maly_cost_model::surface::{CostSurface, SurfaceParameters};
use maly_cost_model::WaferCostModel;
use maly_cost_optim::contour::{extract_contours_with, ContourLine};
use maly_model::json::{self, Json};
use maly_model::{Error, EvalContext, Query};
use maly_par::Executor;
use maly_serve::client;
use maly_serve::{ServeConfig, Server};
use maly_units::Dollars;

use crate::clock;
use crate::workload::{self, Kind, Line, Workload};

/// What one round measured.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RoundReport {
    /// Whether the round ran with `MALY_OBS=1`.
    pub traced: bool,
    /// Timed ops completed.
    pub ops: u64,
    /// Wall time of the timed phase (ns).
    pub elapsed_ns: u64,
    /// Per-op time, in op order (ns).
    pub latencies_ns: Vec<u64>,
    /// Ops whose output was malformed, an error, or wrong.
    pub failed: u64,
    /// Ops re-evaluated and compared after the timed phase.
    pub checked: u64,
    /// Peak resident memory after the timed phase (KiB).
    pub hwm_kib: u64,
    /// Request bytes sent in the timed phase.
    pub bytes_in: u64,
    /// Response bytes received in the timed phase.
    pub bytes_out: u64,
    /// Per-kind `(name, count, total ns)` round trips.
    pub kinds: Vec<(String, u64, u64)>,
    /// Counter deltas over the timed phase, by registry name.
    pub counters: Vec<(String, u64)>,
    /// Server histogram deltas over the timed phase: `(name, count,
    /// total ns)`, fetched over `Query::ServerStats` (traced rounds).
    pub hists: Vec<(String, u64, f64)>,
    /// Total ns per timed layer call (`surface`, `contour`, …).
    pub layers: Vec<(String, f64)>,
    /// Contour segments traced in the timed phase.
    pub segments: u64,
}

impl RoundReport {
    /// The report as one JSON object.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let num = |v: u64| Json::Num(v as f64);
        Json::obj(vec![
            ("traced", Json::Bool(self.traced)),
            ("ops", num(self.ops)),
            ("elapsed_ns", num(self.elapsed_ns)),
            (
                "latencies_ns",
                Json::Arr(self.latencies_ns.iter().map(|&v| num(v)).collect()),
            ),
            ("failed", num(self.failed)),
            ("checked", num(self.checked)),
            ("hwm_kib", num(self.hwm_kib)),
            ("bytes_in", num(self.bytes_in)),
            ("bytes_out", num(self.bytes_out)),
            (
                "kinds",
                Json::Arr(
                    self.kinds
                        .iter()
                        .map(|(k, n, t)| Json::Arr(vec![Json::Str(k.clone()), num(*n), num(*t)]))
                        .collect(),
                ),
            ),
            (
                "counters",
                Json::Obj(
                    self.counters
                        .iter()
                        .map(|(k, v)| (k.clone(), num(*v)))
                        .collect(),
                ),
            ),
            (
                "hists",
                Json::Arr(
                    self.hists
                        .iter()
                        .map(|(k, n, t)| {
                            Json::Arr(vec![Json::Str(k.clone()), num(*n), Json::Num(*t)])
                        })
                        .collect(),
                ),
            ),
            (
                "layers",
                Json::Obj(
                    self.layers
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::Num(*v)))
                        .collect(),
                ),
            ),
            ("segments", num(self.segments)),
        ])
    }

    /// Parses [`RoundReport::to_json`] output.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first missing or mistyped field.
    pub fn from_json(v: &Json) -> Result<RoundReport, String> {
        let field = |name: &str| v.get(name).ok_or(format!("round report lacks `{name}`"));
        let int = |j: &Json| j.as_f64().map_or(0, |f| f as u64);
        let u = |name: &str| field(name).map(int);
        let arr = |name: &str| -> Result<Vec<Json>, String> {
            Ok(field(name)?
                .as_arr()
                .map(<[Json]>::to_vec)
                .unwrap_or_default())
        };
        let pairs = |name: &str| -> Result<Vec<(String, Json)>, String> {
            match field(name)? {
                Json::Obj(p) => Ok(p.clone()),
                _ => Err(format!("round report `{name}` is not an object")),
            }
        };
        let triple = |j: &Json| -> (String, u64, f64) {
            let items = j.as_arr().unwrap_or_default();
            let at = |i: usize| items.get(i).and_then(Json::as_f64).unwrap_or(0.0);
            let name = items
                .first()
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_string();
            (name, at(1) as u64, at(2))
        };
        Ok(RoundReport {
            traced: matches!(field("traced")?, Json::Bool(true)),
            ops: u("ops")?,
            elapsed_ns: u("elapsed_ns")?,
            latencies_ns: arr("latencies_ns")?.iter().map(int).collect(),
            failed: u("failed")?,
            checked: u("checked")?,
            hwm_kib: u("hwm_kib")?,
            bytes_in: u("bytes_in")?,
            bytes_out: u("bytes_out")?,
            kinds: arr("kinds")?
                .iter()
                .map(|j| {
                    let (k, n, t) = triple(j);
                    (k, n, t as u64)
                })
                .collect(),
            counters: pairs("counters")?
                .into_iter()
                .map(|(k, j)| (k, int(&j)))
                .collect(),
            hists: arr("hists")?.iter().map(triple).collect(),
            layers: pairs("layers")?
                .into_iter()
                .map(|(k, j)| (k, j.as_f64().unwrap_or(0.0)))
                .collect(),
            segments: u("segments")?,
        })
    }

    /// The counter delta named `name` (0 when absent).
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(k, _)| k == name)
            .map_or(0, |(_, v)| *v)
    }

    /// The `(count, total ns)` histogram delta named `name`.
    #[must_use]
    pub fn hist(&self, name: &str) -> (u64, f64) {
        self.hists
            .iter()
            .find(|(k, _, _)| k == name)
            .map_or((0, 0.0), |(_, n, t)| (*n, *t))
    }

    /// Total ns recorded for the layer call named `name`.
    #[must_use]
    pub fn layer(&self, name: &str) -> f64 {
        self.layers
            .iter()
            .find(|(k, _)| k == name)
            .map_or(0.0, |(_, v)| *v)
    }
}

/// What a round runs.
#[derive(Debug, Clone)]
pub struct RoundConfig {
    /// The workload.
    pub workload: Workload,
    /// The input seed.
    pub seed: u64,
    /// Timed ops.
    pub ops: usize,
    /// Where a traced round writes its span ndjson (`None`: nowhere).
    pub trace_out: Option<std::path::PathBuf>,
}

/// Runs one round; `ready` is called when set-up has produced its
/// first answer, which is checked before the timed phase.
///
/// # Errors
///
/// Returns a message when set-up fails, a warm-up answer is wrong, or
/// the transport breaks. Wrong timed answers are counted in
/// [`RoundReport::failed`] instead.
pub fn run(config: &RoundConfig, ready: &(dyn Fn() + Sync)) -> Result<RoundReport, String> {
    let mut report = if config.workload.is_served() {
        serve_round(config, ready)?
    } else {
        map_round(config, ready)?
    };
    report.traced = maly_obs::enabled();
    if report.traced {
        if let Some(path) = &config.trace_out {
            write_trace(path)?;
        }
    }
    Ok(report)
}

/// Writes every span and metric this process recorded as ndjson.
fn write_trace(path: &Path) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    maly_obs::write_trace(path).map_err(|e| format!("{}: {e}", path.display()))
}

/// Peak resident set size of this process (KiB), from `VmHWM`.
#[must_use]
fn peak_rss_kib() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0)
}

/// Every registry counter plus the eq. (4) memo ledger, by name.
fn counter_snapshot() -> Vec<(String, u64)> {
    let mut out: Vec<(String, u64)> = maly_obs::counters_snapshot()
        .into_iter()
        .map(|c| (c.name.to_string(), c.value))
        .collect();
    let eq4 = maly_wafer_geom::cache::stats();
    out.push(("eq4.hits".to_string(), eq4.hits));
    out.push(("eq4.misses".to_string(), eq4.misses));
    out
}

/// `after − before`, by name (a name absent before counts from 0).
fn counter_delta(before: &[(String, u64)], after: &[(String, u64)]) -> Vec<(String, u64)> {
    after
        .iter()
        .map(|(name, v)| {
            let was = before
                .iter()
                .find(|(k, _)| k == name)
                .map_or(0, |(_, b)| *b);
            (name.clone(), v.saturating_sub(was))
        })
        .collect()
}

fn io_err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

// ---------------------------------------------------------------------
// Serve workloads
// ---------------------------------------------------------------------

/// Serves on a loopback port with 2 workers and drives it closed-loop
/// over one connection from this process.
fn serve_round(config: &RoundConfig, ready: &(dyn Fn() + Sync)) -> Result<RoundReport, String> {
    let server = Server::bind(ServeConfig::bind("127.0.0.1:0").workers(2)).map_err(io_err)?;
    let handle = server.handle().map_err(io_err)?;
    let addr = handle.addr().to_string();
    let exec = Executor::from_env();
    let outcome: Mutex<Option<Result<RoundReport, String>>> = Mutex::new(None);
    // Worker 0 runs the accept loop; worker 1 is the client, which
    // closes its connection and then stops the server.
    Executor::with_threads(2).run_workers(|w| {
        if w == 0 {
            server.serve(&exec);
        } else {
            let result = drive(&addr, config, ready);
            handle.shutdown();
            *lock(&outcome) = Some(result);
        }
    });
    outcome
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner)
        .unwrap_or_else(|| Err("the client never ran".to_string()))
}

/// One connection's request/response lines.
struct Conn {
    writer: std::net::TcpStream,
    reader: BufReader<std::net::TcpStream>,
}

impl Conn {
    fn open(addr: &str) -> Result<Conn, String> {
        let stream = client::connect(addr).map_err(io_err)?;
        let writer = stream.try_clone().map_err(io_err)?;
        Ok(Conn {
            writer,
            reader: BufReader::with_capacity(1 << 16, stream),
        })
    }

    /// Sends one newline-terminated line and reads one response line
    /// into `buf`; returns the bytes read.
    fn round_trip(&mut self, line: &str, buf: &mut String) -> Result<usize, String> {
        self.writer.write_all(line.as_bytes()).map_err(io_err)?;
        buf.clear();
        match self.reader.read_line(buf).map_err(io_err)? {
            0 => Err("server closed the connection".to_string()),
            n => Ok(n),
        }
    }

    /// The server's metrics snapshot, over the wire.
    fn server_stats(&mut self) -> Result<Json, String> {
        let mut buf = String::new();
        let line = format!(
            "{}\n",
            Json::obj(vec![
                ("id", Json::Num(-1.0)),
                ("query", Query::ServerStats.to_json())
            ])
            .write()
        );
        self.round_trip(&line, &mut buf)?;
        client::decode_response(buf.trim_end()).map_err(io_err)
    }
}

/// The response line a fresh context gives for `request`: each element
/// evaluated on its own, serially, on a new [`EvalContext`].
///
/// # Errors
///
/// Returns the parse error when `request` is not JSON.
fn expected_response(request: &str) -> Result<String, String> {
    let exec = Executor::serial();
    let single = |e: &Json| {
        let id = e.get("id").cloned().unwrap_or(Json::Null);
        let result = match e.get("query") {
            Some(q) => {
                Query::from_json(q).and_then(|q| q.evaluate_with(&exec, &EvalContext::new()))
            }
            None => Err(Error::MissingField { field: "query" }),
        };
        client::expected_line(&id, &result)
    };
    Ok(match json::parse(request.trim_end())? {
        Json::Arr(items) => {
            let parts: Vec<String> = items.iter().map(single).collect();
            format!("[{}]", parts.join(","))
        }
        obj => single(&obj),
    })
}

/// Cheap in-loop check: the response answers this line's first id with
/// `ok`, carries no error object, and is complete.
fn looks_ok(response: &str, line: &Line) -> bool {
    let close = if line.kind == Kind::SurfaceTileBatch {
        "}]\n"
    } else {
        "}\n"
    };
    response.starts_with(&line.ok_prefix)
        && response.ends_with(close)
        && !response.contains("\"error\":")
}

/// `(count, total ns)` of every histogram in a `server_stats` payload.
fn stats_hists(stats: &Json) -> Vec<(String, u64, f64)> {
    match stats.get("latency") {
        Some(Json::Obj(pairs)) => pairs
            .iter()
            .map(|(name, h)| {
                let count = h.get("count").and_then(Json::as_f64).unwrap_or(0.0);
                let mean = h.get("mean_ns").and_then(Json::as_f64).unwrap_or(0.0);
                (name.clone(), count as u64, count * mean)
            })
            .collect(),
        _ => Vec::new(),
    }
}

/// The client side of a serve round.
fn drive(
    addr: &str,
    config: &RoundConfig,
    ready: &(dyn Fn() + Sync),
) -> Result<RoundReport, String> {
    let w = config.workload;
    let warm = w.warmup_ops();
    let mut conn = Conn::open(addr)?;
    let mut buf = String::new();
    let warm_lines = workload::serve_lines(w, config.seed, 0..warm);
    let mut warm_answers: Vec<String> = Vec::with_capacity(warm_lines.len());
    for line in &warm_lines {
        conn.round_trip(&line.text, &mut buf)?;
        if warm_answers.is_empty() {
            ready();
        }
        warm_answers.push(buf.clone());
    }
    for (line, answer) in warm_lines.iter().zip(&warm_answers) {
        if answer.trim_end() != expected_response(&line.text)? {
            return Err(format!(
                "warm-up answer differs from a fresh evaluation: {}",
                line.text.trim_end()
            ));
        }
    }

    let traced = maly_obs::enabled();
    let lines = workload::serve_lines(w, config.seed, warm..warm + config.ops);
    let samples = workload::sample_indices(config.seed, lines.len(), w.samples());
    let mut sampled: Vec<(usize, String)> = Vec::with_capacity(samples.len());
    let mut report = RoundReport {
        latencies_ns: Vec::with_capacity(lines.len()),
        kinds: Kind::ALL
            .iter()
            .map(|k| (k.name().to_string(), 0, 0))
            .collect(),
        ..RoundReport::default()
    };
    let stats_before = if traced {
        Some(conn.server_stats()?)
    } else {
        None
    };
    let counters_before = counter_snapshot();

    let start = clock::now();
    for (i, line) in lines.iter().enumerate() {
        let _span = maly_obs::span("bench.request");
        let t0 = clock::now();
        let n = conn.round_trip(&line.text, &mut buf)?;
        let rtt = clock::ns_since(t0);
        report.latencies_ns.push(rtt);
        if let Some(k) = report.kinds.get_mut(line.kind.index()) {
            k.1 += 1;
            k.2 += rtt;
        }
        report.bytes_in += line.text.len() as u64;
        report.bytes_out += n as u64;
        // An op counts as failed once: a malformed answer is not
        // re-checked.
        if !looks_ok(&buf, line) {
            report.failed += 1;
        } else if samples.binary_search(&i).is_ok() {
            sampled.push((i, buf.clone()));
        }
    }
    report.elapsed_ns = clock::ns_since(start);
    report.ops = lines.len() as u64;
    report.hwm_kib = peak_rss_kib();
    report.counters = counter_delta(&counters_before, &counter_snapshot());
    if let Some(before) = stats_before {
        let before = stats_hists(&before);
        let after = stats_hists(&conn.server_stats()?);
        report.hists = after
            .into_iter()
            .map(|(name, n, t)| {
                let (n0, t0) = before
                    .iter()
                    .find(|(k, _, _)| *k == name)
                    .map_or((0, 0.0), |(_, n0, t0)| (*n0, *t0));
                (name, n.saturating_sub(n0), (t - t0).max(0.0))
            })
            .collect();
    }
    drop(conn);

    let _verify = maly_obs::span("bench.verify");
    for (i, response) in &sampled {
        let Some(line) = lines.get(*i) else { continue };
        report.checked += 1;
        if response.trim_end() != expected_response(&line.text)? {
            report.failed += 1;
        }
    }
    Ok(report)
}

// ---------------------------------------------------------------------
// Fig 8 maps
// ---------------------------------------------------------------------

/// One what-if Fig 8 map.
struct Map {
    surface: CostSurface,
    contours: Vec<ContourLine>,
    optimum: Vec<Option<(f64, f64)>>,
}

impl Map {
    /// Every number in the map, as bits, for exact comparison.
    fn bits(&self) -> Vec<u64> {
        let mut out: Vec<u64> = Vec::new();
        out.extend(self.surface.lambda_axis().iter().map(|v| v.to_bits()));
        out.extend(self.surface.n_tr_axis().iter().map(|v| v.to_bits()));
        for row in self.surface.values() {
            out.extend(row.iter().map(|c| c.map_or(u64::MAX, f64::to_bits)));
        }
        for c in &self.contours {
            out.push(c.level.to_bits());
            out.push(c.segments.len() as u64);
            for ((x0, y0), (x1, y1)) in &c.segments {
                out.extend([x0, y0, x1, y1].map(|v| v.to_bits()));
            }
        }
        for o in &self.optimum {
            match o {
                Some((l, c)) => out.extend([l.to_bits(), c.to_bits()]),
                None => out.push(u64::MAX),
            }
        }
        out
    }
}

/// The Fig 8 calibration with wafer cost `(C₀, X)`.
fn map_params(c0: f64, x: f64) -> Result<SurfaceParameters, String> {
    let wafer_cost = WaferCostModel::new(Dollars::new(c0).map_err(io_err)?, x).map_err(io_err)?;
    Ok(SurfaceParameters {
        wafer_cost,
        ..SurfaceParameters::fig8()
    })
}

/// Per-call times of one map (ns).
#[derive(Default)]
struct MapTimes {
    surface: u64,
    contour: u64,
    optimum: u64,
}

/// Computes one map on `exec`, timing each layer call.
fn compute_map(exec: &Executor, params: &SurfaceParameters) -> (Map, MapTimes) {
    let _span = maly_obs::span("bench.map");
    let t0 = clock::now();
    let surface = {
        let _s = maly_obs::span("bench.surface");
        CostSurface::compute_with(exec, params, workload::MAP_LAMBDA, workload::MAP_N_TR)
    };
    let surface_ns = clock::ns_since(t0);
    let t1 = clock::now();
    let contours = {
        let _s = maly_obs::span("bench.contour");
        extract_contours_with(exec, &surface, &workload::MAP_LEVELS)
    };
    let contour_ns = clock::ns_since(t1);
    let t2 = clock::now();
    let optimum = {
        let _s = maly_obs::span("bench.optimum");
        surface.optimal_lambda_per_n_tr_with(exec)
    };
    let times = MapTimes {
        surface: surface_ns,
        contour: contour_ns,
        optimum: clock::ns_since(t2),
    };
    (
        Map {
            surface,
            contours,
            optimum,
        },
        times,
    )
}

/// In-process maps on the ambient executor, checked against the serial
/// executor.
fn map_round(config: &RoundConfig, ready: &(dyn Fn() + Sync)) -> Result<RoundReport, String> {
    let seed = config.seed;
    let warm = config.workload.warmup_ops();
    let exec = Executor::from_env();
    let serial = Executor::serial();
    let mut warm_maps: Vec<(SurfaceParameters, Map)> = Vec::with_capacity(warm);
    for i in 0..warm {
        let (c0, x) = workload::calibration(seed, i);
        let params = map_params(c0, x)?;
        let (map, _) = compute_map(&exec, &params);
        if warm_maps.is_empty() {
            ready();
        }
        warm_maps.push((params, map));
    }
    for (i, (params, map)) in warm_maps.iter().enumerate() {
        if map.bits() != compute_map(&serial, params).0.bits() {
            return Err(format!(
                "warm-up map {i} differs from the serial executor's"
            ));
        }
    }

    let params: Vec<SurfaceParameters> = (warm..warm + config.ops)
        .map(|i| {
            let (c0, x) = workload::calibration(seed, i);
            map_params(c0, x)
        })
        .collect::<Result<_, _>>()?;
    let samples = workload::sample_indices(seed, params.len(), config.workload.samples());
    let mut sampled: Vec<(usize, Map)> = Vec::with_capacity(samples.len());
    let mut report = RoundReport {
        latencies_ns: Vec::with_capacity(params.len()),
        ..RoundReport::default()
    };
    let mut totals = MapTimes::default();
    let counters_before = counter_snapshot();
    let start = clock::now();
    for (i, p) in params.iter().enumerate() {
        let t0 = clock::now();
        let (map, times) = compute_map(&exec, p);
        report.latencies_ns.push(clock::ns_since(t0));
        totals.surface += times.surface;
        totals.contour += times.contour;
        totals.optimum += times.optimum;
        report.segments += map.contours.iter().map(|c| c.len() as u64).sum::<u64>();
        if !map.optimum.iter().any(Option::is_some) {
            report.failed += 1;
        } else if samples.binary_search(&i).is_ok() {
            sampled.push((i, map));
        }
    }
    report.elapsed_ns = clock::ns_since(start);
    report.ops = params.len() as u64;
    report.hwm_kib = peak_rss_kib();
    report.counters = counter_delta(&counters_before, &counter_snapshot());

    // Sampled maps must be bit-identical on the serial executor. Each
    // check also times the surface and contour calls serial vs ambient,
    // back to back on the same input, for the parallel speedup.
    let _verify = maly_obs::span("bench.verify");
    let mut speed = [0u64; 4];
    for (i, map) in &sampled {
        let Some(p) = params.get(*i) else { continue };
        let (reference, serial_times) = compute_map(&serial, p);
        let (_, ambient_times) = compute_map(&exec, p);
        report.checked += 1;
        if reference.bits() != map.bits() {
            report.failed += 1;
        }
        speed[0] += serial_times.surface;
        speed[1] += ambient_times.surface;
        speed[2] += serial_times.contour;
        speed[3] += ambient_times.contour;
    }
    report.layers = vec![
        ("surface".to_string(), totals.surface as f64),
        ("contour".to_string(), totals.contour as f64),
        ("optimum".to_string(), totals.optimum as f64),
        ("surface.serial".to_string(), speed[0] as f64),
        ("surface.ambient".to_string(), speed[1] as f64),
        ("contour.serial".to_string(), speed[2] as f64),
        ("contour.ambient".to_string(), speed[3] as f64),
    ];
    Ok(report)
}
