//! `maly-loadgen` — an open-loop, deterministically seeded traffic
//! generator for the `maly-serve` TCP service.
//!
//! The generator drives a live server (either an external `--addr` or a
//! self-hosted loopback instance) with a seeded mix of request lines:
//! single `product` and `table3_row` queries plus duplicate-heavy batch
//! lines that exercise the evaluation-plan fusion path. Send times are
//! paced open-loop — request *i* on a connection departs at
//! `i * pace_ns` regardless of how fast responses return — so a slow
//! server accumulates visible queueing latency instead of silently
//! throttling the load (closed-loop coordinated omission).
//!
//! Every response is timed client-side and bucketed into detached
//! [`maly_obs::HistogramSnapshot`]s using the registry's exact
//! quarter-octave semantics, so the p50/p90/p99/p999 figures in
//! `BENCH_serve.json` are directly comparable with the server's own
//! span-attached histograms. After the run the generator asks the
//! server for [`maly_model::Query::ServerStats`] and records the
//! request-count-determined work counters — the deterministic slice of
//! the ledger that `xtask bench-check` gates exactly.
//!
//! Thread model: one writer plus one reader worker per connection, all
//! obtained through [`maly_par::Executor::run_workers`] — the
//! workspace's one sanctioned thread source. TCP ordering pairs
//! response *i* with request *i*, so a reader recovers per-request
//! latency from an [`AtomicU64`] send-time slot without any framing
//! beyond the protocol's own line discipline.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

use maly_model::json::Json;
use maly_model::query::ProductSpec;
use maly_model::{Error, Query};
use maly_obs::{Histogram, HistogramSnapshot, HIST_BUCKETS};
use maly_par::Executor;
use maly_serve::client;
use maly_serve::config::ServeConfig;
use maly_serve::server::Server;
use maly_yield_model::prng::{UniformSource, Xoshiro256PlusPlus};

/// Work counters whose values are fully determined by the request
/// sequence — the only counters a recorded baseline may gate exactly.
/// Tile-cell counters are deliberately absent: `model.tile_cells`
/// counts cache *misses*, and miss attribution races across
/// connections even though every response stays bit-identical.
pub const WORK_WHITELIST: &[&str] = &[
    "model.queries",
    "serve.batched_queries",
    "serve.request_lines",
];

/// The five workload families, in report order. Singles land in the
/// `serve/single` bench group, batch lines in `serve/batch`.
const KINDS: &[(&str, &str)] = &[
    ("product", "serve/single"),
    ("table3_row", "serve/single"),
    ("chiplet_partition", "serve/single"),
    ("tile_dup", "serve/batch"),
    ("mixed", "serve/batch"),
];

/// Fixed surface-tile windows. A small closed set makes duplicate
/// windows common across the run, so the server's warm tile cache and
/// the plan-level dedup both get exercised.
const TILE_WINDOWS: &[(f64, f64, usize, f64, f64, usize)] = &[
    (0.5, 0.9, 4, 1.0e5, 5.0e5, 4),
    (0.8, 1.2, 4, 2.0e5, 8.0e5, 4),
    (0.6, 1.0, 5, 1.0e5, 1.0e6, 4),
];

/// Generator knobs. `Default` matches the committed `BENCH_serve.json`
/// baseline so `maly-loadgen --json …` with no flags reproduces it.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadgenConfig {
    /// Target server, or `None` to self-host a loopback instance.
    pub addr: Option<String>,
    /// Concurrent client connections (each gets a writer + a reader).
    pub connections: usize,
    /// Request lines per connection.
    pub requests: usize,
    /// Base PRNG seed; each connection derives its own stream from it.
    pub seed: u64,
    /// Open-loop inter-departure gap per connection, in nanoseconds.
    pub pace_ns: u64,
    /// Worker threads for the self-hosted server (ignored with `addr`).
    pub workers: usize,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        Self {
            addr: None,
            connections: 2,
            requests: 256,
            seed: 42,
            // Slow enough that the default mix stays below server
            // capacity on a modest machine: the recorded percentiles
            // then measure service time, not open-loop queueing blowup
            // (which grows nonlinearly with machine speed and would
            // make the baseline gate flaky). Two connections keep the
            // writer/reader thread count low — on small CI boxes,
            // oversubscription jitter lands straight in the tail.
            pace_ns: 4_000_000,
            workers: 2,
        }
    }
}

/// One request line plus the bookkeeping the reader needs to file its
/// latency sample.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Request {
    /// The wire line (no trailing newline).
    line: String,
    /// Index into [`KINDS`].
    kind: usize,
    /// Queries carried (1 for singles, element count for batches).
    queries: u64,
}

/// Client-side latency for one workload family.
#[derive(Debug, Clone)]
pub struct KindLatency {
    /// Family name (`product`, `table3_row`, `tile_dup`, `mixed`).
    pub kind: &'static str,
    /// Bench group (`serve/single` or `serve/batch`).
    pub group: &'static str,
    /// Detached quarter-octave histogram of request→response times.
    pub snapshot: HistogramSnapshot,
}

/// Everything one run measured.
#[derive(Debug, Clone)]
pub struct LoadgenReport {
    /// Connections driven.
    pub connections: usize,
    /// Request lines sent per connection.
    pub requests_per_connection: usize,
    /// Base seed the workload derived from.
    pub seed: u64,
    /// Open-loop pacing gap (ns).
    pub pace_ns: u64,
    /// Total request lines sent (excluding the final stats query).
    pub lines_sent: u64,
    /// Total queries carried by those lines (batch elements counted).
    pub queries_sent: u64,
    /// Wall-clock span of the drive phase (ns).
    pub elapsed_ns: u64,
    /// Client-side latency per workload family, in [`KINDS`] order.
    pub latency: Vec<KindLatency>,
    /// Whitelisted server work counters, name-sorted.
    pub work: Vec<(String, f64)>,
}

impl LoadgenReport {
    /// Request lines per second over the drive phase.
    #[must_use]
    pub fn lines_per_sec(&self) -> f64 {
        if self.elapsed_ns == 0 {
            return 0.0;
        }
        self.lines_sent as f64 * 1.0e9 / self.elapsed_ns as f64
    }
}

/// Runs the generator: against `config.addr` when set, otherwise
/// against a self-hosted loopback server that is shut down afterwards.
///
/// # Errors
///
/// Returns [`Error::Io`] when the server cannot be reached (or bound),
/// when any connection fails mid-run, or when the final stats query
/// comes back malformed.
pub fn run(config: &LoadgenConfig) -> Result<LoadgenReport, Error> {
    match &config.addr {
        Some(addr) => drive(addr, config),
        None => {
            let server = Server::bind(ServeConfig::bind("127.0.0.1:0").workers(config.workers))?;
            let handle = server.handle()?;
            let addr = handle.addr().to_string();
            let exec = Executor::with_threads(config.workers.max(1));
            let outcome: Mutex<Option<Result<LoadgenReport, Error>>> = Mutex::new(None);
            // Worker 0 (the calling thread) blocks in the accept loop;
            // worker 1 drives the load and then releases worker 0 with
            // a cooperative shutdown.
            Executor::with_threads(2).run_workers(|w| {
                if w == 0 {
                    server.serve(&exec);
                } else {
                    let result = drive(&addr, config);
                    handle.shutdown();
                    *lock(&outcome) = Some(result);
                }
            });
            outcome
                .into_inner()
                .unwrap_or_else(PoisonError::into_inner)
                .unwrap_or_else(|| Err(Error::Io("load driver never ran".to_string())))
        }
    }
}

/// Untimed warmup: touches every once-per-process artifact (the
/// calibration fits, each tile window in the cache, the paper tables)
/// on a throwaway connection, so the timed phase measures steady-state
/// service rather than cold-start work. Fixed queries — the warmup's
/// contribution to the server's work counters is as deterministic as
/// the seeded phase's.
fn warmup(addr: &str) -> Result<(), Error> {
    let mut queries: Vec<Query> = TILE_WINDOWS.iter().map(window_query).collect();
    queries.push(Query::Table3);
    queries.push(Query::Product(ProductSpec {
        name: "warmup".to_string(),
        transistors: 1.0e6,
        lambda_um: 0.8,
        density: 150.0,
        radius_cm: 7.5,
        yield0: 0.9,
        c0: 700.0,
        x: 1.4,
    }));
    queries.push(Query::ProductMix {
        products: 4,
        volume_each: 1_000.0,
        mono_volume: 50_000.0,
    });
    queries.push(Query::ChipletPartitionSweep {
        transistors: 2.0e6,
        volume: 100_000,
        lambda_min: 0.5,
        lambda_max: 1.2,
        lambda_steps: 8,
        max_chiplets: 6,
        max_spares: 1,
    });
    let lines: Vec<String> = queries
        .iter()
        .enumerate()
        .map(|(i, q)| element(-1.0 - i as f64, q))
        .collect();
    client::query_lines(addr, &lines).map(drop)
}

/// Drives a live server at `addr` and gathers the report.
fn drive(addr: &str, config: &LoadgenConfig) -> Result<LoadgenReport, Error> {
    warmup(addr)?;
    let connections = config.connections.max(1);
    let per_conn: Vec<Vec<Request>> = (0..connections)
        .map(|c| workload(config.seed, c as u64, config.requests.max(1)))
        .collect();
    let streams = (0..connections)
        .map(|_| client::connect(addr))
        .collect::<Result<Vec<TcpStream>, Error>>()?;
    let send_ns: Vec<Vec<AtomicU64>> = per_conn
        .iter()
        .map(|reqs| reqs.iter().map(|_| AtomicU64::new(0)).collect())
        .collect();
    let sinks: Vec<Mutex<Vec<u64>>> = KINDS.iter().map(|_| Mutex::new(Vec::new())).collect();
    let failures: Mutex<Vec<String>> = Mutex::new(Vec::new());
    let epoch = Instant::now();
    // Even workers write (paced), odd workers read (and time); worker
    // pair `2c`/`2c+1` owns connection `c`.
    Executor::with_threads(2 * connections).run_workers(|w| {
        let conn = w / 2;
        let outcome = if w % 2 == 0 {
            write_loop(
                &streams[conn],
                &per_conn[conn],
                config.pace_ns,
                epoch,
                &send_ns[conn],
            )
        } else {
            read_loop(
                &streams[conn],
                &per_conn[conn],
                epoch,
                &send_ns[conn],
                &sinks,
            )
        };
        if let Err(e) = outcome {
            lock(&failures).push(format!("connection {conn}: {e}"));
        }
    });
    let elapsed_ns = elapsed_since(epoch);
    drop(streams);
    let failures = failures
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner);
    if !failures.is_empty() {
        return Err(Error::Io(failures.join("; ")));
    }
    let latency = KINDS
        .iter()
        .zip(&sinks)
        .map(|(&(kind, group), sink)| KindLatency {
            kind,
            group,
            snapshot: detached_snapshot(kind, &lock(sink)),
        })
        .collect();
    let (lines_sent, queries_sent) = per_conn
        .iter()
        .flatten()
        .fold((0u64, 0u64), |(l, q), r| (l + 1, q + r.queries));
    Ok(LoadgenReport {
        connections,
        requests_per_connection: config.requests.max(1),
        seed: config.seed,
        pace_ns: config.pace_ns,
        lines_sent,
        queries_sent,
        elapsed_ns,
        latency,
        work: work_counters(addr)?,
    })
}

/// Writes a connection's lines at their open-loop departure times,
/// stamping each send instant for the paired reader.
fn write_loop(
    stream: &TcpStream,
    requests: &[Request],
    pace_ns: u64,
    epoch: Instant,
    send_ns: &[AtomicU64],
) -> Result<(), Error> {
    let mut writer = stream;
    for (i, request) in requests.iter().enumerate() {
        let due = (i as u64).saturating_mul(pace_ns);
        loop {
            let now = elapsed_since(epoch);
            if now >= due {
                break;
            }
            std::thread::sleep(std::time::Duration::from_nanos(due - now));
        }
        send_ns[i].store(elapsed_since(epoch), Ordering::Release);
        writer.write_all(request.line.as_bytes())?;
        writer.write_all(b"\n")?;
        writer.flush()?;
    }
    Ok(())
}

/// Reads a connection's responses in order, filing one latency sample
/// per line into the family's sink.
fn read_loop(
    stream: &TcpStream,
    requests: &[Request],
    epoch: Instant,
    send_ns: &[AtomicU64],
    sinks: &[Mutex<Vec<u64>>],
) -> Result<(), Error> {
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    for (i, request) in requests.iter().enumerate() {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Err(Error::Io(format!(
                "server closed after {i} of {} responses",
                requests.len()
            )));
        }
        let now = elapsed_since(epoch);
        let sent = send_ns[i].load(Ordering::Acquire);
        let trimmed = line.trim_start();
        if !(trimmed.starts_with('{') || trimmed.starts_with('[')) {
            return Err(Error::Io(format!("malformed response line: {trimmed}")));
        }
        lock(&sinks[request.kind]).push(now.saturating_sub(sent));
    }
    Ok(())
}

/// Fetches the server's stats snapshot and keeps the whitelisted,
/// request-count-determined work counters (name-sorted).
fn work_counters(addr: &str) -> Result<Vec<(String, f64)>, Error> {
    let stats = client::query_one(addr, &Query::ServerStats)?;
    let Some(Json::Obj(pairs)) = stats.get("work").cloned() else {
        return Err(Error::Io(
            "server_stats payload carries no work section".to_string(),
        ));
    };
    let mut work: Vec<(String, f64)> = pairs
        .into_iter()
        .filter(|(name, _)| WORK_WHITELIST.contains(&name.as_str()))
        .filter_map(|(name, value)| value.as_f64().map(|v| (name, v)))
        .collect();
    work.sort_by(|a, b| a.0.cmp(&b.0));
    Ok(work)
}

/// Builds the seeded request mix for one connection. Pure function of
/// `(seed, conn, requests)` — the whole workload, ids included, is
/// reproducible, which is what makes the server's work counters
/// baseline-comparable.
fn workload(seed: u64, conn: u64, requests: usize) -> Vec<Request> {
    let mut rng =
        Xoshiro256PlusPlus::seed_from_u64(seed ^ (conn + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let mut out = Vec::with_capacity(requests);
    for i in 0..requests {
        let id = (conn * 1_000_000 + i as u64) as f64;
        let roll = rng.next_u64() % 100;
        out.push(if roll < 30 {
            single(id, 0, &Query::Product(product_spec(&mut rng)))
        } else if roll < 52 {
            single(id, 1, &table3_row(&mut rng))
        } else if roll < 64 {
            single(id, 2, &chiplet_sweep(&mut rng))
        } else if roll < 82 {
            tile_dup_batch(id, &mut rng)
        } else {
            mixed_batch(id, &mut rng)
        });
    }
    out
}

/// One single-query request line.
fn single(id: f64, kind: usize, query: &Query) -> Request {
    Request {
        line: element(id, query),
        kind,
        queries: 1,
    }
}

/// A duplicate-heavy batch: one tile window repeated 2–3 times plus a
/// Table 3 row — the plan fusion path answers the repeats from one
/// evaluation.
fn tile_dup_batch(id: f64, rng: &mut Xoshiro256PlusPlus) -> Request {
    let tile = tile_query(rng);
    let copies = 2 + (rng.next_u64() % 2);
    let mut elements: Vec<String> = (0..copies)
        .map(|j| element(id + j as f64 / 10.0, &tile))
        .collect();
    elements.push(element(id + 0.9, &table3_row(rng)));
    batch(elements, 3)
}

/// A mixed batch: a duplicated product, a tile, and a product-mix
/// study — fusion dedups the product pair, the rest evaluate fresh.
fn mixed_batch(id: f64, rng: &mut Xoshiro256PlusPlus) -> Request {
    let product = Query::Product(product_spec(rng));
    let elements = vec![
        element(id, &product),
        element(id + 0.1, &tile_query(rng)),
        element(id + 0.2, &product),
        element(
            id + 0.3,
            &Query::ProductMix {
                products: 2 + (rng.next_u64() % 6) as usize,
                volume_each: 1_000.0,
                mono_volume: 50_000.0,
            },
        ),
    ];
    batch(elements, 4)
}

fn batch(elements: Vec<String>, kind: usize) -> Request {
    Request {
        queries: elements.len() as u64,
        line: format!("[{}]", elements.join(", ")),
        kind,
    }
}

fn element(id: f64, query: &Query) -> String {
    Json::obj(vec![("id", Json::Num(id)), ("query", query.to_json())]).write()
}

fn product_spec(rng: &mut Xoshiro256PlusPlus) -> ProductSpec {
    const TRANSISTORS: &[f64] = &[1.0e6, 2.0e6, 3.1e6, 5.0e6];
    const LAMBDAS: &[f64] = &[0.5, 0.7, 0.8, 1.0];
    ProductSpec {
        name: "loadgen".to_string(),
        transistors: TRANSISTORS[(rng.next_u64() % 4) as usize],
        lambda_um: LAMBDAS[(rng.next_u64() % 4) as usize],
        density: 150.0,
        radius_cm: 7.5,
        yield0: 0.9,
        c0: 700.0,
        x: if rng.next_u64() % 2 == 0 { 1.4 } else { 2.4 },
    }
}

fn table3_row(rng: &mut Xoshiro256PlusPlus) -> Query {
    Query::Table3Row {
        id: 1 + (rng.next_u64() % 17) as u8,
    }
}

/// A small partition search (8 λ × 6 chiplet counts × 2 spare levels =
/// 96 candidates) over a closed set of system sizes and volumes, sized
/// so a single request costs the same order as a tile batch.
fn chiplet_sweep(rng: &mut Xoshiro256PlusPlus) -> Query {
    const TRANSISTORS: &[f64] = &[1.0e6, 2.0e6];
    const VOLUMES: &[u64] = &[50_000, 100_000];
    Query::ChipletPartitionSweep {
        transistors: TRANSISTORS[(rng.next_u64() % 2) as usize],
        volume: VOLUMES[(rng.next_u64() % 2) as usize],
        lambda_min: 0.5,
        lambda_max: 1.2,
        lambda_steps: 8,
        max_chiplets: 6,
        max_spares: 1,
    }
}

fn tile_query(rng: &mut Xoshiro256PlusPlus) -> Query {
    window_query(&TILE_WINDOWS[(rng.next_u64() % TILE_WINDOWS.len() as u64) as usize])
}

fn window_query(window: &(f64, f64, usize, f64, f64, usize)) -> Query {
    let &(lambda_min, lambda_max, lambda_steps, n_tr_min, n_tr_max, n_tr_steps) = window;
    Query::SurfaceTile {
        lambda_min,
        lambda_max,
        lambda_steps,
        n_tr_min,
        n_tr_max,
        n_tr_steps,
    }
}

/// Buckets raw samples with the registry's exact bucket semantics, so
/// percentiles here and in the server's exported histograms
/// interpolate identically.
fn detached_snapshot(name: &'static str, samples: &[u64]) -> HistogramSnapshot {
    let mut buckets = vec![0u64; HIST_BUCKETS];
    let mut total_ns = 0u64;
    for &ns in samples {
        buckets[Histogram::index_for(ns)] += 1;
        total_ns = total_ns.saturating_add(ns);
    }
    HistogramSnapshot {
        name,
        count: samples.len() as u64,
        total_ns,
        buckets,
    }
}

/// Renders the report in the `BENCH_sweeps.json`-compatible layout
/// `xtask bench-check` parses: a parallelism header, `benches` records
/// with `median_ns` + percentile fields, a `throughput` record (keyed
/// `per_sec`, invisible to the median and counter gates by design),
/// and the exactly-gated `counters` whitelist.
#[must_use]
pub fn render_json(report: &LoadgenReport) -> String {
    let threads_env = std::env::var(maly_par::THREADS_ENV_VAR).ok();
    let mut out = String::from("{\n");
    out.push_str(&format!(
        "  \"available_parallelism\": {},\n",
        maly_par::default_parallelism()
    ));
    out.push_str(&format!(
        "  \"maly_par_threads\": {},\n",
        threads_env.map_or_else(|| "null".to_string(), |t| format!("\"{t}\""))
    ));
    out.push_str(&format!(
        "  \"loadgen\": {{\"connections\": {}, \"requests_per_connection\": {}, \
         \"seed\": {}, \"pace_ns\": {}}},\n",
        report.connections, report.requests_per_connection, report.seed, report.pace_ns
    ));
    out.push_str("  \"benches\": [\n");
    for (i, family) in report.latency.iter().enumerate() {
        let comma = if i + 1 < report.latency.len() {
            ","
        } else {
            ""
        };
        let p = family.snapshot.latency_percentiles();
        out.push_str(&format!(
            "    {{\"group\": \"{}\", \"name\": \"{}\", \"median_ns\": {:.1}, \
             \"p90_ns\": {:.1}, \"p99_ns\": {:.1}, \"p999_ns\": {:.1}, \"samples\": {}}}{comma}\n",
            family.group,
            family.kind,
            p.p50_ns,
            p.p90_ns,
            p.p99_ns,
            p.p999_ns,
            family.snapshot.count
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"throughput\": [\n");
    out.push_str(&format!(
        "    {{\"group\": \"serve/throughput\", \"name\": \"request_lines\", \
         \"per_sec\": {:.3}, \"elapsed_ns\": {}}}\n",
        report.lines_per_sec(),
        report.elapsed_ns
    ));
    out.push_str("  ],\n");
    out.push_str("  \"counters\": [\n");
    let mut counters: Vec<(String, f64)> = vec![
        ("loadgen.lines_sent".to_string(), report.lines_sent as f64),
        (
            "loadgen.queries_sent".to_string(),
            report.queries_sent as f64,
        ),
    ];
    counters.extend(report.work.iter().cloned());
    for (i, (name, value)) in counters.iter().enumerate() {
        let comma = if i + 1 < counters.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"group\": \"serve/work\", \"name\": \"{name}\", \"value\": {value}}}{comma}\n"
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// A human summary for the terminal (the JSON file is the artifact).
#[must_use]
pub fn render_summary(report: &LoadgenReport) -> String {
    let mut out = format!(
        "loadgen: {} lines ({} queries) over {} connections in {:.1} ms — {:.0} lines/s\n",
        report.lines_sent,
        report.queries_sent,
        report.connections,
        report.elapsed_ns as f64 / 1.0e6,
        report.lines_per_sec()
    );
    for family in &report.latency {
        let p = family.snapshot.latency_percentiles();
        out.push_str(&format!(
            "  {:>10}  n={:<4} p50={:>9.0}ns p90={:>9.0}ns p99={:>9.0}ns p999={:>9.0}ns\n",
            family.kind, family.snapshot.count, p.p50_ns, p.p90_ns, p.p99_ns, p.p999_ns
        ));
    }
    for (name, value) in &report.work {
        out.push_str(&format!("  work {name} = {value}\n"));
    }
    out
}

fn elapsed_since(epoch: Instant) -> u64 {
    u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

fn lock<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_is_deterministic_and_connection_distinct() {
        let a = workload(42, 0, 32);
        let b = workload(42, 0, 32);
        let c = workload(42, 1, 32);
        assert_eq!(a, b, "same seed and connection replay byte-identically");
        assert_ne!(a, c, "connections derive distinct streams");
        assert_eq!(a.len(), 32);
        let mut seen = [false; 5];
        for request in &a {
            assert!(request.kind < KINDS.len());
            assert!(request.queries >= 1);
            if request.kind >= 3 {
                assert!(request.line.starts_with('['), "batches are array lines");
                assert!(request.queries >= 3);
            }
            seen[request.kind] = true;
        }
        assert!(
            seen.iter().all(|&s| s),
            "32 requests cover every workload family"
        );
    }

    #[test]
    fn workload_lines_parse_as_protocol_json() {
        for request in workload(7, 3, 16) {
            let v = maly_model::json::parse(&request.line).expect("valid JSON");
            match v {
                Json::Arr(elems) => assert_eq!(elems.len() as u64, request.queries),
                Json::Obj(_) => assert_eq!(request.queries, 1),
                other => panic!("unexpected request shape: {other:?}"),
            }
        }
    }

    #[test]
    fn detached_snapshot_matches_registry_bucketing() {
        let samples = [100, 100, 200, 400, 800, 100_000];
        let snap = detached_snapshot("test", &samples);
        assert_eq!(snap.count, 6);
        assert_eq!(snap.total_ns, samples.iter().sum::<u64>());
        assert_eq!(snap.buckets.iter().sum::<u64>(), 6);
        let p50 = snap.percentile_ns(0.50);
        assert!(p50 >= 100.0 && p50 <= 400.0, "median near the mass: {p50}");
        assert!(snap.percentile_ns(1.0) >= 65_536.0, "max lands high");
    }

    #[test]
    fn render_json_has_every_gated_section() {
        let report = LoadgenReport {
            connections: 2,
            requests_per_connection: 8,
            seed: 42,
            pace_ns: 1_000,
            lines_sent: 16,
            queries_sent: 30,
            elapsed_ns: 2_000_000,
            latency: KINDS
                .iter()
                .map(|&(kind, group)| KindLatency {
                    kind,
                    group,
                    snapshot: detached_snapshot(kind, &[1_000, 2_000, 4_000]),
                })
                .collect(),
            work: vec![
                ("model.queries".to_string(), 31.0),
                ("serve.request_lines".to_string(), 17.0),
            ],
        };
        let json = render_json(&report);
        assert!(json.contains("\"available_parallelism\": "));
        assert!(json.contains("\"maly_par_threads\": "));
        assert!(json.contains("\"group\": \"serve/single\", \"name\": \"product\""));
        assert!(json.contains("\"group\": \"serve/single\", \"name\": \"chiplet_partition\""));
        assert!(json.contains("\"group\": \"serve/batch\", \"name\": \"mixed\""));
        assert!(json.contains("\"median_ns\": "));
        assert!(json.contains("\"p99_ns\": "));
        assert!(json.contains("\"per_sec\": "));
        assert!(json.contains("\"name\": \"model.queries\", \"value\": 31"));
        assert!(
            !json.contains("\"per_sec\": 0.000"),
            "throughput is non-zero"
        );
        assert_eq!(report.lines_per_sec(), 8_000.0);
    }

    #[test]
    fn self_hosted_run_reports_deterministic_work_counters() {
        let config = LoadgenConfig {
            connections: 2,
            requests: 6,
            pace_ns: 0,
            workers: 2,
            ..LoadgenConfig::default()
        };
        let before_lines = lines_counter();
        let report = run(&config).expect("self-hosted run");
        assert_eq!(report.lines_sent, 12);
        assert!(report.queries_sent >= 12);
        let sampled: u64 = report.latency.iter().map(|f| f.snapshot.count).sum();
        assert_eq!(sampled, 12, "every line yields exactly one sample");
        assert!(report.elapsed_ns > 0);
        // The self-hosted server shares this process's registry: the
        // run adds its 12 timed lines, the 7 fixed warmup lines, and
        // the final stats query.
        assert_eq!(
            lines_counter() - before_lines,
            20.0,
            "work ledger advances by warmup + timed lines + the stats line"
        );
        let names: Vec<&str> = report.work.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(
            names,
            WORK_WHITELIST.to_vec(),
            "every whitelisted counter reports"
        );
    }

    fn lines_counter() -> f64 {
        maly_serve::protocol::REQUEST_LINES.value() as f64
    }
}
