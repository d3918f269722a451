//! Loopback integration tests: a real server on 127.0.0.1, real
//! sockets, and the determinism contract checked byte for byte.
//!
//! Process-wide state (the shared EvalContext and the obs counters) is
//! serialized behind one test mutex so counter deltas are attributable.

use std::sync::{Mutex, MutexGuard, OnceLock};

use maly_model::json::{self, Json};
use maly_model::{EvalContext, Query};
use maly_par::Executor;
use maly_serve::{client, protocol, ServeConfig, Server, ServerHandle};

/// Serializes tests that observe process-global counters or the shared
/// tile cache.
fn lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

fn start(config: ServeConfig) -> (ServerHandle, std::thread::JoinHandle<()>) {
    let server = Server::bind(config).expect("bind 127.0.0.1:0");
    let handle = server.handle().expect("local addr");
    let join = std::thread::spawn(move || server.serve(&Executor::with_threads(2)));
    (handle, join)
}

fn request_line(id: f64, query: &Query) -> String {
    Json::obj(vec![("id", Json::Num(id)), ("query", query.to_json())]).write()
}

/// A mixed workload exercising every query family, including one batch
/// line (a JSON array evaluated together on the executor).
fn mixed_workload() -> Vec<String> {
    let spec_line = concat!(
        "{\"id\": 10, \"query\": {\"type\": \"product\", \"name\": \"row1\", ",
        "\"transistors\": 3.1e6, \"lambda_um\": 0.8, \"density\": 150, ",
        "\"yield0\": 0.9, \"c0\": 700, \"x\": 1.4}}"
    )
    .to_string();
    vec![
        spec_line,
        request_line(11.0, &Query::Table3Row { id: 5 }),
        request_line(12.0, &Query::Table3),
        request_line(
            13.0,
            &Query::Scenario1Sweep {
                x: 1.4,
                lambda_min: 0.3,
                lambda_max: 1.2,
                steps: 19,
            },
        ),
        request_line(
            14.0,
            &Query::Scenario2Sweep {
                x: 2.4,
                lambda_min: 0.3,
                lambda_max: 1.2,
                steps: 19,
            },
        ),
        request_line(
            15.0,
            &Query::SurfaceTile {
                lambda_min: 0.45,
                lambda_max: 1.35,
                lambda_steps: 10,
                n_tr_min: 5.0e4,
                n_tr_max: 2.0e6,
                n_tr_steps: 8,
            },
        ),
        request_line(
            16.0,
            &Query::McYield {
                products: 3,
                volume_each: 2_000.0,
                replications: 12,
                jitter: 0.3,
                seed: 99,
            },
        ),
        request_line(
            17.0,
            &Query::Roadmap {
                from: 1990,
                to: 1996,
            },
        ),
        request_line(
            18.0,
            &Query::ProductMix {
                products: 6,
                volume_each: 1_500.0,
                mono_volume: 80_000.0,
            },
        ),
        request_line(
            19.0,
            &Query::ChipletCost {
                transistors: 2.0e6,
                lambda_um: 1.0,
                chiplets: 4,
                spares: 1,
                volume: 50_000,
            },
        ),
        request_line(
            23.0,
            &Query::ChipletPartitionSweep {
                transistors: 2.0e6,
                volume: 50_000,
                lambda_min: 0.5,
                lambda_max: 1.2,
                lambda_steps: 15,
                max_chiplets: 8,
                max_spares: 1,
            },
        ),
        // One batch line: three queries answered as one array line.
        format!(
            "[{}, {}, {}]",
            Json::obj(vec![
                ("id", Json::Num(20.0)),
                ("query", Query::Table3Row { id: 1 }.to_json()),
            ])
            .write(),
            Json::obj(vec![
                ("id", Json::Num(21.0)),
                ("query", Query::Table3Row { id: 2 }.to_json()),
            ])
            .write(),
            Json::obj(vec![
                ("id", Json::Num(22.0)),
                (
                    "query",
                    Query::OptimalLambda {
                        spec: maly_model::query::ProductSpec {
                            name: "opt".to_string(),
                            transistors: 1.0e6,
                            lambda_um: 0.8,
                            density: 150.0,
                            radius_cm: 7.5,
                            yield0: 0.9,
                            c0: 700.0,
                            x: 1.4,
                        },
                        lambda_min: 0.4,
                        lambda_max: 1.2,
                        steps: 33,
                    }
                    .to_json()
                ),
            ])
            .write(),
        ),
    ]
}

/// Direct in-process evaluation of the same workload: the reference
/// bytes every served configuration must reproduce exactly.
fn direct_reference(lines: &[String]) -> Vec<String> {
    let exec = Executor::serial();
    let ctx = EvalContext::new();
    lines
        .iter()
        .map(|line| protocol::handle_line(&exec, &ctx, line))
        .collect()
}

#[test]
fn served_responses_are_bit_identical_at_1_2_8_workers() {
    let _guard = lock();
    let lines = mixed_workload();
    let expected = direct_reference(&lines);
    for workers in [1usize, 2, 8] {
        let (handle, join) = start(ServeConfig::default().workers(workers));
        let addr = handle.addr().to_string();
        let got = client::query_lines(&addr, &lines).expect("loopback round trip");
        assert_eq!(
            got, expected,
            "served bytes must match direct evaluation at {workers} workers"
        );
        handle.shutdown();
        join.join().expect("server thread exits cleanly");
    }
}

#[test]
fn concurrent_clients_get_correct_interleaved_answers() {
    let _guard = lock();
    let lines = mixed_workload();
    let expected = direct_reference(&lines);
    let (handle, join) = start(ServeConfig::default().workers(4));
    let addr = handle.addr().to_string();
    std::thread::scope(|scope| {
        let mut joins = Vec::new();
        for _client in 0..4 {
            let addr = addr.clone();
            let lines = &lines;
            let expected = &expected;
            joins.push(scope.spawn(move || {
                let got = client::query_lines(&addr, lines).expect("round trip");
                assert_eq!(&got, expected);
            }));
        }
        for j in joins {
            j.join().expect("client thread");
        }
    });
    handle.shutdown();
    join.join().expect("server thread exits cleanly");
}

#[test]
fn malformed_requests_are_rejected_with_typed_errors() {
    let _guard = lock();
    let (handle, join) = start(ServeConfig::default().workers(1));
    let addr = handle.addr().to_string();
    let lines = vec![
        "this is not json".to_string(),
        "{\"id\": 1}".to_string(),
        "{\"id\": 2, \"query\": {\"type\": \"nonsense\"}}".to_string(),
        "{\"id\": 3, \"query\": {\"type\": \"table3_row\", \"id\": 99}}".to_string(),
        "{\"id\": 4, \"query\": {\"type\": \"product\", \"transistors\": \"many\"}}".to_string(),
    ];
    let got = client::query_lines(&addr, &lines).expect("round trip");
    let kinds: Vec<String> = got
        .iter()
        .map(|line| {
            json::parse(line)
                .expect("protocol JSON")
                .get("error")
                .and_then(|e| e.get("kind"))
                .and_then(Json::as_str)
                .expect("error kind")
                .to_string()
        })
        .collect();
    assert_eq!(
        kinds,
        vec![
            "parse",
            "missing-field",
            "unsupported-query",
            "unknown-table-row",
            "invalid-field",
        ]
    );
    handle.shutdown();
    join.join().expect("server thread exits cleanly");
}

#[test]
fn oversized_payloads_are_rejected_and_the_connection_closed() {
    let _guard = lock();
    let (handle, join) = start(ServeConfig::default().workers(1).max_line_bytes(256));
    let addr = handle.addr().to_string();
    let huge = format!(
        "{{\"id\": 1, \"query\": {{\"type\": \"table3\", \"pad\": \"{}\"}}}}",
        "x".repeat(1024)
    );
    let got = client::query_lines(&addr, std::slice::from_ref(&huge)).expect("error line arrives");
    let v = json::parse(&got[0]).expect("protocol JSON");
    assert_eq!(
        v.get("error")
            .and_then(|e| e.get("kind"))
            .and_then(Json::as_str),
        Some("payload-too-large")
    );
    // Best-effort id echo: `"id": 1` sits inside the retained prefix of
    // the oversized line, so the rejection is attributable.
    assert_eq!(
        v.get("id").and_then(Json::as_f64),
        Some(1.0),
        "the id is recovered from the truncated prefix: {got:?}"
    );
    // The server closes after an oversized line: a follow-up on the
    // same connection cannot be answered, but a fresh connection works.
    let again = client::query_lines(&addr, &[request_line(2.0, &Query::Table3Row { id: 1 })])
        .expect("fresh connection serves normally");
    assert!(again[0].contains("\"ok\""));
    handle.shutdown();
    join.join().expect("server thread exits cleanly");
}

#[test]
fn warm_tile_cache_answers_repeat_queries_without_grid_work() {
    let _guard = lock();
    let (handle, join) = start(ServeConfig::default().workers(2));
    let addr = handle.addr().to_string();
    // A window no other test requests, so the first query is a real
    // cache miss attributable to this test.
    let tile = request_line(
        1.0,
        &Query::SurfaceTile {
            lambda_min: 0.55,
            lambda_max: 1.25,
            lambda_steps: 13,
            n_tr_min: 7.0e4,
            n_tr_max: 9.0e5,
            n_tr_steps: 11,
        },
    );
    let before = maly_model::context::TILE_CELLS.value();
    let hits0 = maly_model::context::TILE_HITS.value();
    let misses0 = maly_model::context::TILE_MISSES.value();
    let first = client::query_lines(&addr, std::slice::from_ref(&tile)).expect("cold query");
    let after_cold = maly_model::context::TILE_CELLS.value();
    assert_eq!(
        after_cold - before,
        13 * 11,
        "the cold query evaluates the full grid"
    );
    assert_eq!(
        maly_model::context::TILE_MISSES.value() - misses0,
        1,
        "the cold query is exactly one cache miss"
    );
    assert_eq!(maly_model::context::TILE_HITS.value() - hits0, 0);
    let second = client::query_lines(&addr, std::slice::from_ref(&tile)).expect("warm query");
    assert_eq!(
        maly_model::context::TILE_CELLS.value(),
        after_cold,
        "the warm repeat query adds zero grid-cell work"
    );
    assert_eq!(
        maly_model::context::TILE_HITS.value() - hits0,
        1,
        "the warm repeat query is exactly one cache hit"
    );
    assert_eq!(
        maly_model::context::TILE_MISSES.value() - misses0,
        1,
        "and no further miss"
    );
    assert_eq!(first, second, "warm and cold answers are byte-identical");
    handle.shutdown();
    join.join().expect("server thread exits cleanly");
}

#[test]
fn duplicate_batch_queries_answer_per_id_without_reevaluation() {
    let _guard = lock();
    let (handle, join) = start(ServeConfig::default().workers(2));
    let addr = handle.addr().to_string();
    // A window no other test requests, repeated three times in one
    // array line alongside a duplicated product query.
    let tile = Query::SurfaceTile {
        lambda_min: 0.52,
        lambda_max: 0.92,
        lambda_steps: 7,
        n_tr_min: 8.0e4,
        n_tr_max: 6.0e5,
        n_tr_steps: 6,
    };
    let product = Query::Product(maly_model::query::ProductSpec {
        name: "dup".to_string(),
        transistors: 2.0e6,
        lambda_um: 0.7,
        density: 150.0,
        radius_cm: 7.5,
        yield0: 0.9,
        c0: 700.0,
        x: 1.4,
    });
    let element =
        |id: f64, q: &Query| Json::obj(vec![("id", Json::Num(id)), ("query", q.to_json())]).write();
    let line = format!(
        "[{}, {}, {}, {}, {}]",
        element(1.0, &tile),
        element(2.0, &product),
        element(3.0, &tile),
        element(4.0, &tile),
        element(5.0, &product),
    );
    let cells0 = maly_model::context::TILE_CELLS.value();
    let queries0 = maly_model::context::QUERIES.value();
    let deduped0 = maly_model::plan::DEDUPED_QUERIES.value();
    let got = client::query_lines(&addr, std::slice::from_ref(&line)).expect("batch line");
    assert_eq!(
        maly_model::context::TILE_CELLS.value() - cells0,
        7 * 6,
        "three identical tile queries evaluate one tile"
    );
    assert_eq!(
        maly_model::context::QUERIES.value() - queries0,
        5,
        "every answered query stays on the ledger, deduped or not"
    );
    assert_eq!(
        maly_model::plan::DEDUPED_QUERIES.value() - deduped0,
        3,
        "two tile repeats and one product repeat fan out"
    );
    // One response line carrying all five ids, duplicates byte-equal.
    let batch = json::parse(&got[0]).expect("protocol JSON");
    let Json::Arr(elems) = &batch else {
        panic!("batch response must be an array");
    };
    let payload = |i: usize| -> String {
        let v = &elems[i];
        assert_eq!(v.get("id").and_then(Json::as_f64), Some((i + 1) as f64));
        v.get("ok").expect("ok payload").write()
    };
    assert_eq!(payload(0), payload(2), "duplicate tiles answer identically");
    assert_eq!(payload(0), payload(3));
    assert_eq!(payload(1), payload(4), "duplicate products too");
    handle.shutdown();
    join.join().expect("server thread exits cleanly");
}

/// Adjacent transistor counts on either side of an eq. (4) die-count
/// step, sent low, high, low, high over one socket: each keeps its own
/// count, and each repeat answers the bytes of its first answer.
#[test]
fn adjacent_products_over_one_socket_keep_their_own_die_counts() {
    let (handle, join) = start(ServeConfig::default().workers(2));
    let addr = handle.addr().to_string();
    let line = |id: f64, transistors: f64| {
        let query = Query::Product(maly_model::query::ProductSpec {
            name: "edge".to_string(),
            transistors,
            lambda_um: 0.8,
            density: 150.0,
            radius_cm: 7.5,
            yield0: 0.7,
            c0: 700.0,
            x: 1.8,
        });
        request_line(id, &query)
    };
    let (lo, hi) = (3_039_475.183_951_57, 3_039_475.183_951_570_7);
    let lines = [line(1.0, lo), line(2.0, hi), line(3.0, lo), line(4.0, hi)];
    let got = client::query_lines(&addr, &lines).expect("loopback round trip");
    let payloads: Vec<Json> = got
        .iter()
        .map(|l| {
            let response = json::parse(l).expect("protocol JSON");
            response.get("ok").expect("ok payload").clone()
        })
        .collect();
    let dies: Vec<f64> = payloads
        .iter()
        .map(|p| {
            p.get("dies_per_wafer")
                .and_then(Json::as_f64)
                .expect("dies")
        })
        .collect();
    assert_eq!(dies, [48.0, 47.0, 48.0, 47.0]);
    assert_eq!(payloads[0].write(), payloads[2].write());
    assert_eq!(payloads[1].write(), payloads[3].write());
    handle.shutdown();
    join.join().expect("server thread exits cleanly");
}

#[test]
fn request_work_counters_track_lines_and_batches() {
    let _guard = lock();
    let (handle, join) = start(ServeConfig::default().workers(1));
    let addr = handle.addr().to_string();
    let lines = vec![
        request_line(1.0, &Query::Table3Row { id: 1 }),
        format!(
            "[{}, {}]",
            Json::obj(vec![
                ("id", Json::Num(2.0)),
                ("query", Query::Table3Row { id: 2 }.to_json()),
            ])
            .write(),
            Json::obj(vec![
                ("id", Json::Num(3.0)),
                ("query", Query::Table3Row { id: 3 }.to_json()),
            ])
            .write(),
        ),
    ];
    let req_before = protocol::REQUEST_LINES.value();
    let batch_before = protocol::BATCHED_QUERIES.value();
    let queries_before = maly_model::context::QUERIES.value();
    client::query_lines(&addr, &lines).expect("round trip");
    assert_eq!(protocol::REQUEST_LINES.value() - req_before, 2);
    assert_eq!(protocol::BATCHED_QUERIES.value() - batch_before, 2);
    assert_eq!(maly_model::context::QUERIES.value() - queries_before, 3);
    handle.shutdown();
    join.join().expect("server thread exits cleanly");
}

/// Polls `cond` for up to ~2 s; panics (naming `what`) on timeout.
fn wait_until(cond: impl Fn() -> bool, what: &str) {
    for _ in 0..400 {
        if cond() {
            return;
        }
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    panic!("timed out waiting for {what}");
}

#[test]
fn queue_full_refusals_answer_overloaded_and_count() {
    use maly_serve::server::{INFLIGHT, QUEUE_DEPTH, REFUSED};
    let _guard = lock();
    let (handle, join) = start(ServeConfig::default().workers(1).queue_capacity(1));
    let addr = handle.addr().to_string();
    let refused0 = REFUSED.value();
    // Occupy the single worker: it blocks reading this idle connection.
    let a = client::connect(&addr).expect("first connection");
    wait_until(
        || INFLIGHT.value() >= 1,
        "the worker to pick up the first connection",
    );
    // Fill the one queue slot with a second idle connection.
    let b = client::connect(&addr).expect("second connection");
    wait_until(
        || QUEUE_DEPTH.value() >= 1,
        "the second connection to park in the queue",
    );
    // The third connection finds the queue full: the server answers
    // `overloaded`, closes, and counts the refusal.
    let c = client::connect(&addr).expect("third connection");
    let mut reader = std::io::BufReader::new(c);
    let mut line = String::new();
    std::io::BufRead::read_line(&mut reader, &mut line).expect("refusal line");
    let v = json::parse(line.trim_end()).expect("protocol JSON");
    assert_eq!(
        v.get("error")
            .and_then(|e| e.get("kind"))
            .and_then(Json::as_str),
        Some("overloaded"),
        "{line}"
    );
    assert_eq!(REFUSED.value() - refused0, 1);
    drop(reader);
    drop(a);
    drop(b);
    wait_until(
        || INFLIGHT.value() == 0 && QUEUE_DEPTH.value() == 0,
        "the held connections to drain",
    );
    handle.shutdown();
    join.join().expect("server thread exits cleanly");
}

/// A deterministic workload for the stats goldens: every query family
/// whose Work counters are independent of cache warmth (no surface
/// tiles — `model.tile_cells` only counts cache *misses*, and the
/// process-wide tile cache outlives each per-width server).
fn stats_workload() -> Vec<String> {
    let element =
        |id: f64, q: &Query| Json::obj(vec![("id", Json::Num(id)), ("query", q.to_json())]).write();
    vec![
        request_line(1.0, &Query::Table3Row { id: 1 }),
        request_line(2.0, &Query::Table3),
        request_line(
            3.0,
            &Query::Roadmap {
                from: 1990,
                to: 1994,
            },
        ),
        request_line(
            4.0,
            &Query::McYield {
                products: 2,
                volume_each: 1_500.0,
                replications: 8,
                jitter: 0.25,
                seed: 7,
            },
        ),
        // A duplicate-heavy batch line: dedup fan-out is part of the
        // deterministic work ledger.
        format!(
            "[{}, {}, {}, {}]",
            element(5.0, &Query::Table3Row { id: 2 }),
            element(
                6.0,
                &Query::ProductMix {
                    products: 4,
                    volume_each: 1_200.0,
                    mono_volume: 60_000.0,
                }
            ),
            element(7.0, &Query::Table3Row { id: 2 }),
            element(8.0, &Query::Table3Row { id: 2 }),
        ),
        request_line(9.0, &Query::ServerStats),
    ]
}

#[test]
fn server_stats_work_counters_are_identical_at_1_2_8_workers() {
    let _guard = lock();
    // Warm every once-per-process artifact (calibration fits) before
    // the per-width runs, so the first width doesn't count one-time
    // work the later widths skip.
    Query::Table3
        .evaluate_with(&Executor::serial(), EvalContext::process())
        .expect("warmup");
    let lines = stats_workload();
    let mut sections: Vec<String> = Vec::new();
    for workers in [1usize, 2, 8] {
        maly_obs::reset_metrics();
        let (handle, join) = start(ServeConfig::default().workers(workers));
        let addr = handle.addr().to_string();
        let got = client::query_lines(&addr, &lines).expect("round trip");
        let stats = got.last().expect("stats response");
        let v = json::parse(stats).expect("protocol JSON");
        let ok = v.get("ok").expect("stats ok payload");
        assert_eq!(ok.get("kind").and_then(Json::as_str), Some("server_stats"));
        let work = ok.get("work").expect("work section").write();
        assert!(work.contains("\"model.queries\""), "{work}");
        assert!(work.contains("\"serve.request_lines\""), "{work}");
        sections.push(work);
        handle.shutdown();
        join.join().expect("server thread exits cleanly");
    }
    assert_eq!(
        sections[0], sections[1],
        "work counters must be bit-identical at 1 vs 2 workers"
    );
    assert_eq!(
        sections[0], sections[2],
        "work counters must be bit-identical at 1 vs 8 workers"
    );
}

#[test]
fn shutdown_is_graceful_and_idempotent() {
    let _guard = lock();
    let (handle, join) = start(ServeConfig::default().workers(2));
    let addr = handle.addr().to_string();
    let got = client::query_lines(&addr, &[request_line(1.0, &Query::Table3Row { id: 4 })])
        .expect("round trip before shutdown");
    assert!(got[0].contains("\"ok\""));
    handle.shutdown();
    handle.shutdown(); // second call must be harmless
    join.join().expect("server thread exits cleanly");
}
