//! Wire-codec byte goldens: one pinned serialization per [`Query`] and
//! [`QueryResponse`] variant.
//!
//! The wire format is a compatibility surface — deployed clients parse
//! these exact bytes, and the versioned envelope (`"v": 1`) promises
//! that version 1 bytes never change shape silently. Any diff here is
//! a wire-format change and must be intentional: either bump the
//! protocol version or fix the regression.
//!
//! The `all_variants_are_pinned` matches have no wildcard arm, so
//! adding a `Query`/`QueryResponse` variant fails compilation until a
//! golden is added here.

use maly_model::json;
use maly_model::query::{
    ChipletReport, ChipletSweepReport, LatencyReport, McSummary, MixReport, OptimalReport,
    ProductReport, ProductSpec, Query, QueryResponse, RoadmapRow, StatsReport, SurfaceReport,
    SweepPoint, Table3Report,
};

fn spec() -> ProductSpec {
    ProductSpec {
        name: "golden µP".to_string(),
        transistors: 3.1e6,
        lambda_um: 0.8,
        density: 150.0,
        radius_cm: 7.5,
        yield0: 0.9,
        c0: 700.0,
        x: 1.4,
    }
}

fn chiplet_report() -> ChipletReport {
    ChipletReport {
        chiplets: 4,
        spares: 1,
        lambda_um: 1.0,
        transistors_per_chiplet: 5.0e5,
        known_good_die_cost: 6.25,
        assembly_yield: 0.960_596_01,
        system_yield: 0.956_75,
        packaging_cost: 23.0,
        nre_per_system: 7.0,
        cost_per_system: 65.25,
    }
}

/// Every `Query` variant with fixed field values, in declaration
/// order, paired with its pinned wire bytes.
fn query_goldens() -> Vec<(Query, &'static str)> {
    vec![
        (
            Query::Product(spec()),
            "{\"type\":\"product\",\"name\":\"golden µP\",\"transistors\":3100000,\"lambda_um\":0.8,\"density\":150,\"radius_cm\":7.5,\"yield0\":0.9,\"c0\":700,\"x\":1.4}",
        ),
        (
            Query::Table3Row { id: 13 },
            "{\"type\":\"table3_row\",\"id\":13}",
        ),
        (Query::Table3, "{\"type\":\"table3\"}"),
        (
            Query::Scenario1Sweep {
                x: 1.4,
                lambda_min: 0.3,
                lambda_max: 1.2,
                steps: 11,
            },
            "{\"type\":\"scenario1_sweep\",\"x\":1.4,\"lambda_min\":0.3,\"lambda_max\":1.2,\"steps\":11}",
        ),
        (
            Query::Scenario2Sweep {
                x: 2.4,
                lambda_min: 0.3,
                lambda_max: 1.2,
                steps: 11,
            },
            "{\"type\":\"scenario2_sweep\",\"x\":2.4,\"lambda_min\":0.3,\"lambda_max\":1.2,\"steps\":11}",
        ),
        (
            Query::SurfaceTile {
                lambda_min: 0.4,
                lambda_max: 1.5,
                lambda_steps: 8,
                n_tr_min: 2.0e4,
                n_tr_max: 4.0e6,
                n_tr_steps: 6,
            },
            "{\"type\":\"surface_tile\",\"lambda_min\":0.4,\"lambda_max\":1.5,\"lambda_steps\":8,\"n_tr_min\":20000,\"n_tr_max\":4000000,\"n_tr_steps\":6}",
        ),
        (
            Query::OptimalLambda {
                spec: spec(),
                lambda_min: 0.3,
                lambda_max: 1.2,
                steps: 21,
            },
            "{\"type\":\"optimal_lambda\",\"name\":\"golden µP\",\"transistors\":3100000,\"lambda_um\":0.8,\"density\":150,\"radius_cm\":7.5,\"yield0\":0.9,\"c0\":700,\"x\":1.4,\"lambda_min\":0.3,\"lambda_max\":1.2,\"steps\":21}",
        ),
        (
            Query::McYield {
                products: 2,
                volume_each: 1_000.0,
                replications: 10,
                jitter: 0.3,
                seed: 7,
            },
            "{\"type\":\"mc_yield\",\"products\":2,\"volume_each\":1000,\"replications\":10,\"jitter\":0.3,\"seed\":7}",
        ),
        (
            Query::Roadmap {
                from: 1990,
                to: 1994,
            },
            "{\"type\":\"roadmap\",\"from\":1990,\"to\":1994}",
        ),
        (
            Query::ProductMix {
                products: 4,
                volume_each: 1_000.0,
                mono_volume: 50_000.0,
            },
            "{\"type\":\"product_mix\",\"products\":4,\"volume_each\":1000,\"mono_volume\":50000}",
        ),
        (Query::ServerStats, "{\"type\":\"server_stats\"}"),
        (
            Query::ChipletCost {
                transistors: 2.0e6,
                lambda_um: 1.0,
                chiplets: 4,
                spares: 1,
                volume: 50_000,
            },
            "{\"type\":\"chiplet_cost\",\"transistors\":2000000,\"lambda_um\":1,\"chiplets\":4,\"spares\":1,\"volume\":50000}",
        ),
        (
            Query::ChipletPartitionSweep {
                transistors: 2.0e6,
                volume: 50_000,
                lambda_min: 0.5,
                lambda_max: 1.2,
                lambda_steps: 15,
                max_chiplets: 8,
                max_spares: 1,
            },
            "{\"type\":\"chiplet_partition_sweep\",\"transistors\":2000000,\"volume\":50000,\"lambda_min\":0.5,\"lambda_max\":1.2,\"lambda_steps\":15,\"max_chiplets\":8,\"max_spares\":1}",
        ),
    ]
}

/// Every `QueryResponse` variant with fixed field values, in
/// declaration order, paired with its pinned wire bytes.
fn response_goldens() -> Vec<(QueryResponse, &'static str)> {
    vec![
        (
            QueryResponse::Product(ProductReport {
                name: "golden µP".to_string(),
                die_area_cm2: 2.976,
                wafer_cost: 1_780.5,
                dies_per_wafer: 46,
                die_yield: 0.125,
                good_dies_per_wafer: 5.75,
                cost_per_good_die: 309.65,
                cost_per_transistor_micro: 9.4,
            }),
            "{\"kind\":\"product\",\"name\":\"golden µP\",\"die_area_cm2\":2.976,\"wafer_cost\":1780.5,\"dies_per_wafer\":46,\"die_yield\":0.125,\"good_dies_per_wafer\":5.75,\"cost_per_good_die\":309.65,\"cost_per_transistor_micro\":9.4}",
        ),
        (
            QueryResponse::Table3(vec![Table3Report {
                id: 1,
                name: "BiCMOS µP".to_string(),
                paper_micro_dollars: 9.4,
                model_micro_dollars: 9.398,
            }]),
            "{\"kind\":\"table3\",\"rows\":[{\"id\":1,\"name\":\"BiCMOS µP\",\"paper_micro_dollars\":9.4,\"model_micro_dollars\":9.398}]}",
        ),
        (
            QueryResponse::Sweep(vec![
                SweepPoint {
                    lambda_um: 0.5,
                    cost_per_transistor: 1.25e-5,
                },
                SweepPoint {
                    lambda_um: 0.8,
                    cost_per_transistor: 9.4e-6,
                },
            ]),
            "{\"kind\":\"sweep\",\"points\":[[0.5,0.0000125],[0.8,0.0000094]]}",
        ),
        (
            QueryResponse::Surface(SurfaceReport {
                lambda_axis: vec![0.5, 1.0],
                n_tr_axis: vec![1.0e5, 2.0e5],
                values: vec![vec![Some(1.5e-5), None], vec![Some(2.5e-5), Some(3.5e-5)]],
                optimal_lambda_per_n_tr: vec![Some((0.5, 1.5e-5)), None],
                global_minimum: Some((0.5, 1.0e5, 1.5e-5)),
            }),
            "{\"kind\":\"surface\",\"lambda_axis\":[0.5,1],\"n_tr_axis\":[100000,200000],\"values\":[[0.000015,null],[0.000025,0.000035]],\"optimal_lambda_per_n_tr\":[[0.5,0.000015],null],\"global_minimum\":[0.5,100000,0.000015]}",
        ),
        (
            QueryResponse::OptimalLambda(Some(OptimalReport {
                lambda_um: 0.65,
                cost_per_transistor: 8.2e-6,
            })),
            "{\"kind\":\"optimal_lambda\",\"best\":{\"lambda_um\":0.65,\"cost_per_transistor\":0.0000082}}",
        ),
        (
            QueryResponse::Mc(McSummary {
                replications: 10,
                mean_wafer_cost: 2_150.25,
                min_wafer_cost: 1_900.5,
                max_wafer_cost: 2_400.75,
                mean_utilization: 0.85,
                cost_spread: 1.263,
            }),
            "{\"kind\":\"mc\",\"replications\":10,\"mean_wafer_cost\":2150.25,\"min_wafer_cost\":1900.5,\"max_wafer_cost\":2400.75,\"mean_utilization\":0.85,\"cost_spread\":1.263}",
        ),
        (
            QueryResponse::Roadmap(vec![RoadmapRow {
                year: 1994.0,
                lambda_um: 0.5,
                optimistic_micro: 1.8,
                realistic_micro: 3.6,
            }]),
            "{\"kind\":\"roadmap\",\"rows\":[{\"year\":1994,\"lambda_um\":0.5,\"optimistic_micro\":1.8,\"realistic_micro\":3.6}]}",
        ),
        (
            QueryResponse::ProductMix(MixReport {
                mono_cost: 1_000.0,
                multi_cost: 6_800.0,
                cost_ratio: 6.8,
                mono_utilization: 0.9,
                multi_utilization: 0.35,
            }),
            "{\"kind\":\"product_mix\",\"mono_cost\":1000,\"multi_cost\":6800,\"cost_ratio\":6.8,\"mono_utilization\":0.9,\"multi_utilization\":0.35}",
        ),
        (
            QueryResponse::ServerStats(StatsReport {
                work: vec![("model.queries".to_string(), 12)],
                diag: vec![("plan.deduped_queries".to_string(), 3)],
                gauges: vec![("serve.queue_depth".to_string(), -1)],
                latency: vec![LatencyReport {
                    name: "serve.request_ns".to_string(),
                    count: 4,
                    mean_ns: 1_500.0,
                    p50_ns: 1_200.0,
                    p90_ns: 2_000.0,
                    p99_ns: 2_400.0,
                    p999_ns: 2_450.0,
                }],
            }),
            "{\"kind\":\"server_stats\",\"work\":{\"model.queries\":12},\"diag\":{\"plan.deduped_queries\":3},\"gauges\":{\"serve.queue_depth\":-1},\"latency\":{\"serve.request_ns\":{\"count\":4,\"mean_ns\":1500,\"p50_ns\":1200,\"p90_ns\":2000,\"p99_ns\":2400,\"p999_ns\":2450}}}",
        ),
        (
            QueryResponse::Chiplet(chiplet_report()),
            "{\"kind\":\"chiplet\",\"chiplets\":4,\"spares\":1,\"lambda_um\":1,\"transistors_per_chiplet\":500000,\"known_good_die_cost\":6.25,\"assembly_yield\":0.96059601,\"system_yield\":0.95675,\"packaging_cost\":23,\"nre_per_system\":7,\"cost_per_system\":65.25}",
        ),
        (
            QueryResponse::ChipletSweep(ChipletSweepReport {
                evaluated: 240,
                feasible: 240,
                best: chiplet_report(),
                per_chiplet_count: vec![chiplet_report()],
            }),
            "{\"kind\":\"chiplet_sweep\",\"evaluated\":240,\"feasible\":240,\"best\":{\"chiplets\":4,\"spares\":1,\"lambda_um\":1,\"transistors_per_chiplet\":500000,\"known_good_die_cost\":6.25,\"assembly_yield\":0.96059601,\"system_yield\":0.95675,\"packaging_cost\":23,\"nre_per_system\":7,\"cost_per_system\":65.25},\"per_chiplet_count\":[{\"chiplets\":4,\"spares\":1,\"lambda_um\":1,\"transistors_per_chiplet\":500000,\"known_good_die_cost\":6.25,\"assembly_yield\":0.96059601,\"system_yield\":0.95675,\"packaging_cost\":23,\"nre_per_system\":7,\"cost_per_system\":65.25}]}",
        ),
    ]
}

/// Compile-time exhaustiveness: adding a variant to either enum breaks
/// these matches (no wildcard arm), forcing a golden to be added above.
fn query_variant_index(q: &Query) -> usize {
    match q {
        Query::Product(_) => 0,
        Query::Table3Row { .. } => 1,
        Query::Table3 => 2,
        Query::Scenario1Sweep { .. } => 3,
        Query::Scenario2Sweep { .. } => 4,
        Query::SurfaceTile { .. } => 5,
        Query::OptimalLambda { .. } => 6,
        Query::McYield { .. } => 7,
        Query::Roadmap { .. } => 8,
        Query::ProductMix { .. } => 9,
        Query::ServerStats => 10,
        Query::ChipletCost { .. } => 11,
        Query::ChipletPartitionSweep { .. } => 12,
    }
}

fn response_variant_index(r: &QueryResponse) -> usize {
    match r {
        QueryResponse::Product(_) => 0,
        QueryResponse::Table3(_) => 1,
        QueryResponse::Sweep(_) => 2,
        QueryResponse::Surface(_) => 3,
        QueryResponse::OptimalLambda(_) => 4,
        QueryResponse::Mc(_) => 5,
        QueryResponse::Roadmap(_) => 6,
        QueryResponse::ProductMix(_) => 7,
        QueryResponse::ServerStats(_) => 8,
        QueryResponse::Chiplet(_) => 9,
        QueryResponse::ChipletSweep(_) => 10,
    }
}

#[test]
fn every_query_variant_serializes_to_its_pinned_bytes() {
    let goldens = query_goldens();
    // One golden per variant, in declaration order.
    for (i, (q, _)) in goldens.iter().enumerate() {
        assert_eq!(query_variant_index(q), i, "goldens out of order at {i}");
    }
    for (q, expected) in &goldens {
        assert_eq!(&q.to_json().write(), expected, "wire bytes for {q:?}");
    }
}

#[test]
fn every_query_golden_parses_back_to_its_query() {
    for (q, expected) in &query_goldens() {
        let parsed = json::parse(expected).expect("golden bytes parse as JSON");
        assert_eq!(
            &Query::from_json(&parsed).expect("golden bytes decode"),
            q,
            "round trip for {expected}"
        );
    }
}

#[test]
fn every_response_variant_serializes_to_its_pinned_bytes() {
    let goldens = response_goldens();
    for (i, (r, _)) in goldens.iter().enumerate() {
        assert_eq!(response_variant_index(r), i, "goldens out of order at {i}");
    }
    for (r, expected) in &goldens {
        assert_eq!(&r.to_json().write(), expected, "wire bytes for {r:?}");
    }
}

/// Every `Query` variant's minimal object (required fields only) with
/// the query it decodes to, in declaration order: this pins every
/// wire default.
fn minimal_query_goldens() -> Vec<(&'static str, Query)> {
    let minimal_spec = ProductSpec {
        name: "query".to_string(),
        radius_cm: 7.5,
        ..spec()
    };
    vec![
        (
            "{\"type\":\"product\",\"transistors\":3100000,\"lambda_um\":0.8,\"density\":150,\"yield0\":0.9,\"c0\":700,\"x\":1.4}",
            Query::Product(minimal_spec.clone()),
        ),
        (
            "{\"type\":\"table3_row\",\"id\":13}",
            Query::Table3Row { id: 13 },
        ),
        ("{\"type\":\"table3\"}", Query::Table3),
        (
            "{\"type\":\"scenario1_sweep\",\"x\":1.4}",
            Query::Scenario1Sweep {
                x: 1.4,
                lambda_min: 0.2,
                lambda_max: 1.2,
                steps: 41,
            },
        ),
        (
            "{\"type\":\"scenario2_sweep\",\"x\":2.4}",
            Query::Scenario2Sweep {
                x: 2.4,
                lambda_min: 0.2,
                lambda_max: 1.2,
                steps: 41,
            },
        ),
        (
            "{\"type\":\"surface_tile\",\"lambda_min\":0.4,\"lambda_max\":1.5,\"lambda_steps\":8,\"n_tr_min\":20000,\"n_tr_max\":4000000,\"n_tr_steps\":6}",
            Query::SurfaceTile {
                lambda_min: 0.4,
                lambda_max: 1.5,
                lambda_steps: 8,
                n_tr_min: 2.0e4,
                n_tr_max: 4.0e6,
                n_tr_steps: 6,
            },
        ),
        (
            "{\"type\":\"optimal_lambda\",\"transistors\":3100000,\"lambda_um\":0.8,\"density\":150,\"yield0\":0.9,\"c0\":700,\"x\":1.4}",
            Query::OptimalLambda {
                spec: minimal_spec,
                lambda_min: 0.3,
                lambda_max: 1.2,
                steps: 481,
            },
        ),
        (
            "{\"type\":\"mc_yield\"}",
            Query::McYield {
                products: 4,
                volume_each: 5_000.0,
                replications: 200,
                jitter: 0.3,
                seed: 0,
            },
        ),
        (
            "{\"type\":\"roadmap\"}",
            Query::Roadmap {
                from: 1986,
                to: 2002,
            },
        ),
        (
            "{\"type\":\"product_mix\"}",
            Query::ProductMix {
                products: 8,
                volume_each: 1_000.0,
                mono_volume: 100_000.0,
            },
        ),
        ("{\"type\":\"server_stats\"}", Query::ServerStats),
        (
            "{\"type\":\"chiplet_cost\",\"transistors\":2000000,\"lambda_um\":1,\"chiplets\":4}",
            Query::ChipletCost {
                transistors: 2.0e6,
                lambda_um: 1.0,
                chiplets: 4,
                spares: 0,
                volume: 100_000,
            },
        ),
        (
            "{\"type\":\"chiplet_partition_sweep\",\"transistors\":2000000}",
            Query::ChipletPartitionSweep {
                transistors: 2.0e6,
                volume: 100_000,
                lambda_min: 0.5,
                lambda_max: 1.2,
                lambda_steps: 15,
                max_chiplets: 8,
                max_spares: 1,
            },
        ),
    ]
}

#[test]
fn every_minimal_query_decodes_with_its_pinned_defaults() {
    let goldens = minimal_query_goldens();
    for (i, (_, q)) in goldens.iter().enumerate() {
        assert_eq!(query_variant_index(q), i, "goldens out of order at {i}");
    }
    assert_eq!(goldens.len(), query_goldens().len(), "one per variant");
    for (text, expected) in &goldens {
        let parsed = json::parse(text).expect("golden text parses as JSON");
        assert_eq!(
            &Query::from_json(&parsed).expect("minimal object decodes"),
            expected,
            "defaults for {text}"
        );
    }
}

#[test]
fn u64_fields_accept_integers_beyond_u32() {
    let text = "{\"type\":\"chiplet_cost\",\"transistors\":2000000,\"lambda_um\":1,\"chiplets\":4,\"volume\":5e9}";
    let q = Query::from_json(&json::parse(text).unwrap()).expect("5e9 is a valid volume");
    assert!(matches!(
        q,
        Query::ChipletCost {
            volume: 5_000_000_000,
            ..
        }
    ));
    let text = "{\"type\":\"mc_yield\",\"seed\":9007199254740992}";
    let q = Query::from_json(&json::parse(text).unwrap()).expect("2^53 is a valid seed");
    assert!(matches!(
        q,
        Query::McYield {
            seed: 9_007_199_254_740_992,
            ..
        }
    ));
}

/// Request objects the decoder rejects, each with the exact error
/// `kind` and message a client sees.
const DECODE_ERRORS: &[(&str, &str, &str)] = &[
    ("{}", "missing-field", "missing field `type`"),
    (
        "{\"type\":7}",
        "invalid-field",
        "invalid field `type`: expected a string",
    ),
    (
        "{\"type\":\"nonsense\"}",
        "unsupported-query",
        "unsupported query type `nonsense`",
    ),
    (
        "{\"type\":\"product\",\"lambda_um\":0.8,\"density\":150,\"yield0\":0.9,\"c0\":700,\"x\":1.4}",
        "missing-field",
        "missing field `transistors`",
    ),
    (
        "{\"type\":\"product\",\"name\":5,\"transistors\":3100000,\"lambda_um\":0.8,\"density\":150,\"yield0\":0.9,\"c0\":700,\"x\":1.4}",
        "invalid-field",
        "invalid field `name`: expected a string",
    ),
    (
        "{\"type\":\"product\",\"transistors\":\"3.1e6\",\"lambda_um\":0.8,\"density\":150,\"yield0\":0.9,\"c0\":700,\"x\":1.4}",
        "invalid-field",
        "invalid field `transistors`: expected a number",
    ),
    (
        "{\"type\":\"optimal_lambda\",\"transistors\":3100000,\"lambda_um\":0.8,\"density\":150,\"yield0\":0.9,\"c0\":700,\"x\":1.4,\"steps\":20.5}",
        "invalid-field",
        "invalid field `steps`: expected a non-negative integer, got 20.5",
    ),
    (
        "{\"type\":\"table3_row\"}",
        "missing-field",
        "missing field `id`",
    ),
    (
        "{\"type\":\"table3_row\",\"id\":2.5}",
        "invalid-field",
        "invalid field `id`: expected a non-negative integer, got 2.5",
    ),
    (
        "{\"type\":\"table3_row\",\"id\":300}",
        "invalid-field",
        "invalid field `id`: expected an integer in 0..=255, got 300",
    ),
    (
        "{\"type\":\"scenario1_sweep\"}",
        "missing-field",
        "missing field `x`",
    ),
    (
        "{\"type\":\"scenario2_sweep\",\"x\":2.4,\"steps\":-3}",
        "invalid-field",
        "invalid field `steps`: expected a non-negative integer, got -3",
    ),
    (
        "{\"type\":\"surface_tile\",\"lambda_min\":0.4,\"lambda_max\":1.5,\"lambda_steps\":8.5,\"n_tr_min\":20000,\"n_tr_max\":4000000,\"n_tr_steps\":6}",
        "invalid-field",
        "invalid field `lambda_steps`: expected a non-negative integer, got 8.5",
    ),
    (
        "{\"type\":\"surface_tile\",\"lambda_min\":0.4,\"lambda_max\":1.5,\"lambda_steps\":8,\"n_tr_min\":20000,\"n_tr_max\":4000000}",
        "missing-field",
        "missing field `n_tr_steps`",
    ),
    (
        "{\"type\":\"mc_yield\",\"seed\":\"7\"}",
        "invalid-field",
        "invalid field `seed`: expected a number",
    ),
    (
        "{\"type\":\"mc_yield\",\"seed\":1.5}",
        "invalid-field",
        "invalid field `seed`: expected a non-negative integer, got 1.5",
    ),
    (
        "{\"type\":\"mc_yield\",\"seed\":1e17}",
        "invalid-field",
        "invalid field `seed`: expected an integer in 0..=9007199254740992, got 100000000000000000",
    ),
    (
        "{\"type\":\"roadmap\",\"from\":1990.5}",
        "invalid-field",
        "invalid field `from`: expected a non-negative integer, got 1990.5",
    ),
    (
        "{\"type\":\"roadmap\",\"to\":5e9}",
        "invalid-field",
        "invalid field `to`: expected an integer in 0..=4294967295, got 5000000000",
    ),
    (
        "{\"type\":\"product_mix\",\"mono_volume\":null}",
        "invalid-field",
        "invalid field `mono_volume`: expected a number",
    ),
    (
        "{\"type\":\"chiplet_cost\",\"transistors\":2000000,\"lambda_um\":1}",
        "missing-field",
        "missing field `chiplets`",
    ),
    (
        "{\"type\":\"chiplet_cost\",\"transistors\":2000000,\"lambda_um\":1,\"chiplets\":4,\"volume\":1e17}",
        "invalid-field",
        "invalid field `volume`: expected an integer in 0..=9007199254740992, got 100000000000000000",
    ),
    (
        "{\"type\":\"chiplet_partition_sweep\",\"transistors\":2000000,\"max_chiplets\":true}",
        "invalid-field",
        "invalid field `max_chiplets`: expected a number",
    ),
];

#[test]
fn decode_errors_carry_their_pinned_kind_and_message() {
    // Collect every mismatch so one run names all of them.
    let mut mismatches = Vec::new();
    for (text, kind, message) in DECODE_ERRORS {
        let parsed = json::parse(text).expect("error case parses as JSON");
        let got = match Query::from_json(&parsed) {
            Ok(q) => format!("decoded to {q:?}"),
            Err(err) => format!("{}: {err}", err.kind()),
        };
        if got != format!("{kind}: {message}") {
            mismatches.push(format!("{text}\n  got  {got}\n  want {kind}: {message}"));
        }
    }
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}
