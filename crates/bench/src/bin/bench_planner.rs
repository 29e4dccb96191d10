//! Planner hot-path benchmark: seed algorithm vs the optimized path.
//!
//! Measures, in one harness, the planning stack as shipped by the seed
//! (unbounded exhaustive oracle, per-mapper unshared lazy route tables,
//! serial) against the optimized stack (bounded branch-and-bound
//! exhaustive search, one shared all-pairs [`RouteTable`] per call,
//! parallel sweep workers) on the case-study topology and progressively
//! larger BRITE hierarchies. Both configurations solve the identical
//! multi-linkage mail-service request and must report the identical
//! objective — the speedup is pure search/route engineering, not a
//! different answer.
//!
//! Writes `BENCH_planner.json` (hand-rolled JSON, no serde in the tree)
//! to the current directory and prints the same numbers as a table.
//!
//! [`RouteTable`]: ps_net::RouteTable

use ps_mail::spec::names::*;
use ps_mail::{mail_spec, mail_translator};
use ps_net::brite::{hierarchical, FlatParams, HierParams};
use ps_net::casestudy::default_case_study;
use ps_net::{Credentials, Network};
use ps_planner::{Algorithm, PlanStats, Planner, PlannerConfig, ServiceRequest};
use ps_sim::Rng;
use ps_trace::{Report, WallTimer};
use std::fmt::Write as _;

/// Minimum timed repetitions per configuration (the fastest is
/// reported). Short scenarios keep repeating until `MIN_TOTAL_MS` of
/// measurement accumulates, which damps scheduler noise on small runs.
const REPS: usize = 5;
/// Repetition budget per configuration, milliseconds.
const MIN_TOTAL_MS: f64 = 300.0;
/// Hard repetition cap per configuration.
const MAX_REPS: usize = 40;

struct Measurement {
    time_ms: f64,
    objective: f64,
    stats: PlanStats,
}

/// Runs one configuration `REPS` times; keeps the fastest run.
fn measure(net: &Network, request: &ServiceRequest, config: PlannerConfig) -> Option<Measurement> {
    let planner = Planner::with_config(mail_spec(), config);
    let translator = mail_translator();
    let mut best: Option<Measurement> = None;
    let mut total_ms = 0.0;
    let mut reps = 0;
    while reps < REPS || (total_ms < MIN_TOTAL_MS && reps < MAX_REPS) {
        let start = WallTimer::start();
        let plan = planner.plan(net, &translator, request).ok()?;
        let time_ms = start.elapsed_ms();
        total_ms += time_ms;
        reps += 1;
        if best.as_ref().is_none_or(|b| time_ms < b.time_ms) {
            best = Some(Measurement {
                time_ms,
                objective: plan.objective_value,
                stats: plan.stats,
            });
        }
    }
    best
}

/// Decorates a BRITE network with the mail service's credentials (first
/// AS = trusted HQ, second = branch, rest = partner), mirroring the
/// planner-ablation bench.
fn decorate(net: &mut Network) {
    for id in net.node_ids().collect::<Vec<_>>() {
        let site = net.node(id).site.clone();
        let (trust, domain) = match site.as_str() {
            "as0" => (5i64, "company"),
            "as1" => (3, "company"),
            _ => (2, "partner"),
        };
        let node = net.node_mut(id);
        node.credentials = Credentials::new()
            .with("TrustRating", trust)
            .with("Domain", domain);
    }
}

fn json_measurement(m: &Measurement) -> String {
    format!(
        "{{\"time_ms\": {:.3}, \"objective\": {:.6}, \"mappings_evaluated\": {}, \
         \"prunes\": {}, \"bound_prunes\": {}, \"route_table_build_us\": {}}}",
        m.time_ms,
        m.objective,
        m.stats.mappings_evaluated,
        m.stats.prunes,
        m.stats.bound_prunes,
        m.stats.route_table_build_us,
    )
}

fn main() {
    // Stable-artifact mode (PS_STABLE_ARTIFACTS=1): wall-clock fields
    // are zeroed and planning runs serial (see `with_planning_threads`).
    let stable = ps_bench::stable_artifacts();
    let optimized = ps_bench::with_planning_threads(PlannerConfig {
        algorithm: Algorithm::Exhaustive,
        share_route_table: true,
        ..Default::default()
    });
    let mut scenarios: Vec<(String, Network, ServiceRequest)> = Vec::new();

    let cs = default_case_study();
    for (label, client, trust) in [
        ("case-study/SanDiego", cs.sd_client, 4i64),
        ("case-study/Seattle", cs.seattle_client, 1),
    ] {
        let request = ServiceRequest::new(CLIENT_INTERFACE, client)
            .rate(2.0)
            .pin(MAIL_SERVER, cs.mail_server)
            .origin(cs.mail_server)
            .require("TrustLevel", trust);
        scenarios.push((label.to_owned(), cs.network.clone(), request));
    }

    for (as_count, routers) in [(3usize, 4usize), (4, 6), (5, 8)] {
        let mut rng = Rng::seed_from_u64(1234 + as_count as u64);
        let params = HierParams {
            as_count,
            router: FlatParams {
                nodes: routers,
                ..Default::default()
            },
            ..Default::default()
        };
        let mut net = hierarchical(&mut rng, &params);
        decorate(&mut net);
        let server_node = net
            .node_ids()
            .find(|&n| net.trust_rating(n) == Some(5))
            .expect("an HQ node");
        let client_node = net
            .node_ids()
            .find(|&n| net.trust_rating(n) == Some(3))
            .expect("a branch node");
        let request = ServiceRequest::new(CLIENT_INTERFACE, client_node)
            .rate(2.0)
            .pin(MAIL_SERVER, server_node)
            .origin(server_node)
            .require("TrustLevel", 4i64);
        let label = format!("brite/{}as-x{}r ({}n)", as_count, routers, net.node_count());
        scenarios.push((label, net, request));
    }

    let mut report =
        Report::new("Planner hot path: seed (oracle, lazy routes, serial) vs optimized");
    report.line(format!(
        "    (bounded search + shared route table + {} sweep threads)",
        optimized.threads
    ));
    report.line(format!(
        "{:<24} {:>10} {:>10} {:>8} {:>11} {:>11} {:>9}",
        "scenario", "seed[ms]", "new[ms]", "speedup", "seed evals", "new evals", "bound cut"
    ));

    let mut entries = Vec::new();
    let mut log_speedup_sum = 0.0;
    let mut compared = 0usize;
    for (label, net, request) in &scenarios {
        // The seed stack: unbounded oracle, per-mapper unshared routes,
        // serial planning — the algorithm this repo shipped before the
        // route-table/bounding work, re-run in this very harness.
        let seed = measure(
            net,
            request,
            PlannerConfig {
                algorithm: Algorithm::Oracle,
                share_route_table: false,
                ..Default::default()
            },
        );
        // The optimized stack.
        let new = measure(net, request, optimized.clone());
        match (seed, new) {
            (Some(mut seed), Some(mut new)) => {
                if stable {
                    for m in [&mut seed, &mut new] {
                        m.time_ms = 0.0;
                        m.stats.route_table_build_us = 0;
                    }
                }
                assert!(
                    (seed.objective - new.objective).abs() <= 1e-6 * seed.objective.abs().max(1.0),
                    "{label}: objectives diverged ({} vs {})",
                    seed.objective,
                    new.objective
                );
                let speedup = if stable {
                    0.0
                } else {
                    seed.time_ms / new.time_ms
                };
                report.line(format!(
                    "{:<24} {:>10.2} {:>10.2} {:>7.1}x {:>11} {:>11} {:>9}",
                    label,
                    seed.time_ms,
                    new.time_ms,
                    speedup,
                    seed.stats.mappings_evaluated,
                    new.stats.mappings_evaluated,
                    new.stats.bound_prunes,
                ));
                if !stable {
                    log_speedup_sum += speedup.ln();
                }
                compared += 1;
                let mut entry = String::new();
                write!(
                    entry,
                    "    {{\"scenario\": \"{label}\", \"nodes\": {}, \"speedup\": {speedup:.3},\n      \
                     \"seed\": {},\n      \"new\": {}}}",
                    net.node_count(),
                    json_measurement(&seed),
                    json_measurement(&new),
                )
                .expect("write to string");
                entries.push(entry);
            }
            _ => {
                report.line(format!("{label:<24} infeasible"));
            }
        }
    }

    let geomean = if compared > 0 && !stable {
        (log_speedup_sum / compared as f64).exp()
    } else {
        0.0
    };
    report.line("");
    report.kv(
        "geometric-mean speedup",
        format!("{geomean:.2}x over {compared} scenarios"),
    );

    // The `new_config` label is part of the artifact schema and keeps
    // its historical wording.
    let json = format!(
        "{{\n  \"bench\": \"planner_hot_path\",\n  \"threads\": {},\n  \
         \"seed_config\": \"oracle + lazy per-mapper routes, serial\",\n  \
         \"new_config\": \"bounded exhaustive + shared route table, plan_parallel\",\n  \
         \"geomean_speedup\": {geomean:.3},\n  \"scenarios\": [\n{}\n  ]\n}}\n",
        optimized.threads,
        entries.join(",\n")
    );
    std::fs::write("BENCH_planner.json", &json).expect("write BENCH_planner.json");
    report.kv("wrote", "BENCH_planner.json");
    println!("{report}");
}
