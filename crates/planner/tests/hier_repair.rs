//! Hierarchical warm-start repair — the serving layer's heal-pass
//! planning call (`Planner::plan_with` with both a repair context and a
//! `HierMemo`) — must keep the flat repair's guarantees: refined, it
//! lands on exactly the flat optimum of the damaged network; unrefined,
//! it never beats that optimum and its published gap bound covers the
//! shortfall.
//!
//! The last test pins per-call route-row accounting on a memo shared by
//! several plans.

use ps_net::brite::{hierarchical, FlatParams, HierParams};
use ps_net::{LinkId, Mapping, MappingTranslator, Network, NodeId};
use ps_planner::{
    Algorithm, HierConfig, HierMemo, Plan, Planner, PlannerConfig, RepairContext, ServiceRequest,
};
use ps_sim::Rng;
use ps_spec::prelude::*;
use ps_spec::PropertyValue;

/// Client -> (Tunnel -> Untunnel ->) Server, as in
/// `hier_equivalence.rs`: the tunnel pair lets the planner route
/// around insecure inter-AS links, so the optimal shape genuinely
/// depends on the fabric drawn.
fn spec() -> ServiceSpec {
    ServiceSpec::new("hier")
        .property(Property::boolean("Secure"))
        .property(Property::boolean("Hosting"))
        .interface(Interface::new("Api", ["Secure"]))
        .interface(Interface::new("Backend", ["Secure"]))
        .interface(Interface::new("Proxied", ["Secure"]))
        .component(
            Component::new("Client")
                .implements(InterfaceRef::plain("Api"))
                .requires(InterfaceRef::with_bindings(
                    "Backend",
                    Bindings::new().bind_lit("Secure", true),
                ))
                .behavior(
                    Behavior::new()
                        .cpu_per_request_ms(1.0)
                        .message_bytes(1000, 1000),
                ),
        )
        .component(
            Component::new("Server")
                .implements(InterfaceRef::with_bindings(
                    "Backend",
                    Bindings::new().bind_lit("Secure", true),
                ))
                .condition(Condition::equals("Hosting", true))
                .behavior(
                    Behavior::new()
                        .cpu_per_request_ms(10.0)
                        .capacity(50.0)
                        .message_bytes(1000, 1000),
                ),
        )
        .component(
            Component::new("Tunnel")
                .implements(InterfaceRef::with_bindings(
                    "Backend",
                    Bindings::new().bind_lit("Secure", true),
                ))
                .requires(InterfaceRef::plain("Proxied"))
                .behavior(
                    Behavior::new()
                        .cpu_per_request_ms(0.5)
                        .message_bytes(1100, 1100),
                ),
        )
        .component(
            Component::new("Untunnel")
                .implements(InterfaceRef::plain("Proxied"))
                .requires(InterfaceRef::with_bindings(
                    "Backend",
                    Bindings::new().bind_lit("Secure", true),
                ))
                .behavior(
                    Behavior::new()
                        .cpu_per_request_ms(0.5)
                        .message_bytes(1000, 1000),
                ),
        )
        .rule(ModificationRule::boolean_and("Secure"))
}

fn translator() -> MappingTranslator {
    MappingTranslator::new()
        .link_mapping(Mapping::Copy {
            credential: "Secure".into(),
            property: "Secure".into(),
            default: PropertyValue::Bool(false),
        })
        .node_mapping(Mapping::Copy {
            credential: "Hosting".into(),
            property: "Hosting".into(),
            default: PropertyValue::Bool(false),
        })
        .node_mapping(Mapping::Constant {
            property: "Secure".into(),
            value: PropertyValue::Bool(true),
        })
}

/// Random BRITE fabric: 4 autonomous systems of 6 routers, every
/// `as0` node hosting-capable, client drawn from the far side so the
/// chain crosses region borders.
fn world(seed: u64) -> (Network, NodeId, NodeId) {
    let mut rng = Rng::seed_from_u64(seed);
    let params = HierParams {
        as_count: 4,
        router: FlatParams {
            nodes: 6,
            ..FlatParams::default()
        },
        ..HierParams::default()
    };
    let mut net = hierarchical(&mut rng, &params);
    for id in 0..net.node_count() as u32 {
        let node = net.node_mut(NodeId(id));
        if node.site == "as0" {
            node.credentials = node.credentials.clone().with("Hosting", true);
        }
    }
    let server = net
        .node_ids()
        .find(|&id| net.node(id).site == "as0")
        .unwrap();
    let client = net
        .node_ids()
        .find(|&id| net.node(id).site == "as3")
        .unwrap();
    (net, client, server)
}

fn flat_planner() -> Planner {
    Planner::with_config(
        spec(),
        PlannerConfig {
            algorithm: Algorithm::Exhaustive,
            ..PlannerConfig::default()
        },
    )
}

fn hier_planner(refine: bool) -> Planner {
    Planner::with_config(
        spec(),
        PlannerConfig {
            algorithm: Algorithm::Exhaustive,
            hier: Some(HierConfig {
                refine,
                ..HierConfig::default()
            }),
            ..PlannerConfig::default()
        },
    )
}

fn request(client: NodeId, server: NodeId) -> ServiceRequest {
    ServiceRequest::new("Api", client)
        .rate(2.0)
        .pin("Server", server)
        .origin(server)
}

/// Damages `net` under `old`: even seeds fail a host of the plan other
/// than the client and the pinned server, odd seeds cut a link one of
/// its edge routes uses; each falls back to the other kind when the
/// plan offers no target. Returns the dirty nodes and links.
fn damage(
    seed: u64,
    net: &mut Network,
    old: &Plan,
    client: NodeId,
    server: NodeId,
) -> Option<(Vec<NodeId>, Vec<LinkId>)> {
    let host = old
        .placements
        .iter()
        .map(|p| p.node)
        .find(|&n| n != client && n != server);
    let link = old
        .edges
        .iter()
        .flat_map(|e| e.route.links.iter().copied())
        .next();
    match (seed.is_multiple_of(2), host, link) {
        (true, Some(host), _) | (false, Some(host), None) => {
            net.set_node_up(host, false);
            Some((vec![host], vec![]))
        }
        (_, _, Some(link)) => {
            net.set_link_up(link, false);
            Some((vec![], vec![link]))
        }
        (_, None, None) => None,
    }
}

/// One damaged fabric per seed, repaired three ways: hierarchically on
/// the memo the old plan was made with, flat from the same context, and
/// cold from scratch. Calls `check` with the hierarchical repair and the
/// flat optimum when all agree on feasibility; returns how many repairs
/// ran on the composition universe and how many of those were seeded.
fn repair_across_fabrics(refine: bool, check: impl Fn(u64, &Plan, f64)) -> (u32, u32) {
    let flat = flat_planner();
    let hier = hier_planner(refine);
    let translator = translator();
    let (mut composed, mut seeded) = (0, 0);
    for seed in 0..14u64 {
        let (mut net, client, server) = world(4200 + seed);
        let request = request(client, server);
        let memo = HierMemo::new();
        let Ok(old) = hier.plan_hierarchical(&net, &translator, &request, &memo) else {
            continue;
        };
        let Some((dirty_nodes, dirty_links)) = damage(seed, &mut net, &old, client, server) else {
            continue;
        };
        let ctx = RepairContext {
            old_plan: &old,
            dirty_nodes,
            dirty_links,
            prior_routes: None,
        };
        let hier_repair = hier.plan_with(&net, &translator, &request, Some(&ctx), Some(&memo));
        let flat_repair = flat.plan_repair(&net, &translator, &request, &ctx);
        let cold = flat.plan(&net, &translator, &request);
        match (hier_repair, flat_repair, cold) {
            (Ok(hier_repair), Ok(flat_repair), Ok(cold)) => {
                assert!(
                    (flat_repair.objective_value - cold.objective_value).abs() < 1e-9,
                    "seed {seed}: flat repair {} != cold optimum {}",
                    flat_repair.objective_value,
                    cold.objective_value
                );
                check(seed, &hier_repair, cold.objective_value);
                if hier_repair.stats.hier_universe > 0 {
                    composed += 1;
                    let stats = hier_repair.repair.expect("a repair carries repair stats");
                    seeded += u32::from(stats.seeded);
                }
            }
            (Err(_), Err(_), Err(_)) => {}
            (hier_repair, flat_repair, cold) => panic!(
                "seed {seed}: repairs disagree on feasibility: hier={:?} flat={:?} cold={:?}",
                hier_repair.map(|p| p.objective_value),
                flat_repair.map(|p| p.objective_value),
                cold.map(|p| p.objective_value)
            ),
        }
    }
    (composed, seeded)
}

#[test]
fn refined_hier_repair_matches_flat_repair_and_cold_plan() {
    let (composed, seeded) = repair_across_fabrics(true, |seed, plan, optimum| {
        assert!(
            (plan.objective_value - optimum).abs() < 1e-9,
            "seed {seed}: refined hierarchical repair {} != flat optimum {optimum}",
            plan.objective_value
        );
        if plan.stats.hier_universe > 0 {
            assert!(
                plan.stats.hier_refined,
                "seed {seed}: composed repair skipped the refinement sweep"
            );
        }
    });
    assert!(
        composed >= 6,
        "only {composed} repairs ran on the composition universe"
    );
    assert!(
        seeded > 0,
        "no hierarchical repair was seeded by its survivors"
    );
}

#[test]
fn unrefined_hier_repair_gap_bound_is_admissible() {
    let (composed, _) = repair_across_fabrics(false, |seed, plan, optimum| {
        assert!(
            plan.objective_value + 1e-9 >= optimum,
            "seed {seed}: hierarchical repair {} beat the flat optimum {optimum}",
            plan.objective_value
        );
        let shortfall_micro = ((plan.objective_value - optimum) * 1e6).floor().max(0.0) as u64;
        assert!(
            plan.stats.hier_gap_micro >= shortfall_micro,
            "seed {seed}: shortfall {shortfall_micro}µ exceeds the published bound {}µ",
            plan.stats.hier_gap_micro
        );
    });
    assert!(
        composed >= 6,
        "only {composed} repairs ran on the composition universe"
    );
}

/// The memo's scoped route rows are shared by every plan of one network
/// epoch; each plan must be charged only the rows built during its own
/// call.
#[test]
fn shared_memo_charges_each_plan_only_its_own_route_rows() {
    let hier = hier_planner(false);
    let translator = translator();
    let mut checked = 0u32;
    for seed in 0..14u64 {
        let (net, first_client, server) = world(4200 + seed);
        let Some(second_client) = net.node_ids().find(|&id| net.node(id).site == "as2") else {
            continue;
        };
        let memo = HierMemo::new();
        let rows = || memo.scoped_routes(&net).rows_built() as u64;
        let Ok(first) =
            hier.plan_hierarchical(&net, &translator, &request(first_client, server), &memo)
        else {
            continue;
        };
        let before = rows();
        assert_eq!(
            first.stats.route_rows_built, before,
            "seed {seed}: first plan"
        );
        let Ok(second) =
            hier.plan_hierarchical(&net, &translator, &request(second_client, server), &memo)
        else {
            continue;
        };
        assert_eq!(
            second.stats.route_rows_built,
            rows() - before,
            "seed {seed}: second plan charged rows it did not build"
        );
        if first.stats.hier_universe > 0 && second.stats.hier_universe > 0 {
            checked += 1;
        }
    }
    assert!(
        checked >= 6,
        "only {checked} fabrics planned both clients hierarchically"
    );
}
