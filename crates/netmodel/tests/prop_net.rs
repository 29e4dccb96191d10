//! Property tests over topology generation and routing, driven by
//! deterministic seeded loops over `ps_sim::Rng` (every failing case is
//! reproducible from the printed seed).

use ps_net::brite::{barabasi_albert, hierarchical, waxman, FlatParams, HierParams};
use ps_net::{shortest_route, Credentials, Network, NodeId};
use ps_sim::{Rng, SimDuration};

const CASES: u64 = 32;

#[test]
fn waxman_topologies_are_connected() {
    for case in 0..CASES {
        let mut meta = Rng::seed_from_u64(case).derive("waxman-connected");
        let seed = meta.next_u64();
        let nodes = 2 + meta.next_below(38) as usize;
        let params = FlatParams {
            nodes,
            ..FlatParams::default()
        };
        let net = waxman(&mut Rng::seed_from_u64(seed), &params, "w");
        assert_eq!(net.node_count(), nodes, "seed {seed}");
        assert!(net.is_connected(), "seed {seed}");
        assert!(net.link_count() >= nodes - 1, "seed {seed}");
    }
}

#[test]
fn ba_topologies_are_connected() {
    for case in 0..CASES {
        let mut meta = Rng::seed_from_u64(case).derive("ba-connected");
        let seed = meta.next_u64();
        let nodes = 2 + meta.next_below(38) as usize;
        let params = FlatParams {
            nodes,
            ..FlatParams::default()
        };
        let net = barabasi_albert(&mut Rng::seed_from_u64(seed), &params, "ba");
        assert!(net.is_connected(), "seed {seed}");
    }
}

#[test]
fn hierarchical_marks_exactly_inter_as_links_insecure() {
    for case in 0..CASES {
        let mut meta = Rng::seed_from_u64(case).derive("hier-secure");
        let seed = meta.next_u64();
        let as_count = 2 + meta.next_below(3) as usize;
        let routers = 2 + meta.next_below(4) as usize;
        let params = HierParams {
            as_count,
            router: FlatParams {
                nodes: routers,
                ..FlatParams::default()
            },
            ..HierParams::default()
        };
        let net = hierarchical(&mut Rng::seed_from_u64(seed), &params);
        assert!(net.is_connected(), "seed {seed}");
        for link in net.links() {
            let intra = net.node(link.a).site == net.node(link.b).site;
            assert_eq!(net.link_secure(link.id), intra, "seed {seed}");
        }
    }
}

#[test]
fn generators_are_deterministic() {
    for case in 0..CASES {
        let seed = Rng::seed_from_u64(case).derive("determinism").next_u64();
        let p = FlatParams {
            nodes: 12,
            ..FlatParams::default()
        };
        let a = waxman(&mut Rng::seed_from_u64(seed), &p, "x");
        let b = waxman(&mut Rng::seed_from_u64(seed), &p, "x");
        assert_eq!(a, b, "seed {seed}");
    }
}

#[test]
fn routes_are_contiguous_and_endpoint_correct() {
    for case in 0..CASES {
        let mut meta = Rng::seed_from_u64(case).derive("route-shape");
        let seed = meta.next_u64();
        let nodes = 2 + meta.next_below(23) as usize;
        let params = FlatParams {
            nodes,
            ..FlatParams::default()
        };
        let net = waxman(&mut Rng::seed_from_u64(seed), &params, "w");
        let from = NodeId(0);
        let to = NodeId((nodes - 1) as u32);
        let route = shortest_route(&net, from, to).expect("connected");
        // Walk the links: each must connect to the previous endpoint.
        let mut at = from;
        let mut total = SimDuration::ZERO;
        let mut min_bw = f64::INFINITY;
        for &l in &route.links {
            let link = net.link(l);
            let next = link.other(at).expect("contiguous route");
            total += link.latency;
            min_bw = min_bw.min(link.bandwidth_bps);
            at = next;
        }
        assert_eq!(at, to, "seed {seed}");
        assert_eq!(total, route.latency, "seed {seed}");
        if route.links.is_empty() {
            assert!(route.bottleneck_bps.is_infinite(), "seed {seed}");
        } else {
            assert_eq!(min_bw, route.bottleneck_bps, "seed {seed}");
        }
        // `via` lists exactly the interior nodes.
        assert_eq!(route.via.len() + 1, route.links.len().max(1), "seed {seed}");
    }
}

#[test]
fn route_is_latency_minimal_among_uniform_security() {
    for case in 0..CASES {
        // All-secure network: the metric reduces to latency; the chosen
        // route must never beat a direct link the wrong way.
        let mut rng = Rng::seed_from_u64(case).derive("latency-minimal");
        let nodes = 3 + rng.next_below(12) as usize;
        let mut net = Network::new();
        for i in 0..nodes {
            net.add_node(format!("n{i}"), "s", 1.0, Credentials::new());
        }
        for i in 0..nodes {
            for j in (i + 1)..nodes {
                if rng.chance(0.5) || j == i + 1 {
                    net.add_link(
                        NodeId(i as u32),
                        NodeId(j as u32),
                        SimDuration::from_millis(1 + rng.next_below(100)),
                        1e8,
                        Credentials::new().with("Secure", true),
                    );
                }
            }
        }
        for j in 1..nodes {
            let route = shortest_route(&net, NodeId(0), NodeId(j as u32)).expect("connected");
            if let Some(direct) = net.link_between(NodeId(0), NodeId(j as u32)) {
                assert!(route.latency <= direct.latency, "case {case} dest {j}");
            }
        }
    }
}

#[test]
fn route_table_agrees_with_shortest_route_on_brite_topologies() {
    for case in 0..CASES {
        let mut meta = Rng::seed_from_u64(case).derive("table-agreement");
        let seed = meta.next_u64();
        let nodes = 2 + meta.next_below(18) as usize;
        let params = FlatParams {
            nodes,
            ..FlatParams::default()
        };
        let net = if case % 2 == 0 {
            waxman(&mut Rng::seed_from_u64(seed), &params, "w")
        } else {
            barabasi_albert(&mut Rng::seed_from_u64(seed), &params, "ba")
        };
        let table = ps_net::RouteTable::build(&net);
        assert!(table.is_current(&net), "seed {seed}");
        for from in net.node_ids() {
            for to in net.node_ids() {
                let lazy = shortest_route(&net, from, to);
                let tabled = table.route(&net, from, to);
                assert_eq!(tabled, lazy, "seed {seed} {from:?}->{to:?}");
                assert_eq!(
                    table.latency(&net, from, to),
                    lazy.as_ref().map(|r| r.latency),
                    "seed {seed} {from:?}->{to:?}"
                );
            }
        }
    }
}

#[test]
fn route_table_agrees_on_the_case_study_topology() {
    let cs = ps_net::default_case_study();
    let net = &cs.network;
    let table = ps_net::RouteTable::build(net);
    for from in net.node_ids() {
        for to in net.node_ids() {
            assert_eq!(
                table.route(net, from, to),
                shortest_route(net, from, to),
                "{from:?}->{to:?}"
            );
        }
    }
}

#[test]
fn route_table_agrees_on_hierarchical_mixed_security() {
    for case in 0..CASES / 2 {
        let mut meta = Rng::seed_from_u64(case).derive("table-hier");
        let seed = meta.next_u64();
        let params = HierParams {
            as_count: 2 + meta.next_below(3) as usize,
            router: FlatParams {
                nodes: 2 + meta.next_below(4) as usize,
                ..FlatParams::default()
            },
            ..HierParams::default()
        };
        let net = hierarchical(&mut Rng::seed_from_u64(seed), &params);
        let table = ps_net::RouteTable::build(&net);
        for from in net.node_ids() {
            for to in net.node_ids() {
                assert_eq!(
                    table.route(&net, from, to),
                    shortest_route(&net, from, to),
                    "seed {seed} {from:?}->{to:?}"
                );
            }
        }
    }
}
