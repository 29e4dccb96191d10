//! The workloads. Each builds its inputs from the seed alone, and the
//! program sees only those inputs.
//!
//! - `mail_steady`: the paper's own workload (Figure 5 case study,
//!   Figure 7 load). The simulator, the run-time and the mail
//!   components do almost all the host work; the planner runs three
//!   times, all in set-up.
//! - `mail_fabric`: managed connections on the 113-node BRITE fabric
//!   sending mail bursts, healed every virtual second, no faults:
//!   `World` dispatch, routing, leases and retries at fabric scale.
//! - `fault_heal`: `mail_fabric`'s connections under a fault schedule
//!   the seed does not choose, injected between bursts: lease
//!   detection, warm plan repair, delta route repair and redeploys.
//! - `connect_churn`: sessions arrive open-loop on the fabric; every
//!   session is one real `Framework::connect` plus a short closed-loop
//!   mail burst. The planner, route tables and generic server carry
//!   most of the host time.
//! - `fault_chaos`: `mail_fabric` under a seeded random fault plan that
//!   fires while operations are in flight.

use crate::episode::{driver, driver_done, mail_framework, spawn_driver, Episode};
use crate::measure::Spans;
use ps_bench::scale::{scale_network, scale_request};
use ps_core::{Framework, HealReport};
use ps_mail::spec::names::{CLIENT_INTERFACE, MAIL_SERVER};
use ps_net::casestudy::default_case_study;
use ps_net::{Credentials, LinkId, Network, NodeId};
use ps_planner::{Algorithm, HierConfig, PlannerConfig, ServiceRequest};
use ps_sim::{ChaosConfig, FaultKind, FaultPlan, Rng, SimDuration, SimTime};
use ps_smock::{Connection, InstanceId, LeaseConfig, RetryPolicy};
use ps_trace::Tracer;
use std::collections::{BTreeMap, BTreeSet};

/// A workload episode: `(seed, traced, setup_only, spans)`.
pub type Workload = fn(u64, bool, bool, &mut Spans) -> Result<Episode, String>;

pub const WORKLOADS: [(&str, Workload); 5] = [
    ("mail_steady", mail_steady),
    ("mail_fabric", mail_fabric),
    ("fault_heal", fault_heal),
    ("connect_churn", connect_churn),
    ("fault_chaos", fault_chaos),
];

const TICK: SimDuration = SimDuration::from_secs(1);
/// Virtual-time cap: an episode that has not finished by then failed.
const HORIZON: SimTime = SimTime::from_nanos(3_000_000_000_000);

/// Closed-loop drivers per case-study site, and sends per driver
/// (receives are a tenth of that).
const STEADY_DRIVERS_PER_SITE: usize = 4;
const STEADY_SENDS: u32 = 2_000;

/// Sessions per churn episode, their Poisson arrival rate (per virtual
/// second), attach routers, popularity skew (leaf rank drawn as
/// `u^alpha`), link-change cadence, and sends per session burst.
const CHURN_SESSIONS: usize = 400;
const CHURN_RATE: f64 = 2.0;
const CHURN_ATTACH: usize = 32;
const CHURN_ALPHA: f64 = 1.6;
const CHURN_LINK_EVERY: usize = 20;
const CHURN_SENDS: u32 = 100;

/// Managed connections on the fabric, sends per burst, when faults may
/// start, and when the load (and the fault window) ends. Each client
/// sends bursts back to back (a new burst at the first tick after the
/// previous one ends) until then, so load covers every fault however
/// fast or slow the client's chain is.
const FABRIC_CLIENTS: usize = 12;
const FABRIC_BURST: u32 = 40;
const FAULTS_FROM: SimTime = SimTime::from_nanos(5_000_000_000);
const LOAD_UNTIL: SimTime = SimTime::from_nanos(95_000_000_000);

/// Fault rounds per `fault_heal` episode, and how long a round waits
/// for the chains a fault hit to be redeployed around it.
const FAULT_ROUNDS: usize = 12;
const RECOVERY_WAIT: SimDuration = SimDuration::from_secs(30);

/// The scale fabric every BRITE workload uses: 100 routers in 5 ASes,
/// 12 hosting leaves and one branch workstation (113 nodes), fixed
/// across seeds (the seed drives the load, not the topology). Returns
/// `(network, server host, branch workstation)`.
fn fabric() -> (Network, NodeId, NodeId) {
    scale_network(100, 7_100)
}

/// Router nodes: everything the BRITE generator made (hosting and client
/// leaves are added after it, with `-host-` / `-client` in their names).
fn routers(net: &Network) -> Vec<NodeId> {
    net.node_ids()
        .filter(|&n| {
            let name = &net.node(n).name;
            !name.contains("-host-") && !name.contains("-client")
        })
        .collect()
}

/// Links whose both ends are routers.
fn fabric_links(net: &Network) -> Vec<LinkId> {
    let routers = routers(net);
    net.links()
        .iter()
        .filter(|l| routers.contains(&l.a) && routers.contains(&l.b))
        .map(|l| l.id)
        .collect()
}

/// Hangs `count` partner-grade leaf workstations off routers spread
/// evenly across the fabric, or across the named sites only.
fn attach_leaves(net: &mut Network, count: usize, tag: &str, sites: &[&str]) -> Vec<NodeId> {
    let routers: Vec<NodeId> = routers(net)
        .into_iter()
        .filter(|&r| sites.is_empty() || sites.contains(&net.node(r).site.as_str()))
        .collect();
    let stride = (routers.len() / count).max(1);
    (0..count)
        .map(|i| {
            let uplink = routers[(i * stride) % routers.len()];
            let site = net.node(uplink).site.clone();
            let leaf = net.add_node(
                format!("{tag}-{i}"),
                site,
                1.0,
                Credentials::new()
                    .with("TrustRating", 4i64)
                    .with("Domain", "partner"),
            );
            net.add_link(
                uplink,
                leaf,
                SimDuration::from_nanos(100_000),
                1e9,
                Credentials::new().with("Secure", true),
            );
            leaf
        })
        .collect()
}

/// Exhaustive, hierarchical, shared-route-table, serial planning.
fn fabric_planner() -> PlannerConfig {
    PlannerConfig {
        algorithm: Algorithm::Exhaustive,
        share_route_table: true,
        hier: Some(HierConfig::default()),
        threads: 0,
        ..PlannerConfig::default()
    }
}

fn tracer_for(traced: bool) -> Tracer {
    if traced {
        Tracer::null()
    } else {
        Tracer::disabled()
    }
}

fn err(what: &str, e: impl std::fmt::Display) -> String {
    format!("{what}: {e}")
}

pub fn mail_steady(
    seed: u64,
    traced: bool,
    setup_only: bool,
    spans: &mut Spans,
) -> Result<Episode, String> {
    let tracer = tracer_for(traced);
    let mut ep = Episode::default();
    let setup = spans.begin("setup", || "mail_steady".to_owned());
    let cs = default_case_study();
    let mut fw = mail_framework(
        cs.network.clone(),
        cs.mail_server,
        PlannerConfig::default(),
        seed,
        &tracer,
    )
    .map_err(|e| err("primary", e))?;
    // San Diego first, so Seattle chains onto its view server (Figure 6).
    let sites = [
        ("SanDiego", cs.sd_client, 4i64),
        ("Seattle", cs.seattle_client, 1),
        ("NewYork", cs.ny_client, 4),
    ];
    let mut roots = Vec::new();
    for (i, &(_, node, trust)) in sites.iter().enumerate() {
        let request = ServiceRequest::new(CLIENT_INTERFACE, node)
            .rate(5.0)
            .pin(MAIL_SERVER, cs.mail_server)
            .origin(cs.mail_server)
            .require("TrustLevel", trust);
        let now = fw.world.now();
        let conn = ep
            .connect(&mut fw, spans, &request, now, &format!("c{i}"))
            .map_err(|e| err("set-up connect", e))?;
        roots.push((conn.root, conn.ready_at));
        fw.manage("mail", request, conn);
    }
    ep.setup_s = spans.end(setup) / 1e3;
    if setup_only {
        return Ok(ep);
    }

    let timed = spans.begin("timed", || "mail_steady".to_owned());
    let mut drivers = Vec::new();
    for (s, &(site, node, _)) in sites.iter().enumerate() {
        for k in 0..STEADY_DRIVERS_PER_SITE {
            let n = (s * STEADY_DRIVERS_PER_SITE + k) as u64;
            drivers.push(spawn_driver(
                &mut fw.world,
                format!("{site}-{k}"),
                node,
                roots[s].0,
                roots[s].1,
                STEADY_SENDS,
                (n + 1) << 40,
                seed ^ (n + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            ));
        }
    }
    let finished = heal_ticks(&mut fw, &mut ep, spans, &tracer, HORIZON, |fw, _, _, _| {
        drivers.iter().all(|&d| driver_done(&mut fw.world, d))
    });
    ep.timed_s = spans.end(timed) / 1e3;

    for &d in &drivers {
        if let Some(d) = driver(&mut fw.world, d) {
            ep.absorb_driver(d);
        }
    }
    let (lost, denied) = (ep.v.lost, ep.v.denied);
    ep.v.sessions = sites.len() as u64;
    ep.v.check(
        "drivers_finished",
        finished,
        format!("{} drivers", drivers.len()),
    );
    ep.v.check(
        "no_lost_or_denied",
        lost == 0 && denied == 0,
        format!("lost {lost}, denied {denied}"),
    );
    ep.finish(&fw, &tracer);
    Ok(ep)
}

struct Session {
    id: u64,
    driver: InstanceId,
    instances: Vec<InstanceId>,
    opened_ns: u64,
}

pub fn connect_churn(
    seed: u64,
    traced: bool,
    setup_only: bool,
    spans: &mut Spans,
) -> Result<Episode, String> {
    let tracer = tracer_for(traced);
    let mut ep = Episode::default();
    let setup = spans.begin("setup", || "connect_churn".to_owned());
    let (mut net, server, branch) = fabric();
    let leaves = attach_leaves(&mut net, CHURN_ATTACH, "churn-client", &[]);
    let links = fabric_links(&net);
    let base: Vec<SimDuration> = links.iter().map(|&l| net.link(l).latency).collect();
    let mut fw = mail_framework(net, server, fabric_planner(), seed, &tracer)
        .map_err(|e| err("primary", e))?;
    // One set-up connect from the branch workstation warms the server's
    // region map and route rows; its chain is retired again (all but the
    // pinned primary), so sessions start from the bare primary.
    let now = fw.world.now();
    let probe = ep
        .connect(
            &mut fw,
            spans,
            &scale_request(server, branch),
            now,
            "branch",
        )
        .map_err(|e| err("set-up connect", e))?;
    let pinned = probe.plan.placements.iter().position(|p| p.preexisting);
    let primary = probe.deployment.instances[pinned.ok_or("no pinned primary in the plan")?];
    for &inst in &probe.deployment.instances {
        if inst != primary {
            fw.world.retire(inst);
        }
    }
    ep.setup_s = spans.end(setup) / 1e3;
    if setup_only {
        return Ok(ep);
    }

    // Inputs, all drawn before the run. Leaf popularity is heavy-tailed
    // (rank drawn as `u^alpha`); the sessions per leaf are that
    // distribution's expected counts, stratified so every seed serves the
    // same mix, and the seed orders them and draws Poisson arrival times
    // and the link changes.
    let mut rng = Rng::seed_from_u64(seed).derive("connect_churn");
    let share = |k: usize| (k as f64 / CHURN_ATTACH as f64).powf(1.0 / CHURN_ALPHA);
    let mut leaves_drawn: Vec<usize> = (0..CHURN_ATTACH)
        .flat_map(|k| {
            let upto = |k| (share(k) * CHURN_SESSIONS as f64).round() as usize;
            std::iter::repeat_n(k, upto(k + 1) - upto(k))
        })
        .collect();
    rng.shuffle(&mut leaves_drawn);
    let mut t = 0.0f64;
    let arrivals: Vec<(SimTime, usize)> = leaves_drawn
        .into_iter()
        .map(|leaf| {
            t += rng.exponential(CHURN_RATE);
            (SimTime::ZERO + SimDuration::from_secs_f64(t), leaf)
        })
        .collect();
    // Link changes cycle through the link classes (each AS's internal
    // links, then the inter-AS links), so every episode invalidates each
    // region's memo equally often; the seed picks the link and factor.
    let mut classes: BTreeMap<String, Vec<usize>> = BTreeMap::new();
    for (idx, &l) in links.iter().enumerate() {
        let link = fw.world.network().link(l);
        let (a, b) = (
            &fw.world.network().node(link.a).site,
            &fw.world.network().node(link.b).site,
        );
        let class = if a == b {
            a.clone()
        } else {
            "inter-as".to_owned()
        };
        classes.entry(class).or_default().push(idx);
    }
    let classes: Vec<Vec<usize>> = classes.into_values().collect();
    let changes: Vec<(usize, f64)> = (0..arrivals.len() / CHURN_LINK_EVERY)
        .map(|i| {
            let class = &classes[i % classes.len()];
            let idx = class[rng.next_below(class.len() as u64) as usize];
            (idx, rng.range_f64(0.8, 1.2))
        })
        .collect();

    let timed = spans.begin("timed", || "connect_churn".to_owned());
    // Live sessions per instance; the primary holds a count that never
    // drops, so it is never retired.
    let mut refs: BTreeMap<InstanceId, u32> = BTreeMap::from([(primary, 1)]);
    let mut live: Vec<Session> = Vec::new();
    let mut next = 0usize;
    let mut next_tick = fw.world.now() + TICK;
    let mut bursts_ok = true;
    let mut finished = false;
    while fw.world.now() < HORIZON {
        let arrival = arrivals.get(next).copied();
        let to = match arrival {
            Some((at, _)) if at <= next_tick => at,
            _ => next_tick,
        };
        ep.run_until(&mut fw, spans, to);

        // Reap finished sessions: retire the driver and every instance
        // nothing else still uses.
        let mut i = 0;
        while i < live.len() {
            if !driver_done(&mut fw.world, live[i].driver) {
                i += 1;
                continue;
            }
            let s = live.swap_remove(i);
            if let Some(d) = driver(&mut fw.world, s.driver) {
                bursts_ok &= d.lost == 0
                    && d.denied == 0
                    && d.completed.len() as u32 == CHURN_SENDS + CHURN_SENDS / 10;
                ep.absorb_driver(d);
            }
            fw.world.retire(s.driver);
            for inst in s.instances {
                let r = refs.entry(inst).or_insert(1);
                *r -= 1;
                if *r == 0 {
                    refs.remove(&inst);
                    fw.world.retire(inst);
                }
            }
            ep.v.sessions += 1;
            spans.record("session", s.opened_ns, || format!("s{}", s.id));
        }

        match arrival {
            Some((at, leaf)) if at == to => {
                let id = next as u64;
                let opened_ns = spans.now_ns();
                let request = scale_request(server, leaves[leaf]);
                match ep.connect(&mut fw, spans, &request, at, &format!("s{id}")) {
                    Ok(conn) => {
                        let mut instances = conn.deployment.instances.clone();
                        instances.sort();
                        instances.dedup();
                        for &inst in &instances {
                            *refs.entry(inst).or_insert(0) += 1;
                        }
                        let driver = spawn_driver(
                            &mut fw.world,
                            format!("churn-{id}"),
                            leaves[leaf],
                            conn.root,
                            conn.ready_at,
                            CHURN_SENDS,
                            (id + 1) << 32,
                            seed ^ (id + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                        );
                        live.push(Session {
                            id,
                            driver,
                            instances,
                            opened_ns,
                        });
                    }
                    Err(_) => bursts_ok = false,
                }
                next += 1;
                if next.is_multiple_of(CHURN_LINK_EVERY) {
                    if let Some(&(idx, factor)) = changes.get(ep.v.link_changes as usize) {
                        let link = links[idx];
                        let bw = fw.world.network().link(link).bandwidth_bps;
                        let latency =
                            SimDuration::from_nanos((base[idx].as_nanos() as f64 * factor) as u64);
                        fw.world.update_link(link, latency, bw);
                        ep.v.link_changes += 1;
                    }
                }
            }
            _ => {
                ep.heal(&mut fw, spans, &tracer);
                next_tick += TICK;
            }
        }
        if next == arrivals.len() && live.is_empty() {
            finished = true;
            break;
        }
    }
    ep.timed_s = spans.end(timed) / 1e3;

    let errors = ep.v.connect_errors;
    ep.v.check(
        "connects_ok",
        errors == 0,
        format!("{errors} connect errors of {}", ep.v.connects),
    );
    ep.v.check(
        "bursts_complete",
        finished && bursts_ok && ep.v.sessions == arrivals.len() as u64,
        format!(
            "{} of {} sessions served in full",
            ep.v.sessions,
            arrivals.len()
        ),
    );
    ep.finish(&fw, &tracer);
    Ok(ep)
}

/// A faulted element of a managed chain.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Elem {
    Node(NodeId),
    Link(LinkId),
}

fn hits(conn: &Connection, elem: Elem) -> bool {
    match elem {
        Elem::Node(n) => {
            conn.plan.placements.iter().any(|p| p.node == n)
                || conn.plan.edges.iter().any(|e| e.route.via.contains(&n))
        }
        Elem::Link(l) => conn.plan.edges.iter().any(|e| e.route.links.contains(&l)),
    }
}

struct Incident {
    client: usize,
    elem: Elem,
    at: SimTime,
    opened_ns: u64,
}

/// One managed client: its handle, current root and running burst.
struct Client {
    node: NodeId,
    handle: usize,
    root: InstanceId,
    ready_at: SimTime,
    driver: Option<InstanceId>,
    bursts: u64,
}

impl Client {
    fn start_burst(&mut self, fw: &mut Framework, i: usize, seed: u64) {
        let n = ((i as u64 + 1) << 20) + self.bursts;
        self.bursts += 1;
        self.driver = Some(spawn_driver(
            &mut fw.world,
            format!("heal-{i}"),
            self.node,
            self.root,
            self.ready_at,
            FABRIC_BURST,
            n << 20,
            seed ^ n.wrapping_mul(0x9E37_79B9_7F4A_7C15),
        ));
    }

    /// Folds a finished burst into the episode and retires its driver;
    /// returns whether one finished.
    fn reap(&mut self, fw: &mut Framework, ep: &mut Episode) -> bool {
        let Some(d) = self.driver.filter(|&d| driver_done(&mut fw.world, d)) else {
            return false;
        };
        if let Some(stats) = driver(&mut fw.world, d) {
            ep.absorb_driver(stats);
        }
        fw.world.retire(d);
        self.driver = None;
        true
    }
}

/// The set-up both fabric workloads share: the fabric, the mail service
/// with leases and retries on, and one managed connection per client
/// leaf in the two ASes that host the service. Returns the framework,
/// the pinned server host and the clients.
fn fabric_setup(
    ep: &mut Episode,
    spans: &mut Spans,
    seed: u64,
    tracer: &Tracer,
) -> Result<(Framework, NodeId, Vec<Client>), String> {
    let (mut net, server, _) = fabric();
    let nodes = attach_leaves(&mut net, FABRIC_CLIENTS, "heal-client", &["as0", "as1"]);
    let mut fw = mail_framework(net, server, fabric_planner(), seed, tracer)
        .map_err(|e| err("primary", e))?;
    fw.world.enable_retry(RetryPolicy {
        max_attempts: 3,
        timeout: SimDuration::from_secs(2),
        backoff_multiplier: 2.0,
        deadline: None,
    });
    fw.world.enable_leases(LeaseConfig::default());
    let mut clients = Vec::new();
    for (i, &node) in nodes.iter().enumerate() {
        let request = scale_request(server, node);
        let now = fw.world.now();
        let conn = ep
            .connect(&mut fw, spans, &request, now, &format!("c{i}"))
            .map_err(|e| err("set-up connect", e))?;
        let (root, ready_at) = (conn.root, conn.ready_at);
        clients.push(Client {
            node,
            handle: fw.manage("mail", request, conn),
            root,
            ready_at,
            driver: None,
            bursts: 0,
        });
    }
    Ok((fw, server, clients))
}

/// Points every client whose connection the pass redeployed at its new
/// root (a running burst's proxy follows it).
fn follow_redeploys(fw: &mut Framework, clients: &mut [Client], report: &HealReport) {
    for c in clients.iter_mut() {
        if !report.recovered.contains(&c.handle) {
            continue;
        }
        let Some(conn) = fw.managed_connection(c.handle) else {
            continue;
        };
        let (root, ready_at) = (conn.root, conn.ready_at);
        if c.root != root {
            c.root = root;
            if let Some(d) = c.driver {
                fw.world.wire(d, vec![root]);
            }
        }
        c.ready_at = ready_at;
    }
}

/// The checks both fabric workloads end with, after one last pass.
/// `final_failed` is the last pass's failure count (`None`: the load
/// never ended); `loss_free` adds the check that no operation was lost
/// or denied.
fn fabric_checks(
    ep: &mut Episode,
    fw: &Framework,
    clients: &[Client],
    final_failed: Option<usize>,
    loss_free: bool,
) {
    let mut serving = 0;
    let mut on_down = 0;
    for c in clients {
        if let Some(m) = fw.managed_connection(c.handle) {
            serving += 1;
            on_down += m
                .plan
                .placements
                .iter()
                .filter(|p| !fw.world.node_is_up(p.node) || !fw.world.network().node(p.node).up)
                .count();
        }
    }
    let (lost, denied) = (ep.v.lost, ep.v.denied);
    ep.v.sessions = clients.iter().map(|c| c.bursts).sum();
    ep.v.check(
        "bursts_finished",
        final_failed.is_some(),
        format!("{} bursts over {} clients", ep.v.sessions, clients.len()),
    );
    if loss_free {
        ep.v.check(
            "no_lost_or_denied",
            lost == 0 && denied == 0,
            format!("lost {lost}, denied {denied}"),
        );
    }
    ep.v.check(
        "all_serving_after_heal",
        serving == clients.len() && on_down == 0,
        format!(
            "{serving} of {} serving, {on_down} placements on down nodes",
            clients.len()
        ),
    );
    ep.v.check(
        "final_pass_no_failures",
        final_failed == Some(0),
        format!("final pass failed list: {final_failed:?}"),
    );
}

/// Managed connections on the BRITE fabric sending mail bursts back to
/// back through the load window, healed every virtual second, with
/// leases and retries on and no faults.
pub fn mail_fabric(
    seed: u64,
    traced: bool,
    setup_only: bool,
    spans: &mut Spans,
) -> Result<Episode, String> {
    let tracer = tracer_for(traced);
    let mut ep = Episode::default();
    let setup = spans.begin("setup", || "mail_fabric".to_owned());
    let (mut fw, _, mut clients) = fabric_setup(&mut ep, spans, seed, &tracer)?;
    ep.setup_s = spans.end(setup) / 1e3;
    if setup_only {
        return Ok(ep);
    }

    let timed = spans.begin("timed", || "mail_fabric".to_owned());
    for (i, c) in clients.iter_mut().enumerate() {
        c.start_burst(&mut fw, i, seed);
    }
    let mut last = None;
    heal_ticks(&mut fw, &mut ep, spans, &tracer, HORIZON, |fw, ep, _, r| {
        // One more pass once every burst has ended.
        if clients.iter().all(|c| c.driver.is_none()) {
            last = Some(r.failed.len());
            return true;
        }
        follow_redeploys(fw, &mut clients, r);
        let now = fw.world.now();
        for (i, c) in clients.iter_mut().enumerate() {
            if c.reap(fw, ep) && now < LOAD_UNTIL {
                c.start_burst(fw, i, seed);
            }
        }
        false
    });
    ep.timed_s = spans.end(timed) / 1e3;
    fabric_checks(&mut ep, &fw, &clients, last, true);
    ep.finish(&fw, &tracer);
    Ok(ep)
}

/// The element round `round` of `fault_heal` takes down, chosen from
/// what the managed chains use now. Even rounds crash a hosting leaf
/// that holds a placement (never the pinned server host); odd rounds
/// take down a router-router link a chain routes over whose loss leaves
/// every up node reachable. Candidates are sorted and the round indexes
/// them, so the fault schedule does not depend on the seed.
fn next_fault(fw: &Framework, clients: &[Client], server: NodeId, round: usize) -> Option<Elem> {
    let net = fw.world.network();
    let conns: Vec<&Connection> = clients
        .iter()
        .filter_map(|c| fw.managed_connection(c.handle))
        .collect();
    let mut candidates: Vec<Elem> = if round.is_multiple_of(2) {
        conns
            .iter()
            .flat_map(|c| c.plan.placements.iter().map(|p| p.node))
            .filter(|&n| n != server && net.node(n).name.contains("-host-"))
            .map(Elem::Node)
            .collect()
    } else {
        let fabric = fabric_links(net);
        conns
            .iter()
            .flat_map(|c| {
                c.plan
                    .edges
                    .iter()
                    .flat_map(|e| e.route.links.iter().copied())
            })
            .filter(|l| fabric.contains(l) && connected_without(net, *l))
            .map(Elem::Link)
            .collect()
    };
    candidates.sort_by_key(|e| match *e {
        Elem::Node(n) => n.0,
        Elem::Link(l) => l.0,
    });
    candidates.dedup();
    let n = candidates.len();
    (n > 0).then(|| candidates[(round / 2) % n])
}

/// Whether every up node stays reachable from every other over up links
/// once `cut` is down.
fn connected_without(net: &Network, cut: LinkId) -> bool {
    let up: Vec<NodeId> = net.node_ids().filter(|&n| net.node(n).up).collect();
    let Some(&start) = up.first() else {
        return true;
    };
    let mut seen = BTreeSet::from([start]);
    let mut stack = vec![start];
    while let Some(n) = stack.pop() {
        for l in net.links() {
            if l.id == cut || !l.up || !(l.a == n || l.b == n) {
                continue;
            }
            let m = if l.a == n { l.b } else { l.a };
            if net.node(m).up && seen.insert(m) {
                stack.push(m);
            }
        }
    }
    seen.len() == up.len()
}

/// `mail_fabric`'s connections under a fault schedule the seed does not
/// choose. Each round, every client sends one burst; once all have
/// ended (no mail op in flight), one element a managed chain uses goes
/// down, heal runs every virtual second until every chain it hit is
/// resolved (redeployed around it, or kept with its traffic re-routed
/// around a downed link), and the element is repaired. The seed drives
/// the load only.
pub fn fault_heal(
    seed: u64,
    traced: bool,
    setup_only: bool,
    spans: &mut Spans,
) -> Result<Episode, String> {
    let tracer = tracer_for(traced);
    let mut ep = Episode::default();
    let setup = spans.begin("setup", || "fault_heal".to_owned());
    let (mut fw, server, mut clients) = fabric_setup(&mut ep, spans, seed, &tracer)?;
    ep.setup_s = spans.end(setup) / 1e3;
    if setup_only {
        return Ok(ep);
    }

    let timed = spans.begin("timed", || "fault_heal".to_owned());
    let mut rounds_ok = true;
    for round in 0..FAULT_ROUNDS {
        // Load: one burst per client.
        for (i, c) in clients.iter_mut().enumerate() {
            c.start_burst(&mut fw, i, seed);
        }
        rounds_ok &= heal_ticks(&mut fw, &mut ep, spans, &tracer, HORIZON, |fw, ep, _, r| {
            follow_redeploys(fw, &mut clients, r);
            for c in clients.iter_mut() {
                c.reap(fw, ep);
            }
            clients.iter().all(|c| c.driver.is_none())
        });

        // Fault: one element down, an incident per chain it hits.
        let Some(elem) = next_fault(&fw, &clients, server, round) else {
            rounds_ok = false;
            break;
        };
        let at = fw.world.now();
        match elem {
            Elem::Node(n) => {
                fw.world.crash_node(n);
            }
            Elem::Link(l) => fw.world.set_link_state(l, false),
        }
        ep.v.faults += 1;
        let mut open: Vec<Incident> = Vec::new();
        open_incidents(&fw, &mut ep, spans, &clients, &mut open, elem, at);
        // Heal until every incident is resolved.
        heal_ticks(
            &mut fw,
            &mut ep,
            spans,
            &tracer,
            at + RECOVERY_WAIT,
            |fw, ep, spans, r| {
                follow_redeploys(fw, &mut clients, r);
                resolve(fw, ep, spans, &clients, &mut open, r);
                open.is_empty()
            },
        );
        ep.v.incidents_outlived += open.len() as u64;

        // Repair the element; the next pass sees it.
        match elem {
            Elem::Node(n) => fw.world.restart_node(n),
            Elem::Link(l) => fw.world.set_link_state(l, true),
        }
        let next = fw.world.now() + TICK;
        heal_ticks(&mut fw, &mut ep, spans, &tracer, next, |fw, _, _, r| {
            follow_redeploys(fw, &mut clients, r);
            true
        });
    }
    // One last pass.
    let to = fw.world.now() + TICK;
    ep.run_until(&mut fw, spans, to);
    let last = ep.heal(&mut fw, spans, &tracer);
    ep.timed_s = spans.end(timed) / 1e3;

    let (incidents, outlived) = (ep.v.incidents, ep.v.incidents_outlived);
    ep.v.check(
        "rounds_finished",
        rounds_ok,
        format!("{FAULT_ROUNDS} rounds, {} faults", ep.v.faults),
    );
    ep.v.check(
        "every_incident_resolved",
        incidents > 0 && outlived == 0,
        format!(
            "{} recovered by a redeploy + {} kept on a re-routed link of {incidents} \
             incidents, within {} virtual s",
            ep.v.recovery_ms.len(),
            ep.v.incidents_kept,
            RECOVERY_WAIT.as_secs_f64()
        ),
    );
    fabric_checks(&mut ep, &fw, &clients, Some(last.failed.len()), true);
    ep.finish(&fw, &tracer);
    Ok(ep)
}

/// Ends the open incidents a heal pass resolved: a redeploy that avoids
/// the element ends one at the new chain's `ready_at` (a recovery); a
/// pass that keeps the chain on a downed link (its traffic re-routes)
/// ends one too.
fn resolve(
    fw: &Framework,
    ep: &mut Episode,
    spans: &mut Spans,
    clients: &[Client],
    open: &mut Vec<Incident>,
    report: &HealReport,
) {
    let mut k = 0;
    while k < open.len() {
        let c = &clients[open[k].client];
        let conn = fw.managed_connection(c.handle);
        let recovered =
            report.recovered.contains(&c.handle) && conn.is_some_and(|m| !hits(m, open[k].elem));
        let kept = matches!(open[k].elem, Elem::Link(_)) && report.kept.contains(&c.handle);
        if !(recovered || kept) {
            k += 1;
            continue;
        }
        let inc = open.swap_remove(k);
        if recovered {
            ep.v.objectives.extend(conn.map(|m| m.plan.objective_value));
            ep.v.recovery_ms
                .push(c.ready_at.since(inc.at).as_millis_f64());
        } else {
            ep.v.incidents_kept += 1;
        }
        spans.record("incident", inc.opened_ns, || {
            format!("c{}@{}", inc.client, inc.at.as_nanos())
        });
    }
}

/// Opens an incident for every managed chain `elem` hits.
fn open_incidents(
    fw: &Framework,
    ep: &mut Episode,
    spans: &Spans,
    clients: &[Client],
    open: &mut Vec<Incident>,
    elem: Elem,
    at: SimTime,
) {
    for (client, c) in clients.iter().enumerate() {
        if fw
            .managed_connection(c.handle)
            .is_some_and(|m| hits(m, elem))
        {
            ep.v.incidents += 1;
            open.push(Incident {
                client,
                elem,
                at,
                opened_ns: spans.now_ns(),
            });
        }
    }
}

/// `mail_fabric`'s load under a seeded `FaultPlan::randomized` that
/// fires while operations are in flight: host crashes with restarts
/// (any hosting leaf but the pinned server host), fabric link flaps and
/// loss windows. Operations are lost, and the seed picks the faults, so
/// it sets how much heal work an episode has: run by hand, not listed in
/// `BENCHMARK.json`.
pub fn fault_chaos(
    seed: u64,
    traced: bool,
    setup_only: bool,
    spans: &mut Spans,
) -> Result<Episode, String> {
    let tracer = tracer_for(traced);
    let mut ep = Episode::default();
    let setup = spans.begin("setup", || "fault_chaos".to_owned());
    let (mut fw, server, mut clients) = fabric_setup(&mut ep, spans, seed, &tracer)?;
    let net = fw.world.network();
    let plan = FaultPlan::randomized(
        seed,
        &ChaosConfig {
            start: FAULTS_FROM,
            horizon: LOAD_UNTIL,
            crashable_nodes: net
                .node_ids()
                .filter(|&n| n != server && net.node(n).name.contains("-host-"))
                .map(|n| n.0)
                .collect(),
            flappable_links: fabric_links(net).iter().map(|l| l.0).collect(),
            node_crashes: 24,
            link_flaps: 16,
            loss_windows: 8,
            loss_range: (0.05, 0.3),
            min_outage: SimDuration::from_millis(500),
            max_outage: SimDuration::from_secs(5),
            restart_nodes: true,
            ..ChaosConfig::default()
        },
    );
    fw.world.set_fault_seed(seed);
    fw.world.install_fault_plan(&plan);
    ep.setup_s = spans.end(setup) / 1e3;
    if setup_only {
        return Ok(ep);
    }

    let timed = spans.begin("timed", || "fault_chaos".to_owned());
    for (i, c) in clients.iter_mut().enumerate() {
        c.start_burst(&mut fw, i, seed);
    }
    let events = plan.events();
    let last_fault = events.last().map_or(SimTime::ZERO, |e| e.at);
    let mut cursor = 0usize;
    let mut open: Vec<Incident> = Vec::new();
    let mut settled = false;
    let mut last = None;
    heal_ticks(
        &mut fw,
        &mut ep,
        spans,
        &tracer,
        HORIZON,
        |fw, ep, spans, r| {
            // Faults that fired by this pass: open an incident for every
            // managed chain they hit; a repaired element ends its incidents.
            let now = fw.world.now();
            while cursor < events.len() && events[cursor].at <= now {
                let ev = events[cursor];
                cursor += 1;
                let elem = match ev.kind {
                    FaultKind::NodeCrash { node } | FaultKind::NodeRestart { node } => {
                        Elem::Node(NodeId(node))
                    }
                    FaultKind::LinkDown { link } | FaultKind::LinkUp { link } => {
                        Elem::Link(LinkId(link))
                    }
                    FaultKind::LossStart { .. } => {
                        ep.v.faults += 1;
                        continue;
                    }
                    _ => continue,
                };
                if matches!(
                    ev.kind,
                    FaultKind::NodeCrash { .. } | FaultKind::LinkDown { .. }
                ) {
                    ep.v.faults += 1;
                    open_incidents(fw, ep, spans, &clients, &mut open, elem, ev.at);
                } else {
                    let before = open.len();
                    open.retain(|inc| inc.elem != elem);
                    ep.v.incidents_outlived += (before - open.len()) as u64;
                }
            }
            if settled {
                last = Some(r.failed.len());
                return true;
            }
            follow_redeploys(fw, &mut clients, r);
            resolve(fw, ep, spans, &clients, &mut open, r);
            for (i, c) in clients.iter_mut().enumerate() {
                if c.reap(fw, ep) && now < LOAD_UNTIL {
                    c.start_burst(fw, i, seed);
                }
            }
            // One more pass once the last fault is repaired and every burst
            // has ended.
            settled = now > last_fault && clients.iter().all(|c| c.driver.is_none());
            false
        },
    );
    ep.timed_s = spans.end(timed) / 1e3;
    fabric_checks(&mut ep, &fw, &clients, last, false);
    ep.finish(&fw, &tracer);
    Ok(ep)
}

/// Runs and heals one virtual second at a time until `until` passes or
/// `done` (given each pass's report) holds; returns whether it held.
fn heal_ticks(
    fw: &mut Framework,
    ep: &mut Episode,
    spans: &mut Spans,
    tracer: &Tracer,
    until: SimTime,
    mut done: impl FnMut(&mut Framework, &mut Episode, &mut Spans, &HealReport) -> bool,
) -> bool {
    let mut now = fw.world.now();
    while now < until.min(HORIZON) {
        now += TICK;
        ep.run_until(fw, spans, now);
        let report = ep.heal(fw, spans, tracer);
        if done(fw, ep, spans, &report) {
            return true;
        }
    }
    false
}
