//! One episode of a workload: set-up, then the timed phase, driven only
//! through the public `Framework` / `World` API. The benchmark times its
//! own calls (`connect`, `heal`, `run_until`) and reads the counters the
//! program publishes (`Connection.costs`, `HealReport`, the registry).

use crate::measure::{fnv64, Spans};
use ps_core::{Framework, HealReport};
use ps_mail::spec::names::MAIL_SERVER;
use ps_mail::{mail_spec, mail_translator, register_mail_components, ClusterConfig, ClusterDriver};
use ps_mail::{Keyring, OpKind};
use ps_net::{Network, NodeId};
use ps_planner::{PlannerConfig, ServiceRequest};
use ps_sim::SimTime;
use ps_smock::{CoherencePolicy, ConnectError, Connection, InstanceId, ServiceRegistration, World};
use ps_spec::{Behavior, ResolvedBindings};
use ps_trace::{Metric, Tracer};
use std::fmt::Write as _;

/// Outputs that depend only on the seed (virtual time, counts, plans).
/// Every episode of one run must reproduce them exactly.
#[derive(Default)]
pub struct Virtual {
    pub ops_completed: u64,
    pub lost: u64,
    pub denied: u64,
    /// Virtual ms from issue to reply, per completed op.
    pub op_ms: Vec<f64>,
    /// Virtual ms from arrival (or the call) to `ready_at`, per connect.
    pub connect_ms: Vec<f64>,
    pub connects: u64,
    pub connect_errors: u64,
    /// Sessions (connect + served mail) that completed.
    pub sessions: u64,
    pub objectives: Vec<f64>,
    pub passes: u64,
    pub busy_passes: u64,
    pub heal_failed: u64,
    pub recovery_ms: Vec<f64>,
    pub incidents: u64,
    /// Incidents heal resolved by keeping the chain (its traffic
    /// re-routes around a downed link).
    pub incidents_kept: u64,
    /// Incidents whose fault was repaired before heal resolved them.
    pub incidents_outlived: u64,
    pub link_changes: u64,
    pub faults: u64,
    pub end_ns: u64,
    /// Output checks: (name, passed, detail).
    pub checks: Vec<(String, bool, String)>,
}

impl Virtual {
    pub fn check(&mut self, name: &str, ok: bool, detail: String) {
        self.checks.push((name.to_owned(), ok, detail));
    }

    pub fn attempted_ops(&self) -> u64 {
        self.ops_completed + self.lost
    }

    pub fn failed_ops(&self) -> u64 {
        self.lost + self.denied
    }

    /// Canonical text of every virtual output; its FNV-1a is the digest.
    pub fn canonical(&self) -> String {
        let mut s = String::new();
        let _ = write!(
            s,
            "ops={} lost={} denied={} connects={} errors={} sessions={} passes={} busy={} \
             heal_failed={} incidents={} kept={} outlived={} link_changes={} faults={} end_ns={}",
            self.ops_completed,
            self.lost,
            self.denied,
            self.connects,
            self.connect_errors,
            self.sessions,
            self.passes,
            self.busy_passes,
            self.heal_failed,
            self.incidents,
            self.incidents_kept,
            self.incidents_outlived,
            self.link_changes,
            self.faults,
            self.end_ns
        );
        for (label, list) in [
            ("op_ms", &self.op_ms),
            ("connect_ms", &self.connect_ms),
            ("objectives", &self.objectives),
            ("recovery_ms", &self.recovery_ms),
        ] {
            let sum: f64 = list.iter().sum();
            let h = fnv64(&format!("{list:?}"));
            let _ = write!(s, " {label}:n={},sum={sum:?},h={h:016x}", list.len());
        }
        for (name, ok, _) in &self.checks {
            let _ = write!(s, " {name}={ok}");
        }
        s
    }

    pub fn digest(&self) -> u64 {
        fnv64(&self.canonical())
    }
}

/// One heal pass as the benchmark saw it.
pub struct PassRec {
    pub wall_ms: f64,
    pub busy: bool,
    /// Wall minus planning and route repair inside the pass (traced
    /// episodes only; 0 otherwise).
    pub self_ms: f64,
}

/// Everything one episode measured.
#[derive(Default)]
pub struct Episode {
    pub setup_s: f64,
    /// Wall seconds of the timed phase (every call after set-up).
    pub timed_s: f64,
    /// Wall ms per `Framework::connect`, set-up connects included.
    pub connect_wall_ms: Vec<f64>,
    /// `costs.planning_ms` per `Framework::connect`.
    pub planning_ms: Vec<f64>,
    /// Sum of `costs.plan_stats.route_table_build_us` over connects.
    pub route_build_us: u64,
    /// Sum of `costs.plan_stats.work_units()` over connects.
    pub work_units: u64,
    pub deploy_created: u64,
    pub deploy_reused: u64,
    /// Wall ms inside `run`/`run_until`.
    pub run_wall_ms: f64,
    pub events: u64,
    pub messages: u64,
    pub passes: Vec<PassRec>,
    pub v: Virtual,
    /// Registry snapshot at the end of a traced episode.
    pub registry: Vec<(String, Metric)>,
    pub registry_json: String,
}

impl Episode {
    /// Times one `Framework::connect`, recording wall, planning and
    /// virtual connect time measured from `arrival`.
    pub fn connect(
        &mut self,
        fw: &mut Framework,
        spans: &mut Spans,
        request: &ServiceRequest,
        arrival: SimTime,
        key: &str,
    ) -> Result<Connection, ConnectError> {
        self.v.connects += 1;
        let open = spans.begin("connect", || key.to_owned());
        let result = fw.connect("mail", request);
        let wall = spans.end(open);
        match &result {
            Ok(conn) => {
                self.connect_wall_ms.push(wall);
                self.planning_ms.push(conn.costs.planning_ms);
                self.route_build_us += conn.costs.plan_stats.route_table_build_us;
                self.work_units += conn.costs.plan_stats.work_units();
                self.deploy_created += conn.deployment.created as u64;
                self.deploy_reused += conn.deployment.reused as u64;
                self.v
                    .connect_ms
                    .push(conn.ready_at.since(arrival).as_millis_f64());
                self.v.objectives.push(conn.plan.objective_value);
            }
            Err(_) => self.v.connect_errors += 1,
        }
        result
    }

    /// Times `World::run_until`.
    pub fn run_until(&mut self, fw: &mut Framework, spans: &mut Spans, to: SimTime) {
        let e0 = fw.world.events_processed();
        let open = spans.begin("run_until", String::new);
        fw.run_until(to);
        self.run_wall_ms += spans.end(open);
        self.events += fw.world.events_processed() - e0;
    }

    /// Times one `Framework::heal` pass and classifies it.
    pub fn heal(&mut self, fw: &mut Framework, spans: &mut Spans, tracer: &Tracer) -> HealReport {
        let inner = |t: &Tracer| {
            t.registry().map_or(0.0, |r| {
                let plan = r
                    .histogram("server.planning_wall_ms")
                    .map_or(0.0, |h| h.sum);
                let route = r
                    .histogram("heal.route_repair_wall_us")
                    .map_or(0.0, |h| h.sum / 1e3);
                plan + route
            })
        };
        let before = inner(tracer);
        let open = spans.begin("heal", || format!("pass{}", self.v.passes));
        let report = fw.heal();
        let wall_ms = spans.end(open);
        let busy = !(report.liveness.is_empty()
            && report.changes.is_empty()
            && report.quarantined.is_empty()
            && report.restored.is_empty()
            && report.recovered.is_empty()
            && report.degraded.is_empty()
            && report.reconciled.is_empty()
            && report.abandoned.is_empty()
            && report.infeasible.is_empty()
            && report.failed.is_empty());
        self.v.passes += 1;
        self.v.busy_passes += u64::from(busy);
        self.v.heal_failed += report.failed.len() as u64;
        let self_ms = if tracer.enabled() {
            (wall_ms - (inner(tracer) - before)).max(0.0)
        } else {
            0.0
        };
        self.passes.push(PassRec {
            wall_ms,
            busy,
            self_ms,
        });
        report
    }

    /// Folds a finished driver's op log into the virtual outputs.
    pub fn absorb_driver(&mut self, d: &ClusterDriver) {
        self.v.ops_completed += d.completed.len() as u64;
        self.v.lost += u64::from(d.lost);
        self.v.denied += u64::from(d.denied);
        self.v
            .op_ms
            .extend(d.completed.iter().map(|&(_, ms): &(OpKind, f64)| ms));
    }

    /// Closes the episode: message count, virtual end, registry.
    pub fn finish(&mut self, fw: &Framework, tracer: &Tracer) {
        self.messages = fw.world.messages_sent();
        self.v.end_ns = fw.world.now().as_nanos();
        if let Some(r) = tracer.registry() {
            self.registry = r.snapshot();
            self.registry_json = r.to_json();
        }
    }

    /// A registry counter of a traced episode (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        match self.metric(name) {
            Some(Metric::Counter(c)) => *c,
            _ => 0,
        }
    }

    /// The sum of a registry histogram of a traced episode (0 when absent).
    pub fn histogram_sum(&self, name: &str) -> f64 {
        match self.metric(name) {
            Some(Metric::Histogram(h)) => h.sum,
            _ => 0.0,
        }
    }

    fn metric(&self, name: &str) -> Option<&Metric> {
        self.registry
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, m)| m)
    }
}

/// The mail service on a fresh framework: components, registration
/// (32 KiB proxy), and the primary `MailServer` on `server`.
pub fn mail_framework(
    net: Network,
    server: NodeId,
    config: PlannerConfig,
    seed: u64,
    tracer: &Tracer,
) -> Result<Framework, ConnectError> {
    let mut fw = Framework::new(net, server, Box::new(mail_translator()));
    fw.planner_config(config);
    fw.enable_self_healing();
    fw.set_tracer(tracer.clone());
    register_mail_components(
        &mut fw.server.registry,
        Keyring::new(seed),
        CoherencePolicy::CountLimit(500),
    );
    fw.register_service(
        ServiceRegistration::new(mail_spec())
            .attribute("type", "mail")
            .proxy_code_size(32 * 1024)
            .home_node(server),
    );
    fw.install_primary("mail", MAIL_SERVER, server)?;
    Ok(fw)
}

/// Spawns a closed-loop cluster driver on `node`, wired to `root`,
/// starting at `start` (the connection's `ready_at`: a client uses the
/// service once it is ready): the paper's 10:1 send:receive mix with
/// 1–3 KiB bodies.
#[allow(clippy::too_many_arguments)]
pub fn spawn_driver(
    world: &mut World,
    name: String,
    node: NodeId,
    root: InstanceId,
    start: SimTime,
    sends: u32,
    id_base: u64,
    seed: u64,
) -> InstanceId {
    let driver = ClusterDriver::new(ClusterConfig {
        user: name.clone(),
        peers: vec![name.clone()],
        sends,
        receives: sends / 10,
        body_bytes: (1024, 3072),
        sensitivity: (1, 2),
        id_base,
        seed,
    });
    let start = start.max(world.now());
    let id = world.instantiate(
        name,
        node,
        ResolvedBindings::new(),
        Behavior::new(),
        Box::new(driver),
        start,
    );
    world.wire(id, vec![root]);
    id
}

/// The cluster driver behind `id`, if it is one.
pub fn driver(world: &mut World, id: InstanceId) -> Option<&ClusterDriver> {
    world
        .logic_mut(id)
        .as_any()
        .and_then(|a| a.downcast_ref::<ClusterDriver>())
}

pub fn driver_done(world: &mut World, id: InstanceId) -> bool {
    driver(world, id).is_some_and(ClusterDriver::is_done)
}
