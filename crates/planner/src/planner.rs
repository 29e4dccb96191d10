//! The planning facade: ties enumeration, mapping, and search together
//! (Figure 1, step 4).

use crate::exhaustive::{self, SearchInputs};
use crate::hierarchy::{gap_micro, HierMemo};
use crate::linkage::enumerate_linkages_multi;
use crate::linkage::{LinkageGraph, LinkageLimits};
use crate::load::LoadModel;
use crate::mapping::{Evaluation, Mapper};
use crate::plan::{
    Objective, Placement, Plan, PlanError, PlanRepairStats, PlanStats, ServiceRequest,
};
use ps_net::{LinkId, Network, NodeId, PropertyTranslator, Refresh, RouteTable};
use ps_spec::ServiceSpec;
use ps_trace::Tracer;
use std::sync::Arc;

/// Which search algorithm maps linkage graphs onto the network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Algorithm {
    /// Unbounded brute force with property-flow pruning only — the
    /// pre-bounding oracle, kept reachable for equivalence testing and
    /// baseline benchmarking.
    Oracle,
    /// Exhaustive search with admissible branch-and-bound pruning;
    /// returns exactly the oracle's optimum (value and assignment).
    #[default]
    Exhaustive,
}

/// Planner configuration.
#[derive(Debug, Clone)]
pub struct PlannerConfig {
    /// Linkage enumeration limits.
    pub limits: LinkageLimits,
    /// Optimization objective.
    pub objective: Objective,
    /// Capacity enforcement mode.
    pub load_model: LoadModel,
    /// Search algorithm.
    pub algorithm: Algorithm,
    /// Worker threads for the graph sweep (0 or 1 = serial). Repair and
    /// refinement sweeps prune ties and always run serially.
    pub threads: usize,
    /// Build one all-pairs [`RouteTable`] per flat planning call (or
    /// carry a repaired one, see [`RepairContext::prior_routes`]) and
    /// share it across every mapper — including all parallel sweep
    /// workers. Off, each mapper fills its own unshared lazy table,
    /// whose rows are not charged to [`PlanStats`]: the baseline
    /// `bench_planner` measures against. On by default.
    pub share_route_table: bool,
    /// Tracer receiving planning statistics (`planner.*` registry
    /// counters). Disabled by default; the planner emits no trace
    /// *events* because it runs in host wall-clock time, which is banned
    /// from the deterministic event stream.
    pub tracer: Tracer,
    /// Hierarchical gateway-composed planning: `Some` puts every
    /// [`Planner::plan_with`] call that carries a [`HierMemo`] — the
    /// serving layer's connects and repairs,
    /// [`Planner::plan_hierarchical`] — onto region decomposition with
    /// the per-region subplan memo. `None` (the default) keeps every
    /// path flat.
    pub hier: Option<crate::hierarchy::HierConfig>,
}

impl Default for PlannerConfig {
    fn default() -> Self {
        PlannerConfig {
            limits: LinkageLimits::default(),
            objective: Objective::default(),
            load_model: LoadModel::default(),
            algorithm: Algorithm::default(),
            threads: 0,
            share_route_table: true,
            tracer: Tracer::disabled(),
            hier: None,
        }
    }
}

/// The planning module.
#[derive(Debug, Clone)]
pub struct Planner {
    /// Service specification being planned for.
    pub spec: ServiceSpec,
    /// Configuration.
    pub config: PlannerConfig,
}

impl Planner {
    /// Creates a planner with default configuration.
    pub fn new(spec: ServiceSpec) -> Self {
        Planner {
            spec,
            config: PlannerConfig::default(),
        }
    }

    /// Creates a planner with an explicit configuration.
    pub fn with_config(spec: ServiceSpec, config: PlannerConfig) -> Self {
        Planner { spec, config }
    }

    /// Enumeration limits effective for one request: a degraded-mode
    /// request (partition-side healing) may detach data views from
    /// their unreachable upstream subtree.
    pub(crate) fn effective_limits(&self, request: &ServiceRequest) -> LinkageLimits {
        let mut limits = self.config.limits.clone();
        limits.allow_detached_data_views |= request.degraded;
        limits
    }

    /// Plans a deployment satisfying `request` on `net` (Section 3.3's
    /// two logical steps: enumerate valid linkages, then map them onto
    /// the network discarding mappings that violate any constraint,
    /// keeping the objective-optimal survivor). Always flat: the whole
    /// network is the candidate universe.
    pub fn plan<T: PropertyTranslator + Sync + ?Sized>(
        &self,
        net: &Network,
        translator: &T,
        request: &ServiceRequest,
    ) -> Result<Plan, PlanError> {
        self.plan_with(net, translator, request, None, None)
    }

    /// Warm-start plan repair: re-plans `request` after a network change,
    /// seeding the exact search with a cheap *repair* of the surviving
    /// plan instead of starting cold. Two phases:
    ///
    /// 1. **Repair solve** — on the old plan's linkage graph, every chain
    ///    position the damage did *not* touch keeps its surviving
    ///    placement (candidate set fixed to the old node); only positions
    ///    on quarantined hosts or whose edge routes crossed dirty links
    ///    are re-solved. Any feasible repaired mapping's objective seeds
    ///    the shared incumbent.
    /// 2. **Exact search** — the same bounded branch-and-bound sweep over
    ///    every candidate graph that [`plan`](Self::plan) runs. Because
    ///    pruning only cuts completions that cannot strictly beat the
    ///    incumbent, the returned objective value is exactly the
    ///    from-scratch optimum — just found with most of the tree
    ///    pre-cut.
    ///
    /// On objective *ties* the repaired old-shape mapping wins, which
    /// minimizes placement churn: surviving instances stay where they
    /// are unless strictly beaten. When the repair solve is infeasible
    /// (a surviving node lost its installation conditions), the call
    /// degrades to an unseeded — still exact — search.
    ///
    /// When `ctx.prior_routes` carries the previous epoch's route table,
    /// it is repaired incrementally ([`RouteTable::repair`]) from the
    /// same dirty sets instead of rebuilding all sources.
    pub fn plan_repair<T: PropertyTranslator + Sync + ?Sized>(
        &self,
        net: &Network,
        translator: &T,
        request: &ServiceRequest,
        ctx: &RepairContext<'_>,
    ) -> Result<Plan, PlanError> {
        self.plan_with(net, translator, request, Some(ctx), None)
    }

    /// The planning pipeline behind [`plan`](Self::plan),
    /// [`plan_repair`](Self::plan_repair) and
    /// [`plan_hierarchical`](Self::plan_hierarchical), and the serving
    /// layer's single planning call. One pipeline, with hierarchy and
    /// warm-start repair as policies choosing its inputs:
    ///
    /// 1. validate the pins and enumerate the linkage graphs once;
    /// 2. pick the candidate universe and its routes — the hierarchical
    ///    composition universe with the memo's lazily built route table
    ///    when `memo` is given, [`PlannerConfig::hier`] is set and the
    ///    fabric has at least two regions; otherwise the whole network
    ///    with the shared all-pairs table (carried over from `repair`'s
    ///    prior table when there is one);
    /// 3. with `repair`, solve the old plan's graph with the surviving
    ///    placements fixed, seeding the incumbent;
    /// 4. sweep every graph (on [`PlannerConfig::threads`] workers when
    ///    more than one is configured and ties are not pruned);
    /// 5. on the hierarchical universe, either run the exact flat
    ///    refinement sweep ([`HierConfig::refine`](crate::HierConfig))
    ///    or record the optimality-gap bound — and re-plan flat when the
    ///    restricted universe found nothing.
    pub fn plan_with<T: PropertyTranslator + Sync + ?Sized>(
        &self,
        net: &Network,
        translator: &T,
        request: &ServiceRequest,
        repair: Option<&RepairContext<'_>>,
        memo: Option<&HierMemo>,
    ) -> Result<Plan, PlanError> {
        for pinned in request.pinned.keys() {
            if self.spec.get_component(pinned).is_none() {
                return Err(PlanError::UnknownPinned(pinned.clone()));
            }
        }
        let graphs = enumerate_linkages_multi(
            &self.spec,
            &request.interfaces,
            &self.effective_limits(request),
        );
        if graphs.is_empty() {
            return Err(PlanError::NoImplementers(request.interfaces.join(" + ")));
        }
        let mut stats = PlanStats {
            graphs_enumerated: graphs.len(),
            ..PlanStats::default()
        };

        // A repair's surviving hosts anchor the composition universe
        // alongside the request's own anchors.
        let hier = memo
            .filter(|_| self.config.hier.is_some())
            .and_then(|memo| {
                let survivors: Vec<NodeId> = repair
                    .map(|ctx| ctx.old_plan.placements.iter().map(|p| p.node).collect())
                    .unwrap_or_default();
                self.hier_setup(
                    net, translator, request, &graphs, memo, &survivors, &mut stats,
                )
            });
        let (mapper, scope, hier) = match hier {
            Some((mapper, scope, work)) => (mapper, scope, Some(work)),
            None => {
                let scope = Scope {
                    routes: self.flat_routes(net, repair, &mut stats),
                    ..Scope::default()
                };
                (self.mapper(net, translator, request, &scope), scope, None)
            }
        };

        // Best objective found across graphs; seeds the bounded search so
        // later graphs are cut against earlier graphs' optima.
        let incumbent = exhaustive::Incumbent::new();
        let bounded = self.config.algorithm == Algorithm::Exhaustive;
        let mut best: Option<Plan> = None;
        let fixed = repair.map(|ctx| surviving_placements(net, request, ctx));
        if let (Some(ctx), Some(fixed)) = (repair, &fixed) {
            let old = &ctx.old_plan.graph;
            // The seed must live in the current request's graph space: a
            // plan carried over from a differently-shaped request (e.g. a
            // degraded-mode detached chain being re-planned on the full
            // request) would otherwise seed — and on objective could win
            // — with a graph this request cannot legally produce.
            if graphs.contains(old) {
                let inputs = SearchInputs {
                    bounded,
                    incumbent: &incumbent,
                    fixed: Some(fixed),
                    strictly_better: false,
                };
                best = exhaustive::search(&mapper, old, &mut stats, inputs)
                    .map(|(assignment, eval)| assemble_plan(old, &assignment, eval));
            }
        }
        let seeded = best.is_some();
        let cuts_before_sweep = stats.bound_prunes;

        // A repair sweep prunes ties (`>=` cuts): `best` always holds a
        // feasible plan achieving the incumbent's value — the seed, or
        // the latest strictly-better find — and ties deliberately keep
        // it (churn minimization), so the plateau of equal-objective
        // completions is never enumerated.
        let inputs = SearchInputs {
            bounded,
            incumbent: &incumbent,
            fixed: None,
            strictly_better: repair.is_some(),
        };
        self.sweep(
            net, translator, request, &graphs, &mapper, &scope, inputs, &mut best, &mut stats,
        );

        if let Some(work) = &hier {
            if best.is_none() {
                // The restricted universe missed every feasible mapping
                // (e.g. the only installable host sits outside all
                // shortlists). Correctness over speed: re-plan flat.
                return self.plan_with(net, translator, request, repair, None);
            }
            stats.route_rows_built += work.rows_built();
            if self.config.hier.as_ref().is_some_and(|cfg| cfg.refine) {
                // The exact refinement sweep: strict-improvement search
                // over the full network, warm-started by the composed
                // incumbent. When it surfaces nothing, the composed plan
                // *is* the flat optimum.
                let scope = Scope {
                    routes: self.flat_routes(net, repair, &mut stats),
                    ..Scope::default()
                };
                let full = self.mapper(net, translator, request, &scope);
                let cuts_before_refine = stats.bound_prunes;
                let inputs = SearchInputs {
                    strictly_better: true,
                    ..inputs
                };
                self.sweep(
                    net, translator, request, &graphs, &full, &scope, inputs, &mut best, &mut stats,
                );
                stats.hier_refine_cuts = stats.bound_prunes - cuts_before_refine;
                stats.hier_refined = true;
            }
        }

        let Some(mut plan) = best else {
            return Err(PlanError::NoFeasibleMapping {
                graphs: graphs.len(),
            });
        };
        if hier.is_some() && !stats.hier_refined {
            stats.hier_gap_micro = gap_micro(
                plan.objective_value,
                self.objective_lower_bound(net, request, &graphs),
            );
        }
        plan.stats = stats;
        plan.repair = fixed.map(|fixed| {
            let chains_reused = fixed.iter().flatten().count();
            PlanRepairStats {
                chains_resolved: fixed.len() - chains_reused,
                chains_reused,
                seeded_bound_cuts: stats.bound_prunes - cuts_before_sweep,
                seeded,
            }
        });
        // Fold the statistics into the configured tracer's registry (a
        // no-op with the default disabled tracer).
        let tracer = &self.config.tracer;
        tracer.count("planner.plans", 1);
        tracer.count("planner.graphs_enumerated", stats.graphs_enumerated as u64);
        tracer.count("planner.mappings_evaluated", stats.mappings_evaluated);
        tracer.count("planner.prunes", stats.prunes);
        tracer.count("planner.bound_prunes", stats.bound_prunes);
        tracer.gauge(
            "planner.route_table_build_wall_us",
            stats.route_table_build_us as f64,
        );
        if let Some(work) = &hier {
            self.publish_hier(&plan.stats, work);
        }
        if let Some(r) = &plan.repair {
            tracer.count("planner.repairs", 1);
            tracer.count("planner.repair_chains_resolved", r.chains_resolved as u64);
            tracer.count("planner.repair_chains_reused", r.chains_reused as u64);
        }
        Ok(plan)
    }

    /// The flat path's shared route table, or `None` for per-mapper
    /// tables when [`PlannerConfig::share_route_table`] is off. A repair
    /// carries the previous epoch's table through [`RouteTable::refresh`]
    /// (reused when current, else a copy repaired from the dirty sets);
    /// everything else builds afresh. Every row built or re-run is
    /// charged to `stats`, so the deterministic work proxy
    /// (`PlanStats::work_units`) charges flat and hierarchical planning
    /// on the same scale.
    fn flat_routes(
        &self,
        net: &Network,
        repair: Option<&RepairContext<'_>>,
        stats: &mut PlanStats,
    ) -> Option<Arc<RouteTable>> {
        if !self.config.share_route_table {
            return None;
        }
        let (table, refresh) = match repair {
            Some(ctx) => RouteTable::refresh(
                ctx.prior_routes.clone(),
                net,
                &ctx.dirty_links,
                &ctx.dirty_nodes,
            ),
            None => RouteTable::refresh(None, net, &[], &[]),
        };
        match refresh {
            Refresh::Reused => {}
            Refresh::Repaired(outcome) => {
                stats.route_table_build_us += outcome.repair_micros;
                stats.route_rows_built += outcome.sources_rebuilt as u64;
            }
            Refresh::Built => {
                stats.route_table_build_us += table.build_micros();
                stats.route_rows_built += table.rows_built() as u64;
            }
        }
        Some(table)
    }

    /// A mapper for `request` with `scope`'s routes and universe.
    pub(crate) fn mapper<'a, T: PropertyTranslator + ?Sized>(
        &'a self,
        net: &'a Network,
        translator: &T,
        request: &'a ServiceRequest,
        scope: &Scope,
    ) -> Mapper<'a> {
        let mut mapper = Mapper::new(
            &self.spec,
            net,
            translator,
            request,
            self.config.load_model,
            self.config.objective,
        );
        if let Some(table) = &scope.routes {
            mapper = mapper.with_route_table(Arc::clone(table));
        }
        if let Some(universe) = &scope.universe {
            mapper = mapper.with_universe(universe.clone());
        }
        mapper
    }

    /// One pass over every candidate graph: graphs the structural
    /// pre-filter rules out are skipped, the rest are searched against
    /// the shared incumbent, and a result replaces `best` only when
    /// strictly better — so ties resolve by graph order, and an incoming
    /// repair seed wins them. Runs on [`PlannerConfig::threads`] workers
    /// (each with its own `scope` mapper; `mapper` serves the serial
    /// path) unless the search prunes ties, which is serial-only.
    #[allow(clippy::too_many_arguments)]
    fn sweep<T: PropertyTranslator + Sync + ?Sized>(
        &self,
        net: &Network,
        translator: &T,
        request: &ServiceRequest,
        graphs: &[LinkageGraph],
        mapper: &Mapper<'_>,
        scope: &Scope,
        inputs: SearchInputs<'_>,
        best: &mut Option<Plan>,
        stats: &mut PlanStats,
    ) {
        let viable: Vec<&LinkageGraph> = graphs
            .iter()
            .filter(|graph| self.graph_possibly_feasible(graph, request))
            .collect();
        stats.prunes += (graphs.len() - viable.len()) as u64;
        let threads = self.config.threads.min(viable.len());
        let results = if threads > 1 && !inputs.strictly_better {
            self.search_parallel(
                net, translator, request, &viable, scope, inputs, threads, stats,
            )
        } else {
            viable
                .iter()
                .map(|graph| exhaustive::search(mapper, graph, stats, inputs))
                .collect()
        };
        for (graph, result) in viable.into_iter().zip(results) {
            let Some((assignment, eval)) = result else {
                continue;
            };
            if best
                .as_ref()
                .is_none_or(|b| eval.objective_value < b.objective_value)
            {
                *best = Some(assemble_plan(graph, &assignment, eval));
            }
        }
    }

    /// Searches `graphs` on `threads` workers, one result slot per graph.
    /// Each worker owns its own mapper (route caches are thread-local)
    /// while sharing `scope`'s read-only routes and the incumbent: a
    /// mapping found by any thread bounds every other thread's search.
    #[allow(clippy::too_many_arguments)]
    fn search_parallel<T: PropertyTranslator + Sync + ?Sized>(
        &self,
        net: &Network,
        translator: &T,
        request: &ServiceRequest,
        graphs: &[&LinkageGraph],
        scope: &Scope,
        inputs: SearchInputs<'_>,
        threads: usize,
        stats: &mut PlanStats,
    ) -> Vec<Option<(Vec<NodeId>, Evaluation)>> {
        let mut results = Vec::new();
        results.resize_with(graphs.len(), || None);
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads)
                .map(|worker| {
                    // ps-lint: allow(D004): the documented planner reduction — workers
                    // fill disjoint result slots and the sweep folds them in slot
                    // order, independent of thread completion order
                    s.spawn(move || {
                        let mapper = self.mapper(net, translator, request, scope);
                        let mut worker_stats = PlanStats::default();
                        // Round-robin distribution: consecutive graphs tend
                        // to share structure (and cost), so striping
                        // spreads the expensive ones.
                        let found: Vec<_> = (worker..graphs.len())
                            .step_by(threads)
                            .map(|slot| {
                                let result = exhaustive::search(
                                    &mapper,
                                    graphs[slot],
                                    &mut worker_stats,
                                    inputs,
                                );
                                (slot, result)
                            })
                            .collect();
                        (found, worker_stats)
                    })
                })
                .collect();
            for handle in handles {
                // ps-lint: allow(P001): a panicked worker thread must be
                // re-raised here — swallowing it would return a silently
                // truncated plan set as if it were the full search result.
                let (found, worker_stats) = handle.join().expect("planner worker");
                stats.mappings_evaluated += worker_stats.mappings_evaluated;
                stats.prunes += worker_stats.prunes;
                stats.bound_prunes += worker_stats.bound_prunes;
                for (slot, result) in found {
                    results[slot] = result;
                }
            }
        });
        results
    }

    /// Cheap structural pre-filter: a graph that uses a component with
    /// environment-independent configuration `m` times can only be mapped
    /// when at least `m − 1` pre-existing instances of it are attachable —
    /// the instance-identity rules forbid creating two new instances of
    /// one configuration. Graphs that fail are infeasible for every
    /// mapping, so no search algorithm needs to touch them.
    pub(crate) fn graph_possibly_feasible(
        &self,
        graph: &crate::linkage::LinkageGraph,
        request: &ServiceRequest,
    ) -> bool {
        use std::collections::BTreeMap;
        let mut multiplicity: BTreeMap<&str, usize> = BTreeMap::new();
        for node in &graph.nodes {
            *multiplicity.entry(node.component.as_str()).or_insert(0) += 1;
        }
        for (component, &count) in &multiplicity {
            if count < 2 {
                continue;
            }
            let Some(decl) = self.spec.get_component(component) else {
                return false;
            };
            if decl.is_env_dependent() {
                // Factored per node: distinct configurations may coexist.
                continue;
            }
            let existing = request
                .existing
                .iter()
                .filter(|e| e.component == *component)
                .map(|e| e.node)
                .collect::<std::collections::BTreeSet<_>>()
                .len()
                + usize::from(request.pinned.contains_key(*component));
            if count > existing + 1 {
                return false;
            }
        }
        true
    }
}

/// What changed since a plan was made — the input to
/// [`Planner::plan_repair`]. Built by one heal pass from *all* liveness
/// events and monitor diffs observed since the last pass, so concurrent
/// failures batch into a single repair solve per connection.
#[derive(Debug, Clone)]
pub struct RepairContext<'p> {
    /// The surviving plan to repair.
    pub old_plan: &'p Plan,
    /// Nodes whose liveness or credentials changed (quarantined, restored,
    /// re-rated) since `old_plan` was made.
    pub dirty_nodes: Vec<NodeId>,
    /// Links whose state (up/down, latency, bandwidth, credentials)
    /// changed since `old_plan` was made.
    pub dirty_links: Vec<LinkId>,
    /// The route table from before the change; repaired incrementally
    /// from the dirty sets instead of rebuilt (used as-is when already
    /// current). `None` falls back to a full build.
    pub prior_routes: Option<Arc<RouteTable>>,
}

/// Materializes a search result as a [`Plan`] (stats and repair info are
/// attached by the caller).
pub(crate) fn assemble_plan(graph: &LinkageGraph, assignment: &[NodeId], eval: Evaluation) -> Plan {
    let placements = graph
        .nodes
        .iter()
        .enumerate()
        .map(|(idx, tn)| Placement {
            graph_index: idx,
            component: tn.component.clone(),
            node: assignment[idx],
            factors: eval.factors[idx].clone(),
            provided: eval.provided[idx].clone(),
            preexisting: eval.preexisting[idx],
        })
        .collect();
    Plan {
        graph: graph.clone(),
        placements,
        edges: eval.edges,
        objective_value: eval.objective_value,
        expected_latency_ms: eval.latency_ms,
        deployment_cost_ms: eval.cost_ms,
        sustainable_rate: eval.sustainable_rate,
        stats: PlanStats::default(),
        repair: None,
    }
}

/// Per chain position of `ctx.old_plan`, the surviving placement to keep
/// fixed, or `None` where the damage touched it: its host is down or
/// dirty, or an edge route it terminates crossed a dirty link or node.
fn surviving_placements(
    net: &Network,
    request: &ServiceRequest,
    ctx: &RepairContext<'_>,
) -> Vec<Option<NodeId>> {
    let old = ctx.old_plan;
    let mut affected: Vec<bool> = old
        .placements
        .iter()
        .map(|p| !net.node(p.node).up || ctx.dirty_nodes.contains(&p.node))
        .collect();
    for edge in &old.edges {
        let touched = edge.route.links.iter().any(|l| ctx.dirty_links.contains(l))
            || edge.route.via.iter().any(|n| ctx.dirty_nodes.contains(n));
        if touched {
            affected[edge.from] = true;
            affected[edge.to] = true;
        }
    }
    if !request.colocate_root && (!ctx.dirty_nodes.is_empty() || !ctx.dirty_links.is_empty()) {
        // The implicit client → root route is not recorded in the
        // plan's edges; a free-floating root is conservatively
        // re-solved whenever anything moved.
        affected[0] = true;
    }
    affected
        .iter()
        .zip(&old.placements)
        .map(|(&aff, p)| (!aff).then_some(p.node))
        .collect()
}

/// Route table and candidate universe shared by every mapper of one
/// planning call (the serial mapper and each parallel worker's).
#[derive(Default)]
pub(crate) struct Scope {
    /// The shared route table — all-pairs on the flat universe, the
    /// memo's lazy one on the hierarchical universe; `None` gives each
    /// mapper its own.
    pub(crate) routes: Option<Arc<RouteTable>>,
    /// Hosts candidates are restricted to; `None` is the whole network.
    pub(crate) universe: Option<Vec<NodeId>>,
}
