//! The route oracle: one shortest-path tree per source, built on first
//! query.
//!
//! The planner maps every linkage edge onto a multi-hop route (paper
//! §3.3), for many candidate mappings, across many worker threads.
//! [`RouteTable`] answers those queries from per-source Dijkstra trees
//! stored as predecessor rows. A row is built the first time its source
//! is queried and is read lock-free afterwards, so one table can be
//! shared across threads behind an [`std::sync::Arc`]:
//!
//! * [`RouteTable::new`] starts with no rows — the hierarchical planner
//!   touches a handful of sources (client, pinned hosts, gateways) and
//!   pays for exactly those;
//! * [`RouteTable::build`] builds every row up front — the flat
//!   planner's shared all-pairs table. "Eager" only means "all rows
//!   built"; queries answer identically either way.
//!
//! Every row comes from the same `dijkstra_tree` / `reconstruct` pair
//! as [`crate::shortest_route`], so every answer is bit-identical to it,
//! deterministic tie-breaks included.
//!
//! Staleness is detected through the [`Network`] epoch counter: the
//! table records `net.epoch()` and [`RouteTable::is_current`] compares it
//! against the live graph. Every query takes the network and, in debug
//! builds, asserts it.
//!
//! ## Incremental repair
//!
//! A full build is `n` Dijkstra runs; at a thousand routers that is the
//! dominant cost of every heal pass even when a single link flapped.
//! [`RouteTable::repair`] instead classifies each *built* row as
//! affected or not by the reported changes and re-runs Dijkstra only for
//! the affected ones (delta-Dijkstra at source granularity — exactly
//! equivalent to a full rebuild, including deterministic tie-breaks,
//! because each rebuilt tree is produced by the very same
//! `dijkstra_tree`). Rows never built stay unbuilt: they are built from
//! the live graph on first query. A source `s` is affected when:
//!
//! - a touched link is a tree edge of `s`'s old tree (the link may have
//!   worsened or vanished), or
//! - relaxing a touched (live) link against `s`'s *old* distances gives
//!   a cost `<=` the recorded cost at either endpoint (the link may
//!   now offer a better route, or an equal-cost one that changes the
//!   deterministic predecessor choice), or
//! - a touched node that went down is *internal* to `s`'s tree (some
//!   neighbour's tree parent is that node); if it was a leaf the row is
//!   patched in place (`UNREACHED`) without re-running anything, or
//! - a touched node came (back) up and one of its incident links passes
//!   the relaxation test above.
//!
//! When more than [`REPAIR_DAMAGE_THRESHOLD`] of the built rows are
//! affected the repair re-runs every built row instead — the
//! classification sweep is cheap, so the fallback costs one extra
//! `O(n · deg)` pass.
//!
//! [`RouteTable::refresh`] is the one upkeep policy for a table carried
//! across network changes: reuse it when current, repair a copy when
//! stale, build one when none is carried.

use crate::graph::{LinkId, Network, NodeId};
use crate::path::{dijkstra_tree, reconstruct, Route, RouteCost, UNREACHED};
use ps_sim::SimDuration;
use std::sync::{Arc, OnceLock};

/// Fraction of built rows above which [`RouteTable::repair`] re-runs
/// every built row instead of repairing per source
/// (numerator/denominator).
pub const REPAIR_DAMAGE_THRESHOLD: (usize, usize) = (1, 4);

/// What [`RouteTable::repair`] did, for perf accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RepairOutcome {
    /// Whether the damage threshold (or a node-count change) forced
    /// every built row to re-run.
    pub full_rebuild: bool,
    /// Sources whose Dijkstra tree was re-run.
    pub sources_rebuilt: usize,
    /// Total sources in the table.
    pub sources_total: usize,
    /// Wall-clock time spent repairing, in microseconds (accounting
    /// only; never consulted by any planning decision).
    pub repair_micros: u64,
}

/// How [`RouteTable::refresh`] brought a carried table up to the live
/// network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Refresh {
    /// The carried table was current and is shared as is.
    Reused,
    /// A copy of the stale carried table was repaired.
    Repaired(RepairOutcome),
    /// No table was carried: a new one was built with every row.
    Built,
}

/// One source's shortest-path tree.
#[derive(Debug, Clone)]
struct Row {
    /// Cost to each destination (`UNREACHED` when disconnected).
    dist: Vec<RouteCost>,
    /// Last tree edge into each destination.
    prev: Vec<Option<(NodeId, LinkId)>>,
}

impl Row {
    fn build(net: &Network, from: NodeId) -> Row {
        let mut row = Row {
            dist: Vec::new(),
            prev: Vec::new(),
        };
        row.rerun(net, from);
        row
    }

    fn rerun(&mut self, net: &Network, from: NodeId) {
        let n = net.node_count();
        self.dist.resize(n, UNREACHED);
        self.prev.resize(n, None);
        dijkstra_tree(net, from, None, &mut self.dist, &mut self.prev);
    }
}

/// The route oracle for one network epoch: per-source routing rows,
/// each built on first query (see the module docs).
#[derive(Debug, Clone)]
pub struct RouteTable {
    /// Epoch of the network the rows reflect.
    epoch: u64,
    /// One slot per source node; filled on first query.
    rows: Vec<OnceLock<Row>>,
    /// Wall-clock time [`RouteTable::build`] spent, in microseconds.
    build_micros: u64,
}

impl RouteTable {
    /// A table bound to the network's current epoch with no rows built.
    /// No Dijkstra runs until the first query.
    pub fn new(net: &Network) -> Self {
        RouteTable {
            epoch: net.epoch(),
            rows: (0..net.node_count()).map(|_| OnceLock::new()).collect(),
            build_micros: 0,
        }
    }

    /// A table with every row built: one full Dijkstra per source node.
    pub fn build(net: &Network) -> Self {
        // Wall-clock accounting only: `build_micros` flows into
        // `PlanStats` / registry `_wall_` metrics and is never consulted
        // by any virtual-time or planning decision.
        let started = ps_trace::WallTimer::start();
        let mut table = RouteTable::new(net);
        for from in net.node_ids() {
            table.row(net, from);
        }
        table.build_micros = started.elapsed_micros();
        table
    }

    /// The one upkeep policy for a table carried across network
    /// changes: a current `prior` is shared as is, a stale one is
    /// copied and [`repair`](Self::repair)ed from the touched sets
    /// (which must cover everything that changed since it was current),
    /// and without one a table is built with every row.
    pub fn refresh(
        prior: Option<Arc<RouteTable>>,
        net: &Network,
        touched_links: &[LinkId],
        touched_nodes: &[NodeId],
    ) -> (Arc<RouteTable>, Refresh) {
        match prior {
            Some(prior) if prior.is_current(net) => (prior, Refresh::Reused),
            Some(prior) => {
                let mut table = Arc::unwrap_or_clone(prior);
                let outcome = table.repair(net, touched_links, touched_nodes);
                (Arc::new(table), Refresh::Repaired(outcome))
            }
            None => (Arc::new(RouteTable::build(net)), Refresh::Built),
        }
    }

    /// Whether the table still reflects `net` (same epoch and node
    /// count). The single staleness authority: [`RouteTable::repair`]
    /// advances the recorded epoch to the network's, so a repaired table
    /// reports current until the next mutation.
    pub fn is_current(&self, net: &Network) -> bool {
        self.epoch == net.epoch() && self.rows.len() == net.node_count()
    }

    /// Number of source rows built so far. Deterministic for a
    /// deterministic query sequence, so it doubles as the planner's
    /// routing-work metric in stable-mode artifacts.
    pub fn rows_built(&self) -> usize {
        self.rows.iter().filter(|row| row.get().is_some()).count()
    }

    /// Wall-clock time [`RouteTable::build`] spent, in microseconds (0
    /// for a table made by [`RouteTable::new`]).
    pub fn build_micros(&self) -> u64 {
        self.build_micros
    }

    /// Incrementally repairs the built rows after the reported changes:
    /// afterwards every query answers exactly like a fresh
    /// [`RouteTable::build`] (same routes, same deterministic
    /// tie-breaks). Never builds a row that was not built before.
    ///
    /// `touched_links` / `touched_nodes` must cover *every* link and
    /// node whose routing-relevant state (up flag, latency, `Secure`
    /// credential, or an endpoint's up flag via `touched_nodes`)
    /// changed since the epoch this table reflects; extra entries cost
    /// only wasted re-runs, missing ones silently corrupt routes.
    /// Re-runs every built row when the damage exceeds
    /// [`REPAIR_DAMAGE_THRESHOLD`] or the node count changed.
    pub fn repair(
        &mut self,
        net: &Network,
        touched_links: &[LinkId],
        touched_nodes: &[NodeId],
    ) -> RepairOutcome {
        let started = ps_trace::WallTimer::start();
        let sources_total = net.node_count();
        let affected = (self.rows.len() == sources_total)
            .then(|| self.classify_affected(net, touched_links, touched_nodes));
        let built = self.rows_built();
        let (num, den) = REPAIR_DAMAGE_THRESHOLD;
        let mut sources_rebuilt = affected
            .as_ref()
            .map_or(built, |a| a.iter().filter(|&&a| a).count());
        let full_rebuild = affected.is_none() || sources_rebuilt * den > built * num;

        match affected {
            Some(affected) if !full_rebuild => {
                for (s, (slot, hit)) in self.rows.iter_mut().zip(affected).enumerate() {
                    let Some(row) = slot.get_mut() else {
                        continue;
                    };
                    if hit {
                        row.rerun(net, NodeId(s as u32));
                        continue;
                    }
                    // A down node becomes unreachable as a leaf without
                    // disturbing the rest of the tree.
                    for &node in touched_nodes {
                        if !net.node(node).up {
                            row.dist[node.0 as usize] = UNREACHED;
                            row.prev[node.0 as usize] = None;
                        }
                    }
                }
            }
            _ => {
                self.rows.resize_with(sources_total, OnceLock::new);
                for (s, slot) in self.rows.iter_mut().enumerate() {
                    if let Some(row) = slot.get_mut() {
                        row.rerun(net, NodeId(s as u32));
                    }
                }
                sources_rebuilt = self.rows_built();
            }
        }
        self.epoch = net.epoch();
        RepairOutcome {
            full_rebuild,
            sources_rebuilt,
            sources_total,
            repair_micros: started.elapsed_micros(),
        }
    }

    /// Dry-run damage assessment: how many built rows a
    /// [`RouteTable::repair`] with these dirty sets would re-run
    /// Dijkstra for, without mutating the table. Returns every built row
    /// when the node count changed. Callers use this to decide between
    /// scheduling a repair and a rebuild — or, in benches, to find
    /// damage that stays localized — at classification cost (linear in
    /// sources) instead of paying for the repair itself.
    pub fn affected_sources(
        &self,
        net: &Network,
        touched_links: &[LinkId],
        touched_nodes: &[NodeId],
    ) -> usize {
        if net.node_count() != self.rows.len() {
            return self.rows_built();
        }
        self.classify_affected(net, touched_links, touched_nodes)
            .iter()
            .filter(|&&a| a)
            .count()
    }

    /// Per-source affected classification shared by
    /// [`RouteTable::repair`] and [`RouteTable::affected_sources`]: a
    /// built row must re-run when its old tree used a touched element or
    /// a touched element could now improve (or tie) it. Unbuilt rows are
    /// never affected.
    fn classify_affected(
        &self,
        net: &Network,
        touched_links: &[LinkId],
        touched_nodes: &[NodeId],
    ) -> Vec<bool> {
        // Relaxes `link` from `from` against a source's old distances;
        // `None` when `from` was unreached.
        let relax = |row: &[RouteCost], from: NodeId, link_id: LinkId| -> Option<RouteCost> {
            let (w, d, h) = row[from.0 as usize];
            if d == u64::MAX {
                return None;
            }
            let link = net.link(link_id);
            Some((
                w + u32::from(!net.link_secure(link_id)),
                d.saturating_add(link.latency.as_nanos()),
                h + 1,
            ))
        };
        // Whether a live link could improve (or tie) a source's row.
        let link_improves = |row: &[RouteCost], link_id: LinkId| -> bool {
            let link = net.link(link_id);
            if !link.up || !net.node(link.a).up || !net.node(link.b).up {
                return false;
            }
            let better = |from: NodeId, to: NodeId| {
                relax(row, from, link_id).is_some_and(|cand| cand <= row[to.0 as usize])
            };
            better(link.a, link.b) || better(link.b, link.a)
        };
        // Whether a touched link is a tree edge of the source's old tree.
        let tree_uses = |row_prev: &[Option<(NodeId, LinkId)>], link_id: LinkId| -> bool {
            let link = net.link(link_id);
            row_prev[link.b.0 as usize] == Some((link.a, link_id))
                || row_prev[link.a.0 as usize] == Some((link.b, link_id))
        };

        self.rows
            .iter()
            .enumerate()
            .map(|(s, slot)| {
                let Some(Row { dist, prev }) = slot.get() else {
                    return false;
                };
                // A touched node's own tree is always re-run (cheap: a
                // down source yields an all-UNREACHED row immediately).
                touched_nodes.iter().any(|node| node.0 as usize == s)
                    || touched_nodes.iter().any(|&node| {
                        if net.node(node).up {
                            // Restarted node: new routes can only enter
                            // through an incident link, so the relaxation
                            // test on them catches every improvement or
                            // tie.
                            net.neighbours(node)
                                .iter()
                                .any(|&(_, link_id)| link_improves(dist, link_id))
                        } else {
                            // Down node: only sources routing *through* it
                            // need a re-run; leaves are patched in place.
                            net.neighbours(node)
                                .iter()
                                .any(|&(v, _)| prev[v.0 as usize].is_some_and(|(p, _)| p == node))
                        }
                    })
                    || touched_links
                        .iter()
                        .any(|&link_id| tree_uses(prev, link_id) || link_improves(dist, link_id))
            })
            .collect()
    }

    /// Panics in debug builds when the table no longer reflects `net`:
    /// the one staleness check every query runs.
    fn check(&self, net: &Network) {
        debug_assert!(
            self.is_current(net),
            "route table is stale: reflects epoch {} ({} nodes), network at epoch {} ({} nodes)",
            self.epoch,
            self.rows.len(),
            net.epoch(),
            net.node_count()
        );
    }

    /// `from`'s row, built on first use.
    fn row(&self, net: &Network, from: NodeId) -> &Row {
        self.rows[from.0 as usize].get_or_init(|| Row::build(net, from))
    }

    /// The route from `from` to `to`, or `None` when unreachable,
    /// building `from`'s row on first use. Identical to
    /// [`crate::shortest_route`] on `net`.
    pub fn route(&self, net: &Network, from: NodeId, to: NodeId) -> Option<Route> {
        self.check(net);
        let row = self.row(net, from);
        reconstruct(net, from, to, &row.dist, &row.prev)
    }

    /// Whether `to` is reachable from `from` (a node always reaches
    /// itself without building a row).
    pub fn reachable(&self, net: &Network, from: NodeId, to: NodeId) -> bool {
        self.check(net);
        from == to || self.row(net, from).dist[to.0 as usize].1 != u64::MAX
    }

    /// One-way propagation latency from `from` to `to` without
    /// materializing the route; `None` when unreachable. A local query
    /// builds no row.
    pub fn latency(&self, net: &Network, from: NodeId, to: NodeId) -> Option<SimDuration> {
        self.check(net);
        if from == to {
            return Some(SimDuration::ZERO);
        }
        let ns = self.row(net, from).dist[to.0 as usize].1;
        (ns != u64::MAX).then(|| SimDuration::from_nanos(ns))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Credentials;
    use crate::shortest_route;

    fn secure() -> Credentials {
        Credentials::new().with("Secure", true)
    }

    fn diamond() -> Network {
        let mut net = Network::new();
        let a = net.add_node("a", "s1", 1.0, Credentials::new());
        let b = net.add_node("b", "s1", 1.0, Credentials::new());
        let c = net.add_node("c", "s2", 1.0, Credentials::new());
        let d = net.add_node("d", "s2", 1.0, Credentials::new());
        net.add_link(a, b, SimDuration::from_millis(1), 1e8, secure());
        net.add_link(b, d, SimDuration::from_millis(5), 1e7, Credentials::new());
        net.add_link(a, c, SimDuration::from_millis(2), 1e8, secure());
        net.add_link(c, d, SimDuration::from_millis(2), 1e8, secure());
        net
    }

    #[test]
    fn agrees_with_shortest_route_on_every_pair() {
        let net = diamond();
        let table = RouteTable::build(&net);
        for from in net.node_ids() {
            for to in net.node_ids() {
                assert_eq!(table.route(&net, from, to), shortest_route(&net, from, to));
            }
        }
    }

    #[test]
    fn latency_matches_route_latency() {
        let net = diamond();
        let table = RouteTable::build(&net);
        for from in net.node_ids() {
            for to in net.node_ids() {
                let route = table.route(&net, from, to).unwrap();
                assert_eq!(table.latency(&net, from, to), Some(route.latency));
                assert!(table.reachable(&net, from, to));
            }
        }
    }

    #[test]
    fn epoch_tracks_mutations() {
        let mut net = diamond();
        let table = RouteTable::build(&net);
        assert!(table.is_current(&net));
        net.link_mut(LinkId(0)).latency = SimDuration::from_millis(99);
        assert!(!table.is_current(&net));
        let rebuilt = RouteTable::build(&net);
        assert!(rebuilt.is_current(&net));
    }

    /// Asserts the repaired table answers every query identically to a
    /// fresh full build. Queries build the rows the table lacks, so the
    /// check runs on a copy: the caller's table keeps its built set.
    fn assert_matches_full_build(table: &RouteTable, net: &Network, context: &str) {
        assert!(
            table.is_current(net),
            "{context}: repaired table must be current"
        );
        let table = table.clone();
        let full = RouteTable::build(net);
        for from in net.node_ids() {
            for to in net.node_ids() {
                assert_eq!(
                    table.route(net, from, to),
                    full.route(net, from, to),
                    "{context}: route {from}->{to} diverged"
                );
                assert_eq!(
                    table.reachable(net, from, to),
                    full.reachable(net, from, to),
                    "{context}"
                );
                assert_eq!(
                    table.latency(net, from, to),
                    full.latency(net, from, to),
                    "{context}"
                );
            }
        }
    }

    /// a - b - c - d - e chain: quarantining the leaf `e` only re-runs
    /// `e`'s own tree; every other source is patched in place.
    #[test]
    fn leaf_quarantine_repairs_without_tree_reruns() {
        let mut net = Network::new();
        let ids: Vec<NodeId> = (0..5)
            .map(|i| net.add_node(format!("n{i}"), "s", 1.0, Credentials::new()))
            .collect();
        for w in ids.windows(2) {
            net.add_link(w[0], w[1], SimDuration::from_millis(1), 1e8, secure());
        }
        let mut table = RouteTable::build(&net);
        net.set_node_up(ids[4], false);
        let outcome = table.repair(&net, &[], &[ids[4]]);
        assert!(!outcome.full_rebuild);
        assert_eq!(outcome.sources_rebuilt, 1, "only the down node's own tree");
        assert_matches_full_build(&table, &net, "leaf quarantine");
    }

    #[test]
    fn heavy_damage_falls_back_to_full_rebuild() {
        // a - b - c - d - e chain: the middle node is internal to every
        // other source's tree, so quarantining it damages all 5 sources.
        let mut net = Network::new();
        let ids: Vec<NodeId> = (0..5)
            .map(|i| net.add_node(format!("n{i}"), "s", 1.0, Credentials::new()))
            .collect();
        for w in ids.windows(2) {
            net.add_link(w[0], w[1], SimDuration::from_millis(1), 1e8, secure());
        }
        let mut table = RouteTable::build(&net);
        net.set_node_up(ids[2], false);
        let outcome = table.repair(&net, &[], &[ids[2]]);
        assert!(outcome.full_rebuild);
        assert_eq!(outcome.sources_rebuilt, outcome.sources_total);
        assert_matches_full_build(&table, &net, "heavy damage");
    }

    #[test]
    fn node_count_change_forces_full_rebuild() {
        let mut net = diamond();
        let mut table = RouteTable::build(&net);
        let e = net.add_node("e", "s2", 1.0, Credentials::new());
        net.add_link(NodeId(3), e, SimDuration::from_millis(1), 1e8, secure());
        let outcome = table.repair(&net, &[], &[]);
        assert!(outcome.full_rebuild);
        assert_matches_full_build(&table, &net, "node-count change");
    }

    /// Property: across randomized seeded link-flap / crash / restart /
    /// latency-change sequences, `repair` produces a table identical to
    /// a from-scratch `RouteTable::build` after every single event —
    /// both for a fully built table and for one with only a seeded
    /// subset of rows built, whose built set repair never grows.
    #[test]
    fn repair_matches_full_build_across_random_flap_sequences() {
        use crate::brite::{hierarchical, FlatParams, HierParams};
        use ps_sim::{ChaosConfig, FaultKind, FaultPlan, Rng};

        for seed in 0..6u64 {
            let mut rng = Rng::seed_from_u64(seed).derive("repair-equiv");
            let params = HierParams {
                as_count: 3,
                router: FlatParams {
                    nodes: 5,
                    ..Default::default()
                },
                ..Default::default()
            };
            let mut net = hierarchical(&mut rng, &params);
            let mut table = RouteTable::build(&net);
            let mut partial = RouteTable::new(&net);
            let mut pick = Rng::seed_from_u64(seed).derive("repair-partial");
            for from in net.node_ids() {
                if pick.next_below(3) == 0 {
                    partial.route(&net, from, NodeId(0));
                }
            }
            let partial_rows = partial.rows_built();
            assert!(
                partial_rows > 0 && partial_rows < net.node_count(),
                "seed {seed}: a strict subset of rows"
            );
            let config = ChaosConfig {
                crashable_nodes: net.node_ids().map(|n| n.0).collect(),
                flappable_links: (0..net.link_count() as u32).collect(),
                node_crashes: 4,
                link_flaps: 6,
                loss_windows: 0,
                ..ChaosConfig::default()
            };
            let plan = FaultPlan::randomized(7919 * seed + 1, &config);
            for (i, ev) in plan.events().iter().enumerate() {
                let mut links = Vec::new();
                let mut nodes = Vec::new();
                match ev.kind {
                    FaultKind::NodeCrash { node } => {
                        net.set_node_up(NodeId(node), false);
                        nodes.push(NodeId(node));
                    }
                    FaultKind::NodeRestart { node } => {
                        net.set_node_up(NodeId(node), true);
                        nodes.push(NodeId(node));
                    }
                    FaultKind::LinkDown { link } => {
                        net.set_link_up(LinkId(link), false);
                        links.push(LinkId(link));
                    }
                    FaultKind::LinkUp { link } => {
                        net.set_link_up(LinkId(link), true);
                        links.push(LinkId(link));
                    }
                    FaultKind::LossStart { .. } | FaultKind::LossEnd { .. } => continue,
                }
                if i % 3 == 0 {
                    // Batch a link-weight change into the same repair:
                    // worsenings and improvements both get exercised.
                    let l = LinkId(rng.next_below(net.link_count() as u64) as u32);
                    net.link_mut(l).latency = SimDuration::from_millis(1 + rng.next_below(20));
                    links.push(l);
                }
                table.repair(&net, &links, &nodes);
                assert_matches_full_build(&table, &net, &format!("seed {seed} event {i}"));
                partial.repair(&net, &links, &nodes);
                let context = format!("seed {seed} event {i} (partial)");
                assert_matches_full_build(&partial, &net, &context);
                assert_eq!(partial.rows_built(), partial_rows, "{context}");
            }
        }
    }

    #[test]
    fn lazy_table_matches_full_table_and_builds_on_first_query() {
        let net = diamond();
        let full = RouteTable::build(&net);
        assert_eq!(full.rows_built(), net.node_count());
        let lazy = RouteTable::new(&net);
        assert!(lazy.is_current(&net));
        assert_eq!(lazy.rows_built(), 0, "no rows before the first query");
        for from in [NodeId(0), NodeId(2)] {
            for to in net.node_ids() {
                assert_eq!(lazy.route(&net, from, to), full.route(&net, from, to));
                assert_eq!(lazy.latency(&net, from, to), full.latency(&net, from, to));
                assert_eq!(
                    lazy.reachable(&net, from, to),
                    full.reachable(&net, from, to)
                );
            }
        }
        assert_eq!(lazy.rows_built(), 2, "only the queried sources");
        // Local latency and reachability never build a row.
        assert_eq!(
            lazy.latency(&net, NodeId(3), NodeId(3)),
            Some(SimDuration::ZERO)
        );
        assert!(lazy.reachable(&net, NodeId(3), NodeId(3)));
        assert_eq!(lazy.rows_built(), 2);
    }

    #[test]
    fn lazy_table_detects_staleness() {
        let mut net = diamond();
        let lazy = RouteTable::new(&net);
        net.set_link_up(LinkId(0), false);
        assert!(!lazy.is_current(&net));
    }

    #[test]
    fn refresh_reuses_repairs_or_builds() {
        let mut net = diamond();
        let (built, how) = RouteTable::refresh(None, &net, &[], &[]);
        assert_eq!(how, Refresh::Built);
        assert_eq!(built.rows_built(), net.node_count());
        let (reused, how) = RouteTable::refresh(Some(Arc::clone(&built)), &net, &[], &[]);
        assert_eq!(how, Refresh::Reused);
        assert!(Arc::ptr_eq(&reused, &built));
        net.set_link_up(LinkId(1), false);
        let (repaired, how) =
            RouteTable::refresh(Some(Arc::clone(&built)), &net, &[LinkId(1)], &[]);
        assert!(matches!(how, Refresh::Repaired(_)));
        assert!(
            !built.is_current(&net),
            "the carried table is left as it was"
        );
        assert_matches_full_build(&repaired, &net, "refresh");
    }

    #[test]
    fn unreachable_pairs_are_none() {
        let mut net = diamond();
        let lonely = net.add_node("lonely", "s3", 1.0, Credentials::new());
        let table = RouteTable::build(&net);
        assert_eq!(table.route(&net, NodeId(0), lonely), None);
        assert!(!table.reachable(&net, NodeId(0), lonely));
        assert_eq!(table.latency(&net, NodeId(0), lonely), None);
        assert!(table.reachable(&net, lonely, lonely));
    }
}
