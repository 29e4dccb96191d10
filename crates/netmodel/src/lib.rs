//! # ps-net — the network model the planner sees
//!
//! Section 3.3 of the paper models the network as a graph of nodes and
//! links with resource characteristics (CPU capacity, bandwidth, latency)
//! and application-independent credentials; a service-supplied procedure
//! translates those credentials into the properties the service cares
//! about. This crate provides:
//!
//! * [`Network`] — the annotated graph, with [`graph::Credentials`] on
//!   nodes and links;
//! * [`shortest_route`] — policy-aware routing (insecure hops, then
//!   latency, then hops) for a single pair;
//! * [`RouteTable`] — the route oracle the planner maps component
//!   linkages with: per-source rows built on first query (or all at
//!   once), shared lock-free across planner workers, stamped with the
//!   [`Network`] epoch and repaired incrementally after changes;
//! * [`PartitionView`] — the live network's connected components, for
//!   partition-aware healing;
//! * [`PropertyTranslator`] / [`MappingTranslator`] — the credential →
//!   service-property translation machinery;
//! * [`brite`] — BRITE-style topology generators (Waxman,
//!   Barabási–Albert, hierarchical), standing in for the BRITE tool the
//!   paper used;
//! * [`casestudy`] — the exact Figure 5 three-site topology.

#![warn(missing_docs)]

pub mod brite;
pub mod casestudy;
pub mod graph;
pub mod partition;
pub mod path;
pub mod regions;
pub mod route_table;
pub mod translate;

pub use casestudy::{default_case_study, CaseStudy};
pub use graph::{Credentials, Link, LinkId, Network, Node, NodeId};
pub use partition::PartitionView;
pub use path::{shortest_route, Route};
pub use regions::{Region, RegionMap};
pub use route_table::{Refresh, RepairOutcome, RouteTable};
pub use translate::{Mapping, MappingTranslator, PropertyTranslator};

/// Convenience prelude for network-model users.
pub mod prelude {
    pub use crate::brite::{barabasi_albert, hierarchical, waxman, FlatParams, HierParams};
    pub use crate::casestudy::{build as build_case_study, default_case_study, CaseStudy};
    pub use crate::graph::{Credentials, Link, LinkId, Network, Node, NodeId};
    pub use crate::partition::PartitionView;
    pub use crate::path::{shortest_route, Route};
    pub use crate::regions::{Region, RegionMap};
    pub use crate::route_table::{Refresh, RepairOutcome, RouteTable};
    pub use crate::translate::{Mapping, MappingTranslator, PropertyTranslator};
}
