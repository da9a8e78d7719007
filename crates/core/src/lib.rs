//! HEP — Hybrid Edge Partitioner (Mayer & Jacobsen, SIGMOD 2021).
//!
//! HEP splits the edge set by the degree threshold `τ · mean_degree` (§3.1):
//! edges incident to at least one low-degree vertex are partitioned in memory
//! by [`nepp`] (NE++: pruned CSR + lazy edge removal, §3.2); edges between
//! two high-degree vertices are partitioned by informed stateful
//! [`streaming`] (HDRF scoring seeded with NE++'s partitioning state, §3.3).
//! Lowering τ moves more edges to the streaming side and shrinks the memory
//! footprint predictably (§4.4, [`planner`]).
//!
//! ```
//! use hep_core::Hep;
//! use hep_graph::{EdgeList, EdgePartitioner, partitioner::CollectedAssignment};
//!
//! let graph = EdgeList::from_pairs([(0, 1), (0, 2), (0, 3), (1, 2), (2, 3)]);
//! let mut sink = CollectedAssignment::default();
//! Hep::with_tau(10.0).partition(&graph, 2, &mut sink).unwrap();
//! assert_eq!(sink.assignments.len(), 5);
//! ```

pub mod config;
pub mod hep;
pub mod nepp;
pub mod planner;
pub mod simple_hybrid;
pub mod streaming;

pub use config::{parse_byte_size, CsrLayout, HepConfig};
pub use hep::{ingest_file_budgeted, Hep, HepRunReport, PhaseTimings};
pub use nepp::{NeppResult, NeppStats};
pub use planner::{
    estimate_footprint_bytes, estimate_stream_overhead_bytes, ingest_peak_bytes,
    load_tracker_bytes, plan_ingest, plan_stream_batch, plan_tau, IngestPlan, TauPlan,
    DEFAULT_STREAM_BATCH, INGEST_FIXED_OVERHEAD_BYTES, INGEST_SWEEP_GRID,
};
pub use simple_hybrid::SimpleHybrid;
pub use streaming::{stream_h2h, stream_h2h_serial};
