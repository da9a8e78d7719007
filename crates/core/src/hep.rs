//! The HEP driver: graph building → NE++ → informed streaming.
//!
//! Following §3.2.1, edges between two high-degree vertices are written to
//! an external file *while the CSR is built* and re-read as a stream in
//! phase 2 — they never occupy memory, which is what lets τ trade quality
//! for footprint.

use crate::config::HepConfig;
use crate::nepp::{run_nepp, NeppStats};
use crate::planner::{estimate_stream_overhead_bytes, plan_ingest, plan_stream_batch, IngestPlan};
use crate::streaming::stream_h2h;
use hep_graph::partitioner::check_inputs;
use hep_graph::{
    AssignSink, BinaryEdgeFile, DegreeStats, Edge, EdgeList, EdgePartitioner, GraphError, IoMode,
    PrunedCsr,
};
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Unique-enough temp path for the externalized h2h edge file.
fn h2h_temp_path() -> std::path::PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let mut p = std::env::temp_dir();
    p.push(format!(
        "hep_h2h_{}_{}.bin",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    p
}

/// Removes the h2h temp file even on early returns.
struct TempFileGuard(std::path::PathBuf);

impl Drop for TempFileGuard {
    fn drop(&mut self) {
        std::fs::remove_file(&self.0).ok();
    }
}

/// The external h2h edge file both drivers spill to while the CSR is built
/// (§3.2.1): a fresh temp file behind a buffered writer. [`H2hSpill::push`]
/// is the build's h2h sink and keeps the first write error, which
/// [`H2hSpill::finish`] reports once the build is done.
struct H2hSpill {
    guard: TempFileGuard,
    writer: std::io::BufWriter<std::fs::File>,
    write_err: Option<std::io::Error>,
}

impl H2hSpill {
    fn create() -> Result<Self, GraphError> {
        let guard = TempFileGuard(h2h_temp_path());
        let writer = std::io::BufWriter::new(std::fs::File::create(&guard.0)?);
        Ok(H2hSpill { guard, writer, write_err: None })
    }

    fn push(&mut self, e: Edge) {
        let r = self
            .writer
            .write_all(&e.src.to_le_bytes())
            .and_then(|_| self.writer.write_all(&e.dst.to_le_bytes()));
        if let Err(err) = r {
            self.write_err.get_or_insert(err);
        }
    }

    /// Flushes the file and hands back the guard that deletes it.
    fn finish(mut self) -> Result<TempFileGuard, GraphError> {
        self.writer.flush()?;
        match self.write_err {
            Some(err) => Err(err.into()),
            None => Ok(self.guard),
        }
    }
}

/// Out-of-core ingestion: the degree pass plus the budget-planned CSR
/// build, streamed straight off `file` with h2h edges handed to `h2h_sink`
/// as they are discovered. This is the exact region the memory budget of
/// §4.2 governs, factored out so [`Hep::partition_file_with_report`] and
/// the allocation-tracking tests measure the same code path.
///
/// When `memory_budget_bytes` is set, [`plan_ingest`] first picks the
/// column-sweep count — and, only if no sweep count suffices, a degraded
/// τ — so the estimated peak footprint fits; the returned [`IngestPlan`]
/// records what actually ran. `io_mode` overrides the file's pass backend
/// ([`IoMode::Auto`] keeps the file's own setting, which defaults to the
/// `HEP_IO_MODE` environment).
///
/// `stream` extends the plan's peak accounting over phase 2: given `k` and
/// the nominal batch from [`plan_stream_batch`], the planner charges
/// [`estimate_stream_overhead_bytes`] alongside the resident arrays
/// (ROADMAP: "the phase-2 replica sets are unbudgeted" — no longer). Pass
/// `None` to plan ingestion alone, the pre-phase-2 behavior.
pub fn ingest_file_budgeted(
    file: &BinaryEdgeFile,
    tau: f64,
    memory_budget_bytes: Option<u64>,
    io_mode: IoMode,
    stream: Option<(u32, usize)>,
    h2h_sink: impl FnMut(Edge),
) -> Result<(PrunedCsr, IngestPlan), GraphError> {
    let file = file.clone().with_io_mode(io_mode);
    let stats = file.degree_stats(tau)?;
    let phase2_overhead = match stream {
        Some((k, batch)) => estimate_stream_overhead_bytes(&stats.degrees, k, batch),
        None => 0,
    };
    let plan =
        plan_ingest(&stats.degrees, stats.mean_degree, tau, memory_budget_bytes, phase2_overhead)?;
    // A degraded τ re-classifies from the degrees already in hand — no
    // extra pass over the file.
    let stats = if plan.tau == tau {
        stats
    } else {
        DegreeStats::from_degrees(stats.degrees, stats.mean_degree, plan.tau)
    };
    let csr =
        PrunedCsr::build_from_passes_budgeted(stats, || file.pass(), h2h_sink, plan.column_passes)?;
    Ok((csr, plan))
}

/// Hybrid Edge Partitioner (paper §3). `HEP-x` in the experiment tables
/// denotes `tau = x`.
#[derive(Clone, Debug, Default)]
pub struct Hep {
    /// Configuration (τ, α, λ, trace recording).
    pub config: HepConfig,
}

/// Wall-clock breakdown of one HEP run, per pipeline phase. Timings are
/// measurements, not part of the deterministic output; `nepp_secs` includes
/// `cleanup_secs` (the clean-up passes of Algorithm 2).
#[derive(Clone, Copy, Debug, Default)]
pub struct PhaseTimings {
    /// Graph building: degree pass + pruned-CSR construction + h2h spill.
    pub build_secs: f64,
    /// The in-memory NE++ phase (expansion + clean-up).
    pub nepp_secs: f64,
    /// The clean-up passes of NE++ (Algorithm 2).
    pub cleanup_secs: f64,
    /// Streaming the externalized h2h edges (file read + HDRF scoring).
    pub stream_secs: f64,
}

/// Detailed report of a HEP run, beyond the plain edge assignment.
#[derive(Debug)]
pub struct HepRunReport {
    /// NE++ statistics (clean-up fractions, core/secondary degrees, ...).
    pub nepp: NeppStats,
    /// Number of h2h (streamed) edges.
    pub h2h_edges: u64,
    /// Number of in-memory edges.
    pub inmem_edges: u64,
    /// The §4.2 memory-accounting estimate in bytes (b_id = 4).
    pub footprint_paper_bytes: u64,
    /// Actual heap bytes of the pruned CSR as built.
    pub csr_heap_bytes: usize,
    /// Mean degree of the input graph.
    pub mean_degree: f64,
    /// NE++ column-array access trace, when requested.
    pub trace: Option<Vec<u64>>,
    /// Edge count per partition after both phases.
    pub partition_sizes: Vec<u64>,
    /// Per-phase wall-clock breakdown.
    pub timings: PhaseTimings,
    /// The executed ingestion plan of the file driver: the τ actually run
    /// (degraded below the configured τ only when no column-sweep count
    /// fits the budget), the sweep count, and the planner's footprint
    /// estimates. `None` for in-memory runs, which ingest nothing.
    pub ingest: Option<IngestPlan>,
}

impl Hep {
    /// HEP with the paper's defaults and the given τ.
    pub fn with_tau(tau: f64) -> Self {
        Hep { config: HepConfig::with_tau(tau) }
    }

    /// Runs both phases and returns the detailed report.
    pub fn partition_with_report(
        &self,
        graph: &EdgeList,
        k: u32,
        sink: &mut dyn AssignSink,
    ) -> Result<HepRunReport, GraphError> {
        check_inputs(graph, k)?;
        self.config.validate()?;
        // Phase 0: graph building (a degree pass and the CSR insertion
        // pass over the edge list, §4.1), spilling h2h edges to the
        // external edge file as they are found.
        // hep-lint: allow(HL002) -- phase timing lands in HepRunReport for benches; it never feeds an assignment decision
        let build_start = Instant::now();
        let stats = DegreeStats::new(graph, self.config.tau);
        let mut spill = H2hSpill::create()?;
        let csr = PrunedCsr::build_from_passes_budgeted(
            stats,
            || Ok(graph.edges.as_slice()),
            |e| spill.push(e),
            1,
        )?;
        let guard = spill.finish()?;
        self.finish_phases(csr, k, guard, build_start.elapsed().as_secs_f64(), None, sink)
    }

    /// Runs both phases directly off a headered binary edge file, never
    /// materializing an [`EdgeList`]: the degree pass and the CSR column
    /// sweeps stream over the file with a reused read buffer (§4.1 applied
    /// to disk), honoring [`HepConfig::memory_budget_bytes`] and
    /// [`HepConfig::io_mode`] via [`ingest_file_budgeted`]. Everything
    /// after graph building is shared with [`Hep::partition_with_report`].
    pub fn partition_file_with_report(
        &self,
        file: &BinaryEdgeFile,
        k: u32,
        sink: &mut dyn AssignSink,
    ) -> Result<HepRunReport, GraphError> {
        if k < 2 {
            return Err(GraphError::InvalidPartitionCount { k });
        }
        if file.num_edges() == 0 {
            return Err(GraphError::EmptyGraph);
        }
        self.config.validate()?;
        // hep-lint: allow(HL002) -- phase timing lands in HepRunReport for benches; it never feeds an assignment decision
        let build_start = Instant::now();
        let mut spill = H2hSpill::create()?;
        let (csr, plan) = ingest_file_budgeted(
            file,
            self.config.tau,
            self.config.memory_budget_bytes,
            self.config.io_mode,
            Some((k, plan_stream_batch(k, self.config.memory_budget_bytes))),
            |e| spill.push(e),
        )?;
        let guard = spill.finish()?;
        self.finish_phases(csr, k, guard, build_start.elapsed().as_secs_f64(), Some(plan), sink)
    }

    /// Phases 1 and 2, shared by the in-memory and on-disk drivers: NE++
    /// followed by informed streaming of the externalized h2h edges.
    fn finish_phases(
        &self,
        csr: PrunedCsr,
        k: u32,
        guard: TempFileGuard,
        build_secs: f64,
        ingest: Option<IngestPlan>,
        sink: &mut dyn AssignSink,
    ) -> Result<HepRunReport, GraphError> {
        let h2h_path = guard.0.clone();
        let num_vertices = csr.num_vertices();
        let total_edges = csr.num_edges_total();
        let degrees = csr.stats().degrees.clone();
        let mean_degree = csr.stats().mean_degree;
        let h2h_edges = csr.num_h2h_edges();
        let inmem_edges = csr.num_inmem_edges();
        let footprint_paper_bytes = csr.memory_footprint_paper(k);
        let csr_heap_bytes = csr.heap_bytes();
        // Phase 1: in-memory partitioning via NE++ (consumes the CSR).
        // hep-lint: allow(HL002) -- phase timing lands in HepRunReport for benches; it never feeds an assignment decision
        let nepp_start = Instant::now();
        let nepp = run_nepp(csr, k, &self.config, sink);
        let nepp_secs = nepp_start.elapsed().as_secs_f64();
        // Phase 2: informed stateful streaming over the h2h edge file.
        // hep-lint: allow(HL002) -- phase timing lands in HepRunReport for benches; it never feeds an assignment decision
        let stream_start = Instant::now();
        let mut read_err: Option<GraphError> = None;
        let reader =
            EdgeList::stream_binary(&h2h_path)?.with_vertex_bound(num_vertices).map_while(|r| {
                match r {
                    Ok(e) => Some(e),
                    Err(e) => {
                        read_err.get_or_insert(e);
                        None
                    }
                }
            });
        // Ablation switch (§3.3): informed streaming starts from NE++'s
        // secondary sets and loads; uninformed starts cold like plain HDRF.
        let informed = self.config.informed_streaming;
        let ne_sizes = nepp.sizes.clone();
        let (seed_sets, seed_sizes) = if informed {
            (nepp.s_sets, nepp.sizes)
        } else {
            let empty = (0..k).map(|_| hep_ds::DenseBitset::new(num_vertices as usize)).collect();
            (empty, vec![0; k as usize])
        };
        let state = stream_h2h(
            reader,
            &degrees,
            seed_sets,
            seed_sizes,
            total_edges,
            self.config.lambda,
            self.config.alpha,
            0,
            sink,
        );
        if let Some(err) = read_err {
            return Err(err);
        }
        let state = state?;
        let stream_secs = stream_start.elapsed().as_secs_f64();
        let partition_sizes = (0..k)
            .map(|p| state.load(p) + if informed { 0 } else { ne_sizes[p as usize] })
            .collect();
        Ok(HepRunReport {
            nepp: nepp.stats,
            h2h_edges,
            inmem_edges,
            footprint_paper_bytes,
            csr_heap_bytes,
            mean_degree,
            trace: nepp.trace,
            partition_sizes,
            ingest,
            timings: PhaseTimings {
                build_secs,
                nepp_secs,
                cleanup_secs: nepp.cleanup_seconds,
                stream_secs,
            },
        })
    }
}

impl EdgePartitioner for Hep {
    fn name(&self) -> String {
        // Paper notation: HEP-100, HEP-10, HEP-1.
        if self.config.tau == self.config.tau.trunc() {
            format!("HEP-{}", self.config.tau as i64)
        } else {
            format!("HEP-{}", self.config.tau)
        }
    }

    fn partition(
        &mut self,
        graph: &EdgeList,
        k: u32,
        sink: &mut dyn AssignSink,
    ) -> Result<(), GraphError> {
        Hep::partition_with_report(self, graph, k, sink).map(|_| ())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hep_graph::partitioner::{CollectedAssignment, CountingSink};
    use hep_graph::Edge;

    fn run(graph: &EdgeList, k: u32, tau: f64) -> (CollectedAssignment, HepRunReport) {
        let mut sink = CollectedAssignment::default();
        let report = Hep::with_tau(tau).partition_with_report(graph, k, &mut sink).unwrap();
        (sink, report)
    }

    fn assert_exactly_once(graph: &EdgeList, sink: &CollectedAssignment) {
        assert_eq!(sink.assignments.len(), graph.edges.len());
        let mut seen: Vec<Edge> = sink.assignments.iter().map(|(e, _)| e.canonical()).collect();
        seen.sort_unstable();
        let mut expect: Vec<Edge> = graph.edges.iter().map(|e| e.canonical()).collect();
        expect.sort_unstable();
        assert_eq!(seen, expect);
    }

    #[test]
    fn names_follow_paper_notation() {
        assert_eq!(Hep::with_tau(100.0).name(), "HEP-100");
        assert_eq!(Hep::with_tau(10.0).name(), "HEP-10");
        assert_eq!(Hep::with_tau(1.0).name(), "HEP-1");
        assert_eq!(Hep::with_tau(1.5).name(), "HEP-1.5");
    }

    #[test]
    fn covers_social_graph_at_all_taus() {
        let g = hep_gen::GraphSpec::ChungLu { n: 1000, m: 10_000, gamma: 2.1 }.generate(1);
        for tau in [100.0, 10.0, 1.0] {
            let (sink, report) = run(&g, 8, tau);
            assert_exactly_once(&g, &sink);
            assert_eq!(report.inmem_edges + report.h2h_edges, g.num_edges());
        }
    }

    #[test]
    fn lower_tau_means_more_streaming_and_less_memory() {
        let g = hep_gen::GraphSpec::ChungLu { n: 2000, m: 20_000, gamma: 2.0 }.generate(2);
        let (_, r100) = run(&g, 8, 100.0);
        let (_, r1) = run(&g, 8, 1.0);
        assert!(r1.h2h_edges > r100.h2h_edges);
        assert!(r1.footprint_paper_bytes < r100.footprint_paper_bytes);
    }

    #[test]
    fn respects_streaming_balance_cap() {
        let g = hep_gen::GraphSpec::ChungLu { n: 1000, m: 8000, gamma: 2.0 }.generate(3);
        let k = 4;
        let mut sink = CountingSink::default();
        Hep::with_tau(1.0).partition(&g, k, &mut sink).unwrap();
        let cap = ((1.05 * 8000.0) / k as f64).ceil() as u64;
        assert!(sink.counts.iter().all(|&c| c <= cap), "{:?}", sink.counts);
        assert_eq!(sink.counts.iter().sum::<u64>(), 8000);
    }

    #[test]
    fn replication_factor_improves_with_tau() {
        // Higher tau -> more edges handled by NE++ -> lower (or equal) RF.
        let g = hep_gen::community::community_web(
            hep_gen::community::CommunityParams::weblike(4000, 30_000),
            4,
        );
        let rf = |tau: f64| {
            let (sink, _) = run(&g, 16, tau);
            let mut parts: Vec<std::collections::HashSet<u32>> =
                vec![Default::default(); g.num_vertices as usize];
            for (e, p) in &sink.assignments {
                parts[e.src as usize].insert(*p);
                parts[e.dst as usize].insert(*p);
            }
            let covered = parts.iter().filter(|s| !s.is_empty()).count();
            parts.iter().map(|s| s.len()).sum::<usize>() as f64 / covered as f64
        };
        let (rf100, rf1) = (rf(100.0), rf(1.0));
        assert!(rf100 <= rf1 * 1.05, "HEP-100 rf {rf100} should not exceed HEP-1 rf {rf1}");
    }

    #[test]
    fn beats_plain_hdrf_on_community_graph() {
        use hep_baselines::Hdrf;
        let g = hep_gen::community::community_web(
            hep_gen::community::CommunityParams::weblike(4000, 30_000),
            5,
        );
        let rf_of = |assignments: &[(Edge, u32)]| {
            let mut parts: Vec<std::collections::HashSet<u32>> =
                vec![Default::default(); g.num_vertices as usize];
            for (e, p) in assignments {
                parts[e.src as usize].insert(*p);
                parts[e.dst as usize].insert(*p);
            }
            let covered = parts.iter().filter(|s| !s.is_empty()).count();
            parts.iter().map(|s| s.len()).sum::<usize>() as f64 / covered as f64
        };
        let (hep_sink, _) = run(&g, 16, 10.0);
        let mut hdrf_sink = CollectedAssignment::default();
        Hdrf::default().partition(&g, 16, &mut hdrf_sink).unwrap();
        let (hep_rf, hdrf_rf) = (rf_of(&hep_sink.assignments), rf_of(&hdrf_sink.assignments));
        assert!(
            hep_rf < hdrf_rf,
            "HEP-10 rf {hep_rf} should beat HDRF rf {hdrf_rf} on a web graph"
        );
    }

    #[test]
    fn rejects_invalid_inputs() {
        let g = EdgeList::from_pairs([(0, 1)]);
        let mut sink = CountingSink::default();
        assert!(Hep::with_tau(10.0).partition(&g, 1, &mut sink).is_err());
        assert!(Hep::with_tau(-1.0).partition(&g, 4, &mut sink).is_err());
    }

    #[test]
    fn deterministic() {
        let g = hep_gen::GraphSpec::ChungLu { n: 500, m: 4000, gamma: 2.2 }.generate(6);
        let (a, _) = run(&g, 8, 10.0);
        let (b, _) = run(&g, 8, 10.0);
        assert_eq!(a.assignments, b.assignments);
    }

    #[test]
    fn file_driver_matches_in_memory_run() {
        let g = hep_gen::GraphSpec::ChungLu { n: 800, m: 7000, gamma: 2.1 }.generate(11);
        let mut path = std::env::temp_dir();
        path.push(format!("hep_file_driver_test_{}.hepb", std::process::id()));
        let file = BinaryEdgeFile::write(&path, &g).unwrap();
        let hep = Hep::with_tau(10.0);
        let mut mem_sink = CollectedAssignment::default();
        let mem = hep.partition_with_report(&g, 8, &mut mem_sink).unwrap();
        let mut file_sink = CollectedAssignment::default();
        let from_file = hep.partition_file_with_report(&file, 8, &mut file_sink).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(mem_sink.assignments, file_sink.assignments, "file driver diverged");
        assert_eq!(mem.h2h_edges, from_file.h2h_edges);
        assert_eq!(mem.inmem_edges, from_file.inmem_edges);
        assert_eq!(mem.partition_sizes, from_file.partition_sizes);
        assert!(from_file.timings.build_secs >= 0.0);
    }

    #[test]
    fn budgeted_file_driver_matches_unbudgeted_output() {
        let g = hep_gen::GraphSpec::ChungLu { n: 900, m: 8000, gamma: 2.0 }.generate(13);
        let mut path = std::env::temp_dir();
        path.push(format!("hep_budgeted_driver_test_{}.hepb", std::process::id()));
        let file = BinaryEdgeFile::write(&path, &g).unwrap();
        let tau = 10.0;
        let unbudgeted = {
            let mut config = HepConfig::with_tau(tau);
            config.memory_budget_bytes = None;
            let mut sink = CollectedAssignment::default();
            let report = Hep { config }.partition_file_with_report(&file, 8, &mut sink).unwrap();
            let plan = report.ingest.expect("file driver always reports an ingest plan");
            assert_eq!(plan.tau, tau);
            assert_eq!(plan.column_passes, 1, "unbounded runs ingest in one sweep");
            (sink.assignments, report.partition_sizes, plan)
        };
        // A budget one byte below the single-sweep peak forces extra column
        // sweeps at the same τ; the assignment must be bit-identical.
        let stats = file.degree_stats(tau).unwrap();
        let one_sweep =
            crate::planner::plan_ingest(&stats.degrees, stats.mean_degree, tau, None, 0).unwrap();
        let mut config = HepConfig::with_tau(tau);
        config.memory_budget_bytes = Some(one_sweep.estimated_peak_bytes - 1);
        let mut sink = CollectedAssignment::default();
        let report = Hep { config }.partition_file_with_report(&file, 8, &mut sink).unwrap();
        std::fs::remove_file(&path).ok();
        let plan = report.ingest.unwrap();
        assert_eq!(plan.tau, tau, "budget was met by sweeping, not by degrading τ");
        assert!(plan.column_passes > 1, "tight budget must force extra sweeps");
        assert!(plan.estimated_peak_bytes < one_sweep.estimated_peak_bytes);
        assert_eq!(sink.assignments, unbudgeted.0, "budgeted ingestion changed the output");
        assert_eq!(report.partition_sizes, unbudgeted.1);
    }

    #[test]
    fn in_memory_run_reports_no_ingest_plan() {
        let g = hep_gen::GraphSpec::ChungLu { n: 300, m: 2000, gamma: 2.1 }.generate(14);
        let (_, report) = run(&g, 4, 10.0);
        assert!(report.ingest.is_none());
    }

    #[test]
    fn impossible_budget_surfaces_typed_error() {
        let g = hep_gen::GraphSpec::ChungLu { n: 400, m: 3000, gamma: 2.0 }.generate(15);
        let mut path = std::env::temp_dir();
        path.push(format!("hep_impossible_budget_test_{}.hepb", std::process::id()));
        let file = BinaryEdgeFile::write(&path, &g).unwrap();
        let mut config = HepConfig::with_tau(10.0);
        config.memory_budget_bytes = Some(1);
        let mut sink = CountingSink::default();
        let err = Hep { config }.partition_file_with_report(&file, 4, &mut sink).unwrap_err();
        std::fs::remove_file(&path).ok();
        match err {
            GraphError::BudgetExceeded { budget_bytes: 1, required_bytes } => {
                assert!(required_bytes > 1);
            }
            other => panic!("expected BudgetExceeded, got {other:?}"),
        }
    }

    #[test]
    fn file_driver_rejects_bad_inputs() {
        let g = EdgeList::from_pairs([(0, 1), (1, 2)]);
        let mut path = std::env::temp_dir();
        path.push(format!("hep_file_driver_bad_{}.hepb", std::process::id()));
        let file = BinaryEdgeFile::write(&path, &g).unwrap();
        let mut sink = CountingSink::default();
        assert!(Hep::with_tau(10.0).partition_file_with_report(&file, 1, &mut sink).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn phase_timings_are_populated() {
        let g = hep_gen::GraphSpec::ChungLu { n: 1000, m: 10_000, gamma: 2.1 }.generate(1);
        let mut sink = CountingSink::default();
        let report = Hep::with_tau(1.0).partition_with_report(&g, 8, &mut sink).unwrap();
        let t = report.timings;
        assert!(t.build_secs > 0.0 && t.nepp_secs > 0.0 && t.stream_secs > 0.0);
        assert!(t.cleanup_secs <= t.nepp_secs, "cleanup is a sub-phase of nepp");
    }

    #[test]
    fn uninformed_streaming_ablation_hurts_replication() {
        // §3.3's claim: seeding the streaming state with NE++'s secondary
        // sets is what removes the uninformed assignment problem.
        let g = hep_gen::GraphSpec::ChungLu { n: 2000, m: 20_000, gamma: 2.0 }.generate(8);
        let rf = |informed: bool| {
            let mut config = HepConfig::with_tau(1.0);
            config.informed_streaming = informed;
            let hep = Hep { config };
            let mut sink = CollectedAssignment::default();
            hep.partition_with_report(&g, 16, &mut sink).unwrap();
            let mut parts: Vec<std::collections::HashSet<u32>> =
                vec![Default::default(); g.num_vertices as usize];
            for (e, p) in &sink.assignments {
                parts[e.src as usize].insert(*p);
                parts[e.dst as usize].insert(*p);
            }
            let covered = parts.iter().filter(|s| !s.is_empty()).count();
            parts.iter().map(|s| s.len()).sum::<usize>() as f64 / covered as f64
        };
        let (informed, uninformed) = (rf(true), rf(false));
        assert!(
            informed < uninformed,
            "informed rf {informed} should beat uninformed rf {uninformed}"
        );
    }

    #[test]
    fn uninformed_report_sizes_still_cover_all_edges() {
        let g = hep_gen::GraphSpec::ChungLu { n: 500, m: 5000, gamma: 2.0 }.generate(9);
        let mut config = HepConfig::with_tau(1.0);
        config.informed_streaming = false;
        let hep = Hep { config };
        let mut sink = CountingSink::default();
        let report = hep.partition_with_report(&g, 8, &mut sink).unwrap();
        assert_eq!(report.partition_sizes.iter().sum::<u64>(), g.num_edges());
    }
}
