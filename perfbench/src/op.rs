//! The timed operation and its traced twin.
//!
//! The op is what a user of the file pipeline runs: `BinaryEdgeFile::open`
//! followed by `Hep::partition_file_with_report` into a sink. The traced
//! op makes the calls `partition_file_with_report` makes, one layer at a
//! time, and times each from outside; its assignment fingerprint must
//! equal the op's, which shows both measure the same program.

use hep_core::planner::{estimate_stream_overhead_bytes, plan_ingest, plan_stream_batch};
use hep_core::{nepp::run_nepp, stream_h2h, Hep, HepConfig, HepRunReport, IngestPlan, NeppStats};
use hep_graph::partitioner::CollectedAssignment;
use hep_graph::{
    AssignSink, BinaryEdgeFile, DegreeStats, EdgeList, GraphError, PartitionId, PrunedCsr, VertexId,
};
use hep_metrics::alloc_track;
use hep_metrics::PartitionMetrics;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Order-sensitive hash of the assignment stream: two runs agree only if
/// they emit the same `(u, v, p)` triples in the same order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fingerprint(pub u64);

impl Default for Fingerprint {
    fn default() -> Self {
        Fingerprint(0xcbf2_9ce4_8422_2325)
    }
}

impl Fingerprint {
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    fn push(&mut self, u: VertexId, v: VertexId, p: PartitionId) {
        let mut h = (self.0 ^ (u as u64 | (v as u64) << 32)).wrapping_mul(Self::PRIME);
        h = (h ^ p as u64).wrapping_mul(Self::PRIME);
        self.0 = h ^ (h >> 29);
    }
}

/// The op's sink: the `PartitionMetrics` accumulator tee'd with the
/// fingerprint, and optionally the whole assignment (warm-up only).
pub struct OpSink {
    pub metrics: PartitionMetrics,
    pub fingerprint: Fingerprint,
    pub collected: Option<CollectedAssignment>,
}

impl OpSink {
    pub fn new(k: u32, num_vertices: u32, collect: bool) -> Self {
        OpSink {
            metrics: PartitionMetrics::new(k, num_vertices),
            fingerprint: Fingerprint::default(),
            collected: collect.then(CollectedAssignment::default),
        }
    }
}

impl AssignSink for OpSink {
    fn assign(&mut self, u: VertexId, v: VertexId, p: PartitionId) {
        self.metrics.assign(u, v, p);
        self.fingerprint.push(u, v, p);
        if let Some(c) = &mut self.collected {
            c.assign(u, v, p);
        }
    }
}

/// Wall time and peak live heap above the starting heap, of one call.
pub fn measured<T>(f: impl FnOnce() -> T) -> (T, f64, u64) {
    let base = alloc_track::current_bytes();
    alloc_track::reset_peak();
    let start = Instant::now();
    let out = f();
    let secs = start.elapsed().as_secs_f64();
    let peak = alloc_track::peak_bytes().saturating_sub(base) as u64;
    (out, secs, peak)
}

/// The timed op: open the HEPB file, partition it into `sink`.
pub fn e2e_op(
    path: &Path,
    config: &HepConfig,
    k: u32,
    sink: &mut OpSink,
) -> Result<HepRunReport, GraphError> {
    let file = BinaryEdgeFile::open(path)?;
    Hep { config: config.clone() }.partition_file_with_report(&file, k, sink)
}

/// Per-layer figures of one traced op. Times are seconds; peaks are live
/// heap bytes above the heap at the op's start.
pub struct Trace {
    pub open_s: f64,
    pub degree_pass_s: f64,
    pub planner_s: f64,
    pub csr_build_s: f64,
    pub nepp_s: f64,
    pub cleanup_s: f64,
    pub stream_s: f64,
    pub ingest_peak: u64,
    pub nepp_peak: u64,
    pub stream_peak: u64,
    pub plan: IngestPlan,
    pub inmem_edges: u64,
    pub h2h_edges: u64,
    pub csr_heap_bytes: u64,
    pub nepp_stats: NeppStats,
}

impl Trace {
    pub fn ingest_s(&self) -> f64 {
        self.open_s + self.degree_pass_s + self.csr_build_s
    }

    pub fn total_s(&self) -> f64 {
        self.ingest_s() + self.planner_s + self.nepp_s + self.stream_s
    }

    pub fn peak(&self) -> u64 {
        self.ingest_peak.max(self.nepp_peak).max(self.stream_peak)
    }
}

/// Closes one span: its wall time, and the peak heap above `base` since
/// the previous span closed.
struct Spans {
    base: usize,
    last: Instant,
}

impl Spans {
    fn start() -> Spans {
        let base = alloc_track::current_bytes();
        alloc_track::reset_peak();
        Spans { base, last: Instant::now() }
    }

    fn close(&mut self) -> (f64, u64) {
        let now = Instant::now();
        let secs = now.duration_since(self.last).as_secs_f64();
        let peak = alloc_track::peak_bytes().saturating_sub(self.base) as u64;
        alloc_track::reset_peak();
        self.last = now;
        (secs, peak)
    }
}

/// Removes the h2h spill file on every exit path.
struct SpillFile(std::path::PathBuf);

impl Drop for SpillFile {
    fn drop(&mut self) {
        std::fs::remove_file(&self.0).ok();
    }
}

/// The op composed from the layers' public functions in the order
/// `partition_file_with_report` calls them (`ingest_file_budgeted`, then
/// `finish_phases` on the serial NE++ path), with a span around each layer.
pub fn traced_op(
    path: &Path,
    config: &HepConfig,
    k: u32,
    sink: &mut OpSink,
) -> Result<Trace, GraphError> {
    let mut spans = Spans::start();
    let file = BinaryEdgeFile::open(path)?.with_io_mode(config.io_mode);
    let (open_s, open_peak) = spans.close();

    let stats = file.degree_stats(config.tau)?;
    let (degree_pass_s, degree_peak) = spans.close();

    let batch = plan_stream_batch(k, config.memory_budget_bytes);
    let overhead = estimate_stream_overhead_bytes(&stats.degrees, k, batch);
    let plan = plan_ingest(
        &stats.degrees,
        stats.mean_degree,
        config.tau,
        config.memory_budget_bytes,
        overhead,
    )?;
    let stats = if plan.tau == config.tau {
        stats
    } else {
        DegreeStats::from_degrees(stats.degrees, stats.mean_degree, plan.tau)
    };
    let (planner_s, planner_peak) = spans.close();

    let spill =
        SpillFile(std::env::temp_dir().join(format!("perfbench_h2h_{}.bin", std::process::id())));
    let mut writer = std::io::BufWriter::new(std::fs::File::create(&spill.0)?);
    let mut write_err = None;
    let csr = PrunedCsr::build_from_passes_budgeted(
        stats,
        || file.pass(),
        |e| {
            let r = writer
                .write_all(&e.src.to_le_bytes())
                .and_then(|_| writer.write_all(&e.dst.to_le_bytes()));
            if let Err(err) = r {
                write_err.get_or_insert(err);
            }
        },
        plan.column_passes,
    )?;
    writer.flush()?;
    drop(writer);
    if let Some(err) = write_err {
        return Err(err.into());
    }
    let num_vertices = csr.num_vertices();
    let total_edges = csr.num_edges_total();
    let degrees = csr.stats().degrees.clone();
    let inmem_edges = csr.num_inmem_edges();
    let h2h_edges = csr.num_h2h_edges();
    let csr_heap_bytes = csr.heap_bytes() as u64;
    let (csr_build_s, build_peak) = spans.close();

    let nepp = run_nepp(csr, k, config, sink);
    let (nepp_s, nepp_peak) = spans.close();

    let mut read_err = None;
    let reader =
        EdgeList::stream_binary(&spill.0)?.with_vertex_bound(num_vertices).map_while(|r| match r {
            Ok(e) => Some(e),
            Err(e) => {
                read_err.get_or_insert(e);
                None
            }
        });
    let streamed = stream_h2h(
        reader,
        &degrees,
        nepp.s_sets,
        nepp.sizes,
        total_edges,
        config.lambda,
        config.alpha,
        batch,
        sink,
    );
    if let Some(err) = read_err {
        return Err(err);
    }
    streamed?;
    let (stream_s, stream_peak) = spans.close();

    Ok(Trace {
        open_s,
        degree_pass_s,
        planner_s,
        csr_build_s,
        nepp_s,
        cleanup_s: nepp.cleanup_seconds,
        stream_s,
        ingest_peak: open_peak.max(degree_peak).max(planner_peak).max(build_peak),
        nepp_peak,
        stream_peak,
        plan,
        inmem_edges,
        h2h_edges,
        csr_heap_bytes,
        nepp_stats: nepp.stats,
    })
}
