//! Alloc-tracked property of the out-of-core ingestion pipeline: the
//! actual peak heap of the degree pass + budgeted CSR build stays under
//! [`hep::core::ingest_peak_bytes`]'s accounting, which in turn stays
//! under the configured `HEP_MEMORY_BUDGET` — including on inputs whose
//! materialized `EdgeList` alone would blow the budget.
//!
//! This binary installs the counting allocator (the reproduction's max-RSS
//! proxy, see `hep::metrics::alloc_track`), so it must stay its own
//! integration-test binary: the tracked regions are process-wide.

use hep::core::{
    estimate_stream_overhead_bytes, ingest_file_budgeted, ingest_peak_bytes, load_tracker_bytes,
    plan_ingest, stream_h2h, IngestPlan,
};
use hep::graph::{BinaryEdgeFile, Edge, EdgeList, IoMode, PrunedCsr};
use hep::metrics::alloc_track::{self, CountingAlloc};
use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// One test body at a time: the peak counter is process-wide, so a sibling
/// test generating a graph or writing a file on another core would inflate
/// the measured peak. Every test holds [`exclusive`] for its whole body,
/// set-up included.
static REGION: Mutex<()> = Mutex::new(());

fn exclusive() -> MutexGuard<'static, ()> {
    REGION.lock().unwrap_or_else(|p| p.into_inner())
}

struct TempFileGuard(PathBuf);

impl Drop for TempFileGuard {
    fn drop(&mut self) {
        std::fs::remove_file(&self.0).ok();
    }
}

fn write_file(graph: &EdgeList, name: &str) -> (BinaryEdgeFile, TempFileGuard) {
    let mut path = std::env::temp_dir();
    path.push(format!("hep_ingest_mem_{}_{}.hepb", std::process::id(), name));
    let file = BinaryEdgeFile::write(&path, graph).unwrap();
    (file, TempFileGuard(path))
}

/// Runs the exact pipeline region the budget governs — the degree pass and
/// the column sweeps of [`ingest_file_budgeted`] — under the counting
/// allocator. Returns the built CSR, the executed plan, the h2h count, and
/// the measured peak heap in bytes. The buffered backend is the
/// conservative one to track: its pass buffers live on the heap, where
/// mmap pages would be invisible to the allocator. The caller holds
/// [`exclusive`].
fn measured_ingest(
    file: &BinaryEdgeFile,
    tau: f64,
    budget: Option<u64>,
) -> (PrunedCsr, IngestPlan, u64, u64) {
    alloc_track::reset_peak();
    let baseline = alloc_track::current_bytes();
    let mut h2h = 0u64;
    let result = ingest_file_budgeted(file, tau, budget, IoMode::Buffered, None, |_| h2h += 1);
    let peak = alloc_track::peak_bytes().saturating_sub(baseline) as u64;
    let (csr, plan) = result.unwrap();
    (csr, plan, h2h, peak)
}

/// `peak ≤ planner estimate ≤ budget` across {tight, 2×tight, unbounded}
/// budgets at two scales — and the budgeted builds are bit-identical to
/// the unbounded one.
#[test]
fn peak_ingestion_within_estimate_within_budget_across_scales() {
    let _region = exclusive();
    let tau = 10.0;
    for (n, m, seed) in [(2_000u32, 16_000u64, 1u64), (20_000, 160_000, 2)] {
        let g = hep::gen::GraphSpec::ChungLu { n, m, gamma: 2.2 }.generate(seed);
        let (file, _guard) = write_file(&g, &format!("scales_{n}"));
        let (base_csr, base_plan, base_h2h, base_peak) = measured_ingest(&file, tau, None);
        assert_eq!(base_plan.tau, tau);
        assert_eq!(base_plan.column_passes, 1, "unbounded ingestion is a single sweep");
        assert!(
            base_peak <= base_plan.estimated_peak_bytes,
            "n={n}: unbounded peak {base_peak} exceeds estimate {}",
            base_plan.estimated_peak_bytes
        );
        // One byte under the single-sweep peak forces extra sweeps (tight);
        // double that comfortably readmits the single sweep (2×).
        let tight = base_plan.estimated_peak_bytes - 1;
        for budget in [tight, 2 * tight] {
            let (csr, plan, h2h, peak) = measured_ingest(&file, tau, Some(budget));
            assert_eq!(plan.tau, tau, "these budgets are satisfiable without degrading τ");
            assert!(
                plan.estimated_peak_bytes <= budget,
                "n={n}: estimate {} over budget {budget}",
                plan.estimated_peak_bytes
            );
            assert!(
                peak <= plan.estimated_peak_bytes,
                "n={n}, budget {budget}: peak {peak} exceeds estimate {}",
                plan.estimated_peak_bytes
            );
            assert!(peak <= budget, "n={n}: peak {peak} exceeds budget {budget}");
            if budget == tight {
                assert!(plan.column_passes > 1, "tight budget must force extra sweeps");
            }
            assert_eq!(csr, base_csr, "budgeted build diverged from unbounded build");
            assert_eq!(h2h, base_h2h);
        }
    }
}

/// When no sweep count fits the requested τ, the planner degrades τ — more
/// edges go to the streaming side, the CSR shrinks into the budget — and
/// the measured peak still honors both the estimate and the budget.
#[test]
fn tau_degrades_rather_than_exceeding_budget() {
    let _region = exclusive();
    let requested = 100.0;
    let g = hep::gen::GraphSpec::ChungLu { n: 3_000, m: 24_000, gamma: 2.2 }.generate(3);
    let (file, _guard) = write_file(&g, "degrade");
    let stats = file.degree_stats(requested).unwrap();
    let n = stats.num_vertices() as u64;
    // A budget between the all-high floor (zero column entries) and the
    // requested τ's footprint at maximum chunking: only a lower τ fits.
    let floor = ingest_peak_bytes(n, 0, 64);
    let requested_peak = ingest_peak_bytes(n, stats.low_degree_adjacency_entries(), 64);
    assert!(requested_peak > floor, "fixture must have low-degree adjacency to shed");
    let budget = floor + (requested_peak - floor) / 8;
    let plan = plan_ingest(&stats.degrees, stats.mean_degree, requested, Some(budget), 0).unwrap();
    assert!(plan.tau < requested, "planner must degrade τ, got {}", plan.tau);
    let (_, base_plan, base_h2h, _) = measured_ingest(&file, requested, None);
    assert_eq!(base_plan.tau, requested);
    let (csr, ran, h2h, peak) = measured_ingest(&file, requested, Some(budget));
    assert_eq!(ran, plan, "driver must execute the planner's plan");
    assert!(ran.estimated_peak_bytes <= budget);
    assert!(peak <= ran.estimated_peak_bytes, "peak {peak} over estimate");
    assert!(peak <= budget, "peak {peak} over budget {budget}");
    assert!(h2h > base_h2h, "a degraded τ must stream more edges");
    assert_eq!(csr.num_inmem_edges() + h2h, g.num_edges(), "coverage must survive degradation");
}

/// Headroom of the engine-state bound for allocations that are not engine
/// arrays: the k-entry spine of the exported `Vec<DenseBitset>` (32 B per
/// partition). Past k = 128 the spine outgrows it, but the consumed seed
/// sets' spine of the same size is freed before the export is built.
const STREAM_SLACK_BYTES: u64 = 4096;

/// The phase-2 companion bound: the streaming engine's measured peak heap
/// stays under [`estimate_stream_overhead_bytes`], the term `plan_ingest`
/// charges against the budget, and within the engine's own state — the
/// vertex-major replica-mask matrix, the final dense export and the load
/// tracker, plus [`STREAM_SLACK_BYTES`]. The h2h workload, degree table, and
/// seed sets are built outside the measured region (the engine *consumes*
/// the seed sets; both bounds cover everything it allocates beyond them),
/// and the sink is a counting closure so no assignment storage muddies the
/// measurement.
#[test]
fn stream_engine_peak_stays_within_planner_estimate() {
    let _region = exclusive();
    let n = 10_000u32;
    let m = 50_000usize;
    let mut rng = hep::ds::SplitMix64::new(17);
    let mut edges = Vec::with_capacity(m);
    let mut degrees = vec![0u32; n as usize];
    for _ in 0..m {
        // Square one draw toward low ids: hub rows grow toward the k clamp.
        let a = (rng.next_below(n as u64) * rng.next_below(n as u64) / n as u64) as u32;
        let b = rng.next_below(n as u64) as u32;
        edges.push(Edge::new(a, b));
        degrees[a as usize] += 1;
        degrees[b as usize] += 1;
    }
    // k = 512 puts the load tracker's real size, 96 B per part, above the
    // planner's former 56 B floor; its all-distinct seed loads keep every
    // one of the k level nodes live from the start.
    for k in [32u32, 512] {
        let mut seed_sets: Vec<hep::ds::DenseBitset> =
            (0..k).map(|_| hep::ds::DenseBitset::new(n as usize)).collect();
        for v in 0..2_000u32 {
            seed_sets[(v % k) as usize].set(v);
        }
        let sizes: Vec<u64> = (0..k as u64).map(|p| p * 11).collect();
        let (n64, k64) = (n as u64, k as u64);
        for batch in [64usize, 4096] {
            let estimate = estimate_stream_overhead_bytes(&degrees, k, batch);
            // Clone the consumed inputs outside the measured region: the
            // estimate covers the engine's own state, not its seed sets.
            let (run_sets, run_sizes) = (seed_sets.clone(), sizes.clone());
            alloc_track::reset_peak();
            let baseline = alloc_track::current_bytes();
            let mut assigned = 0u64;
            let mut sink = |_u: u32, _v: u32, _p: u32| assigned += 1;
            let result = stream_h2h(
                edges.iter().copied(),
                &degrees,
                run_sets,
                run_sizes,
                2 * m as u64,
                1.1,
                1.05,
                batch,
                &mut sink,
            );
            let peak = alloc_track::peak_bytes().saturating_sub(baseline) as u64;
            let state = result.unwrap();
            assert_eq!(assigned, m as u64);
            assert_eq!(
                (0..k).map(|p| state.load(p)).sum::<u64>(),
                m as u64 + sizes.iter().sum::<u64>()
            );
            assert!(
                peak <= estimate,
                "k {k}, batch {batch}: stream peak {peak} exceeds planner estimate {estimate}"
            );
            // The engine-state bound charges the tracker with the planner's
            // own term.
            let engine =
                8 * k64.div_ceil(64) * n64 + k64 * n64.div_ceil(64) * 8 + load_tracker_bytes(k);
            assert!(
                peak <= engine + STREAM_SLACK_BYTES,
                "k {k}, batch {batch}: stream peak {peak} exceeds the engine's own state {engine} + slack"
            );
        }
    }
}

/// The acceptance input: a graph whose materialized `EdgeList` alone
/// (8 bytes/edge) exceeds the budget, but whose h2h-heavy structure lets
/// the out-of-core pipeline ingest it far under that budget — the §4.2
/// promise that memory is bounded by the *retained* structure, not |E|.
#[test]
fn ingests_graph_whose_edge_list_exceeds_the_budget() {
    let _region = exclusive();
    // A dense hub clique (all h2h at τ=1: every hub is far above the mean
    // degree) plus degree-1 spokes that keep the mean low.
    let hubs: u32 = 1_500;
    let spokes: u32 = 5_000;
    let mut pairs = Vec::new();
    for a in 0..hubs {
        for b in (a + 1)..hubs {
            pairs.push((a, b));
        }
    }
    for s in 0..spokes {
        pairs.push((hubs + s, s % hubs));
    }
    let g = EdgeList::from_pairs(pairs);
    let (file, _guard) = write_file(&g, "hub_clique");
    let edge_list_bytes = 8 * file.num_edges();
    let budget = 4 << 20;
    assert!(
        edge_list_bytes > 2 * budget,
        "fixture too small: EdgeList is only {edge_list_bytes} bytes"
    );
    let (csr, plan, h2h, peak) = measured_ingest(&file, 1.0, Some(budget));
    assert!(plan.estimated_peak_bytes <= budget);
    assert!(peak <= plan.estimated_peak_bytes, "peak {peak} over estimate");
    assert!(peak <= budget, "peak {peak} exceeds the {budget}-byte budget");
    assert_eq!(csr.num_inmem_edges() + h2h, g.num_edges());
    assert!(
        h2h > file.num_edges() / 2,
        "the clique should stream: {h2h} of {} h2h",
        file.num_edges()
    );
}
