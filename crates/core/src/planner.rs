//! τ planning under a memory budget (§4.4, Table 2).
//!
//! "One can perform a pre-computation step and build the cumulative sum of
//! the size of the adjacency lists of the respective low-degree vertices for
//! different values of τ; then, one chooses the maximal value of τ that keeps
//! the memory bound." The pre-computation here is a degree histogram plus a
//! prefix sum, so evaluating the whole τ grid costs `O(|V| + max_degree)`
//! after the `O(|E|)` degree pass — negligible next to partitioning run-time,
//! which is the point of Table 2.

use hep_graph::{EdgeList, GraphError};

/// A planned τ with its predicted footprint.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TauPlan {
    /// The chosen threshold factor.
    pub tau: f64,
    /// Predicted bytes under the §4.2 accounting.
    pub estimated_bytes: u64,
}

/// The §4.2 memory accounting for a hypothetical τ, without building the
/// CSR: `Σ_{v∈V_l} d(v)·b_id + 6·|V|·b_id + |V|·(k+1)/8` with `b_id = 4`.
pub fn estimate_footprint_bytes(graph: &EdgeList, tau: f64, k: u32) -> u64 {
    let degrees = graph.degrees();
    let mean = graph.mean_degree();
    let column_entries: u64 = degrees
        .iter()
        .filter(|&&d| hep_graph::degrees::is_low_degree(d, tau, mean))
        .map(|&d| d as u64)
        .sum();
    footprint_from_entries(column_entries, graph.num_vertices as u64, k)
}

#[inline]
fn footprint_from_entries(column_entries: u64, n: u64, k: u32) -> u64 {
    column_entries * 4 + 6 * n * 4 + n * (k as u64 + 1) / 8
}

/// Nominal phase-2 batch when no memory budget constrains it. The
/// streaming engine ignores batch sizes; this value only feeds the phase-2
/// charge of [`estimate_stream_overhead_bytes`].
pub const DEFAULT_STREAM_BATCH: usize = 8192;

/// The nominal phase-2 batch behind the planner's phase-2 charge: a
/// quarter of the budget (clamped to [64 KiB, 8 MiB]) divided by
/// `stream_batch_bytes_per_edge`, clamped to [64, 65536] edges. The
/// streaming engine ignores it; the planner charge and the callers that
/// rebuild the library's plan keep calling this with the same arguments,
/// so the charged bytes stay what they were when phase 2 ran in batches.
pub fn plan_stream_batch(k: u32, memory_budget_bytes: Option<u64>) -> usize {
    let Some(budget) = memory_budget_bytes else {
        return DEFAULT_STREAM_BATCH;
    };
    let target = (budget / 4).clamp(64 << 10, 8 << 20);
    let per_edge = stream_batch_bytes_per_edge(k);
    ((target / per_edge) as usize).clamp(64, 65536)
}

/// Reserve bytes charged per nominal batch edge: 8 for the edge, 24 of
/// per-edge metadata, 8 of list entries and two ⌈k/64⌉-word masks — the
/// per-edge state of the former batched engine.
fn stream_batch_bytes_per_edge(k: u32) -> u64 {
    8 + 24 + 8 + 16 * (k.max(1) as u64).div_ceil(64)
}

/// Upper bound on the phase-2 streaming engine's working state beyond the
/// seed sets it consumes (`tests/ingest_memory.rs` pins measured peak ≤
/// this estimate). Three terms cover the engine:
///
/// * `arena` — the vertex-major **replica-mask matrix**, ⌈k/64⌉ words per
///   vertex, transposed from the seed sets (each set is dropped as soon as
///   its bits are moved);
/// * `tracker` — the load tracker, [`load_tracker_bytes`];
/// * `dense_export` — the k replica bitsets rebuilt at the end for
///   [`hep_baselines::scoring::ReplicaState`] while the matrix is still
///   live.
///
/// The remaining terms are a **reserve** kept at the values the former
/// batched engine needed, so the charge — and with it every budgeted plan
/// — is unchanged:
///
/// * `index` — `12·|V| + 8` bytes plus 4 B for each of the
///   `min(k, 3·min(d(v), k) + 1)` entries per vertex, saturating in k;
/// * `conflict` — 16 B per vertex plus a |V|-bit bitset;
/// * `buffers` — the nominal batch at `stream_batch_bytes_per_edge`;
/// * `scratch` — 16 B per partition.
///
/// A charge fitted to the serial engine alone would let
/// [`plan_ingest`] keep a larger τ under tight budgets, trading replication
/// factor for peak heap; that is a planner change of its own.
pub fn estimate_stream_overhead_bytes(degrees: &[u32], k: u32, batch: usize) -> u64 {
    let n = degrees.len() as u64;
    let k64 = k.max(1) as u64;
    let entries: u64 = degrees.iter().map(|&d| (3 * d.min(k) as u64 + 1).min(k64)).sum();
    let index = 12 * n + 8 + 4 * entries;
    let conflict = 16 * n + n.div_ceil(64) * 8;
    let arena = 8 * k64.div_ceil(64) * n;
    let tracker = load_tracker_bytes(k);
    let buffers = batch.max(1) as u64 * stream_batch_bytes_per_edge(k);
    let scratch = 16 * k64;
    let dense_export = k64 * (n.div_ceil(64) * 8);
    index + conflict + arena + tracker + buffers + scratch + dense_export
}

/// The phase-2 load tracker's charge: `k · max(56, 32 + 8·⌈k/64⌉)` bytes,
/// the tracker's real size (`streaming::tracker_bytes_per_part`
/// per part) with a 56-byte floor. The floor is the former sorted-array
/// tracker's charge, kept so that every plan at k ≤ 192 — where the real
/// tracker is no larger — is unchanged.
pub fn load_tracker_bytes(k: u32) -> u64 {
    k.max(1) as u64 * crate::streaming::tracker_bytes_per_part(k).max(56)
}

/// An ingestion plan under a memory budget: the τ and column-sweep count
/// the out-of-core pipeline will run with, plus its predicted footprints.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct IngestPlan {
    /// The chosen threshold factor (≤ the requested τ; degraded only when
    /// the requested τ cannot fit the budget at any sweep count).
    pub tau: f64,
    /// Column-insertion sweeps for
    /// [`hep_graph::PrunedCsr::build_from_passes_budgeted`] (1 = one
    /// insertion pass after the degree pass).
    pub column_passes: usize,
    /// Predicted peak heap bytes of the degree pass + CSR build.
    pub estimated_peak_bytes: u64,
    /// Predicted heap bytes resident after the build (the CSR itself plus
    /// degree statistics) — what phase 1 starts from.
    pub resident_bytes: u64,
}

/// Fixed ingestion overhead the peak model charges on top of the sized
/// arrays: the pass read buffer (1 MiB), the h2h spill writer and
/// allocator slack.
pub const INGEST_FIXED_OVERHEAD_BYTES: u64 = 2 << 20;

/// Sweep counts the ingest planner considers (powers of two). Each step
/// costs one more pass over the file and halves the `8·⌈n/S⌉` reserve of
/// [`ingest_peak_bytes`]; the builder itself holds no per-sweep state, so
/// the sweep count no longer changes the real peak.
pub const INGEST_SWEEP_GRID: [usize; 7] = [1, 2, 4, 8, 16, 32, 64];

/// Heap bytes resident after a budgeted build: degree statistics (degrees
/// + high bitset), size fields, index arrays and the column array.
fn ingest_resident_bytes(n: u64, column_entries: u64) -> u64 {
    4 * n                      // DegreeStats::degrees
        + n.div_ceil(64) * 8   // DegreeStats high bitset
        + 8 * n                // out/in size fields
        + 8 * (n + 1) + 8 * n  // dual index arrays
        + 4 * column_entries // column array
}

/// Predicted peak heap bytes of a budgeted ingestion+build at `sweeps`
/// column passes: the resident arrays plus an `8·⌈n/sweeps⌉` reserve and
/// the fixed overhead. The reserve once sized the builder's per-sweep
/// cursors; the builder no longer holds any, and the term is kept
/// unchanged so every plan (τ and sweep count) stays as it was.
pub fn ingest_peak_bytes(n: u64, column_entries: u64, sweeps: usize) -> u64 {
    ingest_resident_bytes(n, column_entries)
        + 8 * n.div_ceil(sweeps.max(1) as u64)
        + INGEST_FIXED_OVERHEAD_BYTES
}

/// Plans out-of-core ingestion against a memory budget (§4.2: the budget,
/// not |E|, dictates what is held at once). Given the raw degree sequence
/// (one file pass, τ-independent), the planner searches τ from
/// `requested_tau` downward (halving) and, per τ, the smallest sweep count
/// in [`INGEST_SWEEP_GRID`] whose predicted peak
/// ([`ingest_peak_bytes`]) fits — **quality first**: τ is degraded only
/// when no sweep count fits, so the plan never exceeds the budget and
/// gives up the least possible pruning quality. `budget_bytes = None`
/// plans the requested τ at one sweep.
///
/// Errors with [`GraphError::BudgetExceeded`] when even the most degraded
/// plan (τ classifying only isolated vertices as low, maximum sweeps)
/// misses the budget — the floor is the vertex-proportional state, which
/// no τ can shrink.
///
/// `phase2_overhead_bytes` extends the peak accounting past ingestion:
/// the streaming engine's working state
/// ([`estimate_stream_overhead_bytes`]) lives alongside the resident
/// arrays after the build, so the charged peak per candidate plan is
/// `max(ingest peak, resident + phase2)`. Pass `0` to plan ingestion
/// alone (the pre-phase-2 behavior). Sweeps and τ cannot shrink the
/// phase-2 term; its nominal batch comes from [`plan_stream_batch`].
pub fn plan_ingest(
    degrees: &[u32],
    mean_degree: f64,
    requested_tau: f64,
    budget_bytes: Option<u64>,
    phase2_overhead_bytes: u64,
) -> Result<IngestPlan, GraphError> {
    if requested_tau.is_nan() || requested_tau <= 0.0 {
        return Err(GraphError::InvalidConfig(format!(
            "tau must be positive, got {requested_tau}"
        )));
    }
    let n = degrees.len() as u64;
    let max_d = degrees.iter().copied().max().unwrap_or(0) as usize;
    let mut weight_upto = vec![0u64; max_d + 2];
    for &d in degrees {
        weight_upto[d as usize + 1] += d as u64;
    }
    for i in 1..weight_upto.len() {
        weight_upto[i] += weight_upto[i - 1];
    }
    let entries_at = |tau: f64| -> u64 {
        match hep_graph::degrees::low_degree_cutoff(tau, mean_degree, max_d as u32) {
            Some(cutoff) => weight_upto[cutoff as usize + 1],
            None => 0,
        }
    };
    let peak_at = |entries: u64, sweeps: usize| -> u64 {
        ingest_peak_bytes(n, entries, sweeps)
            .max(ingest_resident_bytes(n, entries).saturating_add(phase2_overhead_bytes))
    };
    let budget = match budget_bytes {
        None => {
            let entries = entries_at(requested_tau);
            return Ok(IngestPlan {
                tau: requested_tau,
                column_passes: 1,
                estimated_peak_bytes: peak_at(entries, 1),
                resident_bytes: ingest_resident_bytes(n, entries),
            });
        }
        Some(b) => b,
    };
    // τ halves until the low-degree cutoff bottoms out at zero entries; 64
    // halvings cross the whole f64 range of useful thresholds.
    let mut tau = requested_tau;
    let mut min_peak = u64::MAX;
    for _ in 0..=64 {
        let entries = entries_at(tau);
        for sweeps in INGEST_SWEEP_GRID {
            let peak = peak_at(entries, sweeps);
            min_peak = min_peak.min(peak);
            if peak <= budget {
                return Ok(IngestPlan {
                    tau,
                    column_passes: sweeps,
                    estimated_peak_bytes: peak,
                    resident_bytes: ingest_resident_bytes(n, entries),
                });
            }
        }
        if entries == 0 {
            break;
        }
        tau /= 2.0;
    }
    Err(GraphError::BudgetExceeded { budget_bytes: budget, required_bytes: min_peak })
}

/// Chooses the **maximum** τ from `tau_grid` whose predicted footprint fits
/// `budget_bytes`. Returns `None` when even the smallest τ does not fit.
///
/// One degree pass; per-τ evaluation via a degree histogram prefix sum.
pub fn plan_tau(
    graph: &EdgeList,
    k: u32,
    budget_bytes: u64,
    tau_grid: &[f64],
) -> Result<Option<TauPlan>, GraphError> {
    if tau_grid.is_empty() {
        return Err(GraphError::InvalidConfig("tau grid must not be empty".into()));
    }
    if tau_grid.iter().any(|&t| t.is_nan() || t <= 0.0) {
        return Err(GraphError::InvalidConfig("tau values must be positive".into()));
    }
    let degrees = graph.degrees();
    let n = graph.num_vertices as u64;
    let mean = graph.mean_degree();
    let max_d = degrees.iter().copied().max().unwrap_or(0) as usize;
    // weight_upto[d] = Σ degree over vertices with degree <= d.
    let mut weight_upto = vec![0u64; max_d + 2];
    for &d in &degrees {
        weight_upto[d as usize + 1] += d as u64;
    }
    for i in 1..weight_upto.len() {
        weight_upto[i] += weight_upto[i - 1];
    }
    let mut grid: Vec<f64> = tau_grid.to_vec();
    // hep-lint: allow(HL007) -- PlannerConfig::validate rejects NaN taus before the sweep runs
    grid.sort_by(|a, b| b.partial_cmp(a).expect("no NaN in tau grid"));
    for tau in grid {
        // The shared §3.1 predicate in histogram form: low iff d <= cutoff.
        // The old inline `(tau * mean).floor() as usize` saturated at huge
        // τ and overflowed the index arithmetic below. `None` is reachable
        // only through an ill-defined threshold (τ = ∞ on an edgeless
        // graph makes ∞ · 0 = NaN); `is_low_degree` classifies nothing as
        // low under a NaN threshold, so the histogram form agrees by
        // counting zero entries.
        let entries = match hep_graph::degrees::low_degree_cutoff(tau, mean, max_d as u32) {
            Some(cutoff) => weight_upto[cutoff as usize + 1],
            None => 0,
        };
        let bytes = footprint_from_entries(entries, n, k);
        if bytes <= budget_bytes {
            return Ok(Some(TauPlan { tau, estimated_bytes: bytes }));
        }
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hep_graph::PrunedCsr;

    fn graph() -> EdgeList {
        hep_gen::GraphSpec::ChungLu { n: 2000, m: 15_000, gamma: 2.0 }.generate(1)
    }

    #[test]
    fn estimate_matches_built_csr() {
        let g = graph();
        for tau in [100.0, 10.0, 1.0] {
            let est = estimate_footprint_bytes(&g, tau, 32);
            let built = PrunedCsr::build(&g, tau).unwrap().memory_footprint_paper(32);
            assert_eq!(est, built, "tau={tau}");
        }
    }

    #[test]
    fn footprint_decreases_with_tau() {
        let g = graph();
        let f = |tau| estimate_footprint_bytes(&g, tau, 32);
        assert!(f(1.0) < f(10.0));
        assert!(f(10.0) <= f(100.0));
    }

    #[test]
    fn planner_picks_max_fitting_tau() {
        let g = graph();
        let grid = [100.0, 10.0, 1.0];
        // Generous budget: the largest tau fits.
        let plan = plan_tau(&g, 32, u64::MAX, &grid).unwrap().unwrap();
        assert_eq!(plan.tau, 100.0);
        // Budget exactly at tau=10's footprint: 10 is the max fitting if 100
        // needs more.
        let b10 = estimate_footprint_bytes(&g, 10.0, 32);
        let b100 = estimate_footprint_bytes(&g, 100.0, 32);
        if b100 > b10 {
            let plan = plan_tau(&g, 32, b10, &grid).unwrap().unwrap();
            assert_eq!(plan.tau, 10.0);
            assert_eq!(plan.estimated_bytes, b10);
        }
        // Impossible budget.
        assert_eq!(plan_tau(&g, 32, 0, &grid).unwrap(), None);
    }

    #[test]
    fn planner_prediction_is_honoured_by_hep() {
        // End-to-end: the built CSR's accounted footprint must not exceed
        // the plan's estimate.
        let g = graph();
        let budget = estimate_footprint_bytes(&g, 10.0, 8) + 1;
        let plan = plan_tau(&g, 8, budget, &[100.0, 10.0, 1.0]).unwrap().unwrap();
        let built = PrunedCsr::build(&g, plan.tau).unwrap().memory_footprint_paper(8);
        assert!(built <= budget, "built {built} > budget {budget}");
    }

    #[test]
    fn histogram_cut_agrees_with_float_estimate() {
        // The τ planner's prefix-sum evaluation and the per-vertex float
        // estimate funnel through the same shared predicate now; the
        // chosen plan's bytes must match the direct estimate exactly —
        // including τ huge enough that the old `(τ·mean).floor() as usize`
        // saturated and overflowed the histogram index (a debug panic /
        // wrong-answer release bug before PR 5).
        let g = graph();
        for tau in [0.5, 1.0, 3.0, 10.0, 1e18, 1e300] {
            let plan = plan_tau(&g, 16, u64::MAX, &[tau]).unwrap().unwrap();
            assert_eq!(plan.estimated_bytes, estimate_footprint_bytes(&g, tau, 16), "tau={tau}");
        }
        // Integral τ·mean: craft a graph with mean degree exactly 2 (a
        // cycle), so τ = 3 puts the threshold exactly on degree 6 — the
        // boundary the duplicated forms used to disagree on.
        let cyc = hep_gen::spec::GraphSpec::Cycle { n: 100 }.generate(0);
        assert!((cyc.mean_degree() - 2.0).abs() < 1e-12);
        let plan = plan_tau(&cyc, 8, u64::MAX, &[1.0]).unwrap().unwrap();
        assert_eq!(plan.estimated_bytes, estimate_footprint_bytes(&cyc, 1.0, 8));
    }

    #[test]
    fn ingest_plan_unbounded_keeps_requested_tau_single_sweep() {
        let g = graph();
        let plan = plan_ingest(&g.degrees(), g.mean_degree(), 10.0, None, 0).unwrap();
        assert_eq!(plan.tau, 10.0);
        assert_eq!(plan.column_passes, 1);
        assert!(plan.resident_bytes < plan.estimated_peak_bytes);
        // A generous explicit budget plans identically.
        let same = plan_ingest(&g.degrees(), g.mean_degree(), 10.0, Some(u64::MAX), 0).unwrap();
        assert_eq!(plan, same);
    }

    #[test]
    fn ingest_plan_prefers_more_sweeps_over_degrading_tau() {
        let g = graph();
        let degrees = g.degrees();
        let mean = g.mean_degree();
        let one_sweep = plan_ingest(&degrees, mean, 10.0, None, 0).unwrap();
        // Squeeze out just the single-sweep cursor slack: more sweeps at
        // the same tau must fit before tau is touched.
        let budget = one_sweep.estimated_peak_bytes - 1;
        let plan = plan_ingest(&degrees, mean, 10.0, Some(budget), 0).unwrap();
        assert_eq!(plan.tau, 10.0, "tau must not degrade while sweeps can absorb the cut");
        assert!(plan.column_passes > 1);
        assert!(plan.estimated_peak_bytes <= budget);
    }

    #[test]
    fn ingest_plan_degrades_tau_rather_than_exceeding_budget() {
        let g = graph();
        let degrees = g.degrees();
        let mean = g.mean_degree();
        let n = g.num_vertices as u64;
        // Budget below what tau=100 needs even at max sweeps, but above
        // the all-high floor: only a smaller tau fits.
        let all_low_peak =
            plan_ingest(&degrees, mean, 100.0, None, 0).unwrap().estimated_peak_bytes;
        let all_high_peak = ingest_peak_bytes(n, 0, 64);
        assert!(all_high_peak < all_low_peak);
        let budget = all_high_peak + (all_low_peak - all_high_peak) / 8;
        let plan = plan_ingest(&degrees, mean, 100.0, Some(budget), 0).unwrap();
        assert!(plan.tau < 100.0, "tau must degrade, got {}", plan.tau);
        assert!(plan.estimated_peak_bytes <= budget, "plan exceeds budget");
    }

    #[test]
    fn ingest_plan_impossible_budget_is_typed_error() {
        let g = graph();
        let err = plan_ingest(&g.degrees(), g.mean_degree(), 10.0, Some(1), 0).unwrap_err();
        match err {
            hep_graph::GraphError::BudgetExceeded { budget_bytes, required_bytes } => {
                assert_eq!(budget_bytes, 1);
                assert!(required_bytes > 1);
            }
            other => panic!("expected BudgetExceeded, got {other}"),
        }
        assert!(plan_ingest(&g.degrees(), g.mean_degree(), 0.0, None, 0).is_err());
    }

    #[test]
    fn stream_overhead_saturates_in_k_and_scales_with_batch() {
        let g = graph();
        let degrees = g.degrees();
        let at = |k, batch| estimate_stream_overhead_bytes(&degrees, k, batch);
        assert!(at(32, 4096) > at(8, 4096), "more parts, larger rows and export sets");
        assert!(at(32, 65536) > at(32, 64), "bigger batch, bigger buffers");
        // The index term saturates once k exceeds the 3·max_degree + 1 row
        // bound; only the k-proportional terms (dense export, mask arena,
        // per-edge shortlist bound) and the load tracker, whose rows add
        // ⌈k/64⌉ words per part past k = 192, keep growing — strictly
        // slower than k x |V|.
        let n = degrees.len() as u64;
        let max_d = degrees.iter().copied().max().unwrap() as u64;
        let sat = (3 * max_d + 1) as u32;
        let dense_growth = at(2 * sat, 64) - at(sat, 64);
        let tracker_growth = load_tracker_bytes(2 * sat) - load_tracker_bytes(sat);
        assert!(
            dense_growth < sat as u64 * (n.div_ceil(64) * 8 + 16 * 64 + 17) + tracker_growth,
            "index entries must stop growing once k exceeds the row bound"
        );
    }

    #[test]
    fn stream_batch_plan_respects_budget_quarter() {
        assert_eq!(plan_stream_batch(32, None), DEFAULT_STREAM_BATCH);
        let b = plan_stream_batch(32, Some(6 << 20));
        assert!((64..=65536).contains(&b));
        // The planned batch's buffer bytes fit a quarter budget (k = 32:
        // one mask word per endpoint).
        assert!(b as u64 * (8 + 24 + 8 + 16) <= (6 << 20) / 4);
        // Tighter budgets and larger k both shrink the batch (to the floor).
        assert!(plan_stream_batch(128, Some(6 << 20)) <= b);
        assert_eq!(plan_stream_batch(1 << 20, Some(1)), 64, "floor at 64 edges");
    }

    #[test]
    fn phase2_overhead_extends_the_ingest_peak() {
        let g = graph();
        let degrees = g.degrees();
        let mean = g.mean_degree();
        let base = plan_ingest(&degrees, mean, 10.0, None, 0).unwrap();
        // A phase-2 term smaller than the ingest transient changes nothing.
        let small = plan_ingest(&degrees, mean, 10.0, None, 1).unwrap();
        assert_eq!(base, small);
        // A dominating phase-2 term shows up as the charged peak.
        let huge = 64 << 20;
        let plan = plan_ingest(&degrees, mean, 10.0, None, huge).unwrap();
        assert_eq!(plan.estimated_peak_bytes, plan.resident_bytes + huge);
        // And a budget below resident + phase2 is a typed failure even
        // though ingestion alone would fit: sweeps cannot shrink phase 2.
        let budget = base.estimated_peak_bytes;
        let err = plan_ingest(&degrees, mean, 10.0, Some(budget), huge).unwrap_err();
        assert!(matches!(err, GraphError::BudgetExceeded { .. }), "got {err}");
    }

    #[test]
    fn rejects_bad_grids() {
        let g = graph();
        assert!(plan_tau(&g, 8, 1000, &[]).is_err());
        assert!(plan_tau(&g, 8, 1000, &[0.0]).is_err());
        assert!(plan_tau(&g, 8, 1000, &[-2.0]).is_err());
    }

    #[test]
    fn infinite_tau_on_edgeless_graph_does_not_panic() {
        // τ = ∞ passes grid validation (> 0, not NaN) and an edgeless
        // graph has mean degree 0, so the threshold is ∞ · 0 = NaN — the
        // one reachable ill-defined corner. The planner must agree with
        // the float estimate (nothing is low under a NaN threshold)
        // instead of panicking on the missing cutoff.
        let g = EdgeList::with_vertices(16, std::iter::empty()).unwrap();
        let plan = plan_tau(&g, 8, u64::MAX, &[f64::INFINITY]).unwrap().unwrap();
        assert_eq!(plan.estimated_bytes, estimate_footprint_bytes(&g, f64::INFINITY, 8));
        // On a graph with edges, τ = ∞ simply classifies everything low.
        let g = graph();
        let plan = plan_tau(&g, 8, u64::MAX, &[f64::INFINITY]).unwrap().unwrap();
        assert_eq!(plan.estimated_bytes, estimate_footprint_bytes(&g, f64::INFINITY, 8));
    }
}
