//! Informed stateful streaming — HEP's second phase (§3.3, Algorithm 4).
//!
//! The h2h edges externalized during graph building are streamed through the
//! HDRF scoring function. Unlike standalone HDRF, the scoring state starts
//! *informed*: a vertex is replicated on partition `p_i` exactly if it is in
//! NE++'s secondary set `S_i`, partition loads start at the in-memory phase's
//! sizes, and vertex degrees are exact (from the degree pass) rather than
//! streamed partial counts. This removes the "uninformed assignment problem"
//! \[47\] for the early edges of the stream.
//!
//! # The engine
//!
//! [`stream_h2h`] is one serial in-order loop that is **bit-identical to
//! [`stream_h2h_serial`]** (DESIGN.md §7 carries the proof sketch). It
//! differs from the dense reference in two data-structure choices, not in
//! the order of anything:
//!
//! 1. **Vertex-major replica masks** — the k per-partition seed sets are
//!    transposed once into an `n × ⌈k/64⌉`-word matrix, so an endpoint's
//!    replica row is one or two adjacent cache lines instead of k probes
//!    into k separate bitsets. Each seed set is dropped as soon as its bits
//!    are moved, and the k dense sets are rebuilt once at the end for
//!    [`ReplicaState`].
//! 2. **O(candidates) balance argmax** — a `LoadTracker` keeps
//!    `(load, part)` pairs in a sorted array with a position index (loads
//!    only move by +1, so reordering is one binary search plus a short
//!    rotate — no tree nodes, no per-edge allocation). The best
//!    zero-replica partition (the only non-candidate part that can win:
//!    with `C_REP = 0` the score is strictly decreasing in load, ties to
//!    the lower id) is the first array entry whose bit is clear in the
//!    mask union — skipped outright when the union covers all k — and
//!    the all-at-cap fallback is the first entry, period. Within the
//!    candidates the same monotonicity collapses the argmax to ≤ 3
//!    per-membership-class `(load, id)` minima — integer comparisons —
//!    and a domination rule (`g ≥ 1`, so the both-replicated class beats
//!    every class collected after it) usually ends the ordered walk at
//!    its first entry. An edge evaluates at most four floating-point
//!    scores however many candidates there are (`pick_partition`'s
//!    fast path; an exact serial-order scan takes over on pathological
//!    load spreads). A `debug_assertions` cross-check re-derives every
//!    decision with a serial-style full k-scan.
//!
//! Edge endpoints are validated against the degree table: an h2h edge
//! referencing a vertex id ≥ `degrees.len()` — a corrupt or truncated
//! external edge file, or a caller-assembled stream that disagrees with
//! its own degree pass — returns the same typed
//! [`GraphError::VertexOutOfRange`] every other ingestion layer reports.
//! The partial assignment already emitted to the sink before the bad edge
//! is the caller's to discard, exactly as in the serial stream.

use hep_baselines::scoring::{capacity, ReplicaState, BAL_EPSILON};
use hep_ds::DenseBitset;
use hep_graph::{AssignSink, Edge, GraphError, PartitionId};

/// Partition loads with an ordered view: `by_load` holds `(load, part)`
/// pairs sorted ascending, so the global minimum (and the least-loaded
/// part with the lowest id — the serial `min_by_key` fallback) is the
/// first element, and [`pick_partition`]'s class walk visits parts in
/// exactly the per-class tie-break order. Loads only move by +1, so
/// keeping the array sorted is two binary searches (the entry's slot and
/// the end of the displaced run) plus a short rotate — at k ≤ a few
/// hundred this stays in one or two cache lines, where a tree pays
/// pointer chases and node traffic on every edge. `max` is maintained as
/// a scalar (loads only grow).
struct LoadTracker {
    loads: Vec<u64>,
    by_load: Vec<(u64, u32)>,
    max: u64,
}

impl LoadTracker {
    fn new(loads: Vec<u64>) -> Self {
        let mut by_load: Vec<(u64, u32)> =
            loads.iter().enumerate().map(|(p, &l)| (l, p as u32)).collect();
        by_load.sort_unstable();
        // hep-lint: allow(HL007) -- check_inputs rejects k == 0 before any tracker is built
        let max = by_load.last().expect("k >= 1").0;
        LoadTracker { loads, by_load, max }
    }

    #[inline]
    fn load(&self, p: u32) -> u64 {
        self.loads[p as usize]
    }

    /// `(min load, lowest part id at that load)`.
    #[inline]
    fn min_entry(&self) -> (u64, u32) {
        self.by_load[0]
    }

    /// Adds one edge to `p`, saturating at `u64::MAX` (the all-at-cap
    /// fallback keeps assigning past the cap, so loads can approach the
    /// integer limit on adversarial inputs; a wrap would reset the balance
    /// ordering mid-stream).
    fn increment(&mut self, p: u32) {
        debug_assert!(
            (p as usize) < self.loads.len() && self.by_load.len() == self.loads.len(),
            "partition id {p} out of range"
        );
        let l = self.loads[p as usize];
        let nl = l.saturating_add(1);
        if nl != l {
            self.loads[p as usize] = nl;
            let i = self.by_load.partition_point(|&e| e < (l, p));
            debug_assert_eq!(self.by_load[i], (l, p));
            // Final slot: just before the first entry ordered after the
            // bumped key (entries in between shift one slot left).
            let j = i + self.by_load[i + 1..].partition_point(|&e| e < (nl, p));
            self.by_load[i..=j].rotate_left(1);
            self.by_load[j] = (nl, p);
        }
        self.max = self.max.max(nl);
    }
}

/// Load spread below which [`pick_partition`]'s class-minimum fast path is
/// provably exact: every `(max − load)` is exact in f64 and distinct loads
/// keep a relative gap ≥ 2⁻⁵⁰ through the one multiplication and one
/// division of `C_BAL` (each perturbs by ≤ 2⁻⁵³ relative), so distinct
/// loads in a membership class produce *strictly* distinct scores.
const FAST_SPREAD_LIMIT: u64 = 1 << 50;

/// λ range for the fast path: far inside normal f64 territory, so the
/// `λ · diff / denom` products neither underflow (losing the relative-gap
/// argument above) nor overflow to a score-collapsing infinity.
const FAST_LAMBDA_RANGE: std::ops::RangeInclusive<f64> = 1e-9..=1e12;

/// Exact serial HDRF argmax over the candidate masks plus the best
/// zero-replica candidate (DESIGN.md §7 argues these are the only parts
/// that can win). Scores are combined in the same floating-point order as
/// [`ReplicaState::best_partition`], and ties resolve to the lowest part
/// id, so the result is bitwise the serial choice.
///
/// Fast path: within one membership class (u replicated / v / both /
/// neither) the score varies only through `C_BAL`, a monotone
/// non-increasing function of the integer load — and inside
/// [`FAST_SPREAD_LIMIT`] / [`FAST_LAMBDA_RANGE`] *strictly* decreasing
/// across distinct loads, with equal loads scoring bitwise-equal (the
/// serial tie then goes to the lowest id). The serial argmax is therefore
/// the best of ≤ 4 per-class `(load, id)` minima — and because
/// [`LoadTracker::by_load`] orders parts by exactly that key, one short
/// ascending walk collects all four (the first entry falling in each
/// class is that class's minimum, the walk ends once every class known
/// non-empty from the mask popcounts has one, or at the first at-cap
/// entry since everything after it is at the cap too). A commit evaluates
/// at most four floating-point scores however many candidates there are.
/// Outside that envelope (huge load spreads
/// where f64 rounding can collapse distinct loads to equal scores, or
/// λ = 0 where every class ties wholesale and the ascending-id visit
/// order decides) [`pick_serial_order`] reproduces the serial loop
/// literally.
fn pick_partition(
    mask_u: &[u64],
    mask_v: &[u64],
    tracker: &LoadTracker,
    g_u: f64,
    g_v: f64,
    lambda: f64,
    cap: u64,
) -> PartitionId {
    let (min_load, min_part) = tracker.min_entry();
    if min_load >= cap {
        // Every partition at the cap: the serial loop scores nothing and
        // falls back to `min_by_key(load)` — the first ordered entry.
        return min_part;
    }
    let max_load = tracker.max;
    if !(max_load - min_load < FAST_SPREAD_LIMIT && FAST_LAMBDA_RANGE.contains(&lambda)) {
        return pick_serial_order(
            mask_u, mask_v, tracker, g_u, g_v, lambda, cap, min_load, max_load,
        );
    }
    let denom = BAL_EPSILON + (max_load - min_load) as f64;
    // Class non-emptiness from mask popcounts (class = membership bits:
    // 0 = neither endpoint replicated, 1 = u only, 2 = v only, 3 = both),
    // then one ascending walk over the ordered loads. The first entry
    // falling in a class (two bit probes) is that class's `(load, id)`
    // minimum. Walking ascending also yields a domination rule that ends
    // the walk early: the balance reward only shrinks as loads grow
    // (strictly across distinct loads inside the envelope, and a later
    // equal load has a larger id and loses the tie), so once a class is
    // collected, any *unseen* class whose `C_REP` is ≤ the collected
    // class's can never produce the argmax. `g(u), g(v) ≥ 1`, so the
    // both-replicated class dominates everything — when both rows are
    // broad (the saturated-hub common case) the walk ends at the very
    // first entry. The walk also stops at the first at-cap entry, since
    // every later load is at the cap too and the serial loop skips those.
    let mut need: u32 = 0;
    let mut covered = 0u32;
    for (&mu, &mv) in mask_u.iter().zip(mask_v) {
        need |= u32::from(mu & !mv != 0) << 1;
        need |= u32::from(mv & !mu != 0) << 2;
        need |= u32::from(mu & mv != 0) << 3;
        covered += (mu | mv).count_ones();
    }
    need |= u32::from(covered < tracker.loads.len() as u32);
    let mut cand: [(u64, u32); 4] = [(0, 0); 4];
    let mut have: u32 = 0;
    for &(l, p) in &tracker.by_load {
        if l >= cap {
            break;
        }
        let (w, bit) = ((p >> 6) as usize, p & 63);
        let c = ((mask_u[w] >> bit & 1) | (mask_v[w] >> bit & 1) << 1) as u32;
        if need & (1 << c) != 0 {
            cand[c as usize] = (l, p);
            have |= 1 << c;
            need &= !(1 << c);
            match c {
                3 => need = 0,
                1 => {
                    need &= !1;
                    if g_v <= g_u {
                        need &= !(1 << 2);
                    }
                }
                2 => {
                    need &= !1;
                    if g_u <= g_v {
                        need &= !(1 << 1);
                    }
                }
                _ => {}
            }
            if need == 0 {
                break;
            }
        }
    }
    let mut best: Option<(f64, u32)> = None;
    for (mem, &(l, p)) in cand.iter().enumerate() {
        if have & (1 << mem) == 0 {
            continue;
        }
        let mut c_rep = 0.0;
        if mem & 1 != 0 {
            c_rep += g_u;
        }
        if mem & 2 != 0 {
            c_rep += g_v;
        }
        let score = c_rep + lambda * (max_load - l) as f64 / denom;
        // The serial loop visits parts in ascending id with a strict `>`,
        // so an equal score goes to whichever id is lower.
        if best.is_none_or(|(b, bp)| score > b || (score == b && p < bp)) {
            best = Some((score, p));
        }
    }
    // hep-lint: allow(HL007) -- the caller only invokes scoring when min_load < cap, so at least one part is under cap and sets `best`
    best.expect("min_load < cap guarantees an under-cap candidate").1
}

/// Literal serial-order argmax: visits all k parts ascending with one mask
/// bit probe per endpoint, reproducing [`ReplicaState::best_partition`]'s
/// loop (and its first-wins strict `>`) operation for operation. Only
/// reached outside the fast-path envelope.
#[allow(clippy::too_many_arguments)]
fn pick_serial_order(
    mask_u: &[u64],
    mask_v: &[u64],
    tracker: &LoadTracker,
    g_u: f64,
    g_v: f64,
    lambda: f64,
    cap: u64,
    min_load: u64,
    max_load: u64,
) -> PartitionId {
    let denom = BAL_EPSILON + (max_load - min_load) as f64;
    let k = tracker.loads.len() as u32;
    let mut best: Option<(f64, u32)> = None;
    for p in 0..k {
        let l = tracker.load(p);
        if l >= cap {
            continue;
        }
        let (w, bit) = ((p >> 6) as usize, p & 63);
        let mut c_rep = 0.0;
        if mask_u[w] >> bit & 1 != 0 {
            c_rep += g_u;
        }
        if mask_v[w] >> bit & 1 != 0 {
            c_rep += g_v;
        }
        let score = c_rep + lambda * (max_load - l) as f64 / denom;
        if best.is_none_or(|(b, _)| score > b) {
            best = Some((score, p));
        }
    }
    // hep-lint: allow(HL007) -- the caller only invokes scoring when min_load < cap, so at least one part is under cap and sets `best`
    best.expect("min_load < cap guarantees an under-cap candidate").1
}

/// HDRF replication rewards `g(u) = 1 + (1 − θ(u))` and `g(v)` likewise,
/// with θ the normalized degree — computed in the operation order of
/// [`ReplicaState::best_partition`], so the scores are bitwise the serial
/// ones.
#[inline]
fn rewards(deg_u: u64, deg_v: u64) -> (f64, f64) {
    // HDRF guards δ(u)+δ(v) > 0.
    let dsum = (deg_u + deg_v).max(1) as f64;
    (1.0 + (1.0 - deg_u as f64 / dsum), 1.0 + (1.0 - deg_v as f64 / dsum))
}

/// Re-derives a decision with a serial-style full k-scan over the live
/// mask rows — the debug enforcement of the argmax bit-identity argument
/// (DESIGN.md §7). Compiled out of release builds.
#[cfg(debug_assertions)]
#[allow(clippy::too_many_arguments)]
fn debug_check_full_scan(
    mask_u: &[u64],
    mask_v: &[u64],
    tracker: &LoadTracker,
    e: Edge,
    g_u: f64,
    g_v: f64,
    lambda: f64,
    cap: u64,
    chosen: PartitionId,
) {
    let k = tracker.loads.len() as u32;
    let bit = |mask: &[u64], p: u32| mask[(p >> 6) as usize] >> (p & 63) & 1 != 0;
    // hep-lint: allow(HL007) -- stream_h2h rejects k == 0, so loads is non-empty
    let min_load = tracker.loads.iter().copied().min().expect("k >= 1");
    // hep-lint: allow(HL007) -- stream_h2h rejects k == 0, so loads is non-empty
    let max_load = tracker.loads.iter().copied().max().expect("k >= 1");
    let denom = BAL_EPSILON + (max_load - min_load) as f64;
    let mut best: Option<(f64, u32)> = None;
    for p in 0..k {
        let l = tracker.loads[p as usize];
        if l >= cap {
            continue;
        }
        let mut c_rep = 0.0;
        if bit(mask_u, p) {
            c_rep += g_u;
        }
        if bit(mask_v, p) {
            c_rep += g_v;
        }
        let score = c_rep + lambda * (max_load - l) as f64 / denom;
        if best.is_none_or(|(b, _)| score > b) {
            best = Some((score, p));
        }
    }
    let want = match best {
        Some((_, p)) => p,
        // hep-lint: allow(HL007) -- stream_h2h rejects k == 0, so the range is non-empty
        None => (0..k).min_by_key(|&p| tracker.loads[p as usize]).expect("k >= 1"),
    };
    assert_eq!(chosen, want, "argmax missed the serial choice for edge ({}, {})", e.src, e.dst);
}

/// Streams `h2h` edges into partitions, starting from the in-memory phase's
/// state. `total_edges` is `|E|` (the balance constraint of Algorithm 4 is
/// over the whole edge set, not just the streamed part). The edge source is
/// an iterator so the externalized edge file never has to be materialized.
/// Every seed set must cover `degrees.len()` vertices.
///
/// `batch` is ignored: the engine is one serial loop. The parameter stays
/// so callers that size it with `planner::plan_stream_batch` for the
/// planner's phase-2 charge keep compiling. Output is bit-identical to
/// [`stream_h2h_serial`] — see the module docs and DESIGN.md §7.
#[allow(clippy::too_many_arguments)]
pub fn stream_h2h<S: AssignSink + ?Sized>(
    h2h: impl IntoIterator<Item = Edge>,
    degrees: &[u32],
    s_sets: Vec<DenseBitset>,
    ne_sizes: Vec<u64>,
    total_edges: u64,
    lambda: f64,
    alpha: f64,
    _batch: usize,
    sink: &mut S,
) -> Result<ReplicaState, GraphError> {
    assert_eq!(s_sets.len(), ne_sizes.len(), "one replica set per partition");
    assert!(!s_sets.is_empty(), "need k >= 1");
    assert!(
        s_sets.iter().all(|s| s.capacity() == degrees.len()),
        "every seed set covers the degree table's vertices"
    );
    let k = s_sets.len() as u32;
    let cap = capacity(total_edges, k, alpha);
    let n = degrees.len() as u32;
    let wpm = (k as usize).div_ceil(64);

    // Transpose the seed sets into vertex-major rows, dropping each set as
    // soon as its bits are moved: the transient stays within twice the
    // seed sets' footprint.
    let mut masks = vec![0u64; degrees.len() * wpm];
    for (p, set) in s_sets.into_iter().enumerate() {
        let (w, bit) = (p >> 6, 1u64 << (p & 63));
        for v in set.iter_ones() {
            masks[v as usize * wpm + w] |= bit;
        }
    }
    let mut tracker = LoadTracker::new(ne_sizes);

    for e in h2h {
        let max = e.src.max(e.dst);
        if max >= n {
            return Err(GraphError::VertexOutOfRange { vertex: max, num_vertices: n });
        }
        let (g_u, g_v) = rewards(degrees[e.src as usize] as u64, degrees[e.dst as usize] as u64);
        let (ru, rv) = (e.src as usize * wpm, e.dst as usize * wpm);
        let (mask_u, mask_v) = (&masks[ru..ru + wpm], &masks[rv..rv + wpm]);
        let p = pick_partition(mask_u, mask_v, &tracker, g_u, g_v, lambda, cap);
        #[cfg(debug_assertions)]
        debug_check_full_scan(mask_u, mask_v, &tracker, e, g_u, g_v, lambda, cap, p);
        let (w, bit) = ((p >> 6) as usize, 1u64 << (p & 63));
        // hep-lint: allow(HL011) -- pick_partition returns a part id < k, so w < wpm and both writes stay inside the endpoints' rows
        masks[ru + w] |= bit;
        masks[rv + w] |= bit;
        tracker.increment(p);
        sink.assign(e.src, e.dst, p);
    }

    // Rebuild the k dense sets once for ReplicaState's consumers.
    let mut sets: Vec<DenseBitset> = (0..k).map(|_| DenseBitset::new(degrees.len())).collect();
    for (v, row) in masks.chunks_exact(wpm).enumerate() {
        for (w, &word) in row.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                sets[w * 64 + bits.trailing_zeros() as usize].set(v as u32);
                bits &= bits - 1;
            }
        }
    }
    Ok(ReplicaState::from_parts(sets, tracker.loads))
}

/// The reference serial stream: one dense O(k) HDRF scan per edge over
/// [`ReplicaState`]. Kept as the bit-identity oracle of [`stream_h2h`]'s
/// tests and the serial baseline of the phase-2 throughput bench.
#[allow(clippy::too_many_arguments)]
pub fn stream_h2h_serial<S: AssignSink + ?Sized>(
    h2h: impl IntoIterator<Item = Edge>,
    degrees: &[u32],
    s_sets: Vec<DenseBitset>,
    ne_sizes: Vec<u64>,
    total_edges: u64,
    lambda: f64,
    alpha: f64,
    sink: &mut S,
) -> Result<ReplicaState, GraphError> {
    let mut state = ReplicaState::from_parts(s_sets, ne_sizes);
    let cap = capacity(total_edges, state.k(), alpha);
    let n = degrees.len() as u32;
    for e in h2h {
        let max = e.src.max(e.dst);
        if max >= n {
            return Err(GraphError::VertexOutOfRange { vertex: max, num_vertices: n });
        }
        let p = state.best_partition(
            e.src,
            e.dst,
            degrees[e.src as usize] as u64,
            degrees[e.dst as usize] as u64,
            lambda,
            cap,
            true,
        );
        state.assign(e.src, e.dst, p);
        sink.assign(e.src, e.dst, p);
    }
    Ok(state)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hep_graph::partitioner::CollectedAssignment;
    use proptest::prelude::*;

    fn empty_state(k: u32, n: u32) -> (Vec<DenseBitset>, Vec<u64>) {
        ((0..k).map(|_| DenseBitset::new(n as usize)).collect(), vec![0; k as usize])
    }

    #[test]
    fn seeded_replicas_attract_h2h_edges() {
        let (mut s_sets, sizes) = empty_state(4, 10);
        // NE++ replicated vertex 3 on partition 2.
        s_sets[2].set(3);
        let degrees = vec![5u32; 10];
        let h2h = [Edge::new(3, 7)];
        let mut sink = CollectedAssignment::default();
        stream_h2h(h2h.iter().copied(), &degrees, s_sets, sizes, 100, 1.1, 1.05, 8, &mut sink)
            .unwrap();
        assert_eq!(sink.assignments, vec![(Edge::new(3, 7), 2)]);
    }

    #[test]
    fn loads_from_inmem_phase_steer_balance() {
        let (s_sets, mut sizes) = empty_state(2, 10);
        sizes[0] = 50; // partition 0 already heavy from NE++
        let degrees = vec![2u32; 10];
        let h2h = [Edge::new(1, 2)];
        let mut sink = CollectedAssignment::default();
        stream_h2h(h2h.iter().copied(), &degrees, s_sets, sizes, 100, 1.1, 1.05, 8, &mut sink)
            .unwrap();
        assert_eq!(sink.assignments[0].1, 1);
    }

    #[test]
    fn hard_cap_respected() {
        let (s_sets, mut sizes) = empty_state(2, 4);
        // Partition 0 at the cap for |E|=4, k=2, alpha=1.0 -> cap 2.
        sizes[0] = 2;
        let degrees = vec![3u32; 4];
        let h2h = [Edge::new(0, 1), Edge::new(2, 3)];
        let mut sink = CollectedAssignment::default();
        stream_h2h(h2h.iter().copied(), &degrees, s_sets, sizes, 4, 1.1, 1.0, 8, &mut sink)
            .unwrap();
        assert!(sink.assignments.iter().all(|&(_, p)| p == 1));
    }

    #[test]
    fn returns_final_state() {
        let (s_sets, sizes) = empty_state(2, 4);
        let degrees = vec![1u32; 4];
        let h2h = [Edge::new(0, 1)];
        let mut sink = CollectedAssignment::default();
        let state =
            stream_h2h(h2h.iter().copied(), &degrees, s_sets, sizes, 10, 1.1, 1.05, 8, &mut sink)
                .unwrap();
        let p = sink.assignments[0].1;
        assert!(state.is_replicated(0, p) && state.is_replicated(1, p));
        assert_eq!(state.load(p), 1);
    }

    #[test]
    fn out_of_range_h2h_edge_is_a_typed_error_not_a_panic() {
        // Regression: phase 2 used to index `degrees[e.src]` unchecked, so
        // an h2h edge with an endpoint >= |V| — e.g. streamed out of a
        // corrupt HEPB file — panicked with a raw index-out-of-bounds
        // instead of the typed error every other ingestion layer reports.
        // The stream here really comes from a forged binfile: the header
        // claims 4 vertices, the payload holds edge (2, 9).
        use hep_graph::BinaryEdgeFile;
        let mut path = std::env::temp_dir();
        path.push(format!("hep_stream_forged_{}.hepb", std::process::id()));
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&hep_graph::binfile::MAGIC);
        // v1: checksum-free, so the forged payload needs no digest forgery.
        bytes.extend_from_slice(&hep_graph::binfile::VERSION_V1.to_le_bytes());
        bytes.extend_from_slice(&4u32.to_le_bytes()); // |V| = 4
        bytes.extend_from_slice(&2u64.to_le_bytes()); // 2 edges
        for (s, d) in [(0u32, 1u32), (2, 9)] {
            bytes.extend_from_slice(&s.to_le_bytes());
            bytes.extend_from_slice(&d.to_le_bytes());
        }
        std::fs::write(&path, &bytes).unwrap();
        let file = BinaryEdgeFile::open(&path).unwrap();
        let h2h: Vec<Edge> = file.pass().unwrap().collect::<Result<_, _>>().unwrap();
        std::fs::remove_file(&path).ok();
        let (s_sets, sizes) = empty_state(2, 4);
        let degrees = vec![3u32; 4];
        let mut sink = CollectedAssignment::default();
        let err =
            stream_h2h(h2h, &degrees, s_sets, sizes, 10, 1.1, 1.05, 8, &mut sink).unwrap_err();
        assert!(
            matches!(err, hep_graph::GraphError::VertexOutOfRange { vertex: 9, num_vertices: 4 }),
            "got {err}"
        );
        // The valid prefix was emitted before the bad edge surfaced; the
        // caller decides whether to keep or discard it.
        assert_eq!(sink.assignments.len(), 1);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The engine's contract: the assignment sequence, final loads and
        /// every replica-set word equal [`stream_h2h_serial`]'s. `k` spans
        /// one-word, full-word and multi-word mask rows; NE++-like seeded
        /// replicas (some vertices on two parts) and uneven loads start the
        /// stream. `tight` sizes the cap so the all-at-cap fallback takes
        /// over mid-stream; `bad_at < m` plants an out-of-range edge there,
        /// which must surface as the typed error after exactly the valid
        /// prefix.
        #[test]
        fn engine_matches_serial_bitwise(
            seed in 0u64..1000,
            k in prop_oneof![Just(2u32), Just(63), Just(64), Just(65), Just(128), Just(200)],
            tight in 0u32..2,
            bad_at in 0usize..4_000,
        ) {
            let n = 300u32;
            let m = 2_000usize;
            let mut rng = hep_ds::SplitMix64::new(seed);
            let mut edges = Vec::with_capacity(m + 1);
            let mut degrees = vec![0u32; n as usize];
            for _ in 0..m {
                // Square one draw toward low ids: hub rows recur constantly.
                let a = (rng.next_below(n as u64) * rng.next_below(n as u64) / n as u64) as u32;
                let b = rng.next_below(n as u64) as u32;
                edges.push(Edge::new(a, b));
                degrees[a as usize] += 1;
                degrees[b as usize] += 1;
            }
            if bad_at < m {
                edges.insert(bad_at, Edge::new(rng.next_below(n as u64) as u32, n + 3));
            }
            let mut sets: Vec<DenseBitset> = (0..k).map(|_| DenseBitset::new(n as usize)).collect();
            for v in 0..90u32 {
                sets[(v % k) as usize].set(v);
                sets[((v * 31 + 5) % k) as usize].set(v);
            }
            let sizes: Vec<u64> = (0..k as u64).map(|p| p * 29 % 97).collect();
            let (total, alpha) = if tight == 1 { (m as u64 / 2, 1.0) } else { (4 * m as u64, 1.05) };
            if tight == 1 {
                // The room under the cap is smaller than the stream, so the
                // fallback must place the remainder.
                let cap = capacity(total, k, alpha);
                let room: u64 = sizes.iter().map(|&s| cap.saturating_sub(s)).sum();
                prop_assert!(room < m as u64, "room {} leaves the fallback unexercised", room);
            }
            let mut serial_sink = CollectedAssignment::default();
            let serial = stream_h2h_serial(
                edges.iter().copied(),
                &degrees,
                sets.clone(),
                sizes.clone(),
                total,
                1.1,
                alpha,
                &mut serial_sink,
            );
            let mut sink = CollectedAssignment::default();
            let engine =
                stream_h2h(edges.iter().copied(), &degrees, sets, sizes, total, 1.1, alpha, 0, &mut sink);
            prop_assert_eq!(&sink.assignments, &serial_sink.assignments);
            match (engine, serial) {
                (Ok(state), Ok(serial)) => {
                    prop_assert!(bad_at >= m);
                    for p in 0..k {
                        prop_assert_eq!(state.load(p), serial.load(p), "load {}", p);
                        prop_assert_eq!(
                            state.replica_sets()[p as usize].words(),
                            serial.replica_sets()[p as usize].words(),
                            "replicas {}", p
                        );
                    }
                }
                (Err(err), Err(_)) => {
                    prop_assert!(
                        matches!(err, GraphError::VertexOutOfRange { vertex, num_vertices: 300 } if vertex == n + 3),
                        "got {}", err
                    );
                    prop_assert_eq!(sink.assignments.len(), bad_at);
                }
                (engine, serial) => {
                    prop_assert!(false, "outcomes differ: {:?} vs {:?}", engine.err(), serial.err());
                }
            }
        }
    }

    #[test]
    fn all_at_cap_fallback_matches_serial_least_loaded() {
        let (seed_sets, mut sizes) = empty_state(3, 6);
        sizes[0] = 5;
        sizes[1] = 3;
        sizes[2] = 4;
        let degrees = vec![2u32; 6];
        // cap = ceil(1.0 * 6 / 3) = 2: everything is past the cap already.
        let h2h = [Edge::new(0, 1), Edge::new(2, 3), Edge::new(4, 5)];
        let mut serial_sink = CollectedAssignment::default();
        stream_h2h_serial(
            h2h.iter().copied(),
            &degrees,
            seed_sets.clone(),
            sizes.clone(),
            6,
            1.1,
            1.0,
            &mut serial_sink,
        )
        .unwrap();
        let mut sink = CollectedAssignment::default();
        stream_h2h(h2h.iter().copied(), &degrees, seed_sets, sizes, 6, 1.1, 1.0, 2, &mut sink)
            .unwrap();
        assert_eq!(sink.assignments, serial_sink.assignments);
        assert_eq!(sink.assignments[0].1, 1, "least-loaded, lowest id");
    }

    #[test]
    fn saturated_seed_loads_do_not_wrap_mid_stream() {
        // Adversarial NE++ sizes near u64::MAX: the tracker must saturate,
        // keep min/max ordering sane, and never panic in the balance term.
        let (seed_sets, mut sizes) = empty_state(2, 4);
        sizes[0] = u64::MAX;
        sizes[1] = u64::MAX - 1;
        let degrees = vec![2u32; 4];
        let h2h = [Edge::new(0, 1), Edge::new(2, 3)];
        let mut sink = CollectedAssignment::default();
        let state = stream_h2h(
            h2h.iter().copied(),
            &degrees,
            seed_sets,
            sizes,
            u64::MAX,
            1.1,
            2.0,
            1,
            &mut sink,
        )
        .unwrap();
        assert_eq!(state.load(0), u64::MAX);
        assert_eq!(state.load(1), u64::MAX);
    }
}
