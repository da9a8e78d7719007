//! Informed stateful streaming — HEP's second phase (§3.3, Algorithm 4).
//!
//! The h2h edges externalized during graph building are streamed through the
//! HDRF scoring function. Unlike standalone HDRF, the scoring state starts
//! *informed*: a vertex is replicated on partition `p_i` exactly if it is in
//! NE++'s secondary set `S_i`, partition loads start at the in-memory phase's
//! sizes, and vertex degrees are exact (from the degree pass) rather than
//! streamed partial counts. This removes the "uninformed assignment problem"
//! [47] for the early edges of the stream.
//!
//! # The batched engine
//!
//! [`stream_h2h`] is a batched reformulation of the serial HDRF loop that is
//! **bit-identical to [`stream_h2h_serial`] at any thread count and any
//! batch size** (the repo invariant). Three layers (DESIGN.md §7 carries the
//! full proof sketch):
//!
//! 1. **Sparse replica index** — [`SparseReplicas`] keeps a sorted
//!    per-vertex row of the partitions replicating it (capacity
//!    `min(degree, k)`), so scoring an edge touches only `r(u) ∪ r(v)` plus
//!    one zero-replica candidate instead of all k dense bitsets. The k
//!    `DenseBitset`s are consumed into the index up front and rebuilt once at
//!    the end — phase 2 no longer holds k×|V| bits live for the whole
//!    stream.
//! 2. **Frozen-snapshot batches over a live mask arena** — each vertex the
//!    stream touches gets a ⌈k/64⌉-word candidate *bitmask* (its replica
//!    row re-encoded as set bits), built **once per stream** at first
//!    sighting and kept in lockstep with the index by one word-OR per
//!    commit. Edges are read in bounded batches and scored in parallel
//!    chunks against the index as it stood at the batch boundary: one
//!    pass freezes the masks of the batch's **distinct** endpoints (a
//!    plain arena copy — no row walk) and one pass computes the
//!    degree-derived partial scores `g(u), g(v)`. The commit loop then
//!    walks the batch serially in input order, re-scoring each edge over
//!    its endpoints' frozen masks with *live* loads — membership classes
//!    are two AND/NOT word operations, membership tests one bit probe,
//!    and a set mask bit proves a row insert would be a no-op, skipping
//!    the index probe entirely. A frozen mask can only go stale if an
//!    earlier edge of the same batch touched one of the endpoints; such
//!    edges are detected up front (both endpoints of every batch edge
//!    are epoch-stamped; second sightings land in a bitset probed
//!    through the [`hep_ds::kernels`] `count_members` dispatch, resolved
//!    once per stream) and fall back to re-masking from the live index. A
//!    `debug_assertions` cross-check re-derives every commit decision
//!    with a serial-style full k-scan.
//! 3. **O(candidates) balance argmax** — a [`LoadTracker`] keeps
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
//!    its first entry. A commit evaluates at most four floating-point
//!    scores however many candidates there are ([`pick_partition`]'s
//!    fast path; an exact serial-order scan takes over on pathological
//!    load spreads).
//!
//! Edge endpoints are validated against the degree table: an h2h edge
//! referencing a vertex id ≥ `degrees.len()` — a corrupt or truncated
//! external edge file, or a caller-assembled stream that disagrees with
//! its own degree pass — returns the same typed
//! [`GraphError::VertexOutOfRange`] every other ingestion layer reports.
//! The partial assignment already emitted to the sink before the bad edge
//! (including any earlier edges of the same batch) is the caller's to
//! discard, exactly as in the serial stream.

use hep_baselines::scoring::{capacity, ReplicaState, SparseReplicas, BAL_EPSILON};
use hep_ds::kernels::{self, Kernel};
use hep_ds::DenseBitset;
use hep_graph::{AssignSink, Edge, GraphError, PartitionId};

/// Fixed chunk size of the parallel batch-scoring pass. A constant (not
/// derived from the thread count) so the chunk decomposition — and with it
/// every per-chunk allocation pattern — is identical at any `HEP_THREADS`.
const SCORE_CHUNK: usize = 1024;

/// Edge flag: an endpoint is ≥ the vertex count (typed error at commit).
const FLAG_INVALID: u32 = 1;
/// Edge flag: an endpoint appears more than once in this batch, so the
/// frozen masks may be stale — commit re-masks from the live index.
const FLAG_SHARED: u32 = 2;

/// Per-edge scoring result from the parallel pass.
#[derive(Clone, Copy, Default)]
struct EdgeScore {
    /// HDRF replication rewards `g(u) = 1 + (1 − θ(u))`, `g(v)` likewise —
    /// degree-derived, so valid regardless of batch conflicts.
    g_u: f64,
    g_v: f64,
    flags: u32,
}

/// Sentinel arena slot: the vertex has not yet appeared in the stream.
const NO_SLOT: u32 = u32::MAX;

/// Per-vertex engine state, kept in one record so an endpoint lookup is a
/// single cache-line fetch: the batch conflict stamp (epoch in the low
/// word, the vertex's first-sighting slot in the high word) and the
/// vertex's slot in the live mask arena ([`NO_SLOT`] until first touched).
#[derive(Clone, Copy)]
struct VertexState {
    stamp: u64,
    mslot: u32,
}

/// Re-encodes a sorted replica row as set bits (`part p` → word `p/64`,
/// bit `p%64`). `mask` must be zeroed and cover `k` bits.
#[inline]
fn row_to_mask(row: &[u32], mask: &mut [u64]) {
    for &p in row {
        mask[(p >> 6) as usize] |= 1u64 << (p & 63);
    }
}

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

/// Parallel scoring of one chunk against the frozen snapshot: the
/// degree-derived partial scores plus the validity/conflict flags. The
/// candidate masks themselves live in the batch's per-*vertex* cache (built
/// once per distinct endpoint, not once per edge), so this pass touches
/// only the degree table and the conflict bitset. `kern` is the membership
/// kernel, resolved once per stream so the per-edge conflict probe skips
/// the runtime dispatch; `shared` is `None` when the batch stamped no
/// duplicate endpoint (the probe would test an all-zero bitset).
fn score_chunk(
    edges: &[Edge],
    shared: Option<&DenseBitset>,
    degrees: &[u32],
    n: u32,
    kern: Kernel,
    out: &mut [EdgeScore],
) {
    for (e, slot) in edges.iter().zip(out) {
        if e.src.max(e.dst) >= n {
            *slot = EdgeScore { g_u: 0.0, g_v: 0.0, flags: FLAG_INVALID };
            continue;
        }
        let deg_u = degrees[e.src as usize] as u64;
        let deg_v = degrees[e.dst as usize] as u64;
        // θ normalized degrees; HDRF guards δ(u)+δ(v) > 0.
        let dsum = (deg_u + deg_v).max(1) as f64;
        let g_u = 1.0 + (1.0 - deg_u as f64 / dsum);
        let g_v = 1.0 + (1.0 - deg_v as f64 / dsum);
        let flags = if shared
            .is_some_and(|s| kernels::count_members_with(kern, s.words(), &[e.src, e.dst]) != 0)
        {
            FLAG_SHARED
        } else {
            0
        };
        *slot = EdgeScore { g_u, g_v, flags };
    }
}

/// Re-derives a commit decision with a serial-style full k-scan over the
/// live sparse index — the debug enforcement of the shortlist-sufficiency
/// proof obligation (DESIGN.md §7). Compiled out of release builds.
#[cfg(debug_assertions)]
#[allow(clippy::too_many_arguments)]
fn debug_check_full_scan(
    index: &SparseReplicas,
    tracker: &LoadTracker,
    e: Edge,
    g_u: f64,
    g_v: f64,
    lambda: f64,
    cap: u64,
    chosen: PartitionId,
) {
    // hep-lint: allow(HL007) -- check_inputs rejects k == 0, so loads is non-empty
    let min_load = tracker.loads.iter().copied().min().expect("k >= 1");
    // hep-lint: allow(HL007) -- check_inputs rejects k == 0, so loads is non-empty
    let max_load = tracker.loads.iter().copied().max().expect("k >= 1");
    let denom = BAL_EPSILON + (max_load - min_load) as f64;
    let mut best: Option<(f64, u32)> = None;
    for p in 0..index.k() {
        let l = tracker.loads[p as usize];
        if l >= cap {
            continue;
        }
        let mut c_rep = 0.0;
        if index.is_replicated(e.src, p) {
            c_rep += g_u;
        }
        if index.is_replicated(e.dst, p) {
            c_rep += g_v;
        }
        let score = c_rep + lambda * (max_load - l) as f64 / denom;
        if best.is_none_or(|(b, _)| score > b) {
            best = Some((score, p));
        }
    }
    let want = match best {
        Some((_, p)) => p,
        // hep-lint: allow(HL007) -- check_inputs rejects k == 0, so the range is non-empty
        None => (0..index.k()).min_by_key(|&p| tracker.loads[p as usize]).expect("k >= 1"),
    };
    assert_eq!(chosen, want, "shortlist missed the serial argmax for edge ({}, {})", e.src, e.dst);
}

/// Streams `h2h` edges into partitions, starting from the in-memory phase's
/// state. `total_edges` is `|E|` (the balance constraint of Algorithm 4 is
/// over the whole edge set, not just the streamed part). The edge source is
/// an iterator so the externalized edge file never has to be materialized.
///
/// `batch` bounds how many edges are buffered, scored in parallel against a
/// frozen snapshot, and committed per round (`HEP_STREAM_BATCH`; callers
/// normally size it via `planner::plan_stream_batch`). Output is
/// bit-identical to [`stream_h2h_serial`] for every `batch ≥ 1` and every
/// thread count — see the module docs and DESIGN.md §7.
#[allow(clippy::too_many_arguments)]
pub fn stream_h2h<S: AssignSink + ?Sized>(
    h2h: impl IntoIterator<Item = Edge>,
    degrees: &[u32],
    s_sets: Vec<DenseBitset>,
    ne_sizes: Vec<u64>,
    total_edges: u64,
    lambda: f64,
    alpha: f64,
    batch: usize,
    sink: &mut S,
) -> Result<ReplicaState, GraphError> {
    stream_h2h_with_inspect(
        h2h,
        degrees,
        s_sets,
        ne_sizes,
        total_edges,
        lambda,
        alpha,
        batch,
        sink,
        &mut |_, _| {},
    )
}

/// [`stream_h2h`] with a per-batch probe: after each committed batch,
/// `on_batch` receives the live sparse replica index and the partition
/// loads. Test-battery hook (the "sparse agrees with dense after every
/// batch" property); the engine itself never reads the probe.
#[allow(clippy::too_many_arguments)]
pub fn stream_h2h_with_inspect<S: AssignSink + ?Sized>(
    h2h: impl IntoIterator<Item = Edge>,
    degrees: &[u32],
    s_sets: Vec<DenseBitset>,
    ne_sizes: Vec<u64>,
    total_edges: u64,
    lambda: f64,
    alpha: f64,
    batch: usize,
    sink: &mut S,
    on_batch: &mut dyn FnMut(&SparseReplicas, &[u64]),
) -> Result<ReplicaState, GraphError> {
    assert_eq!(s_sets.len(), ne_sizes.len(), "one replica set per partition");
    assert!(!s_sets.is_empty(), "need k >= 1");
    let k = s_sets.len() as u32;
    let cap = capacity(total_edges, k, alpha);
    let n = degrees.len() as u32;
    let batch = batch.max(1);

    // Consume the dense seed sets into the sparse index immediately: the
    // serial stream used to clone-and-hold all k DenseBitsets (k×|V| bits)
    // for the whole stream; the index costs Σ min(δ(v), k) entries instead.
    let mut index = SparseReplicas::from_seed_sets(&s_sets, degrees);
    drop(s_sets);
    let mut tracker = LoadTracker::new(ne_sizes);

    // Per-vertex stream state, one cache-line-friendly record per vertex:
    // the batch conflict stamp — epoch in the low word, the vertex's slot
    // in the batch's first-sighting order in the high word — and the
    // vertex's live-mask arena slot. A second sighting within a batch
    // (stamp epoch matches) marks the vertex shared. Cleanup is O(batch)
    // (only touched bits are cleared), so small batches stay cheap.
    let mut vstate: Vec<VertexState> =
        vec![VertexState { stamp: 0, mslot: NO_SLOT }; degrees.len()];
    let mut epoch: u32 = 0;
    let mut shared = DenseBitset::new(degrees.len());

    let mut iter = h2h.into_iter();
    let mut buf: Vec<Edge> = Vec::with_capacity(batch.min(1 << 20));
    let mut scores: Vec<EdgeScore> = Vec::with_capacity(batch.min(1 << 20));
    // Candidate-mask geometry and the membership kernel, fixed per stream.
    let wpm = (k as usize).div_ceil(64);
    let kern = kernels::active();
    // The per-batch frozen mask cache: one ⌈k/64⌉-word candidate mask per
    // *distinct* endpoint (`fresh` lists them in first-sighting order),
    // copied at the batch boundary from the live mask arena below.
    let mut fresh: Vec<u32> = Vec::with_capacity(2 * batch.min(1 << 20));
    let mut mask_cache: Vec<u64> = Vec::new();
    // Live candidate masks for every vertex the stream has touched: a
    // vertex's sparse row is encoded into mask form *once per stream* (at
    // its first sighting) and kept current with one word-OR per commit —
    // so freezing a batch snapshot is a plain copy instead of a row walk.
    // The arena holds ⌈k/64⌉ words (k bits) per touched vertex; a touched
    // row holds min(δ(v), k) u32 entries, so for any h2h endpoint with
    // two or more replicas the mask is no larger than the row it mirrors.
    let mut arena: Vec<u64> = Vec::new();
    // Re-masking buffer for conflict-flagged edges (u words, then v words).
    let mut scratch: Vec<u64> = vec![0; 2 * wpm];

    loop {
        buf.clear();
        buf.extend(iter.by_ref().take(batch));
        if buf.is_empty() {
            break;
        }
        epoch = epoch.wrapping_add(1);
        if epoch == 0 {
            // Epoch wrapped: stamps from 2^32 batches ago could alias.
            for v in &mut vstate {
                v.stamp = 0;
            }
            epoch = 1;
        }
        let mut any_shared = false;
        fresh.clear();
        for e in &buf {
            for x in [e.src, e.dst] {
                if x < n {
                    let vs = vstate[x as usize];
                    if vs.stamp as u32 == epoch {
                        shared.set(x);
                        any_shared = true;
                    } else {
                        vstate[x as usize].stamp = u64::from(epoch) | ((fresh.len() as u64) << 32);
                        fresh.push(x);
                        if vs.mslot == NO_SLOT {
                            // First sighting in the whole stream: encode
                            // the row into its live mask once.
                            vstate[x as usize].mslot = (arena.len() / wpm) as u32;
                            arena.resize(arena.len() + wpm, 0);
                            let a = arena.len() - wpm;
                            row_to_mask(index.parts_of(x), &mut arena[a..]);
                        }
                    }
                }
            }
        }

        // Parallel pass 1: freeze each distinct endpoint's candidate mask
        // from the index as it stands at the batch boundary. Slots are
        // disjoint fixed-stride sub-slices, so chunks write in place.
        mask_cache.resize(fresh.len() * wpm, 0);
        {
            let arena_ref = &arena;
            let vstate_ref = &vstate;
            let fresh_ref = &fresh;
            hep_par::par_chunks_mut(&mut mask_cache, SCORE_CHUNK * wpm, |ci, out| {
                let base = ci * SCORE_CHUNK;
                for (t, slot) in out.chunks_mut(wpm).enumerate() {
                    let a = vstate_ref[fresh_ref[base + t] as usize].mslot as usize * wpm;
                    slot.copy_from_slice(&arena_ref[a..a + wpm]);
                }
            });
        }

        // Parallel pass 2: per-edge partial scores and flags into the
        // reusable flat buffer (chunks are disjoint fixed-stride slices).
        // A batch with all-distinct endpoints skips the conflict probes
        // outright — the shared bitset is known all-zero.
        scores.resize(buf.len(), EdgeScore::default());
        {
            let shared_ref = if any_shared { Some(&shared) } else { None };
            let buf_ref = &buf;
            hep_par::par_chunks_mut(&mut scores, SCORE_CHUNK, |ci, out| {
                let base = ci * SCORE_CHUNK;
                score_chunk(&buf_ref[base..base + out.len()], shared_ref, degrees, n, kern, out);
            });
        }

        // Serial pass: commit in input order with live loads.
        let mut committed = Ok(());
        for (&e, m) in buf.iter().zip(&scores) {
            if m.flags & FLAG_INVALID != 0 {
                committed =
                    Err(GraphError::VertexOutOfRange { vertex: e.src.max(e.dst), num_vertices: n });
                break;
            }
            let (vu, vv) = (vstate[e.src as usize], vstate[e.dst as usize]);
            let (mask_u, mask_v) = if m.flags & FLAG_SHARED != 0 {
                // An earlier edge of this batch touched an endpoint:
                // the frozen masks may be stale — re-mask from the
                // live index.
                scratch.fill(0);
                let (mu, mv) = scratch.split_at_mut(wpm);
                row_to_mask(index.parts_of(e.src), mu);
                row_to_mask(index.parts_of(e.dst), mv);
                scratch.split_at(wpm)
            } else {
                // Frozen masks via the endpoints' stamp slots — valid
                // because no earlier edge of this batch touched them.
                let su = (vu.stamp >> 32) as usize;
                let sv = (vv.stamp >> 32) as usize;
                (&mask_cache[su * wpm..(su + 1) * wpm], &mask_cache[sv * wpm..(sv + 1) * wpm])
            };
            let p = pick_partition(mask_u, mask_v, &tracker, m.g_u, m.g_v, lambda, cap);
            #[cfg(debug_assertions)]
            debug_check_full_scan(&index, &tracker, e, m.g_u, m.g_v, lambda, cap, p);
            // The live masks mirror the index rows exactly, so a set
            // bit proves the endpoint is already replicated on `p` and
            // the row insert can be skipped without touching the index.
            let (w, bit) = ((p >> 6) as usize, 1u64 << (p & 63));
            let au = vu.mslot as usize * wpm + w;
            let av = vv.mslot as usize * wpm + w;
            if arena[au] & bit == 0 {
                index.add_replica(e.src, p);
                arena[au] |= bit;
            }
            if arena[av] & bit == 0 {
                index.add_replica(e.dst, p);
                arena[av] |= bit;
            }
            tracker.increment(p);
            sink.assign(e.src, e.dst, p);
        }
        // O(batch) cleanup of the shared bits regardless of outcome.
        if any_shared {
            for e in &buf {
                if e.src < n {
                    shared.clear(e.src);
                }
                if e.dst < n {
                    shared.clear(e.dst);
                }
            }
        }
        committed?;
        on_batch(&index, &tracker.loads);
        if buf.len() < batch {
            break; // iterator exhausted
        }
    }
    Ok(ReplicaState::from_parts(index.to_dense(), tracker.loads))
}

/// The reference serial stream: one dense O(k) HDRF scan per edge over
/// [`ReplicaState`], exactly as phase 2 ran before the batched engine. Kept
/// as the bit-identity oracle for the determinism battery and the serial
/// baseline of the phase-2 throughput bench.
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

    /// A deterministic hub-heavy h2h workload with duplicate endpoints in
    /// close proximity (stresses the in-batch conflict fallback).
    fn synth_stream(n: u32, m: usize, seed: u64) -> (Vec<Edge>, Vec<u32>) {
        let mut rng = hep_ds::SplitMix64::new(seed);
        let mut edges = Vec::with_capacity(m);
        let mut degrees = vec![0u32; n as usize];
        for _ in 0..m {
            // Square the draw toward low ids: hub vertices recur constantly.
            let a = (rng.next_below(n as u64) * rng.next_below(n as u64) / n as u64) as u32;
            let b = rng.next_below(n as u64) as u32;
            edges.push(Edge::new(a, b));
            degrees[a as usize] += 1;
            degrees[b as usize] += 1;
        }
        (edges, degrees)
    }

    #[test]
    fn batched_engine_matches_serial_at_every_batch_size() {
        let (edges, degrees) = synth_stream(200, 3_000, 7);
        let k = 8;
        let mut seed_sets: Vec<DenseBitset> =
            (0..k).map(|_| DenseBitset::new(degrees.len())).collect();
        let mut sizes = vec![0u64; k as usize];
        // Seed a few replicas + uneven loads, like NE++ would.
        for v in 0..40u32 {
            seed_sets[(v % k) as usize].set(v);
        }
        for (p, s) in sizes.iter_mut().enumerate() {
            *s = (p as u64) * 37;
        }
        let mut serial_sink = CollectedAssignment::default();
        let serial = stream_h2h_serial(
            edges.iter().copied(),
            &degrees,
            seed_sets.clone(),
            sizes.clone(),
            6_000,
            1.1,
            1.05,
            &mut serial_sink,
        )
        .unwrap();
        for batch in [1usize, 7, 64, 4096, 1 << 20] {
            let mut sink = CollectedAssignment::default();
            let state = stream_h2h(
                edges.iter().copied(),
                &degrees,
                seed_sets.clone(),
                sizes.clone(),
                6_000,
                1.1,
                1.05,
                batch,
                &mut sink,
            )
            .unwrap();
            assert_eq!(sink.assignments, serial_sink.assignments, "batch {batch}");
            for p in 0..k {
                assert_eq!(state.load(p), serial.load(p), "batch {batch} load {p}");
                assert_eq!(
                    state.replica_sets()[p as usize].words(),
                    serial.replica_sets()[p as usize].words(),
                    "batch {batch} replicas {p}"
                );
            }
        }
    }

    #[test]
    fn probe_sees_sparse_index_consistent_with_replayed_dense_state() {
        use std::cell::RefCell;
        use std::rc::Rc;
        let (edges, degrees) = synth_stream(100, 500, 11);
        let (seed_sets, sizes) = empty_state(4, 100);
        // Capture assignments through a shared sink, replay them into a
        // dense mirror inside the probe, and demand exact agreement every
        // batch.
        let log: Rc<RefCell<Vec<(u32, u32, u32)>>> = Rc::new(RefCell::new(Vec::new()));
        let mut sink = {
            let log = Rc::clone(&log);
            move |u: u32, v: u32, p: u32| log.borrow_mut().push((u, v, p))
        };
        let mut replay = ReplicaState::new(4, 100);
        let mut replayed = 0usize;
        let mut batches = 0usize;
        stream_h2h_with_inspect(
            edges.iter().copied(),
            &degrees,
            seed_sets,
            sizes,
            1_000,
            1.1,
            1.05,
            33,
            &mut sink,
            &mut |index, loads| {
                batches += 1;
                let assignments = log.borrow();
                for &(u, v, p) in &assignments[replayed..] {
                    replay.assign(u, v, p);
                }
                replayed = assignments.len();
                for p in 0..4u32 {
                    assert_eq!(loads[p as usize], replay.load(p), "loads diverge on part {p}");
                }
                for v in 0..100u32 {
                    for p in 0..4u32 {
                        assert_eq!(
                            index.is_replicated(v, p),
                            replay.is_replicated(v, p),
                            "replica ({v}, {p}) diverges"
                        );
                    }
                }
            },
        )
        .unwrap();
        assert!(batches == 500usize.div_ceil(33));
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
