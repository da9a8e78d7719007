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
//! 2. **O(candidates) balance argmax** — a `LoadTracker` keeps one *level
//!    node* per distinct load, linked in ascending load order, each with a
//!    `⌈k/64⌉`-word bitset of the parts at that load. Loads only move by
//!    +1, so an increment moves one bit to the next level, relabels an
//!    emptied node, or links a free node — O(⌈k/64⌉), no search, no
//!    memmove, no allocation. The all-at-cap fallback is the head level's
//!    lowest bit. With `C_REP = 0` the score is strictly decreasing in
//!    load, ties to the lower id, so the best zero-replica partition (the
//!    only non-candidate part that can win) is the lowest bit of
//!    `row & !(u|v)` at the first level where that is non-zero — skipped
//!    outright when the mask union covers all k. Within the candidates
//!    the same monotonicity collapses the argmax to ≤ 3 per-membership-
//!    class `(load, id)` minima, found the same way with the class masks
//!    `u&!v`, `v&!u` and `u&v`; a domination rule (`g ≥ 1`, so the
//!    both-replicated class beats every class collected after it) usually
//!    ends the walk at the head level. An edge evaluates at most four
//!    floating-point scores however many candidates there are
//!    (`pick_partition`'s fast path; an exact serial-order scan takes over
//!    on pathological load spreads). A `debug_assertions` cross-check
//!    re-derives every decision with a serial-style full k-scan.
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

/// Link value of a missing neighbour in the level list.
const NIL: u32 = u32::MAX;

/// One distinct load in [`LoadTracker`]'s ascending level list; the parts
/// at this load are the node's row of the tracker's bitset matrix.
#[derive(Clone, Copy)]
struct Level {
    load: u64,
    next: u32,
    prev: u32,
}

/// Partition loads with an ordered view: the distinct loads form a doubly
/// linked list of level nodes in ascending order, each with a
/// `⌈k/64⌉`-word bitset of the parts at that load. Walking from `head`
/// along `next` and taking each row's bits low to high visits the parts
/// in exactly `(load, id)` order, so the head row's lowest bit is the
/// serial `min_by_key` fallback and [`pick_partition`]'s class walk sees
/// each class's minimum at the first level whose row meets the class
/// mask. There are never more than k distinct loads, so the nodes live in
/// fixed k-slot arrays with a stack of free slots: an increment clears one
/// bit and sets one, relabelling, unlinking or linking at most one node.
struct LoadTracker {
    loads: Vec<u64>,
    /// The level node holding each part's bit.
    node_of: Vec<u32>,
    levels: Vec<Level>,
    /// Node-major part bitsets, `wpm` words per node; free nodes are zero.
    rows: Vec<u64>,
    free: Vec<u32>,
    head: u32,
    tail: u32,
    wpm: usize,
}

impl LoadTracker {
    fn new(loads: Vec<u64>) -> Self {
        let k = loads.len();
        let wpm = k.div_ceil(64);
        // The sort order becomes the free stack once the levels are laid, so
        // building allocates nothing beyond the tracker's charged size.
        let mut order: Vec<u32> = (0..k as u32).collect();
        order.sort_unstable_by_key(|&p| loads[p as usize]);
        let mut levels = vec![Level { load: 0, next: NIL, prev: NIL }; k];
        let mut rows = vec![0u64; k * wpm];
        let mut node_of = vec![0u32; k];
        let mut used = 0u32;
        for &p in &order {
            let l = loads[p as usize];
            if used == 0 || levels[used as usize - 1].load != l {
                if used > 0 {
                    levels[used as usize - 1].next = used;
                    levels[used as usize].prev = used - 1;
                }
                levels[used as usize].load = l;
                used += 1;
            }
            rows[(used as usize - 1) * wpm + (p >> 6) as usize] |= 1 << (p & 63);
            node_of[p as usize] = used - 1;
        }
        order.clear();
        order.extend((used..k as u32).rev());
        // hep-lint: allow(HL007) -- stream_h2h asserts k >= 1 before building the tracker, so at least one level exists
        let tail = used.checked_sub(1).expect("k >= 1");
        LoadTracker { loads, node_of, levels, rows, free: order, head: 0, tail, wpm }
    }

    #[inline]
    fn load(&self, p: u32) -> u64 {
        self.loads[p as usize]
    }

    #[inline]
    fn row(&self, n: u32) -> &[u64] {
        &self.rows[n as usize * self.wpm..(n as usize + 1) * self.wpm]
    }

    #[inline]
    fn min_load(&self) -> u64 {
        self.levels[self.head as usize].load
    }

    #[inline]
    fn max(&self) -> u64 {
        self.levels[self.tail as usize].load
    }

    /// `(min load, lowest part id at that load)`.
    fn min_entry(&self) -> (u64, u32) {
        let row = self.row(self.head);
        // hep-lint: allow(HL007) -- a linked level always holds at least one part: emptied nodes are relabelled or unlinked in the same increment
        let w = row.iter().position(|&x| x != 0).expect("live level rows are non-empty");
        (self.min_load(), (w as u32) << 6 | row[w].trailing_zeros())
    }

    /// Adds one edge to `p`, saturating at `u64::MAX` (the all-at-cap
    /// fallback keeps assigning past the cap, so loads can approach the
    /// integer limit on adversarial inputs; a wrap would reset the balance
    /// ordering mid-stream). `p`'s bit moves from its level `l` to level
    /// `l + 1`: into the next node if it holds `l + 1`, else into `p`'s
    /// own node relabelled in place if `p` was alone, else into a free
    /// node linked after it.
    fn increment(&mut self, p: u32) {
        debug_assert!((p as usize) < self.loads.len(), "partition id {p} out of range");
        let Some(nl) = self.loads[p as usize].checked_add(1) else {
            return;
        };
        self.loads[p as usize] = nl;
        let (w, bit) = ((p >> 6) as usize, 1u64 << (p & 63));
        let n = self.node_of[p as usize];
        let base = n as usize * self.wpm;
        self.rows[base + w] &= !bit;
        let emptied = self.rows[base..base + self.wpm].iter().all(|&x| x == 0);
        let next = self.levels[n as usize].next;
        let to = if next != NIL && self.levels[next as usize].load == nl {
            if emptied {
                self.unlink(n);
            }
            next
        } else if emptied {
            // Level `l` held only `p`; its neighbours hold loads < l and
            // > l + 1, so the relabelled node keeps its place.
            self.levels[n as usize].load = nl;
            n
        } else {
            // hep-lint: allow(HL007) -- n keeps a part besides p, so at most k − 1 parts span the other levels: live levels ≤ k − 1 before this one is linked, leaving a free slot among the k
            let m = self.free.pop().expect("fewer than k levels are live");
            self.levels[m as usize] = Level { load: nl, next, prev: n };
            self.levels[n as usize].next = m;
            if next == NIL {
                self.tail = m;
            } else {
                self.levels[next as usize].prev = m;
            }
            m
        };
        self.rows[to as usize * self.wpm + w] |= bit;
        self.node_of[p as usize] = to;
    }

    /// Unlinks the emptied node `n` and returns its slot to the free stack
    /// (its row is already all zero).
    fn unlink(&mut self, n: u32) {
        let Level { next, prev, .. } = self.levels[n as usize];
        if prev == NIL {
            self.head = next;
        } else {
            self.levels[prev as usize].next = next;
        }
        if next == NIL {
            self.tail = prev;
        } else {
            self.levels[next as usize].prev = prev;
        }
        self.free.push(n);
    }
}

/// Heap bytes per part of the load tracker at `k` parts: its load (8 B)
/// and level-node index (4 B), one level-node slot (a 16-byte [`Level`]
/// and its `⌈k/64⌉`-word row), and one free-stack slot (4 B).
pub(crate) fn tracker_bytes_per_part(k: u32) -> u64 {
    32 + 8 * (k.max(1) as u64).div_ceil(64)
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
/// [`LoadTracker`]'s levels visit parts in exactly that order, one short
/// walk from the head level collects them: a class's minimum is the lowest
/// set bit of `row & class_mask` at the first level where that is
/// non-zero. The walk ends once every class known non-empty from the mask
/// popcounts has one, or at the first at-cap level since every later
/// level is at the cap too. A commit evaluates at most four
/// floating-point scores however many candidates there are.
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
    let min_load = tracker.min_load();
    if min_load >= cap {
        // Every partition at the cap: the serial loop scores nothing and
        // falls back to `min_by_key(load)` — the head level's lowest id.
        return tracker.min_entry().1;
    }
    let max_load = tracker.max();
    if !(max_load - min_load < FAST_SPREAD_LIMIT && FAST_LAMBDA_RANGE.contains(&lambda)) {
        return pick_serial_order(
            mask_u, mask_v, tracker, g_u, g_v, lambda, cap, min_load, max_load,
        );
    }
    let denom = BAL_EPSILON + (max_load - min_load) as f64;
    // Class non-emptiness from mask popcounts (class = membership bits:
    // 0 = neither endpoint replicated, 1 = u only, 2 = v only, 3 = both),
    // then one ascending walk over the levels. At each level every
    // still-needed class takes the lowest bit of its row under the class
    // mask — that class's `(load, id)` minimum. Walking ascending also
    // yields a domination rule that ends the walk early: the balance
    // reward only shrinks as loads grow (strictly across distinct loads
    // inside the envelope), so once a class is collected, any *unseen*
    // class whose `C_REP` is ≤ the collected class's can never produce the
    // argmax. The rule is applied after the whole level: two classes
    // collected at one load both stay candidates, so an equal-score tie
    // between them still goes to the lower id below. `g(u), g(v) ≥ 1`, so
    // the both-replicated class dominates everything — when both rows are
    // broad (the saturated-hub common case) the walk ends at the head
    // level. The walk also stops at the first at-cap level, since every
    // later load is at the cap too and the serial loop skips those.
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
    let mut n = tracker.head;
    while n != NIL {
        let Level { load: l, next, .. } = tracker.levels[n as usize];
        if l >= cap {
            break;
        }
        let row = tracker.row(n);
        let mut found = 0u32;
        let mut todo = need;
        while todo != 0 {
            let c = todo.trailing_zeros();
            todo &= todo - 1;
            // All-ones flips a mask to its complement: class c keeps the
            // parts whose u bit is c's bit 0 and whose v bit is c's bit 1.
            let (fu, fv) =
                (u64::from(c & 1 == 0).wrapping_neg(), u64::from(c & 2 == 0).wrapping_neg());
            for (w, ((&r, &mu), &mv)) in row.iter().zip(mask_u).zip(mask_v).enumerate() {
                let hit = r & (mu ^ fu) & (mv ^ fv);
                if hit != 0 {
                    cand[c as usize] = (l, (w as u32) << 6 | hit.trailing_zeros());
                    found |= 1 << c;
                    break;
                }
            }
        }
        if found != 0 {
            have |= found;
            need &= !found;
            if found & 0b1000 != 0 {
                need = 0;
            }
            if found & 0b0110 != 0 {
                need &= !1;
            }
            if found & 0b0010 != 0 && g_v <= g_u {
                need &= !0b0100;
            }
            if found & 0b0100 != 0 && g_u <= g_v {
                need &= !0b0010;
            }
            if need == 0 {
                break;
            }
        }
        n = next;
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
    debug_assert_eq!((min_load, max_load), (tracker.min_load(), tracker.max()));
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
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The engine's contract: the assignment sequence, final loads and
        /// every replica-set word equal [`stream_h2h_serial`]'s. `k` spans
        /// a few parts (most increments then create or drop a load level),
        /// one-word, full-word and multi-word mask rows; NE++-like seeded
        /// replicas (some vertices on two parts) start the stream, from
        /// uneven loads or, with `equal`, one shared load, so a level's
        /// row holds many parts and equal-load ties across classes decide.
        /// `tight` sizes the cap so the all-at-cap fallback takes over
        /// mid-stream; `bad_at < m` plants an out-of-range edge there,
        /// which must surface as the typed error after exactly the valid
        /// prefix.
        #[test]
        fn engine_matches_serial_bitwise(
            seed in 0u64..1000,
            k in prop_oneof![Just(2u32), Just(4), Just(63), Just(64), Just(65), Just(128), Just(200)],
            tight in 0u32..2,
            equal in 0u32..2,
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
            let sizes: Vec<u64> = if equal == 1 {
                vec![40; k as usize]
            } else {
                (0..k as u64).map(|p| p * 29 % 97).collect()
            };
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

    /// The tracker's level walk as `(load, id)` pairs, checking the list
    /// invariants on the way: strictly ascending level loads, back links,
    /// `tail`, non-empty linked rows, `node_of`, all-zero free rows, and
    /// live plus free nodes filling the k slots.
    fn level_walk(t: &LoadTracker) -> Vec<(u64, u32)> {
        let mut out = Vec::with_capacity(t.loads.len());
        let (mut n, mut prev, mut live) = (t.head, NIL, 0usize);
        while n != NIL {
            let level = t.levels[n as usize];
            assert_eq!(level.prev, prev, "back link of node {n}");
            if prev != NIL {
                assert!(t.levels[prev as usize].load < level.load, "levels out of order");
            }
            let row = t.row(n);
            assert!(row.iter().any(|&w| w != 0), "linked node {n} is empty");
            for (w, &word) in row.iter().enumerate() {
                let mut bits = word;
                while bits != 0 {
                    let p = (w as u32) << 6 | bits.trailing_zeros();
                    assert_eq!(t.node_of[p as usize], n, "node_of[{p}]");
                    out.push((level.load, p));
                    bits &= bits - 1;
                }
            }
            (prev, n, live) = (n, level.next, live + 1);
        }
        assert_eq!(t.tail, prev);
        assert_eq!(live + t.free.len(), t.loads.len(), "live and free nodes fill the k slots");
        assert!(t.free.iter().all(|&f| t.row(f).iter().all(|&w| w == 0)), "free rows are zero");
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The level list against a naive model: from start loads with
        /// duplicates (a spread of 1 puts every part on one level) or near
        /// `u64::MAX`, after every increment — of the least-loaded part,
        /// as the balance term favours, or of a random one — the level
        /// walk enumerates exactly the sorted `(load, id)` list, and
        /// `min_entry` and `max` are its ends. Saturated parts stay put.
        #[test]
        fn tracker_levels_enumerate_sorted_loads(
            seed in 0u64..10_000,
            k in prop_oneof![Just(1u32), Just(4), Just(64), Just(65), Just(200)],
            spread in prop_oneof![Just(1u64), Just(3), Just(1_000)],
            near_max in 0u32..2,
        ) {
            let mut rng = hep_ds::SplitMix64::new(seed);
            let base = if near_max == 1 { u64::MAX - 8 } else { 0 };
            let mut model: Vec<u64> =
                (0..k).map(|_| base.saturating_add(rng.next_below(spread))).collect();
            let mut t = LoadTracker::new(model.clone());
            for step in 0..400 {
                let mut naive: Vec<(u64, u32)> =
                    model.iter().enumerate().map(|(p, &l)| (l, p as u32)).collect();
                naive.sort_unstable();
                prop_assert_eq!(&level_walk(&t), &naive, "step {}", step);
                prop_assert_eq!(t.min_entry(), naive[0]);
                prop_assert_eq!(t.max(), naive[naive.len() - 1].0);
                prop_assert_eq!(&t.loads, &model);
                let p = if rng.next_below(2) == 0 {
                    t.min_entry().1
                } else {
                    rng.next_below(k as u64) as u32
                };
                model[p as usize] = model[p as usize].saturating_add(1);
                t.increment(p);
            }
        }
    }

    #[test]
    fn tracker_heap_matches_its_per_part_size() {
        for k in [1u32, 4, 64, 65, 192, 193, 512] {
            let t = LoadTracker::new((0..k as u64).collect());
            let bytes = 8 * t.loads.capacity()
                + 4 * t.node_of.capacity()
                + std::mem::size_of::<Level>() * t.levels.capacity()
                + 8 * t.rows.capacity()
                + 4 * t.free.capacity();
            assert_eq!(bytes as u64, k as u64 * tracker_bytes_per_part(k), "k {k}");
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
