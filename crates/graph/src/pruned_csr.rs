//! The pruned CSR representation of NE++ (paper §3.2.1, §4.2).
//!
//! Differences from a conventional CSR:
//!
//! * Adjacency lists of **high-degree vertices are omitted** from the column
//!   array. Edges between a low- and a high-degree vertex are reachable via
//!   the low-degree endpoint only; edges between two high-degree vertices are
//!   written to an external buffer (`h2h`) during construction and later
//!   partitioned by the streaming phase.
//! * Every stored adjacency list is split into an **out-list** (edges where
//!   the vertex is the left endpoint of the input pair) followed by an
//!   **in-list**; a second index array marks the split (§3.2.3 "Building the
//!   Last Partition").
//! * Each sub-list carries a **size field** counting its valid entries.
//!   Removing an entry swaps it with the last valid entry and decrements the
//!   size — the constant-time *lazy edge removal* of §3.2.2.

use crate::degrees::DegreeStats;
use crate::edgelist::EdgeList;
use crate::error::GraphError;
use crate::types::{Edge, VertexId};

/// Pruned CSR with dual index arrays, size fields and an h2h edge buffer.
#[derive(Clone, Debug, PartialEq)]
pub struct PrunedCsr {
    stats: DegreeStats,
    /// `index_out[v]` = start of v's segment; `index_out[v+1]` is its end.
    index_out: Vec<u64>,
    /// `index_in[v]` = start of v's in-list (end of its out-list).
    index_in: Vec<u64>,
    /// Column array holding all low-degree adjacency entries.
    col: Vec<VertexId>,
    /// Valid entries in each out-list.
    out_size: Vec<u32>,
    /// Valid entries in each in-list.
    in_size: Vec<u32>,
    /// Externalized edges between two high-degree vertices. Empty when the
    /// builder streamed them to an external sink (the paper's edge file).
    h2h: Vec<Edge>,
    /// Number of h2h edges (kept separately so streaming builds know it).
    num_h2h: u64,
    /// Total number of input edges (in-memory + h2h).
    num_edges_total: u64,
}

impl PrunedCsr {
    /// Builds the pruned CSR of an in-memory edge list, buffering the h2h
    /// edges in [`PrunedCsr::h2h_edges`]. `tau` is the paper's threshold
    /// factor. This is [`PrunedCsr::build_from_passes_budgeted`] with one
    /// column sweep over the edge slice.
    ///
    /// The input must be a simple graph (no self-loops, no duplicate
    /// undirected edges); run [`EdgeList::canonicalize`] first if unsure.
    pub fn build(graph: &EdgeList, tau: f64) -> Result<Self, GraphError> {
        let mut h2h = Vec::new();
        let mut csr = Self::build_from_passes_budgeted(
            DegreeStats::new(graph, tau),
            || Ok(graph.edges.iter().copied().map(Ok)),
            |e| h2h.push(e),
            1,
        )?;
        csr.h2h = h2h;
        Ok(csr)
    }

    /// Builds the pruned CSR in two passes over an edge source (§4.1):
    /// pass 1 counts segment capacities, pass 2 inserts, writing out h2h
    /// edges as they are found — the paper's "write out edges between two
    /// high-degree vertices to an external file while building the CSR"
    /// (§3.2.1). `make_pass` yields one pass over the edges; it is called
    /// once per pass and every call must yield the same edge sequence. The
    /// source is an edge slice for [`PrunedCsr::build`] and the in-memory
    /// driver, or the binary edge file of [`crate::binfile::BinaryEdgeFile`]
    /// for the file pipeline, which never materializes an [`EdgeList`].
    /// h2h edges go to `h2h_sink` in input order; the returned CSR has an
    /// empty [`PrunedCsr::h2h_edges`] buffer but a correct
    /// [`PrunedCsr::num_inmem_edges`].
    ///
    /// The column-insertion phase is split into `column_passes` sequential
    /// sweeps — the spillable column construction of the bounded-memory
    /// pipeline (paper §4.2: the memory budget, not |E|, dictates what is
    /// held at once). Sweep `r` re-reads the edge source and inserts only
    /// entries owned by vertices in the `r`-th contiguous slice of the id
    /// space, so the transient insertion state shrinks from cursors over
    /// all of `V` to cursors over `|V| / column_passes` vertices
    /// (`8·⌈|V|/S⌉` bytes instead of `16·|V|`) — IO passes traded for peak
    /// memory. Per-vertex insertion order equals input order in every
    /// sweep, so the built CSR (and the h2h sequence, emitted during the
    /// first sweep only) is **bit-identical for any `column_passes`**,
    /// which the tests pin.
    ///
    /// Endpoint ids are validated against `stats.num_vertices()` on every
    /// pass (external sources are untrusted, and the file may even change
    /// between passes): an out-of-range id returns
    /// [`GraphError::VertexOutOfRange`] instead of panicking on an
    /// out-of-bounds index.
    pub fn build_from_passes_budgeted<I>(
        stats: DegreeStats,
        mut make_pass: impl FnMut() -> Result<I, GraphError>,
        mut h2h_sink: impl FnMut(Edge),
        column_passes: usize,
    ) -> Result<Self, GraphError>
    where
        I: Iterator<Item = Result<Edge, GraphError>>,
    {
        let n = stats.num_vertices() as usize;
        let check_range = |e: Edge| -> Result<Edge, GraphError> {
            let max = e.src.max(e.dst);
            if max as usize >= n {
                return Err(GraphError::VertexOutOfRange { vertex: max, num_vertices: n as u32 });
            }
            Ok(e)
        };
        let mut out_cap = vec![0u32; n];
        let mut in_cap = vec![0u32; n];
        let mut num_h2h = 0u64;
        let mut num_edges_total = 0u64;
        for e in make_pass()? {
            let e = check_range(e?)?;
            num_edges_total += 1;
            let src_high = stats.is_high(e.src);
            let dst_high = stats.is_high(e.dst);
            if src_high && dst_high {
                num_h2h += 1;
                continue;
            }
            if !src_high {
                out_cap[e.src as usize] += 1;
            }
            if !dst_high {
                in_cap[e.dst as usize] += 1;
            }
        }
        let (index_out, index_in) = Self::index_arrays(&out_cap, &in_cap);
        let total = index_out[n] as usize;
        let mut col = vec![0u32; total];
        let sweeps = column_passes.clamp(1, n.max(1));
        let seg_len = n.div_ceil(sweeps).max(1);
        // Cursors are *relative* to the vertex's list start (u32: a list
        // holds at most `u32` entries by construction), sized to one
        // segment, and reused across sweeps.
        let mut out_rel = vec![0u32; seg_len.min(n)];
        let mut in_rel = vec![0u32; seg_len.min(n)];
        let mut lo = 0usize;
        while lo < n || (n == 0 && lo == 0) {
            let hi = (lo + seg_len).min(n);
            let first_sweep = lo == 0;
            out_rel[..hi - lo].fill(0);
            in_rel[..hi - lo].fill(0);
            for e in make_pass()? {
                let e = check_range(e?)?;
                let src_high = stats.is_high(e.src);
                let dst_high = stats.is_high(e.dst);
                if src_high && dst_high {
                    if first_sweep {
                        h2h_sink(e);
                    }
                    continue;
                }
                let src = e.src as usize;
                if !src_high && (lo..hi).contains(&src) {
                    let rel = &mut out_rel[src - lo];
                    if *rel >= out_cap[src] {
                        // More entries than the counting pass saw: the
                        // source changed between passes. A typed error,
                        // not a scatter into another vertex's segment.
                        return Err(GraphError::TruncatedBinary { bytes: 0 });
                    }
                    col[(index_out[src] + *rel as u64) as usize] = e.dst;
                    *rel += 1;
                }
                let dst = e.dst as usize;
                if !dst_high && (lo..hi).contains(&dst) {
                    let rel = &mut in_rel[dst - lo];
                    if *rel >= in_cap[dst] {
                        return Err(GraphError::TruncatedBinary { bytes: 0 });
                    }
                    col[(index_in[dst] + *rel as u64) as usize] = e.src;
                    *rel += 1;
                }
            }
            lo = hi;
            if n == 0 {
                break;
            }
        }
        Ok(PrunedCsr {
            stats,
            index_out,
            index_in,
            col,
            out_size: out_cap,
            in_size: in_cap,
            h2h: Vec::new(),
            num_h2h,
            num_edges_total,
        })
    }

    /// Dual index arrays from per-vertex capacities: the segment of `v` is
    /// its out-list followed by its in-list.
    fn index_arrays(out_cap: &[u32], in_cap: &[u32]) -> (Vec<u64>, Vec<u64>) {
        let n = out_cap.len();
        let mut index_out = vec![0u64; n + 1];
        let mut index_in = vec![0u64; n];
        for v in 0..n {
            index_in[v] = index_out[v] + out_cap[v] as u64;
            index_out[v + 1] = index_in[v] + in_cap[v] as u64;
        }
        (index_out, index_in)
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> u32 {
        self.stats.num_vertices()
    }

    /// Total number of input edges (in-memory + h2h).
    #[inline]
    pub fn num_edges_total(&self) -> u64 {
        self.num_edges_total
    }

    /// Number of in-memory edges `|E \ E_h2h|` — the basis of NE++'s adapted
    /// capacity bound (§3.2.3).
    #[inline]
    pub fn num_inmem_edges(&self) -> u64 {
        self.num_edges_total - self.num_h2h
    }

    /// Number of externalized h2h edges (also correct when they were
    /// streamed to a sink rather than buffered).
    #[inline]
    pub fn num_h2h_edges(&self) -> u64 {
        self.num_h2h
    }

    /// The externalized high-high edges, in input order.
    #[inline]
    pub fn h2h_edges(&self) -> &[Edge] {
        &self.h2h
    }

    /// Degree statistics (full degrees and the V_h classification).
    #[inline]
    pub fn stats(&self) -> &DegreeStats {
        &self.stats
    }

    /// Whether `v` is high-degree (pruned).
    #[inline]
    pub fn is_high(&self, v: VertexId) -> bool {
        self.stats.is_high(v)
    }

    /// `(start, len)` of the valid out-list of `v` in the column array.
    #[inline]
    pub fn out_bounds(&self, v: VertexId) -> (u64, u32) {
        debug_assert!(v < self.num_vertices(), "vertex id {v} out of range");
        (self.index_out[v as usize], self.out_size[v as usize])
    }

    /// `(start, len)` of the valid in-list of `v` in the column array.
    #[inline]
    pub fn in_bounds(&self, v: VertexId) -> (u64, u32) {
        debug_assert!(v < self.num_vertices(), "vertex id {v} out of range");
        (self.index_in[v as usize], self.in_size[v as usize])
    }

    /// Column array entry at absolute position `idx`.
    #[inline]
    pub fn col(&self, idx: u64) -> VertexId {
        debug_assert!((idx as usize) < self.col.len(), "column position {idx} out of range");
        self.col[idx as usize]
    }

    /// Number of valid (unassigned) entries in `v`'s adjacency list.
    #[inline]
    pub fn valid_degree(&self, v: VertexId) -> u32 {
        debug_assert!(v < self.num_vertices(), "vertex id {v} out of range");
        self.out_size[v as usize] + self.in_size[v as usize]
    }

    /// Lazy removal (§3.2.2): swap the out-entry at `offset` with the last
    /// valid out-entry of `v` and shrink the size field. O(1).
    #[inline]
    pub fn swap_remove_out(&mut self, v: VertexId, offset: u32) {
        debug_assert!(v < self.num_vertices(), "vertex id {v} out of range");
        let start = self.index_out[v as usize];
        let size = &mut self.out_size[v as usize];
        debug_assert!(offset < *size);
        *size -= 1;
        self.col.swap((start + offset as u64) as usize, (start + *size as u64) as usize);
    }

    /// Lazy removal of the in-entry at `offset` of `v`. O(1).
    #[inline]
    pub fn swap_remove_in(&mut self, v: VertexId, offset: u32) {
        debug_assert!(v < self.num_vertices(), "vertex id {v} out of range");
        let start = self.index_in[v as usize];
        let size = &mut self.in_size[v as usize];
        debug_assert!(offset < *size);
        *size -= 1;
        self.col.swap((start + offset as u64) as usize, (start + *size as u64) as usize);
    }

    /// Valid out-neighbours of `v` (test/diagnostic convenience).
    pub fn out_neighbors(&self, v: VertexId) -> &[VertexId] {
        let (s, n) = self.out_bounds(v);
        debug_assert!(
            s + n as u64 <= self.col.len() as u64,
            "adjacency range within the column array"
        );
        &self.col[s as usize..(s + n as u64) as usize]
    }

    /// Valid in-neighbours of `v` (test/diagnostic convenience).
    pub fn in_neighbors(&self, v: VertexId) -> &[VertexId] {
        let (s, n) = self.in_bounds(v);
        debug_assert!(
            s + n as u64 <= self.col.len() as u64,
            "adjacency range within the column array"
        );
        &self.col[s as usize..(s + n as u64) as usize]
    }

    /// Valid neighbours (out then in) of `v`.
    pub fn neighbors(&self, v: VertexId) -> impl Iterator<Item = VertexId> + '_ {
        self.out_neighbors(v).iter().chain(self.in_neighbors(v).iter()).copied()
    }

    /// Total column-array capacity (the paper's Σ_{v∈V_l} d(v); Figure 4's
    /// "13 entries instead of 22").
    #[inline]
    pub fn column_entries(&self) -> u64 {
        self.col.len() as u64
    }

    /// Remaining valid column entries (shrinks as edges are removed).
    pub fn valid_column_entries(&self) -> u64 {
        (0..self.num_vertices()).map(|v| self.valid_degree(v) as u64).sum()
    }

    /// The paper's §4.2 memory accounting with `b_id = 4`, in bytes:
    /// `Σ_{v∈V_l} d(v)·b_id + 6·|V|·b_id + |V|·(k+1)/8`.
    pub fn memory_footprint_paper(&self, k: u32) -> u64 {
        let b_id = 4u64;
        let n = self.num_vertices() as u64;
        self.column_entries() * b_id + 6 * n * b_id + n * (k as u64 + 1) / 8
    }

    /// Actual heap bytes of this representation as implemented (u64 index
    /// arrays; the h2h buffer is conceptually on disk and excluded).
    pub fn heap_bytes(&self) -> usize {
        self.col.len() * 4
            + self.index_out.len() * 8
            + self.index_in.len() * 8
            + self.out_size.len() * 4
            + self.in_size.len() * 4
            + self.stats.degrees.len() * 4
            + self.stats.high.heap_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The 9-vertex, 11-edge example of Figures 3 and 4.
    fn figure4_graph() -> EdgeList {
        EdgeList::from_pairs([
            (0, 5),
            (0, 7),
            (1, 4),
            (1, 5),
            (2, 4),
            (3, 4),
            (4, 5),
            (5, 7),
            (5, 8),
            (6, 8),
            (7, 8),
        ])
    }

    #[test]
    fn figure4_pruning() {
        let g = figure4_graph();
        let csr = PrunedCsr::build(&g, 1.5).unwrap();
        // v4 and v5 are high-degree; their lists are pruned.
        assert!(csr.is_high(4) && csr.is_high(5));
        assert_eq!(csr.valid_degree(4), 0);
        assert_eq!(csr.valid_degree(5), 0);
        // "The column array of the pruned graph is much smaller
        //  (in the example, 13 entries instead of 22)".
        assert_eq!(csr.column_entries(), 13);
        // "To not lose the edge (v4, v5), we write it out into an external
        //  edge file".
        assert_eq!(csr.h2h_edges(), &[Edge::new(4, 5)]);
        assert_eq!(csr.num_inmem_edges(), 10);
        assert_eq!(csr.num_edges_total(), 11);
    }

    #[test]
    fn out_in_split_follows_input_direction() {
        let g = figure4_graph();
        let csr = PrunedCsr::build(&g, 1.5).unwrap();
        // v7 appears as left endpoint of (7,8) and right endpoint of (0,5->no),
        // (0,7) and (5,7).
        assert_eq!(csr.out_neighbors(7), &[8]);
        let mut inn: Vec<u32> = csr.in_neighbors(7).to_vec();
        inn.sort_unstable();
        assert_eq!(inn, vec![0, 5]);
        // Low-high edges remain reachable from the low side: v1's out-list
        // holds both 4 and 5 even though they are pruned.
        let mut out1: Vec<u32> = csr.out_neighbors(1).to_vec();
        out1.sort_unstable();
        assert_eq!(out1, vec![4, 5]);
    }

    #[test]
    fn swap_remove_out_is_constant_time_swap() {
        let g = EdgeList::from_pairs([(0, 1), (0, 2), (0, 3)]);
        let mut csr = PrunedCsr::build(&g, 100.0).unwrap();
        assert_eq!(csr.out_neighbors(0), &[1, 2, 3]);
        csr.swap_remove_out(0, 0); // removes entry "1", swapping in "3"
        assert_eq!(csr.out_neighbors(0), &[3, 2]);
        csr.swap_remove_out(0, 1);
        assert_eq!(csr.out_neighbors(0), &[3]);
        csr.swap_remove_out(0, 0);
        assert!(csr.out_neighbors(0).is_empty());
        // In-lists of the leaves are untouched.
        assert_eq!(csr.in_neighbors(2), &[0]);
    }

    #[test]
    fn no_high_vertices_when_tau_large() {
        let g = figure4_graph();
        let csr = PrunedCsr::build(&g, 1e9).unwrap();
        assert_eq!(csr.h2h_edges().len(), 0);
        assert_eq!(csr.column_entries(), 22);
        assert_eq!(csr.num_inmem_edges(), 11);
    }

    #[test]
    fn all_high_when_tau_zero_on_regular_graph() {
        // A 4-cycle: every vertex has degree 2 = mean degree; with tau = 0.5
        // the threshold is 1 < 2, so every vertex is high and every edge h2h.
        let g = EdgeList::from_pairs([(0, 1), (1, 2), (2, 3), (3, 0)]);
        let csr = PrunedCsr::build(&g, 0.5).unwrap();
        assert_eq!(csr.h2h_edges().len(), 4);
        assert_eq!(csr.column_entries(), 0);
        assert_eq!(csr.num_inmem_edges(), 0);
    }

    #[test]
    fn memory_footprint_formula() {
        let g = figure4_graph();
        let csr = PrunedCsr::build(&g, 1.5).unwrap();
        // 13 column entries * 4 + 6 * 9 * 4 + 9 * 33/8 at k=32.
        assert_eq!(csr.memory_footprint_paper(32), 13 * 4 + 6 * 9 * 4 + 9 * 33 / 8);
    }

    #[test]
    fn isolated_vertices_supported() {
        let g = EdgeList::with_vertices(10, [(0, 1)]).unwrap();
        let csr = PrunedCsr::build(&g, 10.0).unwrap();
        assert_eq!(csr.valid_degree(9), 0);
        assert_eq!(csr.num_vertices(), 10);
    }

    /// Deterministic pseudo-random pair stream for build tests (no hep-gen
    /// dependency here).
    fn pseudo_pairs(count: usize, n: u32, seed: u64) -> Vec<(u32, u32)> {
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        (0..count).map(|_| ((next() % n as u64) as u32, (next() % n as u64) as u32)).collect()
    }

    /// Reference adjacency of the pruned CSR, built naively: per-vertex
    /// out- and in-lists in input order, plus the h2h edges in input order.
    fn reference_lists(
        g: &EdgeList,
        stats: &DegreeStats,
    ) -> (Vec<Vec<u32>>, Vec<Vec<u32>>, Vec<Edge>) {
        let n = g.num_vertices as usize;
        let (mut out, mut inn, mut h2h) = (vec![Vec::new(); n], vec![Vec::new(); n], Vec::new());
        for e in &g.edges {
            let (src_high, dst_high) = (stats.is_high(e.src), stats.is_high(e.dst));
            if src_high && dst_high {
                h2h.push(*e);
                continue;
            }
            if !src_high {
                out[e.src as usize].push(e.dst);
            }
            if !dst_high {
                inn[e.dst as usize].push(e.src);
            }
        }
        (out, inn, h2h)
    }

    #[test]
    fn build_from_passes_matches_slice_build() {
        let g = figure4_graph();
        let stats = DegreeStats::new(&g, 1.5);
        let a = PrunedCsr::build(&g, 1.5).unwrap();
        let mut h2h_b = Vec::new();
        let mut b = PrunedCsr::build_from_passes_budgeted(
            stats,
            || Ok(g.edges.iter().copied().map(Ok)),
            |e| h2h_b.push(e),
            1,
        )
        .unwrap();
        // The sink sees exactly the edges the in-memory build buffers.
        assert_eq!(h2h_b, vec![Edge::new(4, 5)]);
        assert!(b.h2h_edges().is_empty(), "a sink build buffers nothing");
        assert_eq!(b.num_h2h_edges(), 1);
        assert_eq!(b.column_entries(), 13);
        b.h2h = h2h_b;
        assert_eq!(a, b);
        assert_eq!(b.num_edges_total(), g.num_edges());
    }

    #[test]
    fn budgeted_build_is_identical_for_any_sweep_count() {
        let mut g = EdgeList::from_pairs(pseudo_pairs(5_000, 600, 7));
        g.canonicalize();
        let stats = DegreeStats::new(&g, 1.5);
        let build = |sweeps: usize| {
            let mut h2h = Vec::new();
            let csr = PrunedCsr::build_from_passes_budgeted(
                stats.clone(),
                || Ok(g.edges.iter().copied().map(Ok)),
                |e| h2h.push(e),
                sweeps,
            )
            .unwrap();
            (csr, h2h)
        };
        let (base_csr, base_h2h) = build(1);
        // Every list holds its entries in input order, and h2h edges come
        // out in input order: NE++'s scan order depends on both.
        let (out, inn, h2h) = reference_lists(&g, &stats);
        for v in 0..base_csr.num_vertices() {
            assert_eq!(base_csr.out_neighbors(v), out[v as usize].as_slice(), "out-list of {v}");
            assert_eq!(base_csr.in_neighbors(v), inn[v as usize].as_slice(), "in-list of {v}");
        }
        assert_eq!(base_h2h, h2h);
        assert_eq!(base_csr.num_edges_total(), g.num_edges());
        let mut in_memory = PrunedCsr::build(&g, 1.5).unwrap();
        assert_eq!(in_memory.h2h_edges(), base_h2h.as_slice());
        in_memory.h2h.clear();
        assert_eq!(
            base_csr, in_memory,
            "single-sweep budgeted build must equal the in-memory build"
        );
        for sweeps in [2usize, 3, 7, 64, 601, usize::MAX] {
            let (csr, h2h) = build(sweeps);
            assert_eq!(csr, base_csr, "CSR diverged at {sweeps} sweeps");
            assert_eq!(h2h, base_h2h, "h2h order diverged at {sweeps} sweeps");
        }
    }

    #[test]
    fn budgeted_build_rejects_source_growing_between_passes() {
        // Pass 1 sees one edge, later passes see two for the same vertex:
        // without the cursor guard this would scatter into a neighbouring
        // vertex's column segment.
        let stats = DegreeStats::from_degrees(vec![2, 1, 1], 1.0, 10.0);
        let mut calls = 0;
        let err = PrunedCsr::build_from_passes_budgeted(
            stats,
            move || {
                calls += 1;
                let edges: Vec<Result<Edge, GraphError>> = if calls == 1 {
                    vec![Ok(Edge::new(0, 1))]
                } else {
                    vec![Ok(Edge::new(0, 1)), Ok(Edge::new(0, 2))]
                };
                Ok(edges.into_iter())
            },
            |_| {},
            1,
        )
        .unwrap_err();
        assert!(matches!(err, GraphError::TruncatedBinary { .. }), "got {err}");
    }

    #[test]
    fn build_from_passes_rejects_out_of_range_ids() {
        // Degree stats over 3 vertices, but the pass yields edge (0, 9):
        // a typed error, not an index-out-of-bounds panic.
        let stats = DegreeStats::from_degrees(vec![1, 1, 0], 1.0, 10.0);
        let err = PrunedCsr::build_from_passes_budgeted(
            stats.clone(),
            || Ok([Ok(Edge::new(0, 9))].into_iter()),
            |_| {},
            1,
        )
        .unwrap_err();
        assert!(
            matches!(err, GraphError::VertexOutOfRange { vertex: 9, num_vertices: 3 }),
            "got {err}"
        );
        // The second pass is validated too: pass 1 clean, pass 2 corrupt
        // (an external source can change between passes).
        let mut calls = 0;
        let err = PrunedCsr::build_from_passes_budgeted(
            stats,
            move || {
                calls += 1;
                let e = if calls == 1 { Edge::new(0, 1) } else { Edge::new(7, 1) };
                Ok([Ok(e)].into_iter())
            },
            |_| {},
            1,
        )
        .unwrap_err();
        assert!(matches!(err, GraphError::VertexOutOfRange { vertex: 7, .. }), "got {err}");
    }

    proptest! {
        /// Every edge is represented exactly once as (out-entry XOR h2h) and
        /// its reverse at most once as an in-entry.
        #[test]
        fn representation_is_complete(
            pairs in proptest::collection::vec((0u32..30, 0u32..30), 1..120),
            tau in 0.25f64..8.0,
        ) {
            let mut g = EdgeList::from_pairs(pairs);
            g.canonicalize();
            prop_assume!(!g.edges.is_empty());
            let csr = PrunedCsr::build(&g, tau).unwrap();
            // Each edge is "owned" by exactly one location: the out-entry of
            // a low src, else the in-entry of a low dst (src high), else h2h.
            let mut found = std::collections::HashMap::new();
            for v in 0..csr.num_vertices() {
                for &u in csr.out_neighbors(v) {
                    *found.entry(Edge::new(v, u).canonical()).or_insert(0u32) += 1;
                }
                for &u in csr.in_neighbors(v) {
                    if csr.is_high(u) {
                        *found.entry(Edge::new(u, v).canonical()).or_insert(0) += 1;
                    }
                }
            }
            for e in csr.h2h_edges() {
                *found.entry(e.canonical()).or_insert(0) += 1;
            }
            // Every input edge appears exactly once from the "owning" side.
            for e in &g.edges {
                prop_assert_eq!(found.get(&e.canonical()).copied(), Some(1), "edge {:?}", e);
            }
            prop_assert_eq!(found.len(), g.edges.len());
            // In-entries mirror out-entries for low-low edges.
            for v in 0..csr.num_vertices() {
                for &u in csr.in_neighbors(v) {
                    prop_assert!(!csr.is_high(v));
                    let e = Edge::new(u, v);
                    prop_assert!(g.edges.contains(&e), "in-entry without edge {:?}", e);
                }
            }
        }

        /// Column entries equal the sum of low-degree vertices' degrees.
        #[test]
        fn column_count_matches_formula(
            pairs in proptest::collection::vec((0u32..30, 0u32..30), 1..120),
            tau in 0.25f64..8.0,
        ) {
            let mut g = EdgeList::from_pairs(pairs);
            g.canonicalize();
            prop_assume!(!g.edges.is_empty());
            let csr = PrunedCsr::build(&g, tau).unwrap();
            let expected: u64 = csr.stats().low_degree_adjacency_entries()
                // low-high edges contribute 1 entry, not d(v)'s full share:
                // low_degree_adjacency_entries counts each incident edge of a
                // low vertex once, which is exactly one column entry.
                ;
            prop_assert_eq!(csr.column_entries(), expected);
        }
    }
}
