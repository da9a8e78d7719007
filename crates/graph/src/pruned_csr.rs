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

use crate::binfile::PairPass;
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
            || Ok(graph.edges.as_slice()),
            |e| h2h.push(e),
            1,
        )?;
        csr.h2h = h2h;
        Ok(csr)
    }

    /// Builds the pruned CSR from the degree table of a finished degree
    /// pass and one insertion pass per column sweep over an edge source
    /// (§4.1), writing out h2h edges as they are found — the paper's
    /// "write out edges between two high-degree vertices to an external
    /// file while building the CSR" (§3.2.1). `make_pass` yields one pass
    /// over the edges; it is called once per sweep and every call must
    /// yield the same edge sequence the degree table was counted from. The
    /// source is an edge slice for [`PrunedCsr::build`] and the in-memory
    /// driver, or an [`EdgePass`](crate::binfile::EdgePass) of
    /// [`crate::binfile::BinaryEdgeFile`] for the file pipeline, which never
    /// materializes an [`EdgeList`]. h2h edges go to `h2h_sink` in input
    /// order; the returned CSR has an empty [`PrunedCsr::h2h_edges`] buffer
    /// but a correct [`PrunedCsr::num_inmem_edges`].
    ///
    /// A low vertex stores every incident edge, so its segment is exactly
    /// `d(v)` entries and the segments are laid out from the degree table
    /// alone. Out-entries fill a segment from the front and in-entries
    /// from the back, counted by the size fields; a final sequential loop
    /// reverses each in-list back to input order, places `index_in`, and
    /// checks that every segment is exactly full.
    ///
    /// The insertion is split into `column_passes` sequential sweeps over
    /// contiguous slices of the id space: sweep `r` re-reads the source and
    /// inserts only entries owned by vertices of the `r`-th slice. The
    /// builder holds no per-sweep state, so sweeps do not lower the peak;
    /// they only re-read the source. Per-vertex insertion order
    /// equals input order in every sweep, so the built CSR (and the h2h
    /// sequence, emitted during the first sweep only) is **bit-identical
    /// for any `column_passes`**, which the tests pin.
    ///
    /// External sources are untrusted and may even change between passes.
    /// Endpoint ids are validated against `stats.num_vertices()` in every
    /// sweep ([`GraphError::VertexOutOfRange`]). A source that yields more
    /// entries for a vertex than its degree, or fewer, returns
    /// [`GraphError::TruncatedBinary`] instead of scattering into a
    /// neighbouring segment or leaving zero-filled entries behind.
    pub fn build_from_passes_budgeted<P: PairPass>(
        stats: DegreeStats,
        mut make_pass: impl FnMut() -> Result<P, GraphError>,
        mut h2h_sink: impl FnMut(Edge),
        column_passes: usize,
    ) -> Result<Self, GraphError> {
        let n = stats.num_vertices() as usize;
        let mut index_out = Vec::with_capacity(n + 1);
        let mut end = 0u64;
        index_out.push(end);
        for (v, &d) in stats.degrees.iter().enumerate() {
            if !stats.is_high(v as u32) {
                end += d as u64;
            }
            index_out.push(end);
        }
        let mut col = vec![0u32; end as usize];
        let mut out_size = vec![0u32; n];
        let mut in_size = vec![0u32; n];
        let mut num_h2h = 0u64;
        let mut num_edges_total = 0u64;
        // The capacity guards below keep every slot inside its segment; a
        // slot outside the column array is the same typed error.
        let truncated = || GraphError::TruncatedBinary { bytes: 0 };
        let seg_len = n.div_ceil(column_passes.clamp(1, n.max(1))).max(1);
        for lo in (0..n.max(1)).step_by(seg_len) {
            let owned = lo..(lo + seg_len).min(n);
            let first_sweep = lo == 0;
            make_pass()?.for_each_pair(|src, dst| {
                let max = src.max(dst);
                if max as usize >= n {
                    return Err(GraphError::VertexOutOfRange {
                        vertex: max,
                        num_vertices: n as u32,
                    });
                }
                let src_high = stats.is_high(src);
                let dst_high = stats.is_high(dst);
                if first_sweep {
                    num_edges_total += 1;
                    if src_high && dst_high {
                        num_h2h += 1;
                        h2h_sink(Edge::new(src, dst));
                    }
                }
                let (s, d) = (src as usize, dst as usize);
                if !src_high && owned.contains(&s) {
                    if out_size[s] + in_size[s] == stats.degrees[s] {
                        // More entries than the degree pass counted: the
                        // source changed. A typed error, not a scatter into
                        // the in-list or the next vertex's segment.
                        return Err(truncated());
                    }
                    let slot = index_out[s] + out_size[s] as u64;
                    *col.get_mut(slot as usize).ok_or_else(truncated)? = dst;
                    out_size[s] += 1;
                }
                if !dst_high && owned.contains(&d) {
                    if out_size[d] + in_size[d] == stats.degrees[d] {
                        return Err(truncated());
                    }
                    in_size[d] += 1;
                    let slot = index_out[d + 1] - in_size[d] as u64;
                    *col.get_mut(slot as usize).ok_or_else(truncated)? = src;
                }
                Ok(())
            })?;
        }
        let mut index_in = Vec::with_capacity(n);
        for v in 0..n {
            let split = index_out[v] + out_size[v] as u64;
            let list =
                col.get_mut(split as usize..index_out[v + 1] as usize).ok_or_else(truncated)?;
            if list.len() != in_size[v] as usize {
                // Fewer entries than the degree pass counted.
                return Err(truncated());
            }
            list.reverse();
            index_in.push(split);
        }
        Ok(PrunedCsr {
            stats,
            index_out,
            index_in,
            col,
            out_size,
            in_size,
            h2h: Vec::new(),
            num_h2h,
            num_edges_total,
        })
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
    use crate::binfile::{BinaryEdgeFile, IoMode};
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
            || Ok(g.edges.as_slice()),
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

    fn tmp_file(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("hep_pruned_csr_{}_{name}", std::process::id()))
    }

    /// Builds over `make_pass` with `sweeps` column sweeps, collecting the
    /// sink's h2h edges.
    fn build_sink<P: PairPass>(
        stats: &DegreeStats,
        make_pass: impl FnMut() -> Result<P, GraphError>,
        sweeps: usize,
    ) -> Result<(PrunedCsr, Vec<Edge>), GraphError> {
        let mut h2h = Vec::new();
        let csr = PrunedCsr::build_from_passes_budgeted(
            stats.clone(),
            make_pass,
            |e| h2h.push(e),
            sweeps,
        )?;
        Ok((csr, h2h))
    }

    /// Every list holds its entries in input order, and h2h edges come out
    /// in input order: NE++'s scan order depends on both.
    fn assert_matches_reference(g: &EdgeList, stats: &DegreeStats, csr: &PrunedCsr, h2h: &[Edge]) {
        let (out, inn, ref_h2h) = reference_lists(g, stats);
        for v in 0..csr.num_vertices() {
            assert_eq!(csr.out_neighbors(v), out[v as usize].as_slice(), "out-list of {v}");
            assert_eq!(csr.in_neighbors(v), inn[v as usize].as_slice(), "in-list of {v}");
        }
        assert_eq!(h2h, ref_h2h.as_slice());
        assert_eq!(csr.num_edges_total(), g.num_edges());
        assert_eq!(csr.num_h2h_edges(), ref_h2h.len() as u64);
    }

    #[test]
    fn budgeted_build_is_identical_for_any_sweep_count() {
        let mut g = EdgeList::from_pairs(pseudo_pairs(5_000, 600, 7));
        g.canonicalize();
        let stats = DegreeStats::new(&g, 1.5);
        let slice_pass = || Ok(g.edges.as_slice());
        let (base_csr, base_h2h) = build_sink(&stats, slice_pass, 1).unwrap();
        assert_matches_reference(&g, &stats, &base_csr, &base_h2h);
        let mut in_memory = PrunedCsr::build(&g, 1.5).unwrap();
        assert_eq!(in_memory.h2h_edges(), base_h2h.as_slice());
        in_memory.h2h.clear();
        assert_eq!(
            base_csr, in_memory,
            "single-sweep budgeted build must equal the in-memory build"
        );
        for sweeps in [2usize, 3, 7, 64, 601, usize::MAX] {
            let (csr, h2h) = build_sink(&stats, slice_pass, sweeps).unwrap();
            assert_eq!(csr, base_csr, "CSR diverged at {sweeps} sweeps");
            assert_eq!(h2h, base_h2h, "h2h order diverged at {sweeps} sweeps");
        }

        // The same build over a HEPB file, through both pass backends.
        let path = tmp_file("sweeps");
        let file = BinaryEdgeFile::write(&path, &g).unwrap();
        for mode in [IoMode::Buffered, IoMode::Mmap] {
            let file = file.clone().with_io_mode(mode);
            for sweeps in [1usize, 2, 7] {
                let (csr, h2h) = build_sink(&stats, || file.pass(), sweeps).unwrap();
                assert_eq!(csr, base_csr, "{mode:?} file build diverged at {sweeps} sweeps");
                assert_eq!(h2h, base_h2h, "{mode:?} h2h order diverged at {sweeps} sweeps");
            }
        }

        // A tampered payload that keeps every degree (one record's ids
        // swapped) passes every range and capacity check; only the payload
        // checksum catches it, and the build must return that error.
        let mut bytes = std::fs::read(&path).unwrap();
        let rec = crate::binfile::V2_HEADER_LEN as usize + 8 * 100;
        let (src, dst) = (bytes[rec..rec + 4].to_vec(), bytes[rec + 4..rec + 8].to_vec());
        assert_ne!(src, dst);
        bytes[rec..rec + 4].copy_from_slice(&dst);
        bytes[rec + 4..rec + 8].copy_from_slice(&src);
        std::fs::write(&path, &bytes).unwrap();
        for mode in [IoMode::Buffered, IoMode::Mmap] {
            let file = file.clone().with_io_mode(mode);
            for sweeps in [1usize, 2] {
                let err = build_sink(&stats, || file.pass(), sweeps).unwrap_err();
                assert!(
                    matches!(err, GraphError::ChecksumMismatch { section: "payload", .. }),
                    "{mode:?} at {sweeps} sweeps: got {err}"
                );
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn buffered_build_with_records_straddling_chunks_matches_reference() {
        // A read chunk of 1 MiB + 4 bytes ends every chunk half-way through
        // a record, so each chunk boundary takes the reassembly path.
        let chunk = (1 << 20) + 4;
        let mut g = EdgeList::from_pairs(pseudo_pairs(150_000, 20_000, 11));
        g.canonicalize();
        assert!(g.num_edges() * 8 > chunk as u64, "the payload must span two chunks");
        let stats = DegreeStats::new(&g, 2.0);
        let path = tmp_file("straddle");
        let file = BinaryEdgeFile::write(&path, &g).unwrap().with_io_mode(IoMode::Buffered);
        for sweeps in [1usize, 2] {
            let (csr, h2h) = build_sink(&stats, || file.pass_with_buffer(chunk), sweeps).unwrap();
            assert_matches_reference(&g, &stats, &csr, &h2h);
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn build_rejects_source_short_of_the_degree_table() {
        // The degree table counts (0,1), (0,2), but the pass yields only
        // (0,1): vertex 0's segment and vertex 2's in-list stay short. A
        // typed error, not a CSR with zero-filled phantom entries.
        let stats = DegreeStats::from_degrees(vec![2, 1, 1], 1.0, 10.0);
        let short = [Edge::new(0, 1)];
        for sweeps in [1usize, 2] {
            let err = build_sink(&stats, || Ok(&short[..]), sweeps).unwrap_err();
            assert!(matches!(err, GraphError::TruncatedBinary { .. }), "got {err}");
        }
    }

    #[test]
    fn budgeted_build_rejects_source_growing_between_passes() {
        // Sweep 1 (vertices 0..2) sees the two edges the degree table was
        // counted from; sweep 2 (vertex 2) sees a third edge into vertex 2.
        // Without the capacity guard it would scatter into vertex 2's
        // out-list or past its segment.
        let stats = DegreeStats::from_degrees(vec![1, 2, 1], 1.0, 10.0);
        let first: &[Edge] = &[Edge::new(0, 1), Edge::new(1, 2)];
        let grown: &[Edge] = &[Edge::new(0, 1), Edge::new(1, 2), Edge::new(0, 2)];
        let mut calls = 0;
        let err = build_sink(
            &stats,
            move || {
                calls += 1;
                Ok(if calls == 1 { first } else { grown })
            },
            2,
        )
        .unwrap_err();
        assert!(matches!(err, GraphError::TruncatedBinary { .. }), "got {err}");
    }

    #[test]
    fn build_from_passes_rejects_out_of_range_ids() {
        // Degree stats over 3 vertices, but the pass yields edge (0, 9):
        // a typed error, not an index-out-of-bounds panic.
        let stats = DegreeStats::from_degrees(vec![1, 1, 0], 1.0, 10.0);
        let bad = [Edge::new(0, 9)];
        let err = build_sink(&stats, || Ok(&bad[..]), 1).unwrap_err();
        assert!(
            matches!(err, GraphError::VertexOutOfRange { vertex: 9, num_vertices: 3 }),
            "got {err}"
        );
        // The second sweep is validated too: sweep 1 clean, sweep 2
        // corrupt (an external source can change between passes).
        let (clean, corrupt): (&[Edge], &[Edge]) = (&[Edge::new(0, 1)], &[Edge::new(7, 1)]);
        let mut calls = 0;
        let err = build_sink(
            &stats,
            move || {
                calls += 1;
                Ok(if calls == 1 { clean } else { corrupt })
            },
            2,
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
