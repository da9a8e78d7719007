//! Headered on-disk binary edge lists with zero-copy streaming ingestion.
//!
//! The raw pair format of [`EdgeList::write_binary`] carries no vertex
//! count, so a consumer must materialize every edge before it can size a
//! single array. This module adds a self-describing container so HEP can
//! run its degree pass and CSR construction as **streaming passes over the
//! file** — the `EdgeList` never exists in memory (§4.1's "the graph
//! building phase reads the edge list twice", applied to disk).
//!
//! # On-disk layout
//!
//! Version 2 (written by [`BinaryEdgeFile::write`]):
//!
//! ```text
//! offset  size  field
//! 0       4     magic  b"HEPB"
//! 4       4     format version (little-endian u32, currently 2)
//! 8       4     num_vertices     (little-endian u32)
//! 12      8     num_edges        (little-endian u64)
//! 20      8     header checksum  (XXH64 of bytes 0..20, seed HEADER_CHECKSUM_SEED)
//! 28      8     payload checksum (XXH64 of the edge bytes, seed PAYLOAD_CHECKSUM_SEED)
//! 36      8·m   edges: (src: u32, dst: u32) little-endian pairs
//! ```
//!
//! Version 1 files (no checksums, 20-byte header, payload at offset 20)
//! remain readable; [`BinaryEdgeFile::write_v1`] still produces them for
//! compatibility tests. Both payload offsets are multiples of 4, so an
//! mmap'd payload is always `u32`-aligned.
//!
//! The checksums are computed with the workspace's own XXH64
//! ([`hep_ds::hasher`]) under distinct section seeds. The header checksum
//! is verified at [`BinaryEdgeFile::open`] **before** `num_vertices` /
//! `num_edges` are trusted, so a forged count can never reach an
//! allocation. The payload checksum is verified incrementally during every
//! complete pass and reported as the final item of the pass iterator —
//! corruption that still decodes as in-range pairs (payload bit flips) is
//! caught the first time the bytes are actually read.
//!
//! # Pass backends
//!
//! A pass reads through a [`PassSource`] — either [`BufferedSource`]
//! (`BufReader` `fill_buf`/`consume`) or [`MmapSource`] (a private
//! read-only file mapping; the OS pages edge data in and out, so a pass
//! over a file much larger than RAM needs no heap proportional to the
//! file). The backend is selected by [`IoMode`] — from the `HEP_IO_MODE`
//! environment variable by default, overridable per file with
//! [`BinaryEdgeFile::with_io_mode`] — and falls back to buffered reads
//! whenever mapping is unavailable (non-unix hosts, mapping failure).
//! Both backends feed the same decoder and are bit-identical in output
//! and in error behavior.

use crate::degrees::DegreeStats;
use crate::edgelist::EdgeList;
use crate::error::GraphError;
use crate::types::Edge;
use hep_ds::hasher::{hash64, Hasher64};
use std::fs::File;
use std::io::{BufRead, BufReader, BufWriter, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

/// The 4-byte magic opening every headered edge file.
pub const MAGIC: [u8; 4] = *b"HEPB";

/// Current format version (checksummed header).
pub const VERSION: u32 = 2;

/// The legacy, checksum-free format version. Still readable.
pub const VERSION_V1: u32 = 1;

/// Header length of a v1 file in bytes.
pub const V1_HEADER_LEN: u64 = 20;

/// Header length of a v2 file in bytes.
pub const V2_HEADER_LEN: u64 = 36;

/// Seed of the header-section checksum. Distinct from the payload seed so
/// a header digest can never validate a payload (and vice versa).
pub const HEADER_CHECKSUM_SEED: u64 = 0x4845_5042_0000_0002;

/// Seed of the payload-section checksum.
pub const PAYLOAD_CHECKSUM_SEED: u64 = 0x4845_5042_0000_0003;

/// Read-buffer capacity of a buffered streaming pass. One `fill_buf`
/// amortizes the syscall over ~128k edges.
const PASS_BUF: usize = 1 << 20;

/// How passes read the file. Resolved from the `HEP_IO_MODE` environment
/// variable (`auto` / `buffered` / `mmap`, case-insensitive) at first use;
/// [`BinaryEdgeFile::with_io_mode`] overrides it per file.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IoMode {
    /// Prefer a memory-mapped pass, fall back to buffered reads.
    Auto,
    /// Always use buffered reads.
    Buffered,
    /// Request a memory-mapped pass; falls back to buffered reads when
    /// mapping is unavailable (non-unix hosts, mapping failure).
    Mmap,
}

impl IoMode {
    /// The process-wide mode from `HEP_IO_MODE`, defaulting to
    /// [`IoMode::Auto`] when unset or unrecognized. Read once and cached.
    pub fn from_env() -> IoMode {
        static MODE: OnceLock<IoMode> = OnceLock::new();
        *MODE.get_or_init(|| {
            match hep_ds::env_registry::read("HEP_IO_MODE")
                .map(|v| v.to_ascii_lowercase())
                .as_deref()
            {
                Some("buffered") => IoMode::Buffered,
                Some("mmap") => IoMode::Mmap,
                _ => IoMode::Auto,
            }
        })
    }

    /// Parses a mode name (`auto` / `buffered` / `mmap`, case-insensitive).
    pub fn parse(s: &str) -> Option<IoMode> {
        match s.to_ascii_lowercase().as_str() {
            "auto" => Some(IoMode::Auto),
            "buffered" => Some(IoMode::Buffered),
            "mmap" => Some(IoMode::Mmap),
            _ => None,
        }
    }
}

/// Which backend a pass actually ended up on (after fallback).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IoBackend {
    /// `BufReader` over the file.
    Buffered,
    /// Read-only private memory mapping.
    Mmap,
}

/// A source of payload bytes for one pass. `fill` exposes the next chunk
/// of unread bytes (empty at end of data); `consume` marks a prefix of
/// that chunk as read. The contract mirrors [`BufRead`], which lets the
/// decoder work zero-copy against either backend.
pub trait PassSource: std::fmt::Debug + Send {
    /// The next chunk of unread payload bytes. An empty slice means no
    /// more data.
    fn fill(&mut self) -> std::io::Result<&[u8]>;

    /// Marks `n` bytes of the chunk last returned by `fill` as consumed.
    fn consume(&mut self, n: usize);

    /// Which backend this is (tests and reports).
    fn backend(&self) -> IoBackend;
}

/// Buffered [`PassSource`]: a `BufReader` positioned past the header.
#[derive(Debug)]
pub struct BufferedSource {
    reader: BufReader<File>,
}

impl BufferedSource {
    fn new(
        mut file: File,
        payload_offset: u64,
        buf_bytes: usize,
    ) -> std::io::Result<BufferedSource> {
        file.seek(SeekFrom::Start(payload_offset))?;
        Ok(BufferedSource { reader: BufReader::with_capacity(buf_bytes, file) })
    }
}

impl PassSource for BufferedSource {
    fn fill(&mut self) -> std::io::Result<&[u8]> {
        self.reader.fill_buf()
    }

    fn consume(&mut self, n: usize) {
        self.reader.consume(n);
    }

    fn backend(&self) -> IoBackend {
        IoBackend::Buffered
    }
}

#[cfg(all(unix, target_pointer_width = "64"))]
mod mmap_impl {
    //! A minimal read-only private file mapping. The workspace vendors no
    //! `libc` crate, but `std` already links the platform C library, so the
    //! two syscall wrappers are declared directly. Gated to 64-bit unix:
    //! there `off_t` is 64-bit and `size_t` matches `usize`, which the
    //! declarations below assume.
    use std::fs::File;
    use std::os::unix::io::AsRawFd;

    extern "C" {
        fn mmap(
            addr: *mut core::ffi::c_void,
            length: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut core::ffi::c_void;
        fn munmap(addr: *mut core::ffi::c_void, length: usize) -> i32;
    }

    const PROT_READ: i32 = 1;
    const MAP_PRIVATE: i32 = 2;

    /// An owned read-only mapping of a file's first `len` bytes.
    #[derive(Debug)]
    pub struct MmapRegion {
        ptr: std::ptr::NonNull<u8>,
        len: usize,
    }

    // SAFETY: the mapping is read-only and private; the region owns it
    // exclusively and nothing mutates through it, so moving it to another
    // thread is sound.
    unsafe impl Send for MmapRegion {}
    // SAFETY: all access is through `&self` over immutable PROT_READ
    // pages (a private mapping, so no other process writes them either);
    // concurrent readers cannot observe a data race.
    unsafe impl Sync for MmapRegion {}

    impl MmapRegion {
        /// Maps `len` bytes of `file` read-only. `None` when the kernel
        /// refuses (the caller falls back to buffered reads).
        pub fn map(file: &File, len: usize) -> Option<MmapRegion> {
            if len == 0 {
                return None;
            }
            // SAFETY: a fresh anonymous-address read-only private mapping
            // of an open fd; the result is checked against MAP_FAILED
            // before use.
            let ptr = unsafe {
                mmap(std::ptr::null_mut(), len, PROT_READ, MAP_PRIVATE, file.as_raw_fd(), 0)
            };
            if ptr as isize == -1 {
                return None;
            }
            Some(MmapRegion { ptr: std::ptr::NonNull::new(ptr.cast())?, len })
        }

        /// The mapped bytes.
        pub fn bytes(&self) -> &[u8] {
            // SAFETY: `ptr` is a live PROT_READ mapping of exactly `len`
            // bytes, unmapped only in Drop.
            unsafe { std::slice::from_raw_parts(self.ptr.as_ptr(), self.len) }
        }
    }

    impl Drop for MmapRegion {
        fn drop(&mut self) {
            // SAFETY: `ptr`/`len` are the exact values returned by mmap.
            unsafe {
                munmap(self.ptr.as_ptr().cast(), self.len);
            }
        }
    }
}

#[cfg(not(all(unix, target_pointer_width = "64")))]
mod mmap_impl {
    //! Stub for hosts without the mapping path: `map` always declines, so
    //! every pass falls back to buffered reads.
    use std::fs::File;

    /// Uninhabited: no mapping ever exists on this host.
    #[derive(Debug)]
    pub enum MmapRegion {}

    impl MmapRegion {
        pub fn map(_file: &File, _len: usize) -> Option<MmapRegion> {
            None
        }

        pub fn bytes(&self) -> &[u8] {
            match *self {}
        }
    }
}

/// Memory-mapped [`PassSource`]: the whole file is mapped read-only and
/// `fill` exposes the unread payload suffix as one contiguous slice. The
/// OS faults pages in on demand and may evict them behind the read cursor,
/// so a pass needs no heap proportional to the file.
#[derive(Debug)]
pub struct MmapSource {
    region: mmap_impl::MmapRegion,
    pos: usize,
}

impl MmapSource {
    /// Maps `file` (of current length `len`) and positions the cursor at
    /// `payload_offset`. `None` when mapping is unavailable.
    fn map(file: &File, len: u64, payload_offset: u64) -> Option<MmapSource> {
        let len = usize::try_from(len).ok()?;
        let region = mmap_impl::MmapRegion::map(file, len)?;
        let pos = usize::try_from(payload_offset).ok()?.min(len);
        Some(MmapSource { region, pos })
    }
}

impl PassSource for MmapSource {
    fn fill(&mut self) -> std::io::Result<&[u8]> {
        Ok(&self.region.bytes()[self.pos..])
    }

    fn consume(&mut self, n: usize) {
        self.pos = (self.pos + n).min(self.region.bytes().len());
    }

    fn backend(&self) -> IoBackend {
        IoBackend::Mmap
    }
}

/// A zero-copy view of `bytes` as little-endian `u32` words, available
/// only when the slice is 4-aligned and the host is little-endian (the
/// file format is little-endian, so on such hosts the words need no
/// byte-swapping). Returns `None` otherwise — callers must keep a byte
/// decoder fallback, which is what makes the view safe to use
/// opportunistically: mmap'd payloads are page-aligned and both header
/// lengths are multiples of 4, so the fast path is the common one.
pub fn u32_word_view(bytes: &[u8]) -> Option<&[u32]> {
    if cfg!(target_endian = "big") {
        return None;
    }
    // SAFETY: u32 has no invalid bit patterns and `align_to` guarantees
    // the middle slice is correctly aligned.
    let (prefix, words, _tail) = unsafe { bytes.align_to::<u32>() };
    if prefix.is_empty() {
        Some(words)
    } else {
        None
    }
}

/// A validated, headered binary edge file on disk. Opening checks the
/// magic, version, header checksum (v2) and that the payload length
/// matches `num_edges`; passes over the edges are streaming and
/// repeatable.
#[derive(Clone, Debug)]
pub struct BinaryEdgeFile {
    path: PathBuf,
    num_vertices: u32,
    num_edges: u64,
    version: u32,
    /// The payload checksum recorded in the header; `None` for v1 files,
    /// which carry none.
    payload_checksum: Option<u64>,
    io_mode: IoMode,
}

impl BinaryEdgeFile {
    /// Writes `graph` to `path` in the current (v2, checksummed) format.
    pub fn write(path: impl AsRef<Path>, graph: &EdgeList) -> Result<BinaryEdgeFile, GraphError> {
        let path = path.as_ref();
        // The payload checksum lives in the header, before the payload, so
        // it is computed in a pre-pass over the in-memory edges.
        let mut payload = Hasher64::with_seed(PAYLOAD_CHECKSUM_SEED);
        for e in &graph.edges {
            payload.write(&e.src.to_le_bytes());
            payload.write(&e.dst.to_le_bytes());
        }
        let payload_checksum = payload.finish();

        let mut head = [0u8; V1_HEADER_LEN as usize];
        head[0..4].copy_from_slice(&MAGIC);
        head[4..8].copy_from_slice(&VERSION.to_le_bytes());
        head[8..12].copy_from_slice(&graph.num_vertices.to_le_bytes());
        head[12..20].copy_from_slice(&graph.num_edges().to_le_bytes());
        let header_checksum = hash64(&head, HEADER_CHECKSUM_SEED);

        let mut w = BufWriter::new(File::create(path)?);
        w.write_all(&head)?;
        w.write_all(&header_checksum.to_le_bytes())?;
        w.write_all(&payload_checksum.to_le_bytes())?;
        for e in &graph.edges {
            w.write_all(&e.src.to_le_bytes())?;
            w.write_all(&e.dst.to_le_bytes())?;
        }
        w.flush()?;
        Ok(BinaryEdgeFile {
            path: path.to_path_buf(),
            num_vertices: graph.num_vertices,
            num_edges: graph.num_edges(),
            version: VERSION,
            payload_checksum: Some(payload_checksum),
            io_mode: IoMode::from_env(),
        })
    }

    /// Writes `graph` in the legacy v1 format (20-byte header, no
    /// checksums). Exists so compatibility with v1 readers and writers
    /// stays testable.
    pub fn write_v1(
        path: impl AsRef<Path>,
        graph: &EdgeList,
    ) -> Result<BinaryEdgeFile, GraphError> {
        let path = path.as_ref();
        let mut w = BufWriter::new(File::create(path)?);
        w.write_all(&MAGIC)?;
        w.write_all(&VERSION_V1.to_le_bytes())?;
        w.write_all(&graph.num_vertices.to_le_bytes())?;
        w.write_all(&graph.num_edges().to_le_bytes())?;
        for e in &graph.edges {
            w.write_all(&e.src.to_le_bytes())?;
            w.write_all(&e.dst.to_le_bytes())?;
        }
        w.flush()?;
        Ok(BinaryEdgeFile {
            path: path.to_path_buf(),
            num_vertices: graph.num_vertices,
            num_edges: graph.num_edges(),
            version: VERSION_V1,
            payload_checksum: None,
            io_mode: IoMode::from_env(),
        })
    }

    /// Opens and validates a headered edge file (v1 or v2).
    pub fn open(path: impl AsRef<Path>) -> Result<BinaryEdgeFile, GraphError> {
        let path = path.as_ref();
        let file = File::open(path)?;
        let len = file.metadata()?.len();
        let mut r = BufReader::new(file);
        let mut header = [0u8; V2_HEADER_LEN as usize];
        let read_to = |r: &mut BufReader<File>, buf: &mut [u8]| {
            std::io::Read::read_exact(r, buf)
                .map_err(|_| GraphError::BadHeader(format!("file too short ({len} bytes)")))
        };
        read_to(&mut r, &mut header[..8])?;
        if header[0..4] != MAGIC {
            return Err(GraphError::BadHeader("missing HEPB magic".into()));
        }
        let version = hep_ds::bytes::u32_le_at(&header, 4);
        let (header_len, payload_checksum) = match version {
            VERSION_V1 => {
                read_to(&mut r, &mut header[8..V1_HEADER_LEN as usize])?;
                (V1_HEADER_LEN, None)
            }
            VERSION => {
                read_to(&mut r, &mut header[8..V2_HEADER_LEN as usize])?;
                // Verify the header checksum before trusting a single
                // field: a forged num_edges must never reach the length
                // arithmetic below, let alone an allocation.
                let expected = hep_ds::bytes::u64_le_at(&header, 20);
                let actual = hash64(&header[..20], HEADER_CHECKSUM_SEED);
                if actual != expected {
                    return Err(GraphError::ChecksumMismatch {
                        section: "header",
                        expected,
                        actual,
                    });
                }
                let payload = hep_ds::bytes::u64_le_at(&header, 28);
                (V2_HEADER_LEN, Some(payload))
            }
            other => {
                return Err(GraphError::BadHeader(format!(
                    "unsupported version {other} (expected {VERSION_V1} or {VERSION})"
                )))
            }
        };
        let num_vertices = hep_ds::bytes::u32_le_at(&header, 8);
        let num_edges = hep_ds::bytes::u64_le_at(&header, 12);
        // Checked arithmetic: a forged `num_edges` near `u64::MAX / 8`
        // would otherwise wrap the expected length around to match a tiny
        // file, and the huge count would then reach
        // `Vec::with_capacity` in [`BinaryEdgeFile::load`]. (For v2 the
        // header checksum already rejects forgeries; v1 has only this.)
        let expected = num_edges
            .checked_mul(8)
            .and_then(|payload| payload.checked_add(header_len))
            .ok_or_else(|| {
                GraphError::BadHeader(format!(
                    "implausible num_edges {num_edges}: implied payload overflows u64"
                ))
            })?;
        if len != expected {
            return Err(GraphError::BadHeader(format!(
                "payload length mismatch: {len} bytes on disk, header implies {expected}"
            )));
        }
        Ok(BinaryEdgeFile {
            path: path.to_path_buf(),
            num_vertices,
            num_edges,
            version,
            payload_checksum,
            io_mode: IoMode::from_env(),
        })
    }

    /// Declared vertex-id space (vertex ids are `0..num_vertices`).
    #[inline]
    pub fn num_vertices(&self) -> u32 {
        self.num_vertices
    }

    /// Declared edge count.
    #[inline]
    pub fn num_edges(&self) -> u64 {
        self.num_edges
    }

    /// The on-disk path.
    #[inline]
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The file's format version (1 or 2).
    #[inline]
    pub fn format_version(&self) -> u32 {
        self.version
    }

    /// The payload checksum recorded in the header (`None` for v1 files).
    #[inline]
    pub fn payload_checksum(&self) -> Option<u64> {
        self.payload_checksum
    }

    /// This file's header length in bytes (also the payload offset).
    #[inline]
    pub fn header_len(&self) -> u64 {
        if self.version == VERSION_V1 {
            V1_HEADER_LEN
        } else {
            V2_HEADER_LEN
        }
    }

    /// The pass IO mode in effect for this file.
    #[inline]
    pub fn io_mode(&self) -> IoMode {
        self.io_mode
    }

    /// Overrides the pass IO mode for this file (the config-level override
    /// of the `HEP_IO_MODE` environment default).
    #[must_use]
    pub fn with_io_mode(mut self, mode: IoMode) -> BinaryEdgeFile {
        self.io_mode = mode;
        self
    }

    /// Starts a streaming pass over the edges. Each call reopens the file,
    /// so passes are repeatable (HEP's graph build takes several: the
    /// degree pass, then one per column sweep). For v2 files the pass
    /// verifies the payload checksum as it reads; the mismatch, if any, is
    /// the final item the iterator yields (and the error of
    /// [`PairPass::for_each_pair`]).
    pub fn pass(&self) -> Result<EdgePass, GraphError> {
        self.pass_with_buffer(PASS_BUF)
    }

    /// [`BinaryEdgeFile::pass`] reading `buf_bytes` per buffered chunk (the
    /// mmap backend has no chunks). Tests pick a size that is not a
    /// multiple of 8, so records straddle chunk boundaries.
    pub(crate) fn pass_with_buffer(&self, buf_bytes: usize) -> Result<EdgePass, GraphError> {
        let file = File::open(&self.path)?;
        let len = file.metadata()?.len();
        // Validated at open time; a shorter file now means it shrank
        // underneath us. Below the header that is a header error (matching
        // open's behavior); mid-payload the pass starts and ends in
        // `TruncatedBinary`, identically on both backends.
        if len < self.header_len() {
            return Err(GraphError::BadHeader(
                "file truncated below header size since open".into(),
            ));
        }
        let source: Box<dyn PassSource> = if self.io_mode == IoMode::Buffered {
            Box::new(BufferedSource::new(file, self.header_len(), buf_bytes)?)
        } else {
            match MmapSource::map(&file, len, self.header_len()) {
                Some(s) => Box::new(s),
                None => Box::new(BufferedSource::new(file, self.header_len(), buf_bytes)?),
            }
        };
        Ok(EdgePass {
            source,
            remaining: self.num_edges,
            carry: Vec::new(),
            hasher: self.payload_checksum.map(|_| Hasher64::with_seed(PAYLOAD_CHECKSUM_SEED)),
            expected_checksum: self.payload_checksum,
        })
    }

    /// One streaming pass computing [`DegreeStats`] at threshold factor
    /// `tau`, without materializing the edges. Out-of-range vertex ids are
    /// rejected (the header's `num_vertices` is a contract).
    pub fn degree_stats(&self, tau: f64) -> Result<DegreeStats, GraphError> {
        let n = self.num_vertices;
        let mut degrees = vec![0u32; n as usize];
        self.pass()?.for_each_pair(|src, dst| {
            let m = src.max(dst);
            if m >= n {
                return Err(GraphError::VertexOutOfRange { vertex: m, num_vertices: n });
            }
            degrees[src as usize] += 1;
            degrees[dst as usize] += 1;
            Ok(())
        })?;
        let mean = if n == 0 { 0.0 } else { 2.0 * self.num_edges as f64 / n as f64 };
        Ok(DegreeStats::from_degrees(degrees, mean, tau))
    }

    /// Materializes the whole file as an [`EdgeList`] (tests, diagnostics
    /// and consumers that need random access).
    pub fn load(&self) -> Result<EdgeList, GraphError> {
        let mut edges = Vec::with_capacity(self.num_edges as usize);
        for e in self.pass()? {
            edges.push(e?);
        }
        EdgeList::with_vertices(self.num_vertices, edges.into_iter().map(|e| (e.src, e.dst)))
    }
}

/// A streaming pass over a [`BinaryEdgeFile`]: decodes pairs directly from
/// the backend's buffer (or mapping); a pair split across two buffer fills
/// is reassembled in an 8-byte carry. For v2 files the payload bytes are
/// hashed as they are consumed and the digest is checked against the
/// header after the last edge.
#[derive(Debug)]
pub struct EdgePass {
    source: Box<dyn PassSource>,
    remaining: u64,
    carry: Vec<u8>,
    /// Running payload hash; `None` for v1 files.
    hasher: Option<Hasher64>,
    /// The header's payload checksum, `take`n once verified (or once the
    /// pass dies — a failed pass must not also report a bogus mismatch).
    expected_checksum: Option<u64>,
}

impl EdgePass {
    /// Which backend this pass reads through (after any fallback).
    pub fn backend(&self) -> IoBackend {
        self.source.backend()
    }

    /// Ends the pass: verifies the payload checksum if one is pending.
    /// Returns the mismatch error at most once.
    fn finish_checksum(&mut self) -> Option<GraphError> {
        let expected = self.expected_checksum.take()?;
        let actual = self.hasher.as_ref()?.finish();
        if actual != expected {
            return Some(GraphError::ChecksumMismatch { section: "payload", expected, actual });
        }
        None
    }

    /// Fuses the pass after a terminal error: no further edges, and no
    /// spurious checksum verdict from a partial hash.
    fn fuse(&mut self) {
        self.remaining = 0;
        self.expected_checksum = None;
    }
}

/// One pass over an edge sequence, handed to a callback pair by pair.
/// [`PrunedCsr::build_from_passes_budgeted`](crate::PrunedCsr::build_from_passes_budgeted)
/// takes its passes in this form, so the same builder runs over a file
/// ([`EdgePass`], decoded in whole chunks) and over an in-memory edge slice.
pub trait PairPass {
    /// Calls `f(src, dst)` for every edge in order, stopping at the first
    /// error `f` or the source returns.
    fn for_each_pair(
        self,
        f: impl FnMut(u32, u32) -> Result<(), GraphError>,
    ) -> Result<(), GraphError>;
}

impl PairPass for &[Edge] {
    fn for_each_pair(
        self,
        mut f: impl FnMut(u32, u32) -> Result<(), GraphError>,
    ) -> Result<(), GraphError> {
        self.iter().try_for_each(|e| f(e.src, e.dst))
    }
}

impl PairPass for EdgePass {
    /// Drains the whole pass, decoding whole buffer chunks through the
    /// aligned zero-copy `u32` view when available ([`u32_word_view`]) and
    /// byte-by-byte otherwise. Behavior — edge order, typed errors,
    /// end-of-pass checksum verification — is identical to iterating, and
    /// the two are pinned equal by tests.
    fn for_each_pair(
        mut self,
        mut f: impl FnMut(u32, u32) -> Result<(), GraphError>,
    ) -> Result<(), GraphError> {
        loop {
            if self.remaining == 0 {
                match self.finish_checksum() {
                    Some(err) => return Err(err),
                    None => return Ok(()),
                }
            }
            if !self.carry.is_empty() {
                // A record straddles a chunk boundary: take the slow
                // single-record path.
                match self.next() {
                    Some(Ok(e)) => f(e.src, e.dst)?,
                    Some(Err(err)) => return Err(err),
                    None => unreachable!("next() yields while remaining > 0"),
                }
                continue;
            }
            let buf = match self.source.fill() {
                Ok(b) => b,
                Err(e) => return Err(GraphError::Io(e)),
            };
            if buf.is_empty() {
                return Err(GraphError::TruncatedBinary { bytes: 0 });
            }
            let records = ((buf.len() / 8) as u64).min(self.remaining) as usize;
            if records == 0 {
                // Fewer than 8 bytes visible: the carry path reassembles.
                match self.next() {
                    Some(Ok(e)) => f(e.src, e.dst)?,
                    Some(Err(err)) => return Err(err),
                    None => unreachable!("next() yields while remaining > 0"),
                }
                continue;
            }
            let bytes = &buf[..records * 8];
            if let Some(h) = self.hasher.as_mut() {
                h.write(bytes);
            }
            match u32_word_view(bytes) {
                Some(words) => {
                    for pair in words.chunks_exact(2) {
                        f(pair[0], pair[1])?;
                    }
                }
                None => {
                    for rec in bytes.chunks_exact(8) {
                        f(hep_ds::bytes::u32_le_at(rec, 0), hep_ds::bytes::u32_le_at(rec, 4))?;
                    }
                }
            }
            self.source.consume(records * 8);
            self.remaining -= records as u64;
        }
    }
}

impl Iterator for EdgePass {
    type Item = Result<Edge, GraphError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.remaining == 0 {
            // The edges are all out; what may remain is the checksum
            // verdict, reported at most once.
            return self.finish_checksum().map(Err);
        }
        loop {
            let buf = match self.source.fill() {
                Ok(b) => b,
                Err(e) => {
                    // Fuse: an errored pass is dead. Without this, a
                    // consumer draining the iterator (`for`, `last`, ...)
                    // would receive the error forever and never terminate.
                    self.fuse();
                    return Some(Err(GraphError::Io(e)));
                }
            };
            if buf.is_empty() {
                // Validated length at open time; hitting EOF early means the
                // file changed underneath us. Fused for the same reason as
                // the IO arm: EOF is permanent.
                let bytes = self.carry.len();
                self.fuse();
                return Some(Err(GraphError::TruncatedBinary { bytes }));
            }
            if self.carry.is_empty() && buf.len() >= 8 {
                let e =
                    Edge::new(hep_ds::bytes::u32_le_at(buf, 0), hep_ds::bytes::u32_le_at(buf, 4));
                if let Some(h) = self.hasher.as_mut() {
                    h.write(&buf[..8]);
                }
                self.source.consume(8);
                self.remaining -= 1;
                return Some(Ok(e));
            }
            // Slow path: buffer boundary splits the record.
            let take = (8 - self.carry.len()).min(buf.len());
            self.carry.extend_from_slice(&buf[..take]);
            if let Some(h) = self.hasher.as_mut() {
                h.write(&buf[..take]);
            }
            self.source.consume(take);
            if self.carry.len() == 8 {
                let e = Edge::new(
                    hep_ds::bytes::u32_le_at(&self.carry, 0),
                    hep_ds::bytes::u32_le_at(&self.carry, 4),
                );
                self.carry.clear();
                self.remaining -= 1;
                return Some(Ok(e));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("hep_binfile_test_{}_{}", std::process::id(), name));
        p
    }

    fn sample() -> EdgeList {
        EdgeList::with_vertices(12, [(0u32, 5u32), (3, 4), (11, 2), (7, 7), (0, 1)]).unwrap()
    }

    #[test]
    fn roundtrip_preserves_header_and_edges() {
        let g = sample();
        let p = tmp("roundtrip");
        BinaryEdgeFile::write(&p, &g).unwrap();
        let f = BinaryEdgeFile::open(&p).unwrap();
        assert_eq!(f.num_vertices(), 12);
        assert_eq!(f.num_edges(), 5);
        assert_eq!(f.format_version(), VERSION);
        assert!(f.payload_checksum().is_some());
        let back = f.load().unwrap();
        std::fs::remove_file(&p).ok();
        assert_eq!(back, g);
    }

    #[test]
    fn v1_files_still_open_and_load() {
        let g = sample();
        let p = tmp("v1_compat");
        BinaryEdgeFile::write_v1(&p, &g).unwrap();
        let f = BinaryEdgeFile::open(&p).unwrap();
        assert_eq!(f.format_version(), VERSION_V1);
        assert_eq!(f.payload_checksum(), None);
        assert_eq!(f.header_len(), V1_HEADER_LEN);
        let back = f.load().unwrap();
        std::fs::remove_file(&p).ok();
        assert_eq!(back, g);
    }

    #[test]
    fn passes_are_repeatable() {
        let g = sample();
        let p = tmp("repeat");
        let f = BinaryEdgeFile::write(&p, &g).unwrap();
        let a: Vec<Edge> = f.pass().unwrap().collect::<Result<_, _>>().unwrap();
        let b: Vec<Edge> = f.pass().unwrap().collect::<Result<_, _>>().unwrap();
        std::fs::remove_file(&p).ok();
        assert_eq!(a, g.edges);
        assert_eq!(a, b);
    }

    #[test]
    fn mmap_and_buffered_backends_agree() {
        let g = sample();
        let p = tmp("backends");
        let f = BinaryEdgeFile::write(&p, &g).unwrap();
        let buffered = f.clone().with_io_mode(IoMode::Buffered);
        let mapped = f.clone().with_io_mode(IoMode::Mmap);
        assert_eq!(buffered.pass().unwrap().backend(), IoBackend::Buffered);
        #[cfg(all(unix, target_pointer_width = "64"))]
        assert_eq!(mapped.pass().unwrap().backend(), IoBackend::Mmap);
        let a: Vec<Edge> = buffered.pass().unwrap().collect::<Result<_, _>>().unwrap();
        let b: Vec<Edge> = mapped.pass().unwrap().collect::<Result<_, _>>().unwrap();
        let da = buffered.degree_stats(2.0).unwrap();
        let db = mapped.degree_stats(2.0).unwrap();
        std::fs::remove_file(&p).ok();
        assert_eq!(a, b);
        assert_eq!(da, db);
    }

    #[test]
    fn for_each_pair_matches_iterator() {
        let g = sample();
        let p = tmp("foreach");
        let f = BinaryEdgeFile::write(&p, &g).unwrap();
        let mut pairs = Vec::new();
        f.pass()
            .unwrap()
            .for_each_pair(|s, d| {
                pairs.push(Edge::new(s, d));
                Ok(())
            })
            .unwrap();
        let iterated: Vec<Edge> = f.pass().unwrap().collect::<Result<_, _>>().unwrap();
        std::fs::remove_file(&p).ok();
        assert_eq!(pairs, iterated);
    }

    #[test]
    fn degree_stats_match_in_memory_pass() {
        let g = sample();
        let p = tmp("degrees");
        let f = BinaryEdgeFile::write(&p, &g).unwrap();
        let from_file = f.degree_stats(2.0).unwrap();
        std::fs::remove_file(&p).ok();
        let in_memory = DegreeStats::new(&g, 2.0);
        assert_eq!(from_file, in_memory);
    }

    #[test]
    fn payload_bit_flip_is_a_checksum_mismatch() {
        let g = sample();
        let p = tmp("payload_flip");
        let f = BinaryEdgeFile::write(&p, &g).unwrap();
        let mut bytes = std::fs::read(&p).unwrap();
        // Flip a low bit of the first edge's src: still an in-range pair,
        // so only the checksum can catch it.
        bytes[V2_HEADER_LEN as usize] ^= 1;
        std::fs::write(&p, &bytes).unwrap();
        let collected: Result<Vec<Edge>, GraphError> = f.pass().unwrap().collect();
        let err = collected.unwrap_err();
        std::fs::remove_file(&p).ok();
        assert!(
            matches!(err, GraphError::ChecksumMismatch { section: "payload", .. }),
            "got {err}"
        );
    }

    #[test]
    fn header_field_flip_is_a_checksum_mismatch() {
        let g = sample();
        let p = tmp("header_flip");
        BinaryEdgeFile::write(&p, &g).unwrap();
        let mut bytes = std::fs::read(&p).unwrap();
        // Flip the high bit of num_edges: under v1 rules this would only
        // be caught by the length check (and a matching length forgery
        // would get through to allocation); the v2 header checksum rejects
        // it outright.
        bytes[19] ^= 0x80;
        std::fs::write(&p, &bytes).unwrap();
        let err = BinaryEdgeFile::open(&p).unwrap_err();
        std::fs::remove_file(&p).ok();
        assert!(matches!(err, GraphError::ChecksumMismatch { section: "header", .. }), "got {err}");
    }

    #[test]
    fn io_mode_parses_and_defaults() {
        assert_eq!(IoMode::parse("auto"), Some(IoMode::Auto));
        assert_eq!(IoMode::parse("Buffered"), Some(IoMode::Buffered));
        assert_eq!(IoMode::parse("MMAP"), Some(IoMode::Mmap));
        assert_eq!(IoMode::parse("turbo"), None);
    }

    #[test]
    fn u32_word_view_requires_alignment() {
        let buf = [0u8; 16];
        let (aligned, rest) = if (buf.as_ptr() as usize).is_multiple_of(4) {
            (&buf[..8], &buf[1..9])
        } else {
            (&buf[3..11], &buf[..8])
        };
        if cfg!(target_endian = "little") {
            assert_eq!(u32_word_view(aligned), Some(&[0u32, 0][..]));
            // The misaligned slice must be declined, never mis-read.
            assert_eq!(u32_word_view(rest), None);
        } else {
            assert_eq!(u32_word_view(aligned), None);
        }
    }

    #[test]
    fn rejects_bad_magic_version_and_length() {
        let p = tmp("badmagic");
        std::fs::write(&p, b"NOPE\x01\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00")
            .unwrap();
        assert!(matches!(BinaryEdgeFile::open(&p), Err(GraphError::BadHeader(_))));
        std::fs::remove_file(&p).ok();

        let p = tmp("badversion");
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.extend_from_slice(&7u32.to_le_bytes());
        bytes.extend_from_slice(&[0u8; 12]);
        std::fs::write(&p, bytes).unwrap();
        let err = BinaryEdgeFile::open(&p).unwrap_err();
        assert!(matches!(&err, GraphError::BadHeader(m) if m.contains("version")), "got {err}");
        std::fs::remove_file(&p).ok();

        let p = tmp("badlen");
        let g = sample();
        BinaryEdgeFile::write(&p, &g).unwrap();
        // Append a stray byte: payload no longer matches the header.
        {
            use std::io::Write as _;
            let mut f = std::fs::OpenOptions::new().append(true).open(&p).unwrap();
            f.write_all(&[0u8]).unwrap();
        }
        assert!(matches!(BinaryEdgeFile::open(&p), Err(GraphError::BadHeader(_))));
        std::fs::remove_file(&p).ok();

        let p = tmp("short");
        std::fs::write(&p, b"HE").unwrap();
        assert!(matches!(BinaryEdgeFile::open(&p), Err(GraphError::BadHeader(_))));
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn forged_overflowing_edge_count_is_rejected() {
        // num_edges = 2^61 makes `8 * num_edges` wrap to 0, so an
        // unchecked length check would accept a header-only file and
        // `load()` would attempt a 2^61-element allocation. Forged as a
        // v1 file — v2 rejects any field forgery at the header checksum,
        // which the second half of the test pins.
        let p = tmp("forged");
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.extend_from_slice(&VERSION_V1.to_le_bytes());
        bytes.extend_from_slice(&4u32.to_le_bytes());
        bytes.extend_from_slice(&(1u64 << 61).to_le_bytes());
        std::fs::write(&p, &bytes).unwrap();
        let err = BinaryEdgeFile::open(&p).unwrap_err();
        std::fs::remove_file(&p).ok();
        assert!(matches!(err, GraphError::BadHeader(_)), "got {err}");
        assert!(err.to_string().contains("overflow"), "got {err}");

        // The same forgery under v2 (without recomputing the checksum)
        // dies earlier, at header verification.
        let p = tmp("forged_v2");
        let g = sample();
        BinaryEdgeFile::write(&p, &g).unwrap();
        let mut bytes = std::fs::read(&p).unwrap();
        bytes[12..20].copy_from_slice(&(1u64 << 61).to_le_bytes());
        std::fs::write(&p, &bytes).unwrap();
        let err = BinaryEdgeFile::open(&p).unwrap_err();
        std::fs::remove_file(&p).ok();
        assert!(matches!(err, GraphError::ChecksumMismatch { section: "header", .. }), "got {err}");
    }

    #[test]
    fn shrunk_file_fails_passes_with_typed_errors() {
        let g = sample();
        let p = tmp("shrunk");
        let f = BinaryEdgeFile::write(&p, &g).unwrap();
        // Shrink below the header: starting a pass reports the bad header.
        let handle = std::fs::OpenOptions::new().write(true).open(&p).unwrap();
        handle.set_len(10).unwrap();
        assert!(matches!(f.pass().unwrap_err(), GraphError::BadHeader(_)));
        // Shrink mid-payload: the pass starts but ends in TruncatedBinary.
        BinaryEdgeFile::write(&p, &g).unwrap();
        let handle = std::fs::OpenOptions::new().write(true).open(&p).unwrap();
        handle.set_len(V2_HEADER_LEN + 8 * 2 + 3).unwrap();
        // `last()` drains the iterator: the error must fuse the pass (one
        // Err, then None), or this would loop forever. Buffered backend
        // forced — with mmap the shrink-after-map race is OS-level.
        let last = f.clone().with_io_mode(IoMode::Buffered).pass().unwrap().last().unwrap();
        std::fs::remove_file(&p).ok();
        assert!(matches!(last, Err(GraphError::TruncatedBinary { bytes: 3 })), "got {last:?}");
    }

    #[test]
    fn out_of_range_vertex_fails_degree_pass() {
        let p = tmp("oor");
        // Handcraft a v1 file whose header claims 3 vertices but holds
        // edge (0, 9) — v1 so no checksum recomputation is needed.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.extend_from_slice(&VERSION_V1.to_le_bytes());
        bytes.extend_from_slice(&3u32.to_le_bytes());
        bytes.extend_from_slice(&1u64.to_le_bytes());
        bytes.extend_from_slice(&0u32.to_le_bytes());
        bytes.extend_from_slice(&9u32.to_le_bytes());
        std::fs::write(&p, bytes).unwrap();
        let f = BinaryEdgeFile::open(&p).unwrap();
        let err = f.degree_stats(1.0).unwrap_err();
        std::fs::remove_file(&p).ok();
        assert!(matches!(err, GraphError::VertexOutOfRange { vertex: 9, .. }));
    }

    #[test]
    fn empty_graph_file_is_fine() {
        let g = EdgeList::with_vertices(4, std::iter::empty()).unwrap();
        let p = tmp("empty");
        let f = BinaryEdgeFile::write(&p, &g).unwrap();
        assert_eq!(f.pass().unwrap().count(), 0);
        let stats = f.degree_stats(1.0).unwrap();
        std::fs::remove_file(&p).ok();
        assert_eq!(stats.degrees, vec![0; 4]);
    }
}
