//! Runtime-dispatched kernels for the word-level set operations that
//! dominate HEP's hot loops.
//!
//! Phase 1's Figure-5 cleanup bookkeeping, phase 2's replica probes,
//! `replication_factor`, and the hypergraph min-max tie-break all bottom
//! out in a handful of primitives over `&[u64]` bit words:
//! popcounts, AND/OR/AND-NOT merges, and sparse membership counts. This
//! module provides each primitive twice — a portable word-level scalar
//! path (the exact code the callers used to inline) and an explicit
//! `std::arch` AVX2 path — and selects between them **once** at first
//! use:
//!
//! 1. `HEP_KERNEL=scalar` forces the portable path; `HEP_KERNEL=avx2`
//!    requests the SIMD path (falling back to scalar, with a warning, if
//!    the CPU lacks AVX2); `HEP_KERNEL=auto` (or unset) probes with
//!    [`std::arch::is_x86_feature_detected`].
//! 2. The resolved choice is cached in an atomic, so steady-state
//!    dispatch is one relaxed load and a branch per call — noise next to
//!    the memory traffic of the loops themselves.
//!
//! **Invariant: every kernel is bit-identical to the scalar path at any
//! input width, including ragged (non-multiple-of-256-bit) tails.** The
//! operations are integer ANDs/ORs/popcounts, so lane width cannot change
//! results; `tests/kernel_equivalence.rs` pins this property across
//! random widths and contents, making "bit-identical at any instruction
//! set" a sibling of the repo's "bit-identical at any thread count" rule.
//!
//! Tests and benches that need *both* paths in one process use
//! [`with_kernel`] (serialized by a private lock, mirroring
//! `hep_par::with_threads`) or the `*_with` variants that take an
//! explicit [`Kernel`].

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Mutex;

/// Instruction-set flavor of the kernel implementations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kernel {
    /// Portable word-at-a-time code; the reference semantics.
    Scalar,
    /// 256-bit `std::arch` intrinsics (x86_64 with AVX2 only).
    Avx2,
}

const UNRESOLVED: u8 = 0;
const FORCED_SCALAR: u8 = 1;
const FORCED_AVX2: u8 = 2;

/// Resolved dispatch choice; `UNRESOLVED` until the first kernel call.
static ACTIVE: AtomicU8 = AtomicU8::new(UNRESOLVED);
/// Serializes [`with_kernel`] overrides (mirrors `hep_par::with_threads`).
static OVERRIDE_LOCK: Mutex<()> = Mutex::new(());

/// Whether this CPU can run the AVX2 kernels.
#[inline]
pub fn avx2_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

fn resolve_from_env() -> u8 {
    let choice = crate::env_registry::read("HEP_KERNEL").unwrap_or_default();
    match choice.as_str() {
        "scalar" => FORCED_SCALAR,
        "avx2" => {
            if avx2_available() {
                FORCED_AVX2
            } else {
                eprintln!("HEP_KERNEL=avx2 requested but CPU lacks AVX2; using scalar kernels");
                FORCED_SCALAR
            }
        }
        "" | "auto" => {
            if avx2_available() {
                FORCED_AVX2
            } else {
                FORCED_SCALAR
            }
        }
        other => {
            eprintln!("unknown HEP_KERNEL={other:?} (want scalar|avx2|auto); auto-detecting");
            if avx2_available() {
                FORCED_AVX2
            } else {
                FORCED_SCALAR
            }
        }
    }
}

/// The kernel flavor in effect, resolving `HEP_KERNEL` on first call.
#[inline]
pub fn active() -> Kernel {
    match ACTIVE.load(Ordering::Relaxed) {
        FORCED_SCALAR => Kernel::Scalar,
        FORCED_AVX2 => Kernel::Avx2,
        _ => {
            let resolved = resolve_from_env();
            // A racing resolve computes the same value; last store wins.
            ACTIVE.store(resolved, Ordering::Relaxed);
            if resolved == FORCED_AVX2 {
                Kernel::Avx2
            } else {
                Kernel::Scalar
            }
        }
    }
}

/// Runs `f` with the dispatched kernel forced to `kernel`, restoring the
/// previous state afterwards. Overrides are serialized by a lock so
/// concurrent `with_kernel` calls cannot interleave; because every kernel
/// is bit-identical to scalar, unrelated threads that observe a forced
/// kernel mid-test still compute identical results.
pub fn with_kernel<T>(kernel: Kernel, f: impl FnOnce() -> T) -> T {
    let _guard = crate::sync::lock(&OVERRIDE_LOCK);
    let prev = ACTIVE.load(Ordering::Relaxed);
    let forced = match kernel {
        Kernel::Scalar => FORCED_SCALAR,
        Kernel::Avx2 => FORCED_AVX2,
    };
    ACTIVE.store(forced, Ordering::Relaxed);
    struct Restore(u8);
    impl Drop for Restore {
        fn drop(&mut self) {
            ACTIVE.store(self.0, Ordering::Relaxed);
        }
    }
    let _restore = Restore(prev);
    f()
}

/// True when `kernel` can actually execute on this CPU; `*_with` calls
/// for an unavailable flavor run the scalar path instead.
#[inline]
fn runnable_avx2(kernel: Kernel) -> bool {
    kernel == Kernel::Avx2 && avx2_available()
}

// ---------------------------------------------------------------------------
// Public dispatched entry points. Each has a `*_with` twin taking an
// explicit Kernel so benches can produce scalar-vs-dispatched columns and
// the property suite can compare flavors directly.
// ---------------------------------------------------------------------------

/// Total set bits in `words`.
#[inline]
pub fn count_ones(words: &[u64]) -> usize {
    count_ones_with(active(), words)
}

/// [`count_ones`] with an explicit kernel flavor.
pub fn count_ones_with(kernel: Kernel, words: &[u64]) -> usize {
    if runnable_avx2(kernel) {
        // SAFETY: AVX2 support was verified by `runnable_avx2`.
        #[cfg(target_arch = "x86_64")]
        unsafe {
            return avx2::count_ones(words);
        }
    }
    scalar::count_ones(words)
}

/// Set bits in `a & b` over the common prefix of the two slices.
#[inline]
pub fn intersection_count(a: &[u64], b: &[u64]) -> usize {
    intersection_count_with(active(), a, b)
}

/// [`intersection_count`] with an explicit kernel flavor.
pub fn intersection_count_with(kernel: Kernel, a: &[u64], b: &[u64]) -> usize {
    if runnable_avx2(kernel) {
        // SAFETY: AVX2 support was verified by `runnable_avx2`.
        #[cfg(target_arch = "x86_64")]
        unsafe {
            return avx2::intersection_count(a, b);
        }
    }
    scalar::intersection_count(a, b)
}

/// In-place `dst |= src` over the common prefix.
#[inline]
pub fn union_with(dst: &mut [u64], src: &[u64]) {
    union_with_with(active(), dst, src)
}

/// [`union_with`] with an explicit kernel flavor.
pub fn union_with_with(kernel: Kernel, dst: &mut [u64], src: &[u64]) {
    if runnable_avx2(kernel) {
        // SAFETY: AVX2 support was verified by `runnable_avx2`.
        #[cfg(target_arch = "x86_64")]
        unsafe {
            return avx2::union_with(dst, src);
        }
    }
    scalar::union_with(dst, src)
}

/// In-place `dst &= !src` over the common prefix.
#[inline]
pub fn difference_with(dst: &mut [u64], src: &[u64]) {
    difference_with_with(active(), dst, src)
}

/// [`difference_with`] with an explicit kernel flavor.
pub fn difference_with_with(kernel: Kernel, dst: &mut [u64], src: &[u64]) {
    if runnable_avx2(kernel) {
        // SAFETY: AVX2 support was verified by `runnable_avx2`.
        #[cfg(target_arch = "x86_64")]
        unsafe {
            return avx2::difference_with(dst, src);
        }
    }
    scalar::difference_with(dst, src)
}

/// Set bits in the word-wise OR of a family of equal-length slices,
/// without materializing the union. Empty family counts zero.
#[inline]
pub fn union_count(sets: &[&[u64]]) -> usize {
    union_count_with(active(), sets)
}

/// [`union_count`] with an explicit kernel flavor.
pub fn union_count_with(kernel: Kernel, sets: &[&[u64]]) -> usize {
    debug_assert!(
        sets.windows(2).all(|w| w[0].len() == w[1].len()),
        "union_count requires equal-length slices"
    );
    if runnable_avx2(kernel) {
        // SAFETY: AVX2 support was verified by `runnable_avx2`.
        #[cfg(target_arch = "x86_64")]
        unsafe {
            return avx2::union_count(sets);
        }
    }
    scalar::union_count(sets)
}

/// How many ids in `ids` have their bit set in `words` (out-of-range ids
/// count as clear). The hypergraph min-max tie-break's pins-vs-replica
/// overlap is this sparse membership count.
#[inline]
pub fn count_members(words: &[u64], ids: &[u32]) -> usize {
    count_members_with(active(), words, ids)
}

/// [`count_members`] with an explicit kernel flavor.
pub fn count_members_with(kernel: Kernel, words: &[u64], ids: &[u32]) -> usize {
    if runnable_avx2(kernel) {
        // SAFETY: AVX2 support was verified by `runnable_avx2`.
        #[cfg(target_arch = "x86_64")]
        unsafe {
            return avx2::count_members(words, ids);
        }
    }
    scalar::count_members(words, ids)
}

/// Portable word-level reference implementations. These are the exact
/// loops the callers inlined before the kernel layer existed; the AVX2
/// paths must match them bit-for-bit.
pub mod scalar {
    /// Total set bits in `words`.
    pub fn count_ones(words: &[u64]) -> usize {
        words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Set bits in `a & b` over the common prefix.
    pub fn intersection_count(a: &[u64], b: &[u64]) -> usize {
        a.iter().zip(b.iter()).map(|(x, y)| (x & y).count_ones() as usize).sum()
    }

    /// In-place `dst |= src` over the common prefix.
    pub fn union_with(dst: &mut [u64], src: &[u64]) {
        for (a, b) in dst.iter_mut().zip(src.iter()) {
            *a |= b;
        }
    }

    /// In-place `dst &= !src` over the common prefix.
    pub fn difference_with(dst: &mut [u64], src: &[u64]) {
        for (a, b) in dst.iter_mut().zip(src.iter()) {
            *a &= !b;
        }
    }

    /// Set bits in the word-wise OR across `sets`.
    pub fn union_count(sets: &[&[u64]]) -> usize {
        let Some(first) = sets.first() else {
            return 0;
        };
        let mut count = 0usize;
        for w in 0..first.len() {
            let mut or = 0u64;
            for s in sets {
                or |= s[w];
            }
            count += or.count_ones() as usize;
        }
        count
    }

    /// Membership count of `ids` in the bit words (out-of-range = clear).
    pub fn count_members(words: &[u64], ids: &[u32]) -> usize {
        ids.iter()
            .filter(|&&id| {
                let w = id as usize >> 6;
                w < words.len() && (words[w] >> (id & 63)) & 1 == 1
            })
            .count()
    }
}

/// Explicit AVX2 (`std::arch`) implementations. 256-bit unaligned loads
/// over 4-word blocks with scalar ragged tails; popcounts use the
/// nibble-LUT `_mm256_shuffle_epi8` + `_mm256_sad_epu8` idiom. All
/// functions carry `#[target_feature(enable = "avx2")]` and are safe to
/// call only after AVX2 detection.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use std::arch::x86_64::*;

    /// Per-64-bit-lane popcount of `v` via the nibble lookup table.
    // SAFETY (to call): AVX2 must be available (`target_feature` makes the
    // intrinsics instruction-safe then); register-only, no memory access.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn popcount_lanes(v: __m256i) -> __m256i {
        let lut = _mm256_setr_epi8(
            0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4, 0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2,
            3, 3, 4,
        );
        let low_mask = _mm256_set1_epi8(0x0f);
        let lo = _mm256_and_si256(v, low_mask);
        let hi = _mm256_and_si256(_mm256_srli_epi16(v, 4), low_mask);
        let cnt = _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo), _mm256_shuffle_epi8(lut, hi));
        // Sum the 8 byte-counts of each 64-bit lane into that lane.
        _mm256_sad_epu8(cnt, _mm256_setzero_si256())
    }

    /// Horizontal sum of the four 64-bit lanes.
    // SAFETY (to call): AVX2 must be available. The only memory access is
    // an unaligned 32-byte store into the local `lanes` array, which is
    // exactly 32 bytes long and exclusively owned by this frame.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn hsum_epi64(v: __m256i) -> u64 {
        let mut lanes = [0u64; 4];
        _mm256_storeu_si256(lanes.as_mut_ptr().cast(), v);
        lanes[0].wrapping_add(lanes[1]).wrapping_add(lanes[2]).wrapping_add(lanes[3])
    }

    // SAFETY (to call): AVX2 must be available. Each unaligned 32-byte
    // load reads `words[4i..4i + 4]` with `i < blocks = words.len() / 4`,
    // so every access stays inside the borrowed slice; the ragged tail is
    // read through safe indexing.
    #[target_feature(enable = "avx2")]
    pub unsafe fn count_ones(words: &[u64]) -> usize {
        let blocks = words.len() / 4;
        let ptr: *const __m256i = words.as_ptr().cast();
        let mut acc = _mm256_setzero_si256();
        for i in 0..blocks {
            acc = _mm256_add_epi64(acc, popcount_lanes(_mm256_loadu_si256(ptr.add(i))));
        }
        let mut total = hsum_epi64(acc) as usize;
        for &w in &words[blocks * 4..] {
            total += w.count_ones() as usize;
        }
        total
    }

    // SAFETY (to call): AVX2 must be available. Loads from both slices
    // are bounded by `blocks = min(a.len(), b.len()) / 4` 4-word blocks,
    // so neither unaligned load can run past its source; the tail uses
    // safe indexing below `len`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn intersection_count(a: &[u64], b: &[u64]) -> usize {
        let len = a.len().min(b.len());
        let blocks = len / 4;
        let pa: *const __m256i = a.as_ptr().cast();
        let pb: *const __m256i = b.as_ptr().cast();
        let mut acc = _mm256_setzero_si256();
        for i in 0..blocks {
            let and =
                _mm256_and_si256(_mm256_loadu_si256(pa.add(i)), _mm256_loadu_si256(pb.add(i)));
            acc = _mm256_add_epi64(acc, popcount_lanes(and));
        }
        let mut total = hsum_epi64(acc) as usize;
        for i in blocks * 4..len {
            total += (a[i] & b[i]).count_ones() as usize;
        }
        total
    }

    // SAFETY (to call): AVX2 must be available. Loads and stores cover
    // `dst[4i..4i + 4]` / `src[4i..4i + 4]` for `i < min(len) / 4`, in
    // bounds for both slices; `dst` is exclusively borrowed (`&mut`), so
    // the in-place stores cannot alias `src`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn union_with(dst: &mut [u64], src: &[u64]) {
        let len = dst.len().min(src.len());
        let blocks = len / 4;
        let pd: *mut __m256i = dst.as_mut_ptr().cast();
        let ps: *const __m256i = src.as_ptr().cast();
        for i in 0..blocks {
            let or = _mm256_or_si256(_mm256_loadu_si256(pd.add(i)), _mm256_loadu_si256(ps.add(i)));
            _mm256_storeu_si256(pd.add(i), or);
        }
        for i in blocks * 4..len {
            dst[i] |= src[i];
        }
    }

    // SAFETY (to call): AVX2 must be available. Same bounds argument as
    // `union_with`: all vector accesses stay below `min(len) / 4` blocks
    // of either slice, and `&mut dst` guarantees the stores are exclusive.
    #[target_feature(enable = "avx2")]
    pub unsafe fn difference_with(dst: &mut [u64], src: &[u64]) {
        let len = dst.len().min(src.len());
        let blocks = len / 4;
        let pd: *mut __m256i = dst.as_mut_ptr().cast();
        let ps: *const __m256i = src.as_ptr().cast();
        for i in 0..blocks {
            // andnot computes `!a & b`, so the mask goes in the first slot.
            let diff =
                _mm256_andnot_si256(_mm256_loadu_si256(ps.add(i)), _mm256_loadu_si256(pd.add(i)));
            _mm256_storeu_si256(pd.add(i), diff);
        }
        for i in blocks * 4..len {
            dst[i] &= !src[i];
        }
    }

    // SAFETY (to call): AVX2 must be available, and every slice in `sets`
    // must be at least as long as the first (the dispatcher's documented
    // equal-length contract, debug-asserted there): each load reads block
    // `i < first.len() / 4` from every member slice.
    #[target_feature(enable = "avx2")]
    pub unsafe fn union_count(sets: &[&[u64]]) -> usize {
        let Some(first) = sets.first() else {
            return 0;
        };
        let len = first.len();
        let blocks = len / 4;
        let mut acc = _mm256_setzero_si256();
        for i in 0..blocks {
            let mut or = _mm256_setzero_si256();
            for s in sets {
                let p: *const __m256i = s.as_ptr().cast();
                or = _mm256_or_si256(or, _mm256_loadu_si256(p.add(i)));
            }
            acc = _mm256_add_epi64(acc, popcount_lanes(or));
        }
        let mut total = hsum_epi64(acc) as usize;
        for w in blocks * 4..len {
            let mut or = 0u64;
            for s in sets {
                or |= s[w];
            }
            total += or.count_ones() as usize;
        }
        total
    }

    // SAFETY (to call): AVX2 must be available. `ids` is loaded in full
    // 8-lane chunks below `ids.len() / 8`; the gather reads 4-byte lanes
    // of `words` only where `word_idx < 2 * words.len()` (the `in_range`
    // mask zeroes out-of-range lanes before any load, and the u32 count
    // is pre-checked to fit the signed compare).
    #[target_feature(enable = "avx2")]
    pub unsafe fn count_members(words: &[u64], ids: &[u32]) -> usize {
        // The gather path views the words as u32 halves (little-endian:
        // u32 index id>>5, bit id&31 — identical bit for every id).
        let n_u32 = words.len() * 2;
        if n_u32 > i32::MAX as usize {
            return super::scalar::count_members(words, ids);
        }
        let base: *const i32 = words.as_ptr().cast();
        let len_v = _mm256_set1_epi32(n_u32 as i32);
        let bit_mask = _mm256_set1_epi32(31);
        let one = _mm256_set1_epi32(1);
        let chunks = ids.len() / 8;
        let mut acc = _mm256_setzero_si256();
        let mut total = 0usize;
        for c in 0..chunks {
            let idv = _mm256_loadu_si256(ids.as_ptr().add(c * 8).cast());
            let word_idx = _mm256_srli_epi32(idv, 5);
            let bit = _mm256_and_si256(idv, bit_mask);
            // word_idx <= 2^27, so the signed compare is an unsigned one;
            // out-of-range lanes are masked and never loaded.
            let in_range = _mm256_cmpgt_epi32(len_v, word_idx);
            let gathered =
                _mm256_mask_i32gather_epi32(_mm256_setzero_si256(), base, word_idx, in_range, 4);
            let bits = _mm256_and_si256(_mm256_srlv_epi32(gathered, bit), one);
            acc = _mm256_add_epi32(acc, bits);
            // Flush before any 32-bit lane could saturate (8 bits of
            // headroom is ample; flush every 2^24 chunks).
            if c & 0xff_ffff == 0xff_ffff {
                total += hsum_epi32(acc);
                acc = _mm256_setzero_si256();
            }
        }
        total += hsum_epi32(acc);
        total += super::scalar::count_members(words, &ids[chunks * 8..]);
        total
    }

    /// Horizontal sum of the eight 32-bit lanes.
    // SAFETY (to call): AVX2 must be available. The only memory access is
    // the unaligned 32-byte store into the exactly-32-byte local `lanes`.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn hsum_epi32(v: __m256i) -> usize {
        let mut lanes = [0u32; 8];
        _mm256_storeu_si256(lanes.as_mut_ptr().cast(), v);
        lanes.iter().map(|&x| x as usize).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn both<T: PartialEq + std::fmt::Debug>(f: impl Fn(Kernel) -> T) -> T {
        let s = f(Kernel::Scalar);
        let v = f(Kernel::Avx2); // falls back to scalar off-x86
        assert_eq!(s, v, "kernel flavors disagree");
        s
    }

    #[test]
    fn count_ones_all_widths() {
        for len in [0usize, 1, 2, 3, 4, 5, 7, 8, 9, 16, 33, 64, 257] {
            let words: Vec<u64> =
                (0..len).map(|i| (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1).collect();
            let got = both(|k| count_ones_with(k, &words));
            assert_eq!(got, words.iter().map(|w| w.count_ones() as usize).sum::<usize>());
        }
    }

    #[test]
    fn merge_ops_all_widths() {
        for len in [0usize, 1, 3, 4, 5, 8, 13, 64, 129] {
            let a: Vec<u64> = (0..len).map(|i| (i as u64).wrapping_mul(0xdead_beef_cafe)).collect();
            let b: Vec<u64> = (0..len).map(|i| !(i as u64).wrapping_mul(0x1234_5678)).collect();
            let inter = both(|k| intersection_count_with(k, &a, &b));
            assert_eq!(
                inter,
                a.iter().zip(&b).map(|(x, y)| (x & y).count_ones() as usize).sum::<usize>()
            );
            let union = both(|k| {
                let mut d = a.clone();
                union_with_with(k, &mut d, &b);
                d
            });
            assert_eq!(union, a.iter().zip(&b).map(|(x, y)| x | y).collect::<Vec<_>>());
            let diff = both(|k| {
                let mut d = a.clone();
                difference_with_with(k, &mut d, &b);
                d
            });
            assert_eq!(diff, a.iter().zip(&b).map(|(x, y)| x & !y).collect::<Vec<_>>());
        }
    }

    #[test]
    fn union_count_families() {
        for (sets, len) in [(0usize, 4usize), (1, 5), (3, 9), (5, 0), (4, 130)] {
            let fam: Vec<Vec<u64>> = (0..sets)
                .map(|s| (0..len).map(|i| ((s * 1000 + i) as u64).wrapping_mul(0xabcdef)).collect())
                .collect();
            let refs: Vec<&[u64]> = fam.iter().map(|v| v.as_slice()).collect();
            let got = both(|k| union_count_with(k, &refs));
            let mut expect = 0usize;
            for w in 0..if sets == 0 { 0 } else { len } {
                let mut or = 0u64;
                for s in &fam {
                    or |= s[w];
                }
                expect += or.count_ones() as usize;
            }
            assert_eq!(got, expect);
        }
    }

    #[test]
    fn count_members_with_out_of_range_ids() {
        let mut words = vec![0u64; 8]; // 512 bits
        for v in [0u32, 63, 64, 100, 300, 511] {
            words[v as usize >> 6] |= 1 << (v & 63);
        }
        let ids: Vec<u32> = vec![
            0,
            1,
            63,
            64,
            100,
            300,
            511,
            512,
            100_000,
            0,
            63,
            5,
            7,
            300,
            511,
            2,
            4_000_000_000,
        ];
        let got = both(|k| count_members_with(k, &words, &ids));
        assert_eq!(got, scalar::count_members(&words, &ids));
        assert_eq!(got, 10);
    }

    #[test]
    fn with_kernel_forces_and_restores() {
        let before = active();
        with_kernel(Kernel::Scalar, || assert_eq!(active(), Kernel::Scalar));
        if avx2_available() {
            with_kernel(Kernel::Avx2, || assert_eq!(active(), Kernel::Avx2));
        }
        assert_eq!(active(), before);
    }
}
