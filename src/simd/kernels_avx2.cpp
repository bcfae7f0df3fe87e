// AVX2 kernels. This TU is compiled with -mavx2 -mpopcnt (see
// CMakeLists.txt); nothing here may be inlined into generically-compiled
// code, which is why every entry point is a plain extern function reached
// through the dispatch table only. On non-x86 targets the file compiles to
// a table of scalar fallbacks.
//
// Algorithms:
//   set_diff_u32    Schlegel/Lemire-style block intersection: compare each
//                   8-lane span block against 8-lane main blocks via 8
//                   rotations of VPERMD + VPCMPEQD, advancing whichever
//                   side's max is smaller; survivors are left-packed with a
//                   256-entry VPERMD table. A skew heuristic switches to a
//                   bounded 8-lane forward sweep (gallop past the budget)
//                   when main is much larger than the span or the span is
//                   too short to fill vectors.
//   bitmap_missing  8 ids per step: VPSRLD for word indices, two 4-lane
//                   VPGATHERQQ loads, VPSRLVQ bit tests, survivors packed
//                   with the same VPERMD table.
//   bitmap_set      The scalar word-run merge (one RMW + POPCNT per touched
//                   word) — the ids->bits scatter has no AVX2 formulation
//                   that beats it, but compiling it here gets hardware
//                   POPCNT.
//   c45_leaves      4 rows per step, branch-free: gather attributes and
//                   thresholds by the per-lane node cursor (VPGATHERDD /
//                   VPGATHERQPD), VCMPPD LE + ordered-compare for the NaN
//                   route, and VPBLENDVB selects among left/right/miss.
//
// Exactness: every kernel computes the same function as its scalar
// reference (set difference, bit tests, fixed-depth tree descent over the
// same doubles), so outputs are bit-identical by construction — the
// property tests in tests/simd_kernel_test.cpp enforce it.

#include "src/simd/kernels.h"

#if (defined(__x86_64__) || defined(__i386__)) && defined(__AVX2__)

#include <immintrin.h>

#include <cstring>

namespace digg::simd {
namespace {

// 256-entry left-pack table: row m holds the lane indices whose bit is set
// in m, in ascending order (padding repeats lane 0, which is never stored
// past the survivor count).
struct PackTable {
  alignas(32) std::uint32_t idx[256][8];
};

constexpr PackTable make_pack_table() {
  PackTable t{};
  for (int m = 0; m < 256; ++m) {
    int k = 0;
    for (int b = 0; b < 8; ++b)
      if ((m >> b) & 1) t.idx[m][k++] = static_cast<std::uint32_t>(b);
    for (; k < 8; ++k) t.idx[m][k] = 0;
  }
  return t;
}

constexpr PackTable kPack = make_pack_table();

/// Lane mask: for each lane of `a`, all-ones iff the value occurs anywhere
/// in `b` (8x8 all-pairs equality via 7 lane rotations).
inline __m256i match8(__m256i a, __m256i b) {
  const __m256i r1 = _mm256_setr_epi32(1, 2, 3, 4, 5, 6, 7, 0);
  __m256i found = _mm256_cmpeq_epi32(a, b);
  for (int r = 1; r < 8; ++r) {
    b = _mm256_permutevar8x32_epi32(b, r1);
    found = _mm256_or_si256(found, _mm256_cmpeq_epi32(a, b));
  }
  return found;
}

/// Left-packs the lanes of `v` selected by `mask` (bit per lane) to out,
/// returning the survivor count. Stores a full vector: out needs
/// kPackSlack lanes of slack past the logical end.
inline std::size_t pack_store(__m256i v, int mask, std::uint32_t* out) {
  const __m256i perm = _mm256_load_si256(
      reinterpret_cast<const __m256i*>(kPack.idx[mask]));
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(out),
                      _mm256_permutevar8x32_epi32(v, perm));
  return static_cast<std::size_t>(__builtin_popcount(
      static_cast<unsigned>(mask)));
}

/// Skewed-ratio set difference: main is much larger than the span, so the
/// all-pairs block compare (which touches every main block the span
/// overlaps) would scan far more than it matches. Instead keep one
/// monotone cursor into main and, per span key, sweep forward 8 lanes at a
/// time until the key's lower bound is reached. The sweep is branch-cheap
/// (one well-predicted loop branch per 8 elements, no compare-result
/// branches), so for the typical inter-key gap — tens of elements — it
/// beats the gallop's log2(gap) dependent, mispredicting probes. A budget
/// bounds the sweep: past kScanBudget blocks the key is genuinely far and
/// the gallop's logarithmic skipping takes over from wherever the sweep
/// stopped, so huge gaps (a one-fan voter against a near-promotion set)
/// cost sweep + O(log gap), never O(gap).
std::size_t avx2_set_diff_skew(const std::uint32_t* span, std::size_t span_n,
                               const std::uint32_t* main, std::size_t main_n,
                               std::uint32_t* out, std::uint32_t* out_pos) {
  constexpr std::size_t kScanBudget = 8;  // blocks (64 elements) per key
  std::size_t k = 0;
  std::size_t p = 0;  // lower bound of the previous key; never retreats
  for (std::size_t i = 0; i < span_n; ++i) {
    const std::uint32_t key = span[i];
    const __m256i vkey = _mm256_set1_epi32(static_cast<int>(key));
    bool present = false;
    for (std::size_t steps = 0;; ++steps) {
      if (p + 8 > main_n) {
        while (p < main_n && main[p] < key) ++p;
        present = p < main_n && main[p] == key;
        break;
      }
      if (steps == kScanBudget) {
        present = detail::gallop_contains_ptr(main, main_n, key, p);
        break;
      }
      const __m256i blk =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(main + p));
      // Unsigned lane-wise blk >= key via max: max(blk, key) == blk.
      const __m256i ge =
          _mm256_cmpeq_epi32(_mm256_max_epu32(blk, vkey), blk);
      const int m = _mm256_movemask_ps(_mm256_castsi256_ps(ge));
      if (m != 0) {
        p += static_cast<std::size_t>(__builtin_ctz(static_cast<unsigned>(m)));
        present = main[p] == key;
        break;
      }
      p += 8;
    }
    if (!present) {
      out[k] = key;
      out_pos[k] = static_cast<std::uint32_t>(p);  // sweep stopped at the LB
      ++k;
    }
  }
  return k;
}

std::size_t avx2_set_diff_u32(const std::uint32_t* span, std::size_t span_n,
                              const std::uint32_t* main, std::size_t main_n,
                              std::uint32_t* out, std::uint32_t* out_pos) {
  if (main_n == 0) {
    std::memcpy(out, span, span_n * sizeof(std::uint32_t));
    std::memset(out_pos, 0, span_n * sizeof(std::uint32_t));
    return span_n;
  }
  // Skew heuristic: the all-pairs block compare below touches every main
  // block the span overlaps, so when main dwarfs the span (or the span
  // can't fill a vector) the bounded forward sweep wins.
  if (span_n < 16 || main_n / span_n >= 32)
    return avx2_set_diff_skew(span, span_n, main, main_n, out, out_pos);

  std::size_t k = 0;
  std::size_t j = 0;  // main cursor, advances in whole 8-lane blocks
  std::size_t i = 0;
  for (; i + 8 <= span_n; i += 8) {
    const __m256i a =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(span + i));
    const std::uint32_t a_max = span[i + 7];
    __m256i found = _mm256_setzero_si256();
    // Consume main blocks strictly below a_max. Matches for THIS span
    // block can't live in blocks consumed by earlier iterations: those
    // stopped at the first block whose max reached the previous span
    // block's max, and the span is strictly increasing.
    while (j + 8 <= main_n && main[j + 7] < a_max) {
      found = _mm256_or_si256(
          found, match8(a, _mm256_loadu_si256(
                               reinterpret_cast<const __m256i*>(main + j))));
      j += 8;
    }
    int present;
    if (j + 8 <= main_n) {
      // The straddling block (max >= a_max): compare without consuming —
      // the next span block may still have matches here.
      found = _mm256_or_si256(
          found, match8(a, _mm256_loadu_si256(
                               reinterpret_cast<const __m256i*>(main + j))));
      present = _mm256_movemask_ps(_mm256_castsi256_ps(found));
    } else {
      // Ragged main tail (< 8 elements left): finish the unfound lanes
      // scalar against main[j, main_n).
      present = _mm256_movemask_ps(_mm256_castsi256_ps(found));
      for (int lane = 0; lane < 8; ++lane) {
        if ((present >> lane) & 1) continue;
        const std::uint32_t key = span[i + static_cast<std::size_t>(lane)];
        for (std::size_t t = j; t < main_n && main[t] <= key; ++t) {
          if (main[t] == key) {
            present |= 1 << lane;
            break;
          }
        }
      }
    }
    k += pack_store(a, ~present & 0xff, out + k);
  }
  // Span tail: gallop from j — every main element below j is smaller than
  // the last full block's max, hence smaller than the tail's keys.
  std::size_t pos = j;
  for (; i < span_n; ++i) {
    if (!detail::gallop_contains_ptr(main, main_n, span[i], pos))
      out[k++] = span[i];
  }
  // Insertion points: the block compare answers membership without ever
  // locating lower bounds, so recover them with an advancing-hint gallop
  // over the (ascending) candidates — O(k log gap), a small fraction of
  // the compare work above.
  std::size_t q = 0;
  for (std::size_t c = 0; c < k; ++c) {
    detail::gallop_contains_ptr(main, main_n, out[c], q);
    out_pos[c] = static_cast<std::uint32_t>(q);
  }
  return k;
}

std::size_t avx2_bitmap_missing_u32(const std::uint64_t* words,
                                    const std::uint32_t* ids, std::size_t n,
                                    std::uint32_t* out) {
  std::size_t k = 0;
  std::size_t i = 0;
  const __m256i c63 = _mm256_set1_epi32(63);
  for (; i + 8 <= n; i += 8) {
    const __m256i id =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(ids + i));
    const __m256i widx = _mm256_srli_epi32(id, 6);
    const __m256i w0 = _mm256_i32gather_epi64(
        reinterpret_cast<const long long*>(words),
        _mm256_castsi256_si128(widx), 8);
    const __m256i w1 = _mm256_i32gather_epi64(
        reinterpret_cast<const long long*>(words),
        _mm256_extracti128_si256(widx, 1), 8);
    const __m256i sh = _mm256_and_si256(id, c63);
    const __m256i s0 = _mm256_cvtepu32_epi64(_mm256_castsi256_si128(sh));
    const __m256i s1 = _mm256_cvtepu32_epi64(_mm256_extracti128_si256(sh, 1));
    // Shift the tested bit to the sign position so MOVMSKPD reads it.
    const __m256i b0 = _mm256_slli_epi64(_mm256_srlv_epi64(w0, s0), 63);
    const __m256i b1 = _mm256_slli_epi64(_mm256_srlv_epi64(w1, s1), 63);
    const int present =
        _mm256_movemask_pd(_mm256_castsi256_pd(b0)) |
        (_mm256_movemask_pd(_mm256_castsi256_pd(b1)) << 4);
    k += pack_store(id, ~present & 0xff, out + k);
  }
  for (; i < n; ++i) {
    const std::uint32_t id = ids[i];
    if (((words[id >> 6] >> (id & 63)) & 1u) == 0) out[k++] = id;
  }
  return k;
}

std::size_t avx2_bitmap_set_u32(std::uint64_t* words, const std::uint32_t* ids,
                                std::size_t n) {
  // Word-run merge (see kernels.h): the scatter side has no profitable
  // AVX2 formulation, but compiled here the popcount is the POPCNT
  // instruction. Same code shape as the scalar reference.
  std::size_t newly = 0;
  std::size_t i = 0;
  while (i < n) {
    const std::uint32_t w = ids[i] >> 6;
    std::uint64_t mask = 0;
    do {
      mask |= 1ull << (ids[i] & 63);
      ++i;
    } while (i < n && (ids[i] >> 6) == w);
    const std::uint64_t old = words[w];
    words[w] = old | mask;
    newly += static_cast<std::size_t>(_mm_popcnt_u64(mask & ~old));
  }
  return newly;
}

/// Narrows a 4x64 compare mask to a 4x32 mask (low halves; a compare mask's
/// halves are identical).
inline __m128i narrow_mask(__m256d m) {
  const __m256 ps = _mm256_castpd_ps(m);
  const __m128 lo = _mm256_castps256_ps128(ps);
  const __m128 hi = _mm256_extractf128_ps(ps, 1);
  return _mm_castps_si128(_mm_shuffle_ps(lo, hi, _MM_SHUFFLE(2, 0, 2, 0)));
}

void avx2_c45_leaves(const FlatTreeView& tree, const double* rows,
                     std::size_t n_rows, std::size_t stride,
                     std::int32_t* out_leaf) {
  std::size_t r = 0;
  const auto s32 = static_cast<std::int32_t>(stride);
  // Masked gathers with an explicit zero source and an all-ones mask load
  // exactly what the unmasked form does; the unmasked intrinsic leaves its
  // source operand undefined, which gcc 12 flags as maybe-uninitialized.
  const __m256d zero = _mm256_setzero_pd();
  const __m256d all = _mm256_castsi256_pd(_mm256_set1_epi64x(-1));
  for (; r + 4 <= n_rows; r += 4) {
    const double* base = rows + r * stride;
    // Per-lane offset of each row's start within the 4-row window.
    const __m128i row_off = _mm_setr_epi32(0, s32, 2 * s32, 3 * s32);
    __m128i cur = _mm_setzero_si128();
    for (std::size_t d = 0; d < tree.depth; ++d) {
      const __m128i attr = _mm_i32gather_epi32(tree.attr, cur, 4);
      const __m256d v = _mm256_mask_i32gather_pd(
          zero, base, _mm_add_epi32(row_off, attr), all, 8);
      const __m256d th =
          _mm256_mask_i32gather_pd(zero, tree.thresh, cur, all, 8);
      const __m128i go_left = narrow_mask(_mm256_cmp_pd(v, th, _CMP_LE_OQ));
      const __m128i ordered = narrow_mask(_mm256_cmp_pd(v, v, _CMP_ORD_Q));
      const __m128i left = _mm_i32gather_epi32(tree.left, cur, 4);
      const __m128i right = _mm_i32gather_epi32(tree.right, cur, 4);
      const __m128i miss = _mm_i32gather_epi32(tree.miss, cur, 4);
      cur = _mm_blendv_epi8(miss, _mm_blendv_epi8(right, left, go_left),
                            ordered);
    }
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out_leaf + r), cur);
  }
  if (r < n_rows)
    detail::scalar_c45_leaves(tree, rows + r * stride, n_rows - r, stride,
                              out_leaf + r);
}

}  // namespace

const KernelTable kAvx2Table = {
    "avx2",
    &avx2_set_diff_u32,
    &avx2_bitmap_missing_u32,
    &avx2_bitmap_set_u32,
    &avx2_c45_leaves,
};
const bool kAvx2Compiled = true;

}  // namespace digg::simd

#else  // non-x86 or AVX2 flags missing: table of scalar fallbacks.

namespace digg::simd {

const KernelTable kAvx2Table = {
    "avx2-unavailable",
    &detail::scalar_set_diff_u32,
    &detail::scalar_bitmap_missing_u32,
    &detail::scalar_bitmap_set_u32,
    &detail::scalar_c45_leaves,
};
const bool kAvx2Compiled = false;

}  // namespace digg::simd

#endif
