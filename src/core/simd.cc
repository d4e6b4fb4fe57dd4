#include "core/simd.h"

#include <atomic>
#include <bit>
#include <cstdio>
#include <cstdlib>

#include "util/logging.h"

// The ONLY translation unit allowed to include ISA headers
// (tools/lint_invariants.py enforces this): every other file talks to the
// dispatch table, so ISA-specific code cannot leak past this seam. The
// vector bodies carry __attribute__((target(...))) instead of the build
// using global -mavx* flags — the binary stays runnable on any x86-64 and
// picks its tier at startup from cpuid.
#if defined(__x86_64__) && defined(__GNUC__)
#define HYPERMINE_SIMD_X86 1
#include <immintrin.h>
#else
#define HYPERMINE_SIMD_X86 0
#endif

namespace hypermine::core::simd {
namespace {

/// Bit count of one word for the scalar tier, in inline SWAR steps (pair,
/// nibble and byte sums, then one multiply to add the bytes). A baseline
/// x86-64 build has no popcnt instruction, so std::popcount there is a
/// call into libgcc's __popcountdi2 for every word.
inline size_t SwarPopcount(uint64_t x) {
  x -= (x >> 1) & 0x5555555555555555ull;
  x = (x & 0x3333333333333333ull) + ((x >> 2) & 0x3333333333333333ull);
  x = (x + (x >> 4)) & 0x0F0F0F0F0F0F0F0Full;
  return static_cast<size_t>((x * 0x0101010101010101ull) >> 56);
}

size_t ScalarPopcount(const uint64_t* a, size_t words) {
  size_t count = 0;
  for (size_t w = 0; w < words; ++w) count += SwarPopcount(a[w]);
  return count;
}

size_t ScalarPopcountAnd(const uint64_t* a, const uint64_t* b, size_t words) {
  size_t count = 0;
  for (size_t w = 0; w < words; ++w) count += SwarPopcount(a[w] & b[w]);
  return count;
}

size_t ScalarAndStorePopcount(const uint64_t* a, const uint64_t* b,
                              uint64_t* out, size_t words) {
  size_t count = 0;
  for (size_t w = 0; w < words; ++w) {
    out[w] = a[w] & b[w];
    count += SwarPopcount(out[w]);
  }
  return count;
}

#if HYPERMINE_SIMD_X86

/// Per-64-bit-lane popcount of a 256-bit vector (Mula's vpshufb method):
/// each byte is split into nibbles, a 16-entry LUT gives each nibble's
/// popcount, and _mm256_sad_epu8 horizontally sums bytes into the four
/// 64-bit lanes. Exact for every input, like all the tiers.
__attribute__((target("avx2"))) inline __m256i Popcount64x4(__m256i v) {
  const __m256i lut = _mm256_setr_epi8(0, 1, 1, 2, 1, 2, 2, 3,  //
                                       1, 2, 2, 3, 2, 3, 3, 4,  //
                                       0, 1, 1, 2, 1, 2, 2, 3,  //
                                       1, 2, 2, 3, 2, 3, 3, 4);
  const __m256i mask = _mm256_set1_epi8(0x0F);
  __m256i lo = _mm256_and_si256(v, mask);
  __m256i hi = _mm256_and_si256(_mm256_srli_epi16(v, 4), mask);
  __m256i counts = _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo),
                                   _mm256_shuffle_epi8(lut, hi));
  return _mm256_sad_epu8(counts, _mm256_setzero_si256());
}

__attribute__((target("avx2"))) inline size_t Sum64x4(__m256i acc) {
  alignas(32) uint64_t lanes[4];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), acc);
  return static_cast<size_t>(lanes[0] + lanes[1] + lanes[2] + lanes[3]);
}

__attribute__((target("avx2"))) size_t Avx2Popcount(const uint64_t* a,
                                                    size_t words) {
  __m256i acc = _mm256_setzero_si256();
  size_t w = 0;
  for (; w + 4 <= words; w += 4) {
    __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + w));
    acc = _mm256_add_epi64(acc, Popcount64x4(v));
  }
  size_t count = Sum64x4(acc);
  for (; w < words; ++w) count += static_cast<size_t>(std::popcount(a[w]));
  return count;
}

__attribute__((target("avx2"))) size_t Avx2PopcountAnd(const uint64_t* a,
                                                       const uint64_t* b,
                                                       size_t words) {
  __m256i acc = _mm256_setzero_si256();
  size_t w = 0;
  for (; w + 4 <= words; w += 4) {
    __m256i v = _mm256_and_si256(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + w)),
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + w)));
    acc = _mm256_add_epi64(acc, Popcount64x4(v));
  }
  size_t count = Sum64x4(acc);
  for (; w < words; ++w) {
    count += static_cast<size_t>(std::popcount(a[w] & b[w]));
  }
  return count;
}

__attribute__((target("avx2"))) size_t Avx2AndStorePopcount(
    const uint64_t* a, const uint64_t* b, uint64_t* out, size_t words) {
  __m256i acc = _mm256_setzero_si256();
  size_t w = 0;
  for (; w + 4 <= words; w += 4) {
    __m256i v = _mm256_and_si256(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + w)),
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + w)));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + w), v);
    acc = _mm256_add_epi64(acc, Popcount64x4(v));
  }
  size_t count = Sum64x4(acc);
  for (; w < words; ++w) {
    out[w] = a[w] & b[w];
    count += static_cast<size_t>(std::popcount(out[w]));
  }
  return count;
}

#define HYPERMINE_AVX512_TARGET target("avx512f,avx512vpopcntdq")

/// Sum of the eight lanes, as _mm512_reduce_add_epi64 computes it: the
/// same extract-and-add tree and the same instructions. GCC 12's reduce and
/// unmasked extract pass a self-initialised `undefined` operand that
/// -Wuninitialized reports; an all-ones maskz extract is the plain extract
/// without it. Storing the lanes and adding them instead cost 12% on a
/// 60-word popcount_and.
__attribute__((HYPERMINE_AVX512_TARGET)) inline size_t Sum64x8(__m512i acc) {
  const __mmask8 all = 0xFF;
  const __m256i sum4 =
      _mm256_add_epi64(_mm512_maskz_extracti64x4_epi64(all, acc, 0),
                       _mm512_maskz_extracti64x4_epi64(all, acc, 1));
  const __m128i sum2 = _mm_add_epi64(_mm256_castsi256_si128(sum4),
                                     _mm256_extracti128_si256(sum4, 1));
  return static_cast<size_t>(_mm_cvtsi128_si64(sum2) +
                             _mm_extract_epi64(sum2, 1));
}

__attribute__((HYPERMINE_AVX512_TARGET)) size_t Avx512Popcount(
    const uint64_t* a, size_t words) {
  __m512i acc = _mm512_setzero_si512();
  size_t w = 0;
  for (; w + 8 <= words; w += 8) {
    acc = _mm512_add_epi64(acc, _mm512_popcnt_epi64(_mm512_loadu_si512(
                                    static_cast<const void*>(a + w))));
  }
  size_t count = Sum64x8(acc);
  for (; w < words; ++w) count += static_cast<size_t>(std::popcount(a[w]));
  return count;
}

__attribute__((HYPERMINE_AVX512_TARGET)) size_t Avx512PopcountAnd(
    const uint64_t* a, const uint64_t* b, size_t words) {
  __m512i acc = _mm512_setzero_si512();
  size_t w = 0;
  for (; w + 8 <= words; w += 8) {
    __m512i v = _mm512_and_si512(
        _mm512_loadu_si512(static_cast<const void*>(a + w)),
        _mm512_loadu_si512(static_cast<const void*>(b + w)));
    acc = _mm512_add_epi64(acc, _mm512_popcnt_epi64(v));
  }
  size_t count = Sum64x8(acc);
  for (; w < words; ++w) {
    count += static_cast<size_t>(std::popcount(a[w] & b[w]));
  }
  return count;
}

__attribute__((HYPERMINE_AVX512_TARGET)) size_t Avx512AndStorePopcount(
    const uint64_t* a, const uint64_t* b, uint64_t* out, size_t words) {
  __m512i acc = _mm512_setzero_si512();
  size_t w = 0;
  for (; w + 8 <= words; w += 8) {
    __m512i v = _mm512_and_si512(
        _mm512_loadu_si512(static_cast<const void*>(a + w)),
        _mm512_loadu_si512(static_cast<const void*>(b + w)));
    _mm512_storeu_si512(static_cast<void*>(out + w), v);
    acc = _mm512_add_epi64(acc, _mm512_popcnt_epi64(v));
  }
  size_t count = Sum64x8(acc);
  for (; w < words; ++w) {
    out[w] = a[w] & b[w];
    count += static_cast<size_t>(std::popcount(out[w]));
  }
  return count;
}

#endif  // HYPERMINE_SIMD_X86

constexpr Ops kScalarOps = {Tier::kScalar, "scalar", ScalarPopcount,
                            ScalarPopcountAnd, ScalarAndStorePopcount};
#if HYPERMINE_SIMD_X86
constexpr Ops kAvx2Ops = {Tier::kAvx2, "avx2", Avx2Popcount, Avx2PopcountAnd,
                          Avx2AndStorePopcount};
constexpr Ops kAvx512Ops = {Tier::kAvx512, "avx512", Avx512Popcount,
                            Avx512PopcountAnd, Avx512AndStorePopcount};
#endif

/// ForceActiveTier override; null until the first Force. ActiveOps checks
/// this before the once-resolved environment choice, so a Force always
/// wins and never races the lazy env resolution.
std::atomic<const Ops*> g_forced_ops{nullptr};

const Ops& ResolveFromEnvironment() {
  std::optional<Tier> requested;
  const char* env = std::getenv("HYPERMINE_SIMD");
  if (env != nullptr && *env != '\0') {
    requested = ParseTier(env);
    if (!requested.has_value()) {
      std::fprintf(stderr,
                   "hypermine: HYPERMINE_SIMD=%s is not scalar|avx2|avx512; "
                   "using best supported tier\n",
                   env);
    }
  }
  return OpsForTier(ResolveRequestedTier(requested, BestSupportedTier()));
}

}  // namespace

const char* TierName(Tier tier) {
  switch (tier) {
    case Tier::kScalar:
      return "scalar";
    case Tier::kAvx2:
      return "avx2";
    case Tier::kAvx512:
      return "avx512";
  }
  return "unknown";
}

std::optional<Tier> ParseTier(std::string_view name) {
  if (name == "scalar") return Tier::kScalar;
  if (name == "avx2") return Tier::kAvx2;
  if (name == "avx512") return Tier::kAvx512;
  return std::nullopt;
}

bool TierSupported(Tier tier) {
#if HYPERMINE_SIMD_X86
  switch (tier) {
    case Tier::kScalar:
      return true;
    case Tier::kAvx2:
      return __builtin_cpu_supports("avx2") != 0;
    case Tier::kAvx512:
      // vpopcntq needs the VPOPCNTDQ extension on top of the AVX-512
      // foundation; __builtin_cpu_supports folds in the OS XSAVE state.
      return __builtin_cpu_supports("avx512f") != 0 &&
             __builtin_cpu_supports("avx512vpopcntdq") != 0;
  }
  return false;
#else
  return tier == Tier::kScalar;
#endif
}

Tier BestSupportedTier() {
  if (TierSupported(Tier::kAvx512)) return Tier::kAvx512;
  if (TierSupported(Tier::kAvx2)) return Tier::kAvx2;
  return Tier::kScalar;
}

std::vector<Tier> SupportedTiers() {
  std::vector<Tier> tiers = {Tier::kScalar};
  if (TierSupported(Tier::kAvx2)) tiers.push_back(Tier::kAvx2);
  if (TierSupported(Tier::kAvx512)) tiers.push_back(Tier::kAvx512);
  return tiers;
}

const Ops& OpsForTier(Tier tier) {
  HM_CHECK(TierSupported(tier));
#if HYPERMINE_SIMD_X86
  switch (tier) {
    case Tier::kScalar:
      return kScalarOps;
    case Tier::kAvx2:
      return kAvx2Ops;
    case Tier::kAvx512:
      return kAvx512Ops;
  }
#endif
  return kScalarOps;
}

const Ops& ActiveOps() {
  const Ops* forced = g_forced_ops.load(std::memory_order_acquire);
  if (forced != nullptr) return *forced;
  static const Ops& env_resolved = ResolveFromEnvironment();
  return env_resolved;
}

void ForceActiveTier(Tier tier) {
  const Ops& ops =
      OpsForTier(ResolveRequestedTier(tier, BestSupportedTier()));
  g_forced_ops.store(&ops, std::memory_order_release);
}

Tier ResolveRequestedTier(std::optional<Tier> requested, Tier best) {
  if (!requested.has_value()) return best;
  if (*requested <= best && TierSupported(*requested)) return *requested;
  return best;
}

}  // namespace hypermine::core::simd
