// AVX2 kernels for the Kyber NTT domain (q = 3329). Strategy: widen int16
// coefficients to int32 lanes (8 per __m256i) and do exact Montgomery
// arithmetic with R = 2^16, conditionally subtracting back to the
// canonical range [0, q) after every step — so outputs are bit-identical
// to the portable %-based kernels. Twiddles are premultiplied by R (or
// R^2 for the basemul pair-zetas) at static init from the same
// 17^bitrev7(i) table the portable kernels build. Every layer runs in
// registers: len >= 16 pairs whole vectors, and one fused pass per 16
// coefficients does len = 8, 4 and 2 by regrouping lanes (128-bit halves,
// then 64-bit lanes) with a per-lane twiddle vector.
#include <cstdint>

#include "crypto/backend/kernels.hpp"

#if defined(PQTLS_HAVE_AVX2)

#include <immintrin.h>

namespace pqtls::crypto::backend::detail {
namespace {

constexpr int kN = 256;
constexpr std::int32_t kQ = 3329;
constexpr std::int32_t kNQInv = 3327;  // -q^{-1} mod 2^16 (3329*3327 = -1)
constexpr std::int32_t kInv128 = 3303;  // 128^{-1} mod q

struct Tables {
  std::int32_t zeta_m[128];  // zeta * 2^16 mod q (Montgomery form)
  // Basemul pair twiddles indexed by coefficient-pair p in 0..127:
  // +zeta_{64+p/2} for even p, q - zeta_{64+p/2} for odd p, each
  // premultiplied by 2^32 so one REDC of (a*b*R^{-1}) * zpair2 yields
  // a*b*zeta mod q exactly.
  std::int32_t zpair2[128];
  std::int32_t r2;         // 2^32 mod q
  std::int32_t inv128_m;   // kInv128 * 2^16 mod q
  Tables() {
    auto bitrev7 = [](int x) {
      int r = 0;
      for (int b = 0; b < 7; ++b)
        if (x & (1 << b)) r |= 1 << (6 - b);
      return r;
    };
    std::int32_t zeta[128];
    for (int i = 0; i < 128; ++i) {
      int e = bitrev7(i);
      std::int32_t v = 1;
      for (int j = 0; j < e; ++j) v = (v * 17) % kQ;
      zeta[i] = v;
      zeta_m[i] =
          static_cast<std::int32_t>((static_cast<std::int64_t>(v) << 16) % kQ);
    }
    for (int i = 0; i < 64; ++i) {
      std::int64_t z = zeta[64 + i];
      std::int64_t nz = (kQ - z) % kQ;
      zpair2[2 * i] = static_cast<std::int32_t>((z << 32) % kQ);
      zpair2[2 * i + 1] = static_cast<std::int32_t>((nz << 32) % kQ);
    }
    std::int64_t r1 = (static_cast<std::int64_t>(1) << 16) % kQ;
    r2 = static_cast<std::int32_t>((r1 * r1) % kQ);
    inv128_m = static_cast<std::int32_t>(
        (static_cast<std::int64_t>(kInv128) << 16) % kQ);
  }
};
const Tables kT;

inline __m256i q8() { return _mm256_set1_epi32(kQ); }

// [0, 2q) -> [0, q), lanewise.
inline __m256i csub(__m256i a) {
  __m256i lt = _mm256_cmpgt_epi32(q8(), a);
  return _mm256_sub_epi32(a, _mm256_andnot_si256(lt, q8()));
}

// Montgomery reduction of nonnegative t < 2^24: returns t * 2^{-16} mod q,
// canonical. (t + m*q) / 2^16 < 2^8 + q, so one conditional subtract.
inline __m256i mredc(__m256i t) {
  const __m256i mask16 = _mm256_set1_epi32(0xFFFF);
  __m256i m = _mm256_and_si256(
      _mm256_mullo_epi32(_mm256_and_si256(t, mask16),
                         _mm256_set1_epi32(kNQInv)),
      mask16);
  __m256i r = _mm256_srli_epi32(
      _mm256_add_epi32(t, _mm256_mullo_epi32(m, q8())), 16);
  return csub(r);
}

// a (canonical) times a Montgomery-form constant bm (< q): a*bm mod q * R^{-1}
// -> plain a*b mod q.
inline __m256i mmul(__m256i a, __m256i bm) {
  return mredc(_mm256_mullo_epi32(a, bm));
}

// Generic canonical product a*b mod q via double reduction through R^2.
inline __m256i fqmul8(__m256i a, __m256i b) {
  return mmul(mredc(_mm256_mullo_epi32(a, b)), _mm256_set1_epi32(kT.r2));
}

inline __m256i load8(const std::int16_t* p) {
  return _mm256_cvtepi16_epi32(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(p)));
}

inline void store8(std::int16_t* p, __m256i v) {
  // Values are canonical (< q < 2^15), so saturating pack is exact.
  __m256i packed = _mm256_packs_epi32(v, v);
  packed = _mm256_permute4x64_epi64(packed, 0xD8);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(p),
                   _mm256_castsi256_si128(packed));
}

// Twiddle vector for 8 lanes: lanes 2i and 2i+1 multiply by zeta_m[z_i].
inline __m256i zetas4(int z0, int z1, int z2, int z3) {
  return _mm256_setr_epi32(kT.zeta_m[z0], kT.zeta_m[z0], kT.zeta_m[z1],
                           kT.zeta_m[z1], kT.zeta_m[z2], kT.zeta_m[z2],
                           kT.zeta_m[z3], kT.zeta_m[z3]);
}

// Forward (Cooley-Tukey) butterfly on 8 lane pairs: a += b*z, b = a - b*z.
inline void fwd_bfly(__m256i& a, __m256i& b, __m256i zm) {
  __m256i t = mmul(b, zm);
  b = csub(_mm256_add_epi32(_mm256_sub_epi32(a, t), q8()));
  a = csub(_mm256_add_epi32(a, t));
}

// Inverse (Gentleman-Sande) butterfly: a += b, b = (b - a) * z.
inline void inv_bfly(__m256i& a, __m256i& b, __m256i zm) {
  __m256i d = csub(_mm256_add_epi32(_mm256_sub_epi32(b, a), q8()));
  a = csub(_mm256_add_epi32(a, b));
  b = mmul(d, zm);
}

// Regroupings that put the two inputs of every butterfly of one layer into
// matching lanes of two registers. Each is its own inverse.
inline void swap128(__m256i& v0, __m256i& v1) {  // len = 4
  __m256i lo = _mm256_permute2x128_si256(v0, v1, 0x20);
  __m256i hi = _mm256_permute2x128_si256(v0, v1, 0x31);
  v0 = lo;
  v1 = hi;
}

inline void swap64(__m256i& v0, __m256i& v1) {  // len = 2
  __m256i lo = _mm256_unpacklo_epi64(v0, v1);
  __m256i hi = _mm256_unpackhi_epi64(v0, v1);
  v0 = lo;
  v1 = hi;
}

void ntt(std::int16_t* r) {
  int k = 1;
  for (int len = 128; len >= 16; len >>= 1) {
    for (int start = 0; start < kN; start += 2 * len) {
      __m256i zm = _mm256_set1_epi32(kT.zeta_m[k++]);
      for (int j = start; j < start + len; j += 8) {
        __m256i a = load8(r + j);
        __m256i b = load8(r + j + len);
        fwd_bfly(a, b, zm);
        store8(r + j, a);
        store8(r + j + len, b);
      }
    }
  }
  // len = 8, 4, 2 on coefficients 16p..16p+15. Twiddle indices follow the
  // portable k++ order: len = 8 uses 16 + p, len = 4 uses 32 + block and
  // len = 2 uses 64 + group, groups g..g+3 landing in lanes (g, g+2, g+1,
  // g+3) after swap64.
  for (int p = 0; p < kN / 16; ++p) {
    __m256i v0 = load8(r + 16 * p);
    __m256i v1 = load8(r + 16 * p + 8);
    fwd_bfly(v0, v1, _mm256_set1_epi32(kT.zeta_m[16 + p]));
    swap128(v0, v1);
    const int b = 32 + 2 * p;
    fwd_bfly(v0, v1, zetas4(b, b, b + 1, b + 1));
    swap128(v0, v1);
    swap64(v0, v1);
    const int g = 64 + 4 * p;
    fwd_bfly(v0, v1, zetas4(g, g + 2, g + 1, g + 3));
    swap64(v0, v1);
    store8(r + 16 * p, v0);
    store8(r + 16 * p + 8, v1);
  }
}

void invntt(std::int16_t* r) {
  // len = 2, 4, 8 on coefficients 16p..16p+15, twiddles walked in the
  // portable k-- order from 127 down to 16.
  for (int p = 0; p < kN / 16; ++p) {
    __m256i v0 = load8(r + 16 * p);
    __m256i v1 = load8(r + 16 * p + 8);
    swap64(v0, v1);
    const int g = 127 - 4 * p;
    inv_bfly(v0, v1, zetas4(g, g - 2, g - 1, g - 3));
    swap64(v0, v1);
    swap128(v0, v1);
    const int b = 63 - 2 * p;
    inv_bfly(v0, v1, zetas4(b, b, b - 1, b - 1));
    swap128(v0, v1);
    inv_bfly(v0, v1, _mm256_set1_epi32(kT.zeta_m[31 - p]));
    store8(r + 16 * p, v0);
    store8(r + 16 * p + 8, v1);
  }
  int k = 15;
  for (int len = 16; len <= 128; len <<= 1) {
    for (int start = 0; start < kN; start += 2 * len) {
      __m256i zm = _mm256_set1_epi32(kT.zeta_m[k--]);
      for (int j = start; j < start + len; j += 8) {
        __m256i a = load8(r + j);
        __m256i b = load8(r + j + len);
        inv_bfly(a, b, zm);
        store8(r + j, a);
        store8(r + j + len, b);
      }
    }
  }
  __m256i f = _mm256_set1_epi32(kT.inv128_m);
  for (int j = 0; j < kN; j += 8) {
    store8(r + j, mmul(load8(r + j), f));
  }
}

void basemul_acc(std::int16_t* r, const std::int16_t* a, const std::int16_t* b,
                 bool accumulate) {
  const __m256i mask16 = _mm256_set1_epi32(0xFFFF);
  for (int p = 0; p < 128; p += 8) {  // pairs p..p+7 = coefficients 2p..2p+15
    __m256i av =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + 2 * p));
    __m256i bv =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + 2 * p));
    // Coefficients are canonical (high bit clear), so mask/shift yields the
    // even/odd halves zero-extended into int32 lanes.
    __m256i ae = _mm256_and_si256(av, mask16);
    __m256i ao = _mm256_srli_epi32(av, 16);
    __m256i be = _mm256_and_si256(bv, mask16);
    __m256i bo = _mm256_srli_epi32(bv, 16);
    __m256i z2 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(kT.zpair2 + p));
    // ao*bo*zeta: one REDC drops R, the zpair2 premultiply restores R^2.
    __m256i zterm = mredc(_mm256_mullo_epi32(
        mredc(_mm256_mullo_epi32(ao, bo)), z2));
    __m256i c0 = csub(_mm256_add_epi32(fqmul8(ae, be), zterm));
    __m256i c1 = csub(_mm256_add_epi32(fqmul8(ae, bo), fqmul8(ao, be)));
    if (accumulate) {
      __m256i rv =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(r + 2 * p));
      c0 = csub(_mm256_add_epi32(_mm256_and_si256(rv, mask16), c0));
      c1 = csub(_mm256_add_epi32(_mm256_srli_epi32(rv, 16), c1));
    }
    __m256i out = _mm256_or_si256(c0, _mm256_slli_epi32(c1, 16));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(r + 2 * p), out);
  }
}

const KyberKernels kKyberAvx2{&ntt, &invntt, &basemul_acc};

}  // namespace

const KyberKernels* kyber_avx2() { return &kKyberAvx2; }

}  // namespace pqtls::crypto::backend::detail

#else  // !PQTLS_HAVE_AVX2

namespace pqtls::crypto::backend::detail {

const KyberKernels* kyber_avx2() { return nullptr; }

}  // namespace pqtls::crypto::backend::detail

#endif
