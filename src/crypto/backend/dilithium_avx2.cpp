// AVX2 kernels for the Dilithium NTT domain (q = 8380417). Coefficients
// are int32 in [0, q); products need 46 bits, so each __m256i of 8
// coefficients is split into even/odd 64-bit half-lanes and multiplied
// with _mm256_mul_epu32. Montgomery arithmetic uses R = 2^32 with a
// conditional subtract back to canonical after every step, making the
// results bit-identical to the portable %-based kernels. Twiddles are
// premultiplied by R at static init from the same 1753^bitrev8(i) table.
// Every layer runs in registers: len >= 16 pairs whole vectors, and one
// fused pass per 16 coefficients does len = 8, 4, 2 and 1 by regrouping
// lanes (128-bit halves, then 64-bit lanes, then the even/odd split) with
// a per-lane twiddle vector.
#include <cstdint>

#include "crypto/backend/kernels.hpp"

#if defined(PQTLS_HAVE_AVX2)

#include <immintrin.h>

namespace pqtls::crypto::backend::detail {
namespace {

constexpr int kN = 256;
constexpr std::int32_t kQ = 8380417;
constexpr std::int64_t kInv256 = 8347681;  // 256^{-1} mod q

struct Tables {
  std::int64_t zeta_m[256];  // zeta * 2^32 mod q (Montgomery form)
  std::uint32_t nqinv;       // -q^{-1} mod 2^32
  std::int64_t r2;           // 2^64 mod q
  std::int64_t inv256_m;     // kInv256 * 2^32 mod q
  Tables() {
    auto bitrev8 = [](int x) {
      int r = 0;
      for (int b = 0; b < 8; ++b)
        if (x & (1 << b)) r |= 1 << (7 - b);
      return r;
    };
    for (int i = 0; i < 256; ++i) {
      int e = bitrev8(i);
      std::int64_t v = 1;
      for (int j = 0; j < e; ++j) v = (v * 1753) % kQ;
      zeta_m[i] = (v << 32) % kQ;
    }
    // Newton iteration for q^{-1} mod 2^32 (q odd), then negate.
    std::uint32_t qinv = 1;
    for (int i = 0; i < 5; ++i)
      qinv *= 2u - static_cast<std::uint32_t>(kQ) * qinv;
    nqinv = ~qinv + 1u;
    std::int64_t r1 = (static_cast<std::int64_t>(1) << 32) % kQ;
    r2 = (r1 * r1) % kQ;
    inv256_m = (kInv256 << 32) % kQ;
  }
};
const Tables kT;

inline __m256i q32() { return _mm256_set1_epi32(kQ); }
inline __m256i q64() { return _mm256_set1_epi64x(kQ); }

// [0, 2q) -> [0, q) on 8 int32 lanes.
inline __m256i csub32(__m256i a) {
  __m256i lt = _mm256_cmpgt_epi32(q32(), a);
  return _mm256_sub_epi32(a, _mm256_andnot_si256(lt, q32()));
}

// Montgomery reduction of four 64-bit lanes holding nonnegative t < 2^46:
// returns t * 2^{-32} mod q canonical in the low half of each lane.
inline __m256i mredc64(__m256i t) {
  // _mm256_mul_epu32 reads only the low 32 bits of each lane, so m needs
  // no mask.
  __m256i m = _mm256_mul_epu32(
      t, _mm256_set1_epi64x(static_cast<long long>(kT.nqinv)));
  __m256i r =
      _mm256_srli_epi64(_mm256_add_epi64(t, _mm256_mul_epu32(m, q64())), 32);
  // r < 2^14 + q with a zero high half: one 32-bit conditional subtract.
  return csub32(r);
}

// Split 8 canonical int32 lanes into even/odd 64-bit half-vectors
// (zero-extended: values < q keep the sign bit clear).
inline void split(__m256i v, __m256i& ev, __m256i& od) {
  ev = _mm256_and_si256(v, _mm256_set1_epi64x(0xFFFFFFFF));
  od = _mm256_srli_epi64(v, 32);
}

inline __m256i join(__m256i ev, __m256i od) {
  return _mm256_or_si256(ev, _mm256_slli_epi64(od, 32));
}

// 8 canonical coefficients times a Montgomery-form constant zm (< q).
inline __m256i mmul8(__m256i v, __m256i zm) {
  __m256i ev, od;
  split(v, ev, od);
  return join(mredc64(_mm256_mul_epu32(ev, zm)),
              mredc64(_mm256_mul_epu32(od, zm)));
}

// Twiddle vector for the 64-bit lanes of a butterfly: lane i multiplies by
// zeta_m[z_i] (both of its 32-bit coefficients, after split()).
inline __m256i zetas4(int z0, int z1, int z2, int z3) {
  return _mm256_setr_epi64x(kT.zeta_m[z0], kT.zeta_m[z1], kT.zeta_m[z2],
                            kT.zeta_m[z3]);
}

// Forward (Cooley-Tukey) butterfly on 8 lane pairs: a += b*z, b = a - b*z.
inline void fwd_bfly(__m256i& a, __m256i& b, __m256i zm) {
  __m256i t = mmul8(b, zm);
  b = csub32(_mm256_add_epi32(_mm256_sub_epi32(a, t), q32()));
  a = csub32(_mm256_add_epi32(a, t));
}

// Inverse (Gentleman-Sande) butterfly: a += b, b = (b - a) * z.
inline void inv_bfly(__m256i& a, __m256i& b, __m256i zm) {
  __m256i d = csub32(_mm256_add_epi32(_mm256_sub_epi32(b, a), q32()));
  a = csub32(_mm256_add_epi32(a, b));
  b = mmul8(d, zm);
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

// The last four forward layers on coefficients 16p..16p+15 (v0 = the
// first 8, v1 = the rest). Twiddle indices follow the portable ++k order:
// len = 8 uses 16 + p, len = 4 uses 32 + block, len = 2 uses 64 + group,
// len = 1 uses 128 + pair.
inline void ntt_tail(__m256i& v0, __m256i& v1, int p) {
  fwd_bfly(v0, v1, _mm256_set1_epi64x(kT.zeta_m[16 + p]));
  // len = 4: v0 = both low halves, v1 = both high halves.
  swap128(v0, v1);
  const int b = 32 + 2 * p;
  fwd_bfly(v0, v1, zetas4(b, b, b + 1, b + 1));
  swap128(v0, v1);
  // len = 2: 64-bit lanes hold coefficient pairs; groups of four
  // coefficients g..g+3 land in lanes (g, g+2, g+1, g+3).
  swap64(v0, v1);
  const int g = 64 + 4 * p;
  fwd_bfly(v0, v1, zetas4(g, g + 2, g + 1, g + 3));
  swap64(v0, v1);
  // len = 1: the even/odd split already separates each butterfly's inputs.
  const int m = 128 + 8 * p;
  __m256i* v[2] = {&v0, &v1};
  for (int h = 0; h < 2; ++h) {
    __m256i ev, od;
    split(*v[h], ev, od);
    const int z = m + 4 * h;
    __m256i t = mredc64(_mm256_mul_epu32(od, zetas4(z, z + 1, z + 2, z + 3)));
    // The high halves of ev and t are zero; csub32 maps the q that the
    // subtraction leaves there back to zero.
    od = csub32(_mm256_add_epi32(_mm256_sub_epi32(ev, t), q32()));
    ev = csub32(_mm256_add_epi32(ev, t));
    *v[h] = join(ev, od);
  }
}

// Inverse of ntt_tail's layer order: len = 1, 2, 4, 8, twiddles walked in
// the portable --k order from 255 down to 16.
inline void invntt_head(__m256i& v0, __m256i& v1, int p) {
  const int m = 255 - 8 * p;
  __m256i* v[2] = {&v0, &v1};
  for (int h = 0; h < 2; ++h) {
    __m256i ev, od;
    split(*v[h], ev, od);
    const int z = m - 4 * h;
    __m256i d = csub32(_mm256_add_epi32(_mm256_sub_epi32(od, ev), q32()));
    ev = csub32(_mm256_add_epi32(ev, od));
    od = mredc64(_mm256_mul_epu32(d, zetas4(z, z - 1, z - 2, z - 3)));
    *v[h] = join(ev, od);
  }
  swap64(v0, v1);
  const int g = 127 - 4 * p;
  inv_bfly(v0, v1, zetas4(g, g - 2, g - 1, g - 3));
  swap64(v0, v1);
  swap128(v0, v1);
  const int b = 63 - 2 * p;
  inv_bfly(v0, v1, zetas4(b, b, b - 1, b - 1));
  swap128(v0, v1);
  inv_bfly(v0, v1, _mm256_set1_epi64x(kT.zeta_m[31 - p]));
}

inline __m256i load(const std::int32_t* p) {
  return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
}

inline void store(std::int32_t* p, __m256i v) {
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), v);
}

void ntt(std::int32_t* r) {
  int k = 0;
  for (int len = 128; len >= 16; len >>= 1) {
    for (int start = 0; start < kN; start += 2 * len) {
      __m256i zm = _mm256_set1_epi64x(kT.zeta_m[++k]);
      for (int j = start; j < start + len; j += 8) {
        __m256i a = load(r + j);
        __m256i b = load(r + j + len);
        fwd_bfly(a, b, zm);
        store(r + j, a);
        store(r + j + len, b);
      }
    }
  }
  for (int p = 0; p < kN / 16; ++p) {
    __m256i v0 = load(r + 16 * p);
    __m256i v1 = load(r + 16 * p + 8);
    ntt_tail(v0, v1, p);
    store(r + 16 * p, v0);
    store(r + 16 * p + 8, v1);
  }
}

void invntt(std::int32_t* r) {
  for (int p = 0; p < kN / 16; ++p) {
    __m256i v0 = load(r + 16 * p);
    __m256i v1 = load(r + 16 * p + 8);
    invntt_head(v0, v1, p);
    store(r + 16 * p, v0);
    store(r + 16 * p + 8, v1);
  }
  int k = 16;
  for (int len = 16; len <= 128; len <<= 1) {
    for (int start = 0; start < kN; start += 2 * len) {
      __m256i zm = _mm256_set1_epi64x(kT.zeta_m[--k]);
      for (int j = start; j < start + len; j += 8) {
        __m256i a = load(r + j);
        __m256i b = load(r + j + len);
        inv_bfly(a, b, zm);
        store(r + j, a);
        store(r + j + len, b);
      }
    }
  }
  __m256i f = _mm256_set1_epi64x(kT.inv256_m);
  for (int j = 0; j < kN; j += 8) store(r + j, mmul8(load(r + j), f));
}

void pointwise_acc(std::int32_t* r, const std::int32_t* a,
                   const std::int32_t* b) {
  const __m256i r2 = _mm256_set1_epi64x(kT.r2);
  for (int j = 0; j < kN; j += 8) {
    __m256i av = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + j));
    __m256i bv = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + j));
    __m256i rv = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(r + j));
    __m256i ae, ao, be, bo;
    split(av, ae, ao);
    split(bv, be, bo);
    // a*b*R^{-1}, then * R^2 * R^{-1} -> plain a*b mod q.
    __m256i pe = mredc64(_mm256_mul_epu32(mredc64(_mm256_mul_epu32(ae, be)),
                                          r2));
    __m256i po = mredc64(_mm256_mul_epu32(mredc64(_mm256_mul_epu32(ao, bo)),
                                          r2));
    __m256i d = join(pe, po);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(r + j),
                        csub32(_mm256_add_epi32(rv, d)));
  }
}

const DilithiumKernels kDilithiumAvx2{&ntt, &invntt, &pointwise_acc};

}  // namespace

const DilithiumKernels* dilithium_avx2() { return &kDilithiumAvx2; }

}  // namespace pqtls::crypto::backend::detail

#else  // !PQTLS_HAVE_AVX2

namespace pqtls::crypto::backend::detail {

const DilithiumKernels* dilithium_avx2() { return nullptr; }

}  // namespace pqtls::crypto::backend::detail

#endif
