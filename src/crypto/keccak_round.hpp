// Internal: the Keccak-f[1600] round, written once over the lane type.
// keccak.cpp instantiates it on std::uint64_t (one state); the AVX2
// backend instantiates it on __m256i (four states, one per 64-bit lane).
// Lane must support ^, & and ~ and have a rotl(Lane, int) overload below.
#pragma once

#include <bit>
#include <cstdint>

#if defined(__AVX2__)
#include <immintrin.h>
#endif

namespace pqtls::crypto::detail {

inline constexpr std::uint64_t kKeccakRoundConstants[24] = {
    0x0000000000000001ULL, 0x0000000000008082ULL, 0x800000000000808aULL,
    0x8000000080008000ULL, 0x000000000000808bULL, 0x0000000080000001ULL,
    0x8000000080008081ULL, 0x8000000000008009ULL, 0x000000000000008aULL,
    0x0000000000000088ULL, 0x0000000080008009ULL, 0x000000008000000aULL,
    0x000000008000808bULL, 0x800000000000008bULL, 0x8000000000008089ULL,
    0x8000000000008003ULL, 0x8000000000008002ULL, 0x8000000000000080ULL,
    0x000000000000800aULL, 0x800000008000000aULL, 0x8000000080008081ULL,
    0x8000000000008080ULL, 0x0000000080000001ULL, 0x8000000080008008ULL};

inline std::uint64_t rotl(std::uint64_t x, int n) { return std::rotl(x, n); }

inline std::uint64_t splat(std::uint64_t c, std::uint64_t /*lane_type*/) {
  return c;
}

#if defined(__AVX2__)
// Rotates each of the four 64-bit lanes; n is a constant after inlining.
inline __m256i rotl(__m256i x, int n) {
  return _mm256_or_si256(_mm256_slli_epi64(x, n), _mm256_srli_epi64(x, 64 - n));
}

inline __m256i splat(std::uint64_t c, __m256i /*lane_type*/) {
  return _mm256_set1_epi64x(static_cast<long long>(c));
}
#endif

// Chi over one output row: b0..b4 are the row's five lanes after theta,
// rho and pi.
template <typename Lane>
inline void keccak_chi(Lane* row, Lane b0, Lane b1, Lane b2, Lane b3,
                       Lane b4) {
  row[0] = b0 ^ (~b1 & b2);
  row[1] = b1 ^ (~b2 & b3);
  row[2] = b2 ^ (~b3 & b4);
  row[3] = b3 ^ (~b4 & b0);
  row[4] = b4 ^ (~b0 & b1);
}

// One Keccak-f[1600] round from lanes `a` into lanes `e`, both laid out as
// state[x + 5y]. Rho/pi is hard-coded: output lane (X, Y) is input lane
// (X + 3Y mod 5, X) rotated by that input lane's rho offset.
template <typename Lane>
inline void keccak_round(const Lane* a, Lane* e, Lane rc) {
  // Theta: column parities c0..c4 and the per-column masks d0..d4.
  const Lane c0 = a[0] ^ a[5] ^ a[10] ^ a[15] ^ a[20];
  const Lane c1 = a[1] ^ a[6] ^ a[11] ^ a[16] ^ a[21];
  const Lane c2 = a[2] ^ a[7] ^ a[12] ^ a[17] ^ a[22];
  const Lane c3 = a[3] ^ a[8] ^ a[13] ^ a[18] ^ a[23];
  const Lane c4 = a[4] ^ a[9] ^ a[14] ^ a[19] ^ a[24];
  const Lane d0 = c4 ^ rotl(c1, 1);
  const Lane d1 = c0 ^ rotl(c2, 1);
  const Lane d2 = c1 ^ rotl(c3, 1);
  const Lane d3 = c2 ^ rotl(c4, 1);
  const Lane d4 = c3 ^ rotl(c0, 1);
  // Rho + pi + chi, one output row at a time.
  keccak_chi(e, a[0] ^ d0, rotl(a[6] ^ d1, 44), rotl(a[12] ^ d2, 43),
             rotl(a[18] ^ d3, 21), rotl(a[24] ^ d4, 14));
  keccak_chi(e + 5, rotl(a[3] ^ d3, 28), rotl(a[9] ^ d4, 20),
             rotl(a[10] ^ d0, 3), rotl(a[16] ^ d1, 45), rotl(a[22] ^ d2, 61));
  keccak_chi(e + 10, rotl(a[1] ^ d1, 1), rotl(a[7] ^ d2, 6),
             rotl(a[13] ^ d3, 25), rotl(a[19] ^ d4, 8), rotl(a[20] ^ d0, 18));
  keccak_chi(e + 15, rotl(a[4] ^ d4, 27), rotl(a[5] ^ d0, 36),
             rotl(a[11] ^ d1, 10), rotl(a[17] ^ d2, 15),
             rotl(a[23] ^ d3, 56));
  keccak_chi(e + 20, rotl(a[2] ^ d2, 62), rotl(a[8] ^ d3, 55),
             rotl(a[14] ^ d4, 39), rotl(a[15] ^ d0, 41), rotl(a[21] ^ d1, 2));
  // Iota.
  e[0] = e[0] ^ rc;
}

// The full 24-round permutation, in place. Rounds alternate between the
// state and a scratch copy, so no round needs a lane-by-lane copy back.
template <typename Lane>
inline void keccak_f1600(Lane* a) {
  Lane e[25];
  for (int round = 0; round < 24; round += 2) {
    keccak_round(a, e, splat(kKeccakRoundConstants[round], Lane{}));
    keccak_round(e, a, splat(kKeccakRoundConstants[round + 1], Lane{}));
  }
}

}  // namespace pqtls::crypto::detail
