// AVX2 4-way Keccak-f[1600]: the shared round (crypto/keccak_round.hpp)
// instantiated on __m256i, so each 64-bit lane of a register carries the
// same Keccak lane of a different state. The interleaved state layout
// (word 4*i + k = lane i of state k) makes every load and store a plain
// 256-bit move.
#include <cstdint>

#include "crypto/backend/kernels.hpp"

#if defined(PQTLS_HAVE_AVX2)

#include <immintrin.h>

#include "crypto/keccak_round.hpp"

namespace pqtls::crypto::backend::detail {
namespace {

void permute_x4(std::uint64_t* states, int /*lanes*/) {
  __m256i a[25];
  for (int i = 0; i < 25; ++i)
    a[i] = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(states + 4 * i));
  crypto::detail::keccak_f1600(a);
  for (int i = 0; i < 25; ++i)
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(states + 4 * i), a[i]);
}

const KeccakKernels kKeccakAvx2{&permute_x4};

}  // namespace

const KeccakKernels* keccak_avx2() { return &kKeccakAvx2; }

}  // namespace pqtls::crypto::backend::detail

#else  // !PQTLS_HAVE_AVX2

namespace pqtls::crypto::backend::detail {

const KeccakKernels* keccak_avx2() { return nullptr; }

}  // namespace pqtls::crypto::backend::detail

#endif
