// Portable 4-way Keccak-f[1600]: the scalar permutation run once per live
// state. This is the reference the AVX2 kernel must match bit for bit.
#include <cstdint>

#include "crypto/backend/kernels.hpp"
#include "crypto/keccak_round.hpp"

namespace pqtls::crypto::backend::detail {
namespace {

void permute_x4(std::uint64_t* states, int lanes) {
  for (int k = 0; k < lanes; ++k) {
    std::uint64_t s[25];
    for (int i = 0; i < 25; ++i) s[i] = states[4 * i + k];
    crypto::detail::keccak_f1600(s);
    for (int i = 0; i < 25; ++i) states[4 * i + k] = s[i];
  }
}

}  // namespace

const KeccakKernels kKeccakPortable{&permute_x4};

}  // namespace pqtls::crypto::backend::detail
