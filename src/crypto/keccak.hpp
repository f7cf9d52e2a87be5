// Keccak-f[1600] sponge: SHA3-256/512 and the SHAKE-128/256 XOFs (FIPS 202).
#pragma once

#include <array>
#include <cstdint>
#include <span>

#include "crypto/bytes.hpp"

namespace pqtls::crypto {

/// Sponge over Keccak-f[1600]. Parameterized by rate and domain separator.
class KeccakSponge {
 public:
  KeccakSponge(std::size_t rate_bytes, std::uint8_t domain)
      : rate_(rate_bytes), domain_(domain) {}

  /// Throws std::logic_error once squeezing has begun.
  void absorb(BytesView data);
  /// Switch to squeezing (idempotent); then produce output incrementally.
  void squeeze(std::uint8_t* out, std::size_t len);
  Bytes squeeze(std::size_t len) {
    Bytes out(len);
    squeeze(out.data(), len);
    return out;
  }
  void reset();

 private:
  void permute();
  void pad();

  std::array<std::uint64_t, 25> state_{};
  std::size_t rate_;
  std::uint8_t domain_;
  std::size_t offset_ = 0;  // absorb or squeeze position within the rate
  bool squeezing_ = false;
};

/// One-shot SHA3-256 / SHA3-512.
Bytes sha3_256(BytesView data);
Bytes sha3_512(BytesView data);

/// Incremental SHAKE XOF.
class Shake {
 public:
  /// bits must be 128 or 256; anything else throws std::invalid_argument.
  explicit Shake(int bits);
  void absorb(BytesView data) { sponge_.absorb(data); }
  void squeeze(std::uint8_t* out, std::size_t len) { sponge_.squeeze(out, len); }
  Bytes squeeze(std::size_t len) { return sponge_.squeeze(len); }

 private:
  KeccakSponge sponge_;
};

/// Up to four SHAKE streams advanced in lockstep through the backend's
/// 4-way Keccak-f[1600] (crypto/backend: AVX2 costs one permutation for
/// all four lanes; portable runs the scalar permutation per live lane).
/// Lane k's output is byte-identical to a Shake that absorbed inputs[k];
/// only the speed depends on the backend.
class ShakeX4 {
 public:
  /// bits must be 128 or 256, and 1 to 4 inputs of equal length; anything
  /// else throws std::invalid_argument. Absorbs and pads every input.
  ShakeX4(int bits, std::span<const BytesView> inputs);
  std::size_t rate() const { return rate_; }
  /// Writes the next `blocks` rate-sized blocks of lane k's stream to
  /// out[k] (blocks * rate() bytes each) for every input lane k, all
  /// lanes together; entries past the number of inputs are ignored.
  void squeeze_blocks(const std::array<std::uint8_t*, 4>& out,
                      std::size_t blocks);

 private:
  void xor_byte(int lane, std::size_t pos, std::uint8_t v) {
    state_[4 * (pos / 8) + lane] ^= std::uint64_t{v} << (8 * (pos % 8));
  }

  // Four interleaved states: word 4*i + k is lane i of state k.
  alignas(32) std::uint64_t state_[100] = {};
  std::size_t rate_;
  int lanes_;
  void (*permute_x4_)(std::uint64_t* states, int lanes);
};

Bytes shake128(BytesView data, std::size_t out_len);
Bytes shake256(BytesView data, std::size_t out_len);

}  // namespace pqtls::crypto
