#include "crypto/keccak.hpp"

#include <stdexcept>

#include "crypto/backend/backend.hpp"
#include "crypto/keccak_round.hpp"

namespace pqtls::crypto {

namespace {

std::size_t shake_rate_bytes(int bits) {
  if (bits == 128) return 168;
  if (bits == 256) return 136;
  throw std::invalid_argument("Shake: bits must be 128 or 256");
}

}  // namespace

void KeccakSponge::permute() { detail::keccak_f1600(state_.data()); }

void KeccakSponge::reset() {
  state_.fill(0);
  offset_ = 0;
  squeezing_ = false;
}

void KeccakSponge::absorb(BytesView data) {
  if (squeezing_)
    throw std::logic_error("KeccakSponge: absorb after squeezing began");
  auto* bytes = reinterpret_cast<std::uint8_t*>(state_.data());
  const std::uint8_t* in = data.data();
  std::size_t len = data.size();
  // Unaligned head: bytes until the rate boundary.
  while (len > 0 && offset_ != 0) {
    bytes[offset_++] ^= *in++;
    --len;
    if (offset_ == rate_) {
      permute();
      offset_ = 0;
    }
  }
  // Whole blocks: XOR 64-bit lanes (every rate is a multiple of 8 bytes).
  while (len >= rate_) {
    for (std::size_t i = 0; i < rate_ / 8; ++i)
      state_[i] ^= load_le64(in + 8 * i);
    permute();
    in += rate_;
    len -= rate_;
  }
  // Tail: fewer than rate bytes left.
  for (; len > 0; --len) bytes[offset_++] ^= *in++;
}

void KeccakSponge::pad() {
  auto* bytes = reinterpret_cast<std::uint8_t*>(state_.data());
  bytes[offset_] ^= domain_;
  bytes[rate_ - 1] ^= 0x80;
  permute();
  offset_ = 0;
  squeezing_ = true;
}

void KeccakSponge::squeeze(std::uint8_t* out, std::size_t len) {
  if (!squeezing_) pad();
  const auto* bytes = reinterpret_cast<const std::uint8_t*>(state_.data());
  while (len > 0) {
    if (offset_ == rate_) {
      permute();
      offset_ = 0;
    }
    std::size_t take = std::min(len, rate_ - offset_);
    std::memcpy(out, bytes + offset_, take);
    out += take;
    len -= take;
    offset_ += take;
  }
}

Bytes sha3_256(BytesView data) {
  KeccakSponge sponge(136, 0x06);
  sponge.absorb(data);
  return sponge.squeeze(32);
}

Bytes sha3_512(BytesView data) {
  KeccakSponge sponge(72, 0x06);
  sponge.absorb(data);
  return sponge.squeeze(64);
}

Shake::Shake(int bits) : sponge_(shake_rate_bytes(bits), 0x1f) {}

ShakeX4::ShakeX4(int bits, std::span<const BytesView> inputs)
    : rate_(shake_rate_bytes(bits)),
      lanes_(static_cast<int>(inputs.size())),
      permute_x4_(backend::keccak_kernels().permute_x4) {
  if (inputs.empty() || inputs.size() > 4)
    throw std::invalid_argument("ShakeX4: want 1 to 4 inputs");
  const std::size_t len = inputs[0].size();
  for (const BytesView& in : inputs)
    if (in.size() != len)
      throw std::invalid_argument("ShakeX4: inputs must have equal lengths");
  std::size_t off = 0;
  for (; len - off >= rate_; off += rate_) {
    for (std::size_t i = 0; i < rate_ / 8; ++i)
      for (int k = 0; k < lanes_; ++k)
        state_[4 * i + k] ^= load_le64(inputs[k].data() + off + 8 * i);
    permute_x4_(state_, lanes_);
  }
  // Tail and SHAKE padding; the padding permutation runs on the first
  // squeeze_blocks() call.
  for (int k = 0; k < lanes_; ++k) {
    for (std::size_t b = off; b < len; ++b)
      xor_byte(k, b - off, inputs[k][b]);
    xor_byte(k, len - off, 0x1f);
    xor_byte(k, rate_ - 1, 0x80);
  }
}

void ShakeX4::squeeze_blocks(const std::array<std::uint8_t*, 4>& out,
                             std::size_t blocks) {
  for (std::size_t blk = 0; blk < blocks; ++blk) {
    permute_x4_(state_, lanes_);
    for (int k = 0; k < lanes_; ++k)
      for (std::size_t i = 0; i < rate_ / 8; ++i)
        store_le64(out[k] + blk * rate_ + 8 * i, state_[4 * i + k]);
  }
}

Bytes shake128(BytesView data, std::size_t out_len) {
  Shake xof(128);
  xof.absorb(data);
  return xof.squeeze(out_len);
}

Bytes shake256(BytesView data, std::size_t out_len) {
  Shake xof(256);
  xof.absorb(data);
  return xof.squeeze(out_len);
}

}  // namespace pqtls::crypto
