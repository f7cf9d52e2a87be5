#include "crypto/keccak.hpp"

#include <bit>
#include <stdexcept>

namespace pqtls::crypto {

namespace {

constexpr std::uint64_t kRoundConstants[24] = {
    0x0000000000000001ULL, 0x0000000000008082ULL, 0x800000000000808aULL,
    0x8000000080008000ULL, 0x000000000000808bULL, 0x0000000080000001ULL,
    0x8000000080008081ULL, 0x8000000000008009ULL, 0x000000000000008aULL,
    0x0000000000000088ULL, 0x0000000080008009ULL, 0x000000008000000aULL,
    0x000000008000808bULL, 0x800000000000008bULL, 0x8000000000008089ULL,
    0x8000000000008003ULL, 0x8000000000008002ULL, 0x8000000000000080ULL,
    0x000000000000800aULL, 0x800000008000000aULL, 0x8000000080008081ULL,
    0x8000000000008080ULL, 0x0000000080000001ULL, 0x8000000080008008ULL};

// Chi over one output row: b0..b4 are the row's five lanes after theta,
// rho and pi.
inline void chi(std::uint64_t* row, std::uint64_t b0, std::uint64_t b1,
                std::uint64_t b2, std::uint64_t b3, std::uint64_t b4) {
  row[0] = b0 ^ (~b1 & b2);
  row[1] = b1 ^ (~b2 & b3);
  row[2] = b2 ^ (~b3 & b4);
  row[3] = b3 ^ (~b4 & b0);
  row[4] = b4 ^ (~b0 & b1);
}

// One Keccak-f[1600] round from lanes `a` into lanes `e`, both laid out as
// state[x + 5y]. Rho/pi is hard-coded: output lane (X, Y) is input lane
// (X + 3Y mod 5, X) rotated by that input lane's rho offset.
inline void keccak_round(const std::uint64_t* a, std::uint64_t* e,
                         std::uint64_t rc) {
  // Theta: column parities c0..c4 and the per-column masks d0..d4.
  const std::uint64_t c0 = a[0] ^ a[5] ^ a[10] ^ a[15] ^ a[20];
  const std::uint64_t c1 = a[1] ^ a[6] ^ a[11] ^ a[16] ^ a[21];
  const std::uint64_t c2 = a[2] ^ a[7] ^ a[12] ^ a[17] ^ a[22];
  const std::uint64_t c3 = a[3] ^ a[8] ^ a[13] ^ a[18] ^ a[23];
  const std::uint64_t c4 = a[4] ^ a[9] ^ a[14] ^ a[19] ^ a[24];
  const std::uint64_t d0 = c4 ^ std::rotl(c1, 1);
  const std::uint64_t d1 = c0 ^ std::rotl(c2, 1);
  const std::uint64_t d2 = c1 ^ std::rotl(c3, 1);
  const std::uint64_t d3 = c2 ^ std::rotl(c4, 1);
  const std::uint64_t d4 = c3 ^ std::rotl(c0, 1);
  // Rho + pi + chi, one output row at a time.
  chi(e, a[0] ^ d0, std::rotl(a[6] ^ d1, 44), std::rotl(a[12] ^ d2, 43),
      std::rotl(a[18] ^ d3, 21), std::rotl(a[24] ^ d4, 14));
  chi(e + 5, std::rotl(a[3] ^ d3, 28), std::rotl(a[9] ^ d4, 20),
      std::rotl(a[10] ^ d0, 3), std::rotl(a[16] ^ d1, 45),
      std::rotl(a[22] ^ d2, 61));
  chi(e + 10, std::rotl(a[1] ^ d1, 1), std::rotl(a[7] ^ d2, 6),
      std::rotl(a[13] ^ d3, 25), std::rotl(a[19] ^ d4, 8),
      std::rotl(a[20] ^ d0, 18));
  chi(e + 15, std::rotl(a[4] ^ d4, 27), std::rotl(a[5] ^ d0, 36),
      std::rotl(a[11] ^ d1, 10), std::rotl(a[17] ^ d2, 15),
      std::rotl(a[23] ^ d3, 56));
  chi(e + 20, std::rotl(a[2] ^ d2, 62), std::rotl(a[8] ^ d3, 55),
      std::rotl(a[14] ^ d4, 39), std::rotl(a[15] ^ d0, 41),
      std::rotl(a[21] ^ d1, 2));
  // Iota.
  e[0] ^= rc;
}

std::size_t shake_rate_bytes(int bits) {
  if (bits == 128) return 168;
  if (bits == 256) return 136;
  throw std::invalid_argument("Shake: bits must be 128 or 256");
}

}  // namespace

void KeccakSponge::permute() {
  // Rounds alternate between the state and a scratch copy, so no round
  // needs a lane-by-lane copy back.
  std::uint64_t* a = state_.data();
  std::uint64_t e[25];
  for (int round = 0; round < 24; round += 2) {
    keccak_round(a, e, kRoundConstants[round]);
    keccak_round(e, a, kRoundConstants[round + 1]);
  }
}

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
