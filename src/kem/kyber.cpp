#include "kem/kyber.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>

#include "crypto/aes.hpp"
#include "crypto/backend/backend.hpp"
#include "crypto/ct.hpp"
#include "crypto/keccak.hpp"
#include "crypto/sha2.hpp"

namespace pqtls::kem {

namespace {

using crypto::AesCtr;
using crypto::Shake;

constexpr int kN = 256;
constexpr int kQ = 3329;
constexpr int kSymBytes = 32;

using Poly = std::array<std::int16_t, kN>;

// Reduce into [0, q).
std::int16_t freduce(std::int32_t a) {
  a %= kQ;
  if (a < 0) a += kQ;
  return static_cast<std::int16_t>(a);
}

// NTT-domain kernels route through the runtime-selected backend
// (crypto/backend): portable reference or AVX2, bit-identical either way.

void ntt(Poly& r) { crypto::backend::kyber_kernels().ntt(r.data()); }

void invntt(Poly& r) { crypto::backend::kyber_kernels().invntt(r.data()); }

void poly_add(Poly& r, const Poly& a) {
  for (int i = 0; i < kN; ++i) r[i] = freduce(r[i] + a[i]);
}

void poly_sub(Poly& r, const Poly& a) {
  for (int i = 0; i < kN; ++i) r[i] = freduce(r[i] - a[i] + kQ);
}

// Multiplication of NTT-domain polynomials: pairwise products in
// Z_q[X]/(X^2 - zeta).
void basemul_acc(Poly& r, const Poly& a, const Poly& b, bool accumulate) {
  crypto::backend::kyber_kernels().basemul_acc(r.data(), a.data(), b.data(),
                                               accumulate);
}

// ---- symmetric primitives, parameterized over the 90s flag ----

Bytes hash_h(bool use_90s, BytesView in) {
  return use_90s ? crypto::sha256(in) : crypto::sha3_256(in);
}

Bytes hash_g(bool use_90s, BytesView in) {
  return use_90s ? crypto::sha512(in) : crypto::sha3_512(in);
}

Bytes kdf(bool use_90s, BytesView in) {
  return use_90s ? crypto::sha256(in) : crypto::shake256(in, kSymBytes);
}

Bytes prf(bool use_90s, BytesView seed32, std::uint8_t nonce, std::size_t len) {
  if (use_90s) {
    Bytes iv(16, 0);
    iv[0] = nonce;
    AesCtr ctr(seed32, iv);
    Bytes out(len);
    ctr.keystream(out.data(), out.size());
    return out;
  }
  Bytes input(seed32.begin(), seed32.end());
  input.push_back(nonce);
  return crypto::shake256(input, len);
}

// Kyber's 12-bit rejection sampler: appends the values below q found in
// the 3-byte groups of buf[0..len) to out[count..]; returns the new count.
int rej_uniform(Poly& out, int count, const std::uint8_t* buf,
                std::size_t len) {
  for (std::size_t b = 0; b + 3 <= len && count < kN; b += 3) {
    int d1 = buf[b] | ((buf[b + 1] & 0x0f) << 8);
    int d2 = (buf[b + 1] >> 4) | (buf[b + 2] << 4);
    if (d1 < kQ) out[count++] = static_cast<std::int16_t>(d1);
    if (d2 < kQ && count < kN) out[count++] = static_cast<std::int16_t>(d2);
  }
  return count;
}

// The k x k matrix of NTT-domain polynomials sampled from rho, row-major:
// entry (i, j) is drawn with the two index bytes (i, j), or (j, i) when
// `transposed`. The SHAKE variant draws up to four polynomials per 4-way
// sponge; the 90s variant draws them one by one with AES-256-CTR.
std::vector<Poly> sample_matrix(bool use_90s, BytesView rho, int k,
                                bool transposed) {
  const int n = k * k;
  std::vector<Poly> a(n);
  auto index_bytes = [&](int idx) {
    const auto i = static_cast<std::uint8_t>(idx / k);
    const auto j = static_cast<std::uint8_t>(idx % k);
    return transposed ? std::array<std::uint8_t, 2>{j, i}
                      : std::array<std::uint8_t, 2>{i, j};
  };
  if (use_90s) {
    for (int idx = 0; idx < n; ++idx) {
      const auto ij = index_bytes(idx);
      Bytes iv(16, 0);
      iv[0] = ij[0];
      iv[1] = ij[1];
      AesCtr ctr(rho, iv);
      std::uint8_t buf[192];
      for (int count = 0; count < kN;) {
        ctr.keystream(buf, sizeof buf);
        count = rej_uniform(a[idx], count, buf, sizeof buf);
      }
    }
    return a;
  }
  // Three SHAKE-128 blocks hold 336 candidates against 256 needed at an
  // acceptance rate of 0.81; a lane that runs short squeezes one more
  // block from all four.
  constexpr std::size_t kBlocks = 3;
  constexpr std::size_t kRate = 168;
  for (int base = 0; base < n; base += 4) {
    const int group = std::min(4, n - base);
    Bytes inputs[4];
    BytesView views[4];
    for (int t = 0; t < group; ++t) {
      const auto ij = index_bytes(base + t);
      inputs[t].assign(rho.begin(), rho.end());
      inputs[t].insert(inputs[t].end(), ij.begin(), ij.end());
      views[t] = inputs[t];
    }
    crypto::ShakeX4 xof(128, {views, static_cast<std::size_t>(group)});
    std::uint8_t buf[4][kBlocks * kRate];
    xof.squeeze_blocks({buf[0], buf[1], buf[2], buf[3]}, kBlocks);
    int count[4] = {};
    for (int t = 0; t < group; ++t)
      count[t] = rej_uniform(a[base + t], 0, buf[t], sizeof buf[t]);
    while (*std::min_element(count, count + group) < kN) {
      xof.squeeze_blocks({buf[0], buf[1], buf[2], buf[3]}, 1);
      for (int t = 0; t < group; ++t)
        count[t] = rej_uniform(a[base + t], count[t], buf[t], kRate);
    }
  }
  return a;
}

// Centered binomial distribution with parameter eta (2 or 3).
Poly cbd(BytesView buf, int eta) {
  Poly r{};
  if (eta == 2) {
    for (int i = 0; i < kN / 8; ++i) {
      std::uint32_t t = load_le32(buf.data() + 4 * i);
      std::uint32_t d = (t & 0x55555555u) + ((t >> 1) & 0x55555555u);
      for (int j = 0; j < 8; ++j) {
        int a = (d >> (4 * j)) & 0x3;
        int b = (d >> (4 * j + 2)) & 0x3;
        r[8 * i + j] = freduce(a - b + kQ);
      }
    }
  } else {  // eta == 3
    for (int i = 0; i < kN / 4; ++i) {
      std::uint32_t t = buf[3 * i] | (std::uint32_t{buf[3 * i + 1]} << 8) |
                        (std::uint32_t{buf[3 * i + 2]} << 16);
      std::uint32_t d = (t & 0x00249249u) + ((t >> 1) & 0x00249249u) +
                        ((t >> 2) & 0x00249249u);
      for (int j = 0; j < 4; ++j) {
        int a = (d >> (6 * j)) & 0x7;
        int b = (d >> (6 * j + 3)) & 0x7;
        r[4 * i + j] = freduce(a - b + kQ);
      }
    }
  }
  return r;
}

// 12-bit packing of an uncompressed polynomial.
void poly_tobytes(Bytes& out, const Poly& a) {
  for (int i = 0; i < kN / 2; ++i) {
    std::uint16_t t0 = static_cast<std::uint16_t>(a[2 * i]);
    std::uint16_t t1 = static_cast<std::uint16_t>(a[2 * i + 1]);
    out.push_back(static_cast<std::uint8_t>(t0));
    out.push_back(static_cast<std::uint8_t>((t0 >> 8) | (t1 << 4)));
    out.push_back(static_cast<std::uint8_t>(t1 >> 4));
  }
}

Poly poly_frombytes(BytesView in) {
  Poly r{};
  for (int i = 0; i < kN / 2; ++i) {
    r[2 * i] = static_cast<std::int16_t>(
        (in[3 * i] | (std::uint16_t{in[3 * i + 1]} << 8)) & 0xfff);
    r[2 * i + 1] = static_cast<std::int16_t>(
        ((in[3 * i + 1] >> 4) | (std::uint16_t{in[3 * i + 2]} << 4)) & 0xfff);
  }
  return r;
}

std::uint16_t compress_coeff(std::int16_t x, int d) {
  // round(2^d / q * x) mod 2^d
  std::uint32_t v = ((static_cast<std::uint32_t>(x) << d) + kQ / 2) / kQ;
  return static_cast<std::uint16_t>(v & ((1u << d) - 1));
}

std::int16_t decompress_coeff(std::uint16_t y, int d) {
  // round(q / 2^d * y)
  return static_cast<std::int16_t>((static_cast<std::uint32_t>(y) * kQ +
                                    (1u << (d - 1))) >> d);
}

// Bit-pack n coefficients of d bits each.
void pack_bits(Bytes& out, const Poly& a, int d) {
  std::uint32_t acc = 0;
  int bits = 0;
  for (int i = 0; i < kN; ++i) {
    acc |= std::uint32_t{compress_coeff(a[i], d)} << bits;
    bits += d;
    while (bits >= 8) {
      out.push_back(static_cast<std::uint8_t>(acc));
      acc >>= 8;
      bits -= 8;
    }
  }
}

Poly unpack_bits(BytesView in, int d) {
  Poly r{};
  std::uint32_t acc = 0;
  int bits = 0;
  std::size_t pos = 0;
  for (int i = 0; i < kN; ++i) {
    while (bits < d) {
      acc |= std::uint32_t{in[pos++]} << bits;
      bits += 8;
    }
    std::uint16_t v = acc & ((1u << d) - 1);
    acc >>= d;
    bits -= d;
    r[i] = decompress_coeff(v, d);
  }
  return r;
}

Poly poly_from_msg(BytesView msg32) {
  Poly r{};
  for (int i = 0; i < kSymBytes; ++i)
    for (int j = 0; j < 8; ++j)
      r[8 * i + j] = ((msg32[i] >> j) & 1) ? (kQ + 1) / 2 : 0;
  return r;
}

Bytes poly_to_msg(const Poly& a) {
  Bytes msg(kSymBytes, 0);
  for (int i = 0; i < kN; ++i) {
    std::uint16_t t = compress_coeff(a[i], 1);
    msg[i / 8] |= static_cast<std::uint8_t>(t << (i % 8));
  }
  return msg;
}

struct KpkeParams {
  int k;
  int eta1;
  int du;
  int dv;
  bool use_90s;
};

using PolyVec = std::vector<Poly>;

// IND-CPA public-key encryption (K-PKE).
struct Kpke {
  KpkeParams p;

  std::size_t pk_size() const { return 384 * p.k + kSymBytes; }
  std::size_t sk_size() const { return 384 * p.k; }
  std::size_t ct_size() const { return 32 * (p.du * p.k + p.dv); }

  void keygen(BytesView d32, Bytes& pk, Bytes& sk) const {
    Bytes g = hash_g(p.use_90s, d32);
    BytesView rho{g.data(), 32};
    BytesView sigma{g.data() + 32, 32};

    std::uint8_t nonce = 0;
    PolyVec s(p.k), e(p.k);
    std::size_t cbd_len = p.eta1 * kN / 4;
    for (auto& poly : s) {
      poly = cbd(prf(p.use_90s, sigma, nonce++, cbd_len), p.eta1);
      ntt(poly);
    }
    for (auto& poly : e) {
      poly = cbd(prf(p.use_90s, sigma, nonce++, cbd_len), p.eta1);
      ntt(poly);
    }

    const PolyVec a = sample_matrix(p.use_90s, rho, p.k, /*transposed=*/true);
    PolyVec t(p.k);
    for (int i = 0; i < p.k; ++i) {
      t[i] = Poly{};
      for (int j = 0; j < p.k; ++j)
        basemul_acc(t[i], a[static_cast<std::size_t>(i) * p.k + j], s[j],
                    /*accumulate=*/true);
      poly_add(t[i], e[i]);
    }

    pk.clear();
    for (const auto& poly : t) poly_tobytes(pk, poly);
    append(pk, rho);
    sk.clear();
    for (const auto& poly : s) poly_tobytes(sk, poly);
  }

  // Per-public-key state reusable across encryptions: the parsed t vector
  // and the expanded A^T matrix (the dominant per-call setup cost). Both
  // are deterministic functions of the public key, so hoisting them out of
  // encrypt() cannot change any output byte.
  struct ExpandedPk {
    PolyVec t;   // k parsed NTT-domain polys
    PolyVec at;  // A^T, row-major: at[i * k + j] = A[i][j] sampled from rho
  };

  ExpandedPk expand_pk(BytesView pk) const {
    ExpandedPk x;
    x.t.resize(p.k);
    for (int i = 0; i < p.k; ++i)
      x.t[i] = poly_frombytes(pk.subspan(384 * i, 384));
    BytesView rho = pk.subspan(384 * p.k, kSymBytes);
    x.at = sample_matrix(p.use_90s, rho, p.k, /*transposed=*/false);
    return x;
  }

  Bytes encrypt_with(const ExpandedPk& x, BytesView msg32,
                     BytesView coins32) const {
    std::uint8_t nonce = 0;
    PolyVec r(p.k);
    std::size_t cbd1_len = p.eta1 * kN / 4;
    for (auto& poly : r) {
      poly = cbd(prf(p.use_90s, coins32, nonce++, cbd1_len), p.eta1);
      ntt(poly);
    }
    PolyVec e1(p.k);
    for (auto& poly : e1)
      poly = cbd(prf(p.use_90s, coins32, nonce++, kN / 2), 2);
    Poly e2 = cbd(prf(p.use_90s, coins32, nonce++, kN / 2), 2);

    // u = invNTT(A^T r) + e1
    PolyVec u(p.k);
    for (int i = 0; i < p.k; ++i) {
      u[i] = Poly{};
      for (int j = 0; j < p.k; ++j)
        basemul_acc(u[i], x.at[static_cast<std::size_t>(i) * p.k + j], r[j],
                    true);
      invntt(u[i]);
      poly_add(u[i], e1[i]);
    }
    // v = invNTT(t . r) + e2 + msg
    Poly v{};
    for (int j = 0; j < p.k; ++j) basemul_acc(v, x.t[j], r[j], true);
    invntt(v);
    poly_add(v, e2);
    Poly m = poly_from_msg(msg32);
    poly_add(v, m);

    Bytes ct;
    ct.reserve(ct_size());
    for (const auto& poly : u) pack_bits(ct, poly, p.du);
    pack_bits(ct, v, p.dv);
    return ct;
  }

  Bytes encrypt(BytesView pk, BytesView msg32, BytesView coins32) const {
    return encrypt_with(expand_pk(pk), msg32, coins32);
  }

  PolyVec parse_sk(BytesView sk) const {
    PolyVec s(p.k);
    for (int i = 0; i < p.k; ++i)
      s[i] = poly_frombytes(sk.subspan(384 * i, 384));
    return s;
  }

  Bytes decrypt_with(const PolyVec& s, BytesView ct) const {
    PolyVec u(p.k);
    std::size_t u_bytes = 32 * p.du;
    for (int i = 0; i < p.k; ++i) {
      u[i] = unpack_bits(ct.subspan(i * u_bytes, u_bytes), p.du);
      ntt(u[i]);
    }
    Poly v = unpack_bits(ct.subspan(p.k * u_bytes, 32 * p.dv), p.dv);

    Poly su{};
    for (int j = 0; j < p.k; ++j) basemul_acc(su, s[j], u[j], true);
    invntt(su);
    poly_sub(v, su);
    return poly_to_msg(v);
  }

  Bytes decrypt(BytesView sk, BytesView ct) const {
    return decrypt_with(parse_sk(sk), ct);
  }
};

}  // namespace

KyberKem::KyberKem(int level, bool use_90s) : level_(level), use_90s_(use_90s) {
  switch (level) {
    case 1: k_ = 2; eta1_ = 3; du_ = 10; dv_ = 4; break;
    case 3: k_ = 3; eta1_ = 2; du_ = 10; dv_ = 4; break;
    case 5: k_ = 4; eta1_ = 2; du_ = 11; dv_ = 5; break;
    default: throw std::invalid_argument("Kyber level must be 1, 3, or 5");
  }
  int bits = k_ == 2 ? 512 : k_ == 3 ? 768 : 1024;
  name_ = (use_90s ? "kyber90s" : "kyber") + std::to_string(bits);
}

std::size_t KyberKem::public_key_size() const { return 384 * k_ + 32; }
std::size_t KyberKem::secret_key_size() const {
  return 384 * k_ + public_key_size() + 2 * kSymBytes;
}
std::size_t KyberKem::ciphertext_size() const {
  return 32 * (du_ * k_ + dv_);
}

KeyPair KyberKem::generate_keypair(Drbg& rng) const {
  Kpke kpke{{k_, eta1_, du_, dv_, use_90s_}};
  Bytes d = rng.bytes(kSymBytes);
  Bytes z = rng.bytes(kSymBytes);
  Bytes pk, sk_pke;
  kpke.keygen(d, pk, sk_pke);
  Bytes h_pk = hash_h(use_90s_, pk);
  KeyPair kp;
  kp.public_key = pk;
  kp.secret_key = concat(sk_pke, pk, h_pk, z);
  return kp;
}

std::optional<Encapsulation> KyberKem::encapsulate(BytesView public_key,
                                                   Drbg& rng) const {
  if (public_key.size() != public_key_size()) return std::nullopt;
  Kpke kpke{{k_, eta1_, du_, dv_, use_90s_}};
  Bytes m = hash_h(use_90s_, rng.bytes(kSymBytes));
  Bytes h_pk = hash_h(use_90s_, public_key);
  Bytes g = hash_g(use_90s_, concat(m, h_pk));
  BytesView k_bar{g.data(), 32};
  BytesView coins{g.data() + 32, 32};
  Encapsulation out;
  out.ciphertext = kpke.encrypt(public_key, m, coins);
  Bytes h_ct = hash_h(use_90s_, out.ciphertext);
  out.shared_secret = kdf(use_90s_, concat(k_bar, h_ct));
  return out;
}

std::optional<Bytes> KyberKem::decapsulate(BytesView secret_key,
                                           BytesView ciphertext) const {
  if (secret_key.size() != secret_key_size() ||
      ciphertext.size() != ciphertext_size())
    return std::nullopt;
  Kpke kpke{{k_, eta1_, du_, dv_, use_90s_}};
  std::size_t sk_pke_len = 384 * k_;
  BytesView sk_pke = secret_key.subspan(0, sk_pke_len);
  BytesView pk = secret_key.subspan(sk_pke_len, public_key_size());
  BytesView h_pk = secret_key.subspan(sk_pke_len + public_key_size(), 32);
  BytesView z = secret_key.subspan(sk_pke_len + public_key_size() + 32, 32);

  Bytes m = kpke.decrypt(sk_pke, ciphertext);  // CT_SECRET
  ct::Wiper m_guard(m);
  Bytes g = hash_g(use_90s_, concat(m, h_pk));  // CT_SECRET
  ct::Wiper g_guard(g);
  BytesView k_bar{g.data(), 32};
  BytesView coins{g.data() + 32, 32};
  Bytes ct2 = kpke.encrypt(pk, m, coins);
  Bytes h_ct = hash_h(use_90s_, ciphertext);
  // Branchless implicit rejection (FO transform): the KDF input is k_bar on
  // a re-encryption match and z otherwise, selected without revealing which.
  bool match = ct::equal(ct2, ciphertext);
  Bytes kdf_in = ct::select(match, k_bar, z);  // CT_SECRET
  ct::Wiper kdf_in_guard(kdf_in);
  return kdf(use_90s_, concat(kdf_in, h_ct));
}

std::vector<std::optional<Encapsulation>> KyberKem::encapsulate_batch(
    BytesView public_key, std::size_t count, Drbg& rng) const {
  std::vector<std::optional<Encapsulation>> out;
  if (public_key.size() != public_key_size()) {
    out.assign(count, std::nullopt);
    return out;
  }
  out.reserve(count);
  Kpke kpke{{k_, eta1_, du_, dv_, use_90s_}};
  // Per-key work hoisted out of the loop; everything below is a pure
  // function of the public key, so outputs match sequential encapsulation.
  const Kpke::ExpandedPk x = kpke.expand_pk(public_key);
  const Bytes h_pk = hash_h(use_90s_, public_key);
  for (std::size_t n = 0; n < count; ++n) {
    Bytes m = hash_h(use_90s_, rng.bytes(kSymBytes));
    Bytes g = hash_g(use_90s_, concat(m, h_pk));
    BytesView k_bar{g.data(), 32};
    BytesView coins{g.data() + 32, 32};
    Encapsulation e;
    e.ciphertext = kpke.encrypt_with(x, m, coins);
    Bytes h_ct = hash_h(use_90s_, e.ciphertext);
    e.shared_secret = kdf(use_90s_, concat(k_bar, h_ct));
    out.push_back(std::move(e));
  }
  return out;
}

std::vector<std::optional<Bytes>> KyberKem::decapsulate_batch(
    BytesView secret_key, const std::vector<BytesView>& ciphertexts) const {
  std::vector<std::optional<Bytes>> out;
  if (secret_key.size() != secret_key_size()) {
    out.assign(ciphertexts.size(), std::nullopt);
    return out;
  }
  out.reserve(ciphertexts.size());
  Kpke kpke{{k_, eta1_, du_, dv_, use_90s_}};
  std::size_t sk_pke_len = 384 * k_;
  BytesView sk_pke = secret_key.subspan(0, sk_pke_len);
  BytesView pk = secret_key.subspan(sk_pke_len, public_key_size());
  BytesView h_pk = secret_key.subspan(sk_pke_len + public_key_size(), 32);
  BytesView z = secret_key.subspan(sk_pke_len + public_key_size() + 32, 32);
  const PolyVec s = kpke.parse_sk(sk_pke);
  const Kpke::ExpandedPk x = kpke.expand_pk(pk);
  for (BytesView ciphertext : ciphertexts) {
    if (ciphertext.size() != ciphertext_size()) {
      out.push_back(std::nullopt);
      continue;
    }
    Bytes m = kpke.decrypt_with(s, ciphertext);  // CT_SECRET
    ct::Wiper m_guard(m);
    Bytes g = hash_g(use_90s_, concat(m, h_pk));  // CT_SECRET
    ct::Wiper g_guard(g);
    BytesView k_bar{g.data(), 32};
    BytesView coins{g.data() + 32, 32};
    Bytes ct2 = kpke.encrypt_with(x, m, coins);
    Bytes h_ct = hash_h(use_90s_, ciphertext);
    // Branchless implicit rejection, exactly as in decapsulate().
    bool match = ct::equal(ct2, ciphertext);
    Bytes kdf_in = ct::select(match, k_bar, z);  // CT_SECRET
    ct::Wiper kdf_in_guard(kdf_in);
    out.push_back(kdf(use_90s_, concat(kdf_in, h_ct)));
  }
  return out;
}

const KyberKem& KyberKem::kyber512() {
  static const KyberKem kem(1, false);
  return kem;
}
const KyberKem& KyberKem::kyber768() {
  static const KyberKem kem(3, false);
  return kem;
}
const KyberKem& KyberKem::kyber1024() {
  static const KyberKem kem(5, false);
  return kem;
}
const KyberKem& KyberKem::kyber90s512() {
  static const KyberKem kem(1, true);
  return kem;
}
const KyberKem& KyberKem::kyber90s768() {
  static const KyberKem kem(3, true);
  return kem;
}
const KyberKem& KyberKem::kyber90s1024() {
  static const KyberKem kem(5, true);
  return kem;
}

}  // namespace pqtls::kem
