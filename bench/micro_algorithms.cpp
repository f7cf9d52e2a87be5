// Per-algorithm microbenchmarks (google-benchmark): keygen / encapsulate /
// decapsulate for every KEM and keygen / sign / verify for every SA. These
// are the per-operation costs behind the paper's end-to-end latencies and
// directly support its white-box attribution (methodology supplement).
//
// The backend rows time the dispatchable kernels (Kyber/Dilithium NTT,
// 4-way Keccak, Haraka permutation) under every compiled backend, the hash rows time the
// Keccak sponge and the TLS transcript hash, and the batch rows time
// encapsulate_batch / verify_batch against their sequential loops.
//
//   micro_algorithms [--gate] [benchmark args...]
//
// --gate: time the portable vs AVX2 NTT and 4-way Keccak kernels outside
// the benchmark harness and fail (exit 1) unless the vectorized kernels clear a
// conservative speed floor; exits 0 with a note when the binary or CPU has
// no AVX2 (portable-only builds must stay green). CI runs this as the
// smoke-backend speedup step.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>

#include "crypto/backend/backend.hpp"
#include "crypto/backend/kernels.hpp"
#include "crypto/catalog.hpp"
#include "crypto/drbg.hpp"
#include "crypto/keccak.hpp"
#include "kem/kem.hpp"
#include "sig/sig.hpp"
#include "tls/key_schedule.hpp"

namespace {

using pqtls::Bytes;
using pqtls::crypto::Drbg;
namespace backend = pqtls::crypto::backend;

void bm_kem_keygen(benchmark::State& state, const pqtls::kem::Kem* kem) {
  Drbg rng(1);
  for (auto _ : state) {
    auto kp = kem->generate_keypair(rng);
    benchmark::DoNotOptimize(kp.public_key.data());
  }
}

void bm_kem_encaps(benchmark::State& state, const pqtls::kem::Kem* kem) {
  Drbg rng(2);
  auto kp = kem->generate_keypair(rng);
  for (auto _ : state) {
    auto enc = kem->encapsulate(kp.public_key, rng);
    benchmark::DoNotOptimize(enc->ciphertext.data());
  }
}

void bm_kem_decaps(benchmark::State& state, const pqtls::kem::Kem* kem) {
  Drbg rng(3);
  auto kp = kem->generate_keypair(rng);
  auto enc = kem->encapsulate(kp.public_key, rng);
  for (auto _ : state) {
    auto ss = kem->decapsulate(kp.secret_key, enc->ciphertext);
    benchmark::DoNotOptimize(ss->data());
  }
}

void bm_sig_sign(benchmark::State& state, const pqtls::sig::Signer* sa) {
  Drbg rng(4);
  auto kp = sa->generate_keypair(rng);
  Bytes msg = rng.bytes(64);
  for (auto _ : state) {
    Bytes sig = sa->sign(kp.secret_key, msg, rng);
    benchmark::DoNotOptimize(sig.data());
  }
}

void bm_sig_verify(benchmark::State& state, const pqtls::sig::Signer* sa) {
  Drbg rng(5);
  auto kp = sa->generate_keypair(rng);
  Bytes msg = rng.bytes(64);
  Bytes sig = sa->sign(kp.secret_key, msg, rng);
  for (auto _ : state) {
    bool ok = sa->verify(kp.public_key, msg, sig);
    benchmark::DoNotOptimize(ok);
  }
}

// ---- backend kernel rows: portable vs vectorized, same random inputs ----

void bm_kyber_ntt(benchmark::State& state,
                  const backend::KyberKernels* kernels) {
  Drbg rng(6);
  std::int16_t poly[256];
  for (auto& c : poly) c = static_cast<std::int16_t>(rng.uniform(3329));
  for (auto _ : state) {
    kernels->ntt(poly);
    kernels->invntt(poly);  // round-trip keeps coefficients canonical
    benchmark::DoNotOptimize(poly[0]);
  }
}

void bm_dilithium_ntt(benchmark::State& state,
                      const backend::DilithiumKernels* kernels) {
  Drbg rng(7);
  std::int32_t poly[256];
  for (auto& c : poly) c = static_cast<std::int32_t>(rng.uniform(8380417));
  for (auto _ : state) {
    kernels->ntt(poly);
    kernels->invntt(poly);
    benchmark::DoNotOptimize(poly[0]);
  }
}

// Four Keccak-f[1600] states per call (portable: four scalar permutations).
void bm_keccak_x4(benchmark::State& state,
                  const backend::KeccakKernels* kernels) {
  Drbg rng(15);
  std::uint64_t states[100];
  Bytes seed = rng.bytes(sizeof states);
  std::memcpy(states, seed.data(), sizeof states);
  for (auto _ : state) {
    kernels->permute_x4(states, 4);
    benchmark::DoNotOptimize(states[0]);
  }
}

void bm_haraka512(benchmark::State& state,
                  const backend::HarakaKernels* kernels) {
  Drbg rng(8);
  Bytes rc = rng.bytes(640);
  std::uint8_t s[64];
  Bytes seed = rng.bytes(64);
  std::memcpy(s, seed.data(), sizeof s);
  for (auto _ : state) {
    kernels->permute512(s, rc.data());
    benchmark::DoNotOptimize(s[0]);
  }
}

// ---- hash rows: Keccak sponge in both directions, TLS transcript hash ----

void bm_shake128_squeeze(benchmark::State& state, std::size_t out_len) {
  Drbg rng(12);
  Bytes seed = rng.bytes(34);  // rho || i || j, as in Kyber's matrix expansion
  Bytes out(out_len);
  for (auto _ : state) {
    pqtls::crypto::Shake xof(128);
    xof.absorb(seed);
    xof.squeeze(out.data(), out.size());
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(out_len));
}

void bm_shake256_absorb(benchmark::State& state, std::size_t in_len) {
  Drbg rng(13);
  Bytes in = rng.bytes(in_len);
  for (auto _ : state) {
    Bytes digest = pqtls::crypto::shake256(in, 32);
    benchmark::DoNotOptimize(digest.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(in_len));
}

// One transcript_hash() call on a schedule already holding `len` bytes of
// handshake messages (a dilithium3 full handshake is ~13 KB).
void bm_transcript_hash(benchmark::State& state, std::size_t len) {
  Drbg rng(14);
  pqtls::tls::KeySchedule ks;
  for (std::size_t fed = 0; fed < len; fed += 1024)
    ks.update_transcript(rng.bytes(std::min<std::size_t>(1024, len - fed)));
  for (auto _ : state) {
    Bytes th = ks.transcript_hash();
    benchmark::DoNotOptimize(th.data());
  }
}

// ---- batched server ops: amortized per-key work vs sequential loops ----

void bm_kem_encaps_batch(benchmark::State& state, const pqtls::kem::Kem* kem,
                         std::size_t count) {
  Drbg rng(9);
  auto kp = kem->generate_keypair(rng);
  for (auto _ : state) {
    auto batch = kem->encapsulate_batch(kp.public_key, count, rng);
    benchmark::DoNotOptimize(batch.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(count));
}

void bm_sig_verify_batch(benchmark::State& state,
                         const pqtls::sig::Signer* sa, std::size_t count) {
  Drbg rng(10);
  auto kp = sa->generate_keypair(rng);
  std::vector<Bytes> messages, signatures;
  for (std::size_t i = 0; i < count; ++i) {
    messages.push_back(rng.bytes(64));
    signatures.push_back(sa->sign(kp.secret_key, messages.back(), rng));
  }
  std::vector<pqtls::BytesView> msg_views(messages.begin(), messages.end());
  std::vector<pqtls::BytesView> sig_views(signatures.begin(),
                                          signatures.end());
  for (auto _ : state) {
    auto verdicts = sa->verify_batch(kp.public_key, msg_views, sig_views);
    benchmark::DoNotOptimize(verdicts.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(count));
}

struct Registrar {
  Registrar() {
    const auto& catalog = pqtls::crypto::AlgorithmCatalog::instance();
    for (const auto& info : catalog.kems()) {
      if (info.hybrid) continue;  // hybrids = sum of their parts
      benchmark::RegisterBenchmark(("kem_keygen/" + info.name).c_str(),
                                   bm_kem_keygen, info.kem)
          ->Unit(benchmark::kMicrosecond)
          ->MinTime(0.05);
      benchmark::RegisterBenchmark(("kem_encaps/" + info.name).c_str(),
                                   bm_kem_encaps, info.kem)
          ->Unit(benchmark::kMicrosecond)
          ->MinTime(0.05);
      benchmark::RegisterBenchmark(("kem_decaps/" + info.name).c_str(),
                                   bm_kem_decaps, info.kem)
          ->Unit(benchmark::kMicrosecond)
          ->MinTime(0.05);
    }
    for (const auto& info : catalog.signers()) {
      if (info.hybrid) continue;
      if (info.name == "rsa:4096") continue;  // keygen too slow for a micro
      if (!info.headline)
        continue;  // SPHINCS+ s-variants sign in seconds; bench/all_sphincs
      benchmark::RegisterBenchmark(("sig_sign/" + info.name).c_str(),
                                   bm_sig_sign, info.signer)
          ->Unit(benchmark::kMicrosecond)
          ->MinTime(0.05);
      benchmark::RegisterBenchmark(("sig_verify/" + info.name).c_str(),
                                   bm_sig_verify, info.signer)
          ->Unit(benchmark::kMicrosecond)
          ->MinTime(0.05);
    }

    // Dispatchable kernels, one row per compiled backend. cpu_supports
    // guards the registration: a binary with AVX2 kernels compiled in must
    // not execute them on a CPU without the ISA.
    benchmark::RegisterBenchmark("ntt_kyber/portable", bm_kyber_ntt,
                                 &backend::detail::kKyberPortable)
        ->MinTime(0.05);
    benchmark::RegisterBenchmark("ntt_dilithium/portable", bm_dilithium_ntt,
                                 &backend::detail::kDilithiumPortable)
        ->MinTime(0.05);
    benchmark::RegisterBenchmark("keccak_x4/portable", bm_keccak_x4,
                                 &backend::detail::kKeccakPortable)
        ->MinTime(0.05);
    benchmark::RegisterBenchmark("haraka512/portable", bm_haraka512,
                                 &backend::detail::kHarakaPortable)
        ->MinTime(0.05);
    if (backend::available(backend::Backend::kAvx2)) {
      benchmark::RegisterBenchmark("ntt_kyber/avx2", bm_kyber_ntt,
                                   backend::detail::kyber_avx2())
          ->MinTime(0.05);
      benchmark::RegisterBenchmark("ntt_dilithium/avx2", bm_dilithium_ntt,
                                   backend::detail::dilithium_avx2())
          ->MinTime(0.05);
      benchmark::RegisterBenchmark("keccak_x4/avx2", bm_keccak_x4,
                                   backend::detail::keccak_avx2())
          ->MinTime(0.05);
    }
    if (backend::available(backend::Backend::kAesni)) {
      benchmark::RegisterBenchmark("haraka512/aesni", bm_haraka512,
                                   backend::detail::haraka_aesni())
          ->MinTime(0.05);
    }

    benchmark::RegisterBenchmark("keccak/shake128_squeeze_4k",
                                 bm_shake128_squeeze, std::size_t{4096})
        ->MinTime(0.05);
    benchmark::RegisterBenchmark("keccak/shake256_absorb_16k",
                                 bm_shake256_absorb, std::size_t{16384})
        ->MinTime(0.05);
    benchmark::RegisterBenchmark("tls/transcript_hash_16k", bm_transcript_hash,
                                 std::size_t{16384})
        ->MinTime(0.05);

    // Batched server ops against their sequential equivalents (batch 1).
    const pqtls::kem::Kem* kyber = catalog.require_kem("kyber768").kem;
    const pqtls::sig::Signer* dilithium =
        catalog.require_signer("dilithium2").signer;
    for (std::size_t count : {std::size_t{1}, std::size_t{8},
                              std::size_t{32}}) {
      benchmark::RegisterBenchmark(
          ("kem_encaps_batch/kyber768/b" + std::to_string(count)).c_str(),
          bm_kem_encaps_batch, kyber, count)
          ->Unit(benchmark::kMicrosecond)
          ->MinTime(0.05);
      benchmark::RegisterBenchmark(
          ("sig_verify_batch/dilithium2/b" + std::to_string(count)).c_str(),
          bm_sig_verify_batch, dilithium, count)
          ->Unit(benchmark::kMicrosecond)
          ->MinTime(0.05);
    }
  }
};
const Registrar registrar;

// --gate: time the NTT and 4-way Keccak kernels outside the benchmark
// harness and fail unless AVX2 clears a conservative floor. The true speedup is far higher;
// the floor only catches regressions that erase the vectorization outright.
template <typename Poly, typename Kernels>
double ntt_roundtrips_per_second(const Kernels& kernels, Poly* poly,
                                 int iters) {
  auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < iters; ++i) {
    kernels.ntt(poly);
    kernels.invntt(poly);
  }
  double s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  benchmark::DoNotOptimize(poly[0]);
  return s > 0 ? iters / s : 0;
}

double keccak_x4_per_second(const backend::KeccakKernels& kernels,
                            std::uint64_t* states, int iters) {
  auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < iters; ++i) kernels.permute_x4(states, 4);
  double s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  benchmark::DoNotOptimize(states[0]);
  return s > 0 ? iters / s : 0;
}

int run_gate() {
  if (!backend::available(backend::Backend::kAvx2)) {
    std::printf("backend speedup gate skipped (AVX2 %s)\n",
                backend::compiled(backend::Backend::kAvx2)
                    ? "not supported by this CPU"
                    : "not compiled in");
    return 0;
  }
  constexpr int kIters = 100'000;
  constexpr double kFloor = 1.2;

  Drbg rng(11);
  std::int16_t kpoly[256];
  for (auto& c : kpoly) c = static_cast<std::int16_t>(rng.uniform(3329));
  double k_portable = ntt_roundtrips_per_second(
      backend::detail::kKyberPortable, kpoly, kIters);
  double k_avx2 = ntt_roundtrips_per_second(*backend::detail::kyber_avx2(),
                                            kpoly, kIters);

  std::int32_t dpoly[256];
  for (auto& c : dpoly) c = static_cast<std::int32_t>(rng.uniform(8380417));
  double d_portable = ntt_roundtrips_per_second(
      backend::detail::kDilithiumPortable, dpoly, kIters);
  double d_avx2 = ntt_roundtrips_per_second(
      *backend::detail::dilithium_avx2(), dpoly, kIters);

  std::uint64_t states[100];
  Bytes seed = rng.bytes(sizeof states);
  std::memcpy(states, seed.data(), sizeof states);
  double x_portable =
      keccak_x4_per_second(backend::detail::kKeccakPortable, states, kIters);
  double x_avx2 =
      keccak_x4_per_second(*backend::detail::keccak_avx2(), states, kIters);

  double k_ratio = k_portable > 0 ? k_avx2 / k_portable : 0;
  double d_ratio = d_portable > 0 ? d_avx2 / d_portable : 0;
  double x_ratio = x_portable > 0 ? x_avx2 / x_portable : 0;
  std::printf("kyber ntt     portable %9.0f/s  avx2 %9.0f/s  %5.2fx\n",
              k_portable, k_avx2, k_ratio);
  std::printf("dilithium ntt portable %9.0f/s  avx2 %9.0f/s  %5.2fx\n",
              d_portable, d_avx2, d_ratio);
  std::printf("keccak x4     portable %9.0f/s  avx2 %9.0f/s  %5.2fx\n",
              x_portable, x_avx2, x_ratio);
  std::printf("gate: avx2 >= %.1fx portable for every kernel\n", kFloor);
  if (k_ratio < kFloor || d_ratio < kFloor || x_ratio < kFloor) {
    std::fprintf(stderr, "FAIL: AVX2 kernels no longer beat portable\n");
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "--gate") == 0) return run_gate();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
