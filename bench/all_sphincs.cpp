// The paper's appendix-B "all-sphincs" experiment: compare SPHINCS+ variants
// to identify the best one for TLS. The paper concluded the haraka-"f"
// (fast) simple parameter sets win on handshake latency; the "s" (small)
// sets trade much slower signing for roughly half the signature bytes.
//
// Handshake medians come from the "sphincs" campaign (x25519 with each
// variant); sign and verify are timed once per variant here.
#include <chrono>
#include <cstdio>

#include "bench_common.hpp"
#include "crypto/drbg.hpp"

int main(int argc, char** argv) {
  using namespace pqtls;
  std::printf("all-sphincs: SPHINCS+ variant selection (f = fast, s = "
              "small)\n\n");
  std::printf("%-12s %8s | %10s %10s | %12s %12s\n", "variant", "sig(B)",
              "sign ms", "verify ms", "HS med(ms)", "Server(B)");

  const crypto::AlgorithmCatalog& catalog = crypto::AlgorithmCatalog::instance();
  for (const auto& o : bench::run_measured("sphincs", argc, argv, 3)) {
    const sig::Signer& variant = *catalog.require_signer(o.cell.config.sa).signer;
    crypto::Drbg rng(0x5F1);
    auto kp = variant.generate_keypair(rng);
    Bytes msg = rng.bytes(64);
    auto t0 = std::chrono::steady_clock::now();
    Bytes signature = variant.sign(kp.secret_key, msg, rng);
    double sign_ms = std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - t0)
                         .count();
    t0 = std::chrono::steady_clock::now();
    bool ok = variant.verify(kp.public_key, msg, signature);
    double verify_ms = std::chrono::duration<double, std::milli>(
                           std::chrono::steady_clock::now() - t0)
                           .count();
    if (!ok) {
      std::printf("%-12s VERIFY FAILED\n", variant.name().c_str());
      continue;
    }
    std::printf("%-12s %8zu | %10.1f %10.2f | %12.2f %12zu\n",
                variant.name().c_str(), variant.signature_size(), sign_ms,
                verify_ms, o.ok() ? o.result.median_total * 1e3 : -1.0,
                o.ok() ? o.result.server_bytes : 0);
    std::fflush(stdout);
  }

  std::printf("\nThe f-variants dominate on handshake latency (the paper's "
              "selection criterion);\nthe s-variants halve the wire bytes at "
              "a >10x signing cost.\n");
  return 0;
}
