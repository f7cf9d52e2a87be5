// The traced run: every per-layer metric, timed from the benchmark's own
// files around calls into each layer's public functions. Kernels and
// operations are standalone calls (kernels nest inside operations, which
// nest inside handshakes); the handshake layer is an in-memory
// client/server pump with KEM decorators; the campaign and fleet layers are
// observed through a campaign::Sink and run_fleet shard comparisons.
#include <algorithm>
#include <array>
#include <cstdio>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>

#include "bench.hpp"
#include "crypto/aes.hpp"
#include "crypto/backend/backend.hpp"
#include "crypto/bignum.hpp"
#include "crypto/catalog.hpp"
#include "crypto/drbg.hpp"
#include "crypto/ec.hpp"
#include "crypto/gf2.hpp"
#include "crypto/haraka.hpp"
#include "crypto/keccak.hpp"
#include "crypto/sha2.hpp"
#include "loadgen/balancer.hpp"
#include "loadgen/fleet.hpp"
#include "session/session.hpp"
#include "sim/event_queue.hpp"
#include "sim/sharded_loop.hpp"
#include "tls/connection.hpp"
#include "tls/server_context.hpp"

namespace perfbench {

namespace {

using pqtls::Bytes;
using pqtls::BytesView;
using pqtls::crypto::Drbg;
namespace backend = pqtls::crypto::backend;
namespace kem = pqtls::kem;
namespace tls = pqtls::tls;

// Folded results of timed calls, so the compiler cannot drop the work.
volatile std::uint64_t g_sink = 0;
void consume(std::uint64_t v) { g_sink = g_sink + v; }

/// Median per-call time (ns) over `batches` batches of about `batch_s` each.
double ns_per_call(const std::function<void()>& fn, double batch_s = 0.02,
                   int batches = 5) {
  long iters = 1;
  for (;;) {
    std::int64_t t0 = now_ns();
    for (long i = 0; i < iters; ++i) fn();
    if (seconds_since(t0) >= batch_s || iters >= (1L << 24)) break;
    iters *= 2;
  }
  std::vector<double> per_call;
  for (int b = 0; b < batches; ++b) {
    std::int64_t t0 = now_ns();
    for (long i = 0; i < iters; ++i) fn();
    per_call.push_back(static_cast<double>(now_ns() - t0) /
                       static_cast<double>(iters));
  }
  return median(per_call);
}

/// Runs `fn` (which returns whether its outputs checked out) until `max_n`
/// calls or `budget_s` have passed, at least `min_n` times.
void repeat(int min_n, int max_n, double budget_s,
            const std::function<bool()>& fn, Tally& tally) {
  std::int64_t t0 = now_ns();
  for (int i = 0; i < max_n; ++i) {
    if (i >= min_n && seconds_since(t0) > budget_s) break;
    tally.add(fn());
  }
}

double us(std::int64_t ns) { return static_cast<double>(ns) * 1e-3; }

// ---- kernel layer ----

/// The three kernels behind the backend dispatch tables, under whatever
/// backend is selected; `suffix` names the selection in the metric.
void dispatched_kernels(Report& report, SpanRecorder& rec,
                        const std::string& suffix) {
  Drbg rng(7);
  {
    ScopedSpan span(&rec, "crypto.kyber_ntt" + suffix);
    std::array<std::int16_t, 256> poly{};
    for (auto& c : poly) c = static_cast<std::int16_t>(rng.uniform(3329));
    const auto& k = backend::kyber_kernels();
    // The NTT maps canonical residues to canonical residues, so it can be
    // applied to its own output indefinitely.
    report.metric("crypto.kyber_ntt_ns" + suffix, ns_per_call([&] {
                    k.ntt(poly.data());
                    consume(static_cast<std::uint64_t>(poly[0]));
                  }),
                  "ns");
  }
  {
    ScopedSpan span(&rec, "crypto.dilithium_ntt" + suffix);
    std::array<std::int32_t, 256> poly{};
    for (auto& c : poly) c = static_cast<std::int32_t>(rng.uniform(8380417));
    const auto& k = backend::dilithium_kernels();
    report.metric("crypto.dilithium_ntt_ns" + suffix, ns_per_call([&] {
                    k.ntt(poly.data());
                    consume(static_cast<std::uint64_t>(poly[0]));
                  }),
                  "ns");
  }
  {
    ScopedSpan span(&rec, "crypto.haraka512" + suffix);
    pqtls::crypto::Haraka haraka;
    std::array<std::uint8_t, 64> in{};
    rng.fill(in.data(), in.size());
    report.metric("crypto.haraka512_ns" + suffix, ns_per_call([&] {
                    haraka.haraka512(in.data(), in.data());
                    consume(in[0]);
                  }),
                  "ns");
  }
}

void kernels(Report& report, SpanRecorder& rec) {
  Drbg rng(11);
  Bytes block = rng.bytes(16384);
  const double n = static_cast<double>(block.size());
  {
    ScopedSpan span(&rec, "crypto.shake256");
    report.metric("crypto.shake256_ns_per_byte", ns_per_call([&] {
                    consume(pqtls::crypto::shake256(block, 32)[0]);
                  }) / n,
                  "ns/B");
  }
  {
    ScopedSpan span(&rec, "crypto.sha256");
    report.metric("crypto.sha256_ns_per_byte", ns_per_call([&] {
                    consume(pqtls::crypto::sha256(block)[0]);
                  }) / n,
                  "ns/B");
  }
  {
    ScopedSpan span(&rec, "crypto.aes_gcm_seal");
    pqtls::crypto::AesGcm gcm(rng.bytes(16));
    Bytes nonce = rng.bytes(12), aad = rng.bytes(13);
    report.metric("crypto.aes_gcm_seal_ns_per_byte", ns_per_call([&] {
                    consume(gcm.seal(nonce, aad, block)[0]);
                  }) / n,
                  "ns/B");
  }
  {
    ScopedSpan span(&rec, "crypto.p256_mul");
    const auto& curve = pqtls::crypto::EcCurve::p256();
    auto k = curve.random_scalar(rng);
    report.metric("crypto.p256_mul_us", ns_per_call([&] {
                    consume(curve.multiply_base(k).x.low_u64());
                  }) * 1e-3,
                  "us");
  }
  {
    ScopedSpan span(&rec, "crypto.rsa2048_modexp");
    using pqtls::crypto::BigInt;
    // A full-width 2048-bit exponentiation modulo an odd 2048-bit modulus.
    BigInt m = BigInt::random_bits(rng, 2047) + (BigInt(1) << 2047);
    if (!m.is_odd()) m = m + BigInt(1);
    BigInt base = BigInt::random_bits(rng, 2040);
    BigInt e = BigInt::random_bits(rng, 2048);
    report.metric("crypto.rsa2048_modexp_us", ns_per_call([&] {
                    consume(BigInt::mod_pow(base, e, m).low_u64());
                  }, 0.05, 3) * 1e-3,
                  "us");
  }
  {
    ScopedSpan span(&rec, "crypto.gf2_mul");
    constexpr std::size_t kBikeL1R = 12323;  // BIKE-L1 ring degree
    auto a = pqtls::crypto::Gf2Ring::random(kBikeL1R, rng);
    auto b = pqtls::crypto::Gf2Ring::random(kBikeL1R, rng);
    report.metric("crypto.gf2_mul_us", ns_per_call([&] {
                    consume((a * b).words()[0]);
                  }) * 1e-3,
                  "us");
  }
}

// ---- operation layer ----

std::string metric_label(const std::string& name) {
  std::string out;
  for (char c : name)
    if (c != ':') out.push_back(c);
  return out;  // "rsa:2048" -> "rsa2048"
}

void kem_ops(Report& report, SpanRecorder& rec, const std::string& name,
             const std::string& suffix) {
  const kem::Kem& k = *pqtls::crypto::AlgorithmCatalog::instance()
                           .require_kem(name)
                           .kem;
  ScopedSpan span(&rec, "op.kem." + name + suffix);
  Drbg rng(13);
  std::vector<double> keygen, encaps, decaps;
  repeat(5, 200, 0.25, [&] {
    std::int64_t t0 = now_ns();
    kem::KeyPair kp = k.generate_keypair(rng);
    std::int64_t t1 = now_ns();
    auto enc = k.encapsulate(kp.public_key, rng);
    std::int64_t t2 = now_ns();
    std::optional<Bytes> dec;
    if (enc) dec = k.decapsulate(kp.secret_key, enc->ciphertext);
    std::int64_t t3 = now_ns();
    keygen.push_back(us(t1 - t0));
    encaps.push_back(us(t2 - t1));
    decaps.push_back(us(t3 - t2));
    return enc && dec && *dec == enc->shared_secret;
  }, report.tally());
  const std::string base = "kem." + metric_label(name) + ".";
  report.metric(base + "keygen_us" + suffix, median(keygen), "us");
  report.metric(base + "encaps_us" + suffix, median(encaps), "us");
  report.metric(base + "decaps_us" + suffix, median(decaps), "us");
}

void sig_ops(Report& report, SpanRecorder& rec, const std::string& name,
             const std::string& suffix) {
  const auto& s = *pqtls::crypto::AlgorithmCatalog::instance()
                       .require_signer(name)
                       .signer;
  ScopedSpan span(&rec, "op.sig." + name + suffix);
  Drbg rng(17);
  auto kp = s.generate_keypair(rng);
  Bytes msg = rng.bytes(64);
  std::vector<double> sign, verify;
  repeat(5, 200, 0.25, [&] {
    std::int64_t t0 = now_ns();
    Bytes sig = s.sign(kp.secret_key, msg, rng);
    std::int64_t t1 = now_ns();
    bool ok = s.verify(kp.public_key, msg, sig);
    std::int64_t t2 = now_ns();
    sign.push_back(us(t1 - t0));
    verify.push_back(us(t2 - t1));
    return ok;
  }, report.tally());
  const std::string base = "sig." + metric_label(name) + ".";
  report.metric(base + "sign_us" + suffix, median(sign), "us");
  report.metric(base + "verify_us" + suffix, median(verify), "us");
}

void ops(Report& report, SpanRecorder& rec, const std::string& suffix,
         bool dispatched_only) {
  kem_ops(report, rec, kPqKa, suffix);
  sig_ops(report, rec, kPqSa, suffix);
  if (dispatched_only) return;
  for (const char* name : {"x25519", "p256", "bikel1", "hqc128"})
    kem_ops(report, rec, name, suffix);
  sig_ops(report, rec, kCampaignSa, suffix);
}

// ---- handshake layer ----

/// Where ProbedKem reports: a call count, and spans on `rec` when set.
struct OpProbe {
  SpanRecorder* rec = nullptr;  // null: count only
  long long calls = 0;
};

/// KEM decorator: forwards to a catalog entry, counting calls and opening a
/// span per operation under whatever span is open on the recorder.
class ProbedKem final : public kem::Kem {
 public:
  ProbedKem(const kem::Kem& inner, OpProbe& probe)
      : inner_(inner), probe_(probe) {}

  const std::string& name() const override { return inner_.name(); }
  int security_level() const override { return inner_.security_level(); }
  bool is_hybrid() const override { return inner_.is_hybrid(); }
  bool is_post_quantum() const override { return inner_.is_post_quantum(); }
  std::size_t public_key_size() const override {
    return inner_.public_key_size();
  }
  std::size_t secret_key_size() const override {
    return inner_.secret_key_size();
  }
  std::size_t ciphertext_size() const override {
    return inner_.ciphertext_size();
  }
  std::size_t shared_secret_size() const override {
    return inner_.shared_secret_size();
  }
  kem::KeyPair generate_keypair(Drbg& rng) const override {
    ++probe_.calls;
    ScopedSpan span(probe_.rec, "kem.keygen");
    return inner_.generate_keypair(rng);
  }
  std::optional<kem::Encapsulation> encapsulate(BytesView pk,
                                                Drbg& rng) const override {
    ++probe_.calls;
    ScopedSpan span(probe_.rec, "kem.encaps");
    return inner_.encapsulate(pk, rng);
  }
  std::optional<Bytes> decapsulate(BytesView sk,
                                   BytesView ct) const override {
    ++probe_.calls;
    ScopedSpan span(probe_.rec, "kem.decaps");
    return inner_.decapsulate(sk, ct);
  }

 private:
  const kem::Kem& inner_;
  OpProbe& probe_;
};

struct PumpResult {
  int attempted = 0;
  int completed = 0;
  int resumed = 0;
  double wall_s = 0;  // whole run, ticket priming included
};

/// In-memory client/server pump over the testbed's endpoint configuration,
/// with the testbed's DRBG derivation so that run(seed, n) drives the same
/// handshakes as testbed::run_experiment with that seed and n samples.
/// The KEM decorators go in through ClientConfig::ka / ServerConfig::ka.
/// Signers stay the catalog entries: negotiation identifies a signature
/// scheme by its registry entry, so a wrapped signer fails the handshake.
class Pump {
 public:
  Pump(const std::string& ka, const std::string& sa, bool resumed)
      : resumed_(resumed) {
    const auto& catalog = pqtls::crypto::AlgorithmCatalog::instance();
    const auto& context = tls::server_context(
        *catalog.require_kem(ka).kem, *catalog.require_signer(sa).signer,
        kPkiSeed);
    kem_ = std::make_unique<ProbedKem>(*context.ka, probe_);
    ccfg_ = context.client_config();
    scfg_ = context.server_config();
    ccfg_.ka = kem_.get();
    scfg_.ka = kem_.get();
  }
  // kem_ holds a reference to probe_.
  Pump(const Pump&) = delete;
  Pump& operator=(const Pump&) = delete;

  PumpResult run(std::uint64_t seed, int n, SpanRecorder* rec,
                 std::int64_t first_request) {
    PumpResult out;
    std::int64_t t0 = now_ns();
    Drbg master(seed);
    std::optional<pqtls::session::TicketStore> tickets;
    std::optional<pqtls::session::SessionTicket> ticket;
    tls::ServerConfig scfg = scfg_;
    tls::ClientConfig ccfg = ccfg_;
    if (resumed_) {
      tickets.emplace(master.fork("tickets"));
      scfg.tickets = &*tickets;
      scfg.accept_early_data = true;
      tls::ClientConfig prime = ccfg_;
      prime.request_ticket = true;
      Drbg client_rng = master.fork("prime-client");
      Drbg server_rng = master.fork("prime-server");
      ticket = mint(prime, scfg, std::move(client_rng), std::move(server_rng));
      if (!ticket) {
        out.attempted = n;
        return out;
      }
      ccfg.resume = &*ticket;
      ccfg.psk_only = true;
      ccfg.early_data = Bytes(64, 0xE5);
    }
    probe_.rec = rec;
    const long long calls_before = probe_.calls;  // priming is not counted
    for (int i = 0; i < n; ++i) {
      Drbg hs = master.fork("handshake" + std::to_string(i));
      hs.fork("link-c2s");
      hs.fork("link-s2c");
      Drbg client_rng = hs.fork("client");
      tls::ClientConnection client(ccfg, std::move(client_rng));
      tls::ServerConnection server(scfg, hs.fork("server"));
      ScopedSpan root(rec, "hs", first_request + i);
      pump(client, server, rec);
      ++out.attempted;
      if (client.handshake_complete() && server.handshake_complete()) {
        ++out.completed;
        if (client.resumed() && server.resumed()) ++out.resumed;
      }
    }
    probe_.rec = nullptr;
    hs_kem_calls_ += probe_.calls - calls_before;
    out.wall_s = seconds_since(t0);
    return out;
  }

  /// KEM calls made inside pumped handshakes so far.
  long long kem_calls() const { return hs_kem_calls_; }

 private:
  // Deliver queued flights alternately until both directions are quiet,
  // one span per delivery named after the handshake step it drives.
  static void pump(tls::ClientConnection& client, tls::ServerConnection& server,
                   SpanRecorder* rec) {
    static const char* kServerSteps[] = {"tls.server_flight",
                                         "tls.server_finish"};
    static const char* kClientSteps[] = {"tls.client_finish"};
    std::vector<Bytes> to_server, to_client;
    auto to_s = [&](BytesView d) { to_server.emplace_back(d.begin(), d.end()); };
    auto to_c = [&](BytesView d) { to_client.emplace_back(d.begin(), d.end()); };
    {
      ScopedSpan span(rec, "tls.client_hello");
      client.start(to_s);
    }
    int server_step = 0, client_step = 0;
    for (int round = 0;
         round < 30 && !(to_server.empty() && to_client.empty()); ++round) {
      if (!to_server.empty()) {
        std::vector<Bytes> in = std::move(to_server);
        to_server.clear();
        ScopedSpan span(rec, server_step < 2 ? kServerSteps[server_step]
                                             : "tls.server_post");
        ++server_step;
        for (const Bytes& flight : in) server.on_data(flight, to_c);
      }
      if (!to_client.empty()) {
        std::vector<Bytes> in = std::move(to_client);
        to_client.clear();
        ScopedSpan span(rec, client_step < 1 ? kClientSteps[client_step]
                                             : "tls.client_post");
        ++client_step;
        for (const Bytes& flight : in) client.on_data(flight, to_s);
      }
    }
  }

  static std::optional<pqtls::session::SessionTicket> mint(
      const tls::ClientConfig& ccfg, const tls::ServerConfig& scfg,
      Drbg client_rng, Drbg server_rng) {
    tls::ClientConnection client(ccfg, std::move(client_rng));
    tls::ServerConnection server(scfg, std::move(server_rng));
    pump(client, server, nullptr);
    if (!client.handshake_complete()) return std::nullopt;
    return client.take_ticket();
  }

  bool resumed_;
  OpProbe probe_;
  long long hs_kem_calls_ = 0;
  std::unique_ptr<ProbedKem> kem_;
  tls::ClientConfig ccfg_;
  tls::ServerConfig scfg_;
};

struct HsPair {
  std::string ka, sa;
  bool resumed;
};

/// The handshake configuration each workload's traced run pumps.
HsPair pair_for(const std::string& workload) {
  if (workload == "hs_pq") return {kPqKa, kPqSa, false};
  if (workload == "hs_resumed") return {kPqKa, kPqSa, true};
  if (workload == "fleet_16x4") return {kFleetKa, kFleetSa, false};
  return {"x25519", kCampaignSa, false};  // campaign_table4a's first row
}

/// Handshake, session, testbed, net and tcp layers for `pair`: blocks of
/// untraced pump, traced pump and a testbed span on the same seeds.
void handshake_layers(const RunArgs& args, const HsPair& pair, Report& report,
                      SpanRecorder& rec, bool wire_from_testbed) {
  const int blocks = 4;
  const int per_block = pair.resumed ? 500 : 50;
  const std::size_t want_bytes =
      modeled_wire_bytes(pair.ka, pair.sa, pair.resumed);
  report.check(want_bytes > 0, "modeled reference run failed");

  Pump pump(pair.ka, pair.sa, pair.resumed);
  double untraced_s = 0, traced_s = 0, testbed_s = 0;
  long long untraced_n = 0, traced_n = 0, traced_resumed = 0, testbed_n = 0;
  long long packets = 0, bytes = 0, retransmissions = 0;
  for (int b = 0; b < blocks; ++b) {
    std::uint64_t seed = mix_seed(args.seed, 1000 + b);
    for (int order = 0; order < 2; ++order) {
      // Alternate which side runs first so drift hits both equally.
      bool traced = (order == 0) == (b % 2 == 0);
      PumpResult r = pump.run(seed, per_block, traced ? &rec : nullptr,
                              static_cast<std::int64_t>(b) * per_block);
      report.tally().add(r.attempted, r.attempted - r.completed);
      if (traced) {
        traced_s += r.wall_s;
        traced_n += r.completed;
        traced_resumed += r.resumed;
      } else {
        untraced_s += r.wall_s;
        untraced_n += r.completed;
      }
    }
    testbed::ExperimentResult result;
    {
      ScopedSpan span(&rec, "testbed.run_experiment");
      std::int64_t t0 = now_ns();
      result = testbed::run_experiment(hs_config(
          pair.ka, pair.sa, pair.resumed, per_block, seed,
          testbed::TimeModel::kMeasured));
      testbed_s += seconds_since(t0);
    }
    long long bad = per_block - static_cast<long long>(result.samples.size());
    for (const auto& s : result.samples) {
      if (s.client_bytes + s.server_bytes != want_bytes) ++bad;
      packets += static_cast<long long>(s.client_packets + s.server_packets);
      bytes += static_cast<long long>(s.client_bytes + s.server_bytes);
      retransmissions += static_cast<long long>(s.client_retransmissions +
                                                s.server_retransmissions);
    }
    testbed_n += static_cast<long long>(result.samples.size());
    report.tally().add(per_block, bad);
  }
  report.check(untraced_n == traced_n && traced_n == blocks * per_block,
               "pumped handshakes failed");

  auto med_us = [&](const std::string& name) {
    return median(rec.durations(name)) * 1e-3;
  };
  report.metric("tls.client_hello_us", med_us("tls.client_hello"), "us");
  report.metric("tls.server_flight_us", med_us("tls.server_flight"), "us");
  report.metric("tls.client_finish_us", med_us("tls.client_finish"), "us");
  report.metric("tls.server_finish_us", med_us("tls.server_finish"), "us");
  report.metric("tls.self_us", median(rec.child_self_time_per_request("hs")) * 1e-3,
                "us");
  double untraced_rate = static_cast<double>(untraced_n) / untraced_s;
  double traced_rate = static_cast<double>(traced_n) / traced_s;
  report.metric("tls.handshakes_per_s", untraced_rate, "hs/s");
  report.metric("trace.overhead_pct",
                (untraced_rate - traced_rate) / untraced_rate * 100, "%");
  report.metric("kem.calls_per_hs",
                static_cast<double>(pump.kem_calls()) /
                    static_cast<double>(untraced_n + traced_n),
                "count");

  double testbed_us = testbed_s * 1e6 / static_cast<double>(testbed_n);
  report.metric("testbed.per_hs_us", testbed_us, "us");
  report.metric("testbed.sim_self_us", testbed_us - 1e6 / untraced_rate, "us");
  if (wire_from_testbed) {
    double n = static_cast<double>(testbed_n);
    report.metric("net.packets_per_hs", static_cast<double>(packets) / n, "count");
    report.metric("net.bytes_per_hs", static_cast<double>(bytes) / n, "B");
    report.metric("tcp.retransmissions_per_hs",
                  static_cast<double>(retransmissions) / n, "count");
  }

  // Session layer: a resumed pump of the same pair (the main pump already is
  // one on hs_resumed).
  double resumed_ratio = static_cast<double>(traced_resumed) /
                         static_cast<double>(traced_n);
  if (!pair.resumed) {
    Pump resumed_pump(pair.ka, pair.sa, true);
    PumpResult r = resumed_pump.run(mix_seed(args.seed, 2000), 100, nullptr, 0);
    report.tally().add(r.attempted, r.attempted - r.completed);
    resumed_ratio = static_cast<double>(r.resumed) / r.attempted;
  }
  report.check(resumed_ratio == 1.0, "not every offered ticket resumed");
  report.metric("session.resumed_ratio", resumed_ratio, "ratio");

  ScopedSpan span(&rec, "session.ticket_validate");
  Drbg rng(19);
  pqtls::session::TicketStore store(rng.fork("ticket-key"));
  pqtls::session::TicketState state;
  state.ka = pair.ka;
  state.sa = pair.sa;
  state.resumption_psk = rng.bytes(32);
  state.issued_at_ms = 1'800'000'000'000ull;
  state.lifetime_s = 7200;
  state.nonce = rng.bytes(8);
  Bytes ticket = store.issue(state, rng);
  long long rejected = 0;
  report.metric("session.ticket_validate_us", ns_per_call([&] {
                  if (!store.validate(ticket, state.issued_at_ms + 1000))
                    ++rejected;
                }) * 1e-3,
                "us");
  report.tally().add(1, rejected ? 1 : 0);
  report.check(rejected == 0, "a valid ticket was rejected");
}

// ---- orchestration layer ----

void campaign_layer(const RunArgs& args, Report& report, SpanRecorder& rec,
                    bool wire_from_campaign) {
  setup_contexts(campaign_kas(), kCampaignSa, 1);
  auto reference = load_campaign_reference(args.data_dir);
  CampaignPass pass;
  {
    ScopedSpan span(&rec, "campaign.run_campaign");
    std::int64_t t0 = now_ns();
    pass = run_campaign_pass(mix_seed(args.seed, 0), reference);
    // Cells run on worker threads and report only their wall time; lay them
    // end to end per worker from the pass start (durations are exact).
    std::array<std::int64_t, kCampaignWorkers> worker_t{t0, t0};
    for (double w : pass.cell_wall_s) {
      auto& t = *std::min_element(worker_t.begin(), worker_t.end());
      auto d = static_cast<std::int64_t>(w * 1e9);
      rec.add("campaign.cell", t, t + d);
      t += d;
    }
  }
  report.tally().add(pass.cells, pass.failed_cells);
  report.check(pass.failed_cells == 0 &&
                   pass.cells == static_cast<int>(reference.size()),
               "campaign rows differ from the reference");
  std::vector<double> cell_ms;
  double busy = 0;
  for (double w : pass.cell_wall_s) {
    cell_ms.push_back(w * 1e3);
    busy += w;
  }
  report.metric("campaign.cell_ms_p50", median(cell_ms), "ms");
  report.metric("campaign.cell_ms_max",
                *std::max_element(cell_ms.begin(), cell_ms.end()), "ms");
  report.metric("campaign.worker_busy_ratio",
                busy / (kCampaignWorkers * pass.wall_s), "ratio");
  report.metric("campaign.cells_per_s", pass.cells / pass.wall_s, "cells/s");
  if (wire_from_campaign) {
    double n = static_cast<double>(pass.samples);
    report.metric("net.packets_per_hs", static_cast<double>(pass.packets) / n,
                  "count");
    report.metric("net.bytes_per_hs", static_cast<double>(pass.bytes) / n, "B");
    report.metric("tcp.retransmissions_per_hs",
                  static_cast<double>(pass.retransmissions) / n, "count");
  }
}

// ---- fleet layer ----

void fleet_layer(const RunArgs& args, Report& report, SpanRecorder& rec) {
  {
    ScopedSpan span(&rec, "loadgen.calibrated_profile");
    std::int64_t t0 = now_ns();
    // A PKI seed no other part of the run uses, so nothing is cached.
    loadgen::calibrated_profile(kFleetKa, kFleetSa, kPkiSeed + 0x5eed);
    report.metric("loadgen.calibrate_s", seconds_since(t0), "s");
  }
  loadgen::calibrated_profile(kFleetKa, kFleetSa, kPkiSeed);

  // The reference configuration at one shard and at the workload's count:
  // both must reproduce the kept LoadMetrics.
  auto ref = load_fleet_reference(args.data_dir);
  // Warm-up run (allocator pools, page faults) so neither timed run pays it.
  loadgen::run_fleet(fleet_config(kFleetRefSeed, kFleetShards));
  double wall[2] = {0, 0};
  loadgen::LoadMetrics m;
  for (int i = 0; i < 2; ++i) {
    std::uint32_t shards = i == 0 ? 1 : kFleetShards;
    ScopedSpan span(&rec, "loadgen.run_fleet.shards" + std::to_string(shards));
    std::int64_t t0 = now_ns();
    m = loadgen::run_fleet(fleet_config(kFleetRefSeed, shards));
    wall[i] = seconds_since(t0);
    bool same = fleet_reference_of(m) == ref;
    report.tally().add(same);
    report.check(same, "fleet LoadMetrics at " + std::to_string(shards) +
                           " shard(s) differ from the reference");
  }
  report.metric("sim.events", static_cast<double>(m.sim_events), "count");
  report.metric("sim.events_per_s", static_cast<double>(m.sim_events) / wall[1],
                "1/s");
  report.metric("sim.shard_speedup", wall[0] / wall[1], "x");
  report.metric("loadgen.events_per_connection",
                static_cast<double>(m.sim_events) /
                    static_cast<double>(m.completed),
                "count");

  {
    ScopedSpan span(&rec, "sim.event_queue");
    pqtls::sim::EventQueue<pqtls::sim::PodEvent> queue;
    constexpr int kDepth = 4096;
    queue.reserve(kDepth);
    Drbg rng(23);
    std::vector<double> times(kDepth);
    for (double& t : times) t = rng.real();
    report.metric("sim.queue_push_pop_ns", ns_per_call([&] {
                    for (int i = 0; i < kDepth; ++i)
                      queue.push(times[i], static_cast<std::uint64_t>(i),
                                 pqtls::sim::PodEvent{nullptr, nullptr, 0});
                    while (!queue.empty()) consume(queue.pop().key);
                  }) / kDepth,
                  "ns");
  }
  {
    ScopedSpan span(&rec, "loadgen.balancer");
    auto balancer =
        loadgen::make_balancer(loadgen::BalancerKind::kLeastLoaded, Drbg(29));
    std::vector<int> outstanding(16, 0);
    std::size_t done = 0;
    report.metric("loadgen.balancer_pick_ns", ns_per_call([&] {
                    int s = balancer->pick(outstanding);
                    ++outstanding[static_cast<std::size_t>(s)];
                    // Complete connections round-robin so load stays bounded.
                    done = (done + 1) % outstanding.size();
                    if (outstanding[done] > 0) --outstanding[done];
                  }),
                  "ns");
  }
}

}  // namespace

void run_layers(const RunArgs& args, Report& report) {
  SpanRecorder rec;
  const HsPair pair = pair_for(args.workload);
  const bool campaign_wire = args.workload == "campaign_table4a";
  {
    ScopedSpan span(&rec, "pki.server_context");
    const auto& catalog = pqtls::crypto::AlgorithmCatalog::instance();
    std::int64_t t0 = now_ns();
    tls::server_context(*catalog.require_kem(pair.ka).kem,
                        *catalog.require_signer(pair.sa).signer,
                        kPkiSeed + 0xc0de);  // fresh: not cached yet
    report.metric("pki.context_build_s", seconds_since(t0), "s");
  }

  // Backend A/B: kernels and the NTT-based operations under the automatic
  // selection, then forced portable; the selection is restored afterwards.
  const std::string saved(backend::name(backend::selection()));
  {
    ScopedSpan span(&rec, "backend.auto");
    dispatched_kernels(report, rec, "");
    kernels(report, rec);
    ops(report, rec, "", false);
  }
  {
    ScopedSpan span(&rec, "backend.portable");
    backend::select("portable");
    dispatched_kernels(report, rec, ".portable");
    ops(report, rec, ".portable", true);
    backend::select(saved);
  }

  handshake_layers(args, pair, report, rec, !campaign_wire);
  campaign_layer(args, report, rec, campaign_wire);
  fleet_layer(args, report, rec);

  if (!args.spans_path.empty()) {
    std::ofstream out(args.spans_path);
    rec.write_jsonl(out);
    report.check(static_cast<bool>(out), "cannot write " + args.spans_path);
  }
  std::printf("traced run: %zu spans\n", rec.spans().size());
}

}  // namespace perfbench
