#include "crypto/catalog.hpp"

#include <stdexcept>

namespace pqtls::crypto {
namespace {

// The paper's family grouping for a registry name. Hybrids take the family
// of their post-quantum half; "rsa:<bits>" keeps its stem; the NIST curves
// group as ECDH on the key-agreement side and ECDSA on the signature side.
std::string family_of(const std::string& name, bool hybrid, AlgKind kind) {
  std::string stem = hybrid ? name.substr(name.find('_') + 1) : name;
  if (auto colon = stem.find(':'); colon != std::string::npos) {
    return stem.substr(0, colon);
  }
  static constexpr const char* kStems[] = {"kyber90s",  "kyber",   "bikel",
                                           "hqc",       "falcon",  "dilithium",
                                           "sphincs",   "x25519"};
  for (const char* prefix : kStems) {
    if (stem.rfind(prefix, 0) == 0) {
      return stem.rfind("bikel", 0) == 0 ? "bike" : prefix;
    }
  }
  if (stem.rfind("p256", 0) == 0 || stem.rfind("p384", 0) == 0 ||
      stem.rfind("p521", 0) == 0) {
    return kind == AlgKind::kKem ? "ecdh" : "ecdsa";
  }
  return stem;
}

// The table grouping level: hybrids sit at their post-quantum component's
// level (the component name is everything after the classical prefix, and
// is itself a registry entry), everything else at its own claimed level.
int table_level_of(const std::string& name, bool hybrid, int own_level,
                   AlgKind kind) {
  if (!hybrid) return own_level;
  std::string pq = name.substr(name.find('_') + 1);
  if (kind == AlgKind::kKem) {
    if (const kem::Kem* k = kem::find_kem(pq)) return k->security_level();
  } else {
    if (const sig::Signer* s = sig::find_signer(pq)) return s->security_level();
  }
  return own_level;
}

// Wire size of the testbed's one-certificate chain for this signer, from
// the pki encoding: chain count byte, the certificate's 4-byte length, the
// length-prefixed subject/issuer/algorithm strings, 16 validity bytes, and
// the length-prefixed public key and signature. Subject and issuer are the
// testbed's fixed names; variable-size schemes count their maximum
// signature here, so this is an upper bound for Falcon/ECDSA chains.
std::size_t chain_wire_bytes(const sig::Signer& sa) {
  constexpr std::size_t kLeafSubjectLen =
      sizeof("pqtls-bench.example.net") - 1;
  constexpr std::size_t kIssuerLen = sizeof("pqtls-bench root CA") - 1;
  std::size_t tbs = (2 + kLeafSubjectLen) + (2 + kIssuerLen) +
                    2 * (2 + sa.name().size()) + 16 +
                    (4 + sa.public_key_size());
  std::size_t cert = tbs + (4 + sa.signature_size());
  return 1 + (4 + cert);
}

std::string join_names(const std::vector<AlgorithmInfo>& entries) {
  std::string out;
  for (const AlgorithmInfo& info : entries) {
    if (!out.empty()) out += ", ";
    out += info.name;
  }
  return out;
}

bool is_sphincs_size_variant(const std::string& name) {
  return name.rfind("sphincs", 0) == 0 && name.back() == 's';
}

}  // namespace

AlgorithmCatalog::AlgorithmCatalog() {
  for (const kem::Kem* k : kem::all_kems()) {
    AlgorithmInfo info;
    info.kind = AlgKind::kKem;
    info.name = k->name();
    info.hybrid = k->is_hybrid();
    info.post_quantum = k->is_post_quantum();
    info.family = family_of(info.name, info.hybrid, info.kind);
    info.nist_level = k->security_level();
    info.table_level =
        table_level_of(info.name, info.hybrid, info.nist_level, info.kind);
    info.public_key_bytes = k->public_key_size();
    info.ciphertext_bytes = k->ciphertext_size();
    info.codepoint = static_cast<std::uint16_t>(0x0100 + kems_.size());
    info.kem = k;
    kems_.push_back(std::move(info));
  }
  for (const sig::Signer* s : sig::all_signers()) {
    AlgorithmInfo info;
    info.kind = AlgKind::kSignature;
    info.name = s->name();
    info.hybrid = s->is_hybrid();
    info.post_quantum = s->is_post_quantum();
    info.family = family_of(info.name, info.hybrid, info.kind);
    info.nist_level = s->security_level();
    info.table_level =
        table_level_of(info.name, info.hybrid, info.nist_level, info.kind);
    info.headline =
        info.name != "rsa3072_dilithium2" && !is_sphincs_size_variant(info.name);
    info.public_key_bytes = s->public_key_size();
    info.signature_bytes = s->signature_size();
    info.cert_chain_bytes = chain_wire_bytes(*s);
    info.codepoint = static_cast<std::uint16_t>(0x0200 + signers_.size());
    info.signer = s;
    signers_.push_back(std::move(info));
  }
}

const AlgorithmCatalog& AlgorithmCatalog::instance() {
  static const AlgorithmCatalog catalog;
  return catalog;
}

const AlgorithmInfo* AlgorithmCatalog::kem(const std::string& name) const {
  for (const AlgorithmInfo& info : kems_) {
    if (info.name == name) return &info;
  }
  return nullptr;
}

const AlgorithmInfo* AlgorithmCatalog::signer(const std::string& name) const {
  for (const AlgorithmInfo& info : signers_) {
    if (info.name == name) return &info;
  }
  return nullptr;
}

const AlgorithmInfo& AlgorithmCatalog::require_kem(
    const std::string& name) const {
  if (const AlgorithmInfo* info = kem(name)) return *info;
  throw std::invalid_argument("unknown algorithm: " + name +
                              " (valid key agreements: " + join_names(kems_) +
                              ")");
}

const AlgorithmInfo& AlgorithmCatalog::require_signer(
    const std::string& name) const {
  if (const AlgorithmInfo* info = signer(name)) return *info;
  throw std::invalid_argument(
      "unknown algorithm: " + name +
      " (valid signature algorithms: " + join_names(signers_) + ")");
}

std::size_t AlgorithmCatalog::chain_bytes(
    const std::string& sa_name, const pki::ChainProfile& profile) const {
  const AlgorithmInfo& info = require_signer(sa_name);
  return pki::chain_encoded_size(profile, *info.signer,
                                 "pqtls-bench.example.net",
                                 "pqtls-bench root CA");
}

}  // namespace pqtls::crypto
