// Unified algorithm catalog: one handle per negotiable algorithm, spanning
// both registries (kem::all_kems, sig::all_signers). Every layer above the
// primitives — campaign matrices, loadgen profiles, testbed experiment
// resolution, benches, CLIs — resolves (ka, sa) names here instead of
// calling find_kem/find_signer directly, so lookup failures carry one
// consistent message and per-algorithm metadata (family, NIST level, wire
// sizes) has a single source of truth.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "kem/kem.hpp"
#include "pki/certificate.hpp"
#include "sig/sig.hpp"

namespace pqtls::crypto {

enum class AlgKind { kKem, kSignature };

/// Static metadata for one registry entry plus the live primitive handle.
struct AlgorithmInfo {
  AlgKind kind = AlgKind::kKem;
  std::string name;    // registry name, e.g. "p256_kyber512", "rsa:3072"
  std::string family;  // paper grouping: "kyber", "bike", "rsa", "ecdh", ...
  bool hybrid = false;
  bool post_quantum = false;

  // `nist_level` is the implementation's claimed level (hybrids report the
  // min of their components); `table_level` is the paper's table grouping,
  // where a hybrid sits at its post-quantum component's level (Tables 2/4
  // list p256_dilithium2 under level 2, not level 1).
  int nist_level = 0;
  int table_level = 0;

  // Headline entries appear as Table 2 rows. The non-headline signers are
  // the SPHINCS+ "s" size-variants (Table 2's footnote) and the
  // rsa3072_dilithium2 hybrid, which only Table 4b adds back.
  bool headline = true;

  // Static wire sizes in bytes. `signature_bytes` is a maximum for
  // variable-size schemes (Falcon, ECDSA). `cert_chain_bytes` is the
  // testbed's leaf-only Certificate-message chain for this SA, derived from
  // the pki encoding; it inherits the signature-size maximum. Deeper
  // hierarchies are priced by AlgorithmCatalog::chain_bytes — this field
  // stays the leaf-only default so downstream consumers are unchanged.
  std::size_t public_key_bytes = 0;
  std::size_t ciphertext_bytes = 0;  // KEMs only
  std::size_t signature_bytes = 0;   // signers only
  std::size_t cert_chain_bytes = 0;  // signers only

  // Synthetic TLS codepoint (the OQS fork likewise assigns private-range
  // codepoints per algorithm): named group 0x0100 + KEM index, signature
  // scheme 0x0200 + signer index, in registry order. tls::group_id and
  // tls::scheme_id resolve a primitive to this value by name, so a
  // decorator forwarding name() negotiates as the algorithm it wraps.
  std::uint16_t codepoint = 0;

  // Exactly one of these is non-null, matching `kind`.
  const kem::Kem* kem = nullptr;
  const sig::Signer* signer = nullptr;
};

/// Process-wide immutable catalog; build once, read from any thread.
class AlgorithmCatalog {
 public:
  static const AlgorithmCatalog& instance();

  /// All entries, in registry order (which is the paper's table order).
  const std::vector<AlgorithmInfo>& kems() const { return kems_; }
  const std::vector<AlgorithmInfo>& signers() const { return signers_; }

  /// Lookup by registry name; nullptr when unknown.
  const AlgorithmInfo* kem(const std::string& name) const;
  const AlgorithmInfo* signer(const std::string& name) const;

  /// Lookup that throws std::invalid_argument with a message listing the
  /// valid names ("unknown algorithm: <name> (valid ...: a, b, ...)").
  const AlgorithmInfo& require_kem(const std::string& name) const;
  const AlgorithmInfo& require_signer(const std::string& name) const;

  /// Wire size of the Certificate-message chain for signature algorithm
  /// `sa_name` under an arbitrary hierarchy profile, over the testbed's
  /// fixed subject names (pki::chain_encoded_size). The default leaf-only
  /// profile reproduces the entry's static `cert_chain_bytes` exactly;
  /// variable-size schemes (Falcon, ECDSA) inherit the signature-size
  /// maximum, so the value is an upper bound there. Throws for unknown SAs.
  std::size_t chain_bytes(const std::string& sa_name,
                          const pki::ChainProfile& profile) const;

 private:
  AlgorithmCatalog();

  std::vector<AlgorithmInfo> kems_;
  std::vector<AlgorithmInfo> signers_;
};

}  // namespace pqtls::crypto
