// Content-addressed store for CEM-trained policy weights — artifact kind
// "cemw" on the generic store (core/artifact_store.hpp).
//
// The paper's agent is the product of a 2000-episode training run; the
// in-repo CEM reproduction is likewise the most expensive artifact the nn
// stack produces, and it is a pure function of (architecture, CEM
// hyperparameters, rng seed, objective identity).  Fingerprinting that
// tuple lets every harness — examples, benches, sweeps over trained
// policies — train once per distinct configuration and reload the weights
// from memory or disk everywhere else.
//
// The objective ("scenario identity") is opaque to this layer: callers
// pass a stable tag plus a content digest of whatever defines their reward
// (a scenario fingerprint, a dataset hash).  Forgetting to update the
// digest when the objective changes is the caller's cache-corruption bug
// to avoid — exactly like any other key field, so keep the digest derived
// from content, never hand-assigned.
//
// CemConfig::threads is excluded from the key: candidate scoring fans out
// into index-addressed slots, so the trained weights are bit-identical for
// any thread count (locked by tests).  Serialization is the canonical
// binary Mlp::encode/decode payload, which round-trips every double as its
// raw IEEE-754 bits — a warm load is bit-identical to the training run it
// replaces.
#pragma once

#include <cstdint>
#include <string>

#include "core/artifact_store.hpp"
#include "nn/cem.hpp"
#include "nn/mlp.hpp"

namespace seo::nn {

/// Everything that determines a CEM training run's final weights.
struct CemWeightsKey {
  MlpConfig arch{};        ///< network architecture (sizes + activations)
  CemConfig cem{};         ///< hyperparameters; `threads` excluded
  std::uint64_t seed = 0;  ///< CEM sampling rng seed
  /// Content digest of the initial mean the optimization started from
  /// (fingerprint_parameters of the vector handed to cem_optimize): the
  /// trajectory depends on it, so two runs with different initializations
  /// must never alias.
  std::uint64_t init_digest = 0;
  /// Identity of the objective the candidates were scored on: a
  /// human-readable tag plus a content digest (e.g. a scenario
  /// fingerprint).  Both are mixed; the tag alone is not trusted to be
  /// unique.
  std::string objective_tag;
  std::uint64_t objective_digest = 0;

  std::uint64_t digest() const;
  std::string hex() const;

  bool operator==(const CemWeightsKey& other) const;
};

/// Artifact kind "cemw": CEM-trained Mlp policy weights.
struct CemWeightsTraits {
  using Key = CemWeightsKey;
  using Value = Mlp;
  static const char* kind() { return "cemw"; }
  /// v2 = binary container + binary weights payload.
  static int version() { return 2; }
  static void encode(const Mlp& net, seo::BinaryWriter& out) {
    net.encode(out);
  }
  static Mlp decode(seo::BinaryReader& in) { return Mlp::decode(in); }
  /// Architecture must match the key and every parameter must be finite —
  /// a truncated or poisoned payload must rebuild, never drive a policy.
  static void validate(const Key& key, const Mlp& net);
};

/// Canonical content digest of a parameter vector (bit-exact over the IEEE
/// patterns) — the CemWeightsKey::init_digest of an initial mean.
std::uint64_t fingerprint_parameters(const Vector& params);

using CemWeightsStore = ArtifactStore<CemWeightsTraits>;

/// The process-wide store (registers kind "cemw" on first use).
inline CemWeightsStore& cem_weights_store() {
  return CemWeightsStore::global();
}

}  // namespace seo::nn
