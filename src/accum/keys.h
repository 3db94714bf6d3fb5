// Accumulator trusted setup and the key oracle.
//
// Both accumulator constructions need powers of a secret s in the exponent:
//   acc1 (q-SDH):  pk = (g^{s^0}, ..., g^{s^N})        N = max multiset size
//   acc2 (q-DHE):  pk = (g^{s^j}) for j in [0, 2q-2] \ {q},  q = universe size
//
// The paper notes (§5.2.2) that publishing acc2's full key is impractical for
// hash-sized universes and proposes a trusted oracle (TTP or SGX enclave)
// that owns s and answers public-key requests on demand. `KeyOracle` plays
// that role here: it serves lazily-computed, memoized powers of s in G1/G2.
// It also exposes explicitly-named *trusted-path* evaluation helpers used for
// fast test fixtures and for skipping miner work that a benchmark is not
// measuring; honest-path code never touches them.

#ifndef VCHAIN_ACCUM_KEYS_H_
#define VCHAIN_ACCUM_KEYS_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "crypto/bn254.h"
#include "crypto/pairing.h"

namespace vchain::accum {

using crypto::Fr;
using crypto::G1;
using crypto::G1Affine;
using crypto::G2;
using crypto::G2Affine;
using crypto::U256;

/// Parameters fixed at setup time.
struct AccParams {
  /// acc2 universe is [1, 2^universe_bits - 1]; powers go up to 2^(bits+1)-2.
  uint32_t universe_bits = 16;

  uint64_t UniverseSize() const { return uint64_t{1} << universe_bits; }
};

/// Precomputed fixed-base table for fast g^k: signed 8-bit windows over
/// affine points, normalized once at construction. A scalar's signed
/// base-2^8 digits (msm_internal::SignedDigits) pick one entry per window,
/// so g^k costs at most 33 mixed adds (7M + 4S each) and no doublings.
template <typename F>
class FixedBaseTable {
 public:
  using Affine = crypto::AffinePoint<F>;
  using Point = crypto::JacobianPoint<F>;

  explicit FixedBaseTable(const Affine& base);

  /// base * k, for any 256-bit k.
  Point Mul(const U256& k) const;

 private:
  static constexpr int kWindowBits = 8;
  static constexpr int kWindows = 33;         // 33 * 8 > 256: room for the top carry
  static constexpr size_t kPerWindow = 128;   // signed digits |d| in [1, 128]

  // table_[w * 128 + d - 1] = base * (d << (8w)), d in [1, 128].
  std::vector<Affine> table_;
};

/// The trusted oracle: owns the setup secret, serves public-key powers.
class KeyOracle {
 public:
  /// Deterministic setup from a seed (tests/benches). A deployment would
  /// sample the secret from an entropy source or an MPC ceremony.
  static std::shared_ptr<KeyOracle> Create(uint64_t seed,
                                           const AccParams& params = {});

  const AccParams& params() const { return params_; }

  // --- public-key interface (what an untrusted party may request) ---------

  /// g1^{s^j} / g2^{s^j}, memoized, thread-safe.
  G1Affine G1PowerOf(uint64_t j);
  G2Affine G2PowerOf(uint64_t j);

  /// out[i] = g1^{s^{js[i]}}, no memoization: acc2's disjointness cross
  /// terms x_i + q - y_j. They do recur (at q = 2^16 within a few dozen
  /// proofs), but memoizing all 2q-2 of them would keep ~9 MiB resident.
  /// The Jacobian commits share one batched inversion (BatchToAffine), so
  /// each term costs ~33 mixed adds rather than that plus an inversion.
  void G1PowersOfUncached(const std::vector<uint64_t>& js,
                          std::vector<G1Affine>* out) const;

  /// Eagerly materialize consecutive powers [0, n] (acc1 proving needs a
  /// dense prefix; this amortizes the lock).
  void WarmupG1(uint64_t n);
  void WarmupG2(uint64_t n);

  // --- trusted-path helpers (oracle-internal; see file comment) -----------

  /// s^e in Fr.
  Fr SecretPow(uint64_t e) const;
  /// Evaluate a polynomial-in-s value directly: g1^v / g2^v.
  G1 CommitG1(const Fr& v) const;
  G2 CommitG2(const Fr& v) const;
  /// The secret itself — used only by trusted-path digest evaluation and by
  /// security tests that play the adversary's game with known randomness.
  const Fr& secret() const { return s_; }

 private:
  KeyOracle(const Fr& s, const AccParams& params);

  AccParams params_;
  Fr s_;
  FixedBaseTable<crypto::Fp> g1_table_;
  FixedBaseTable<crypto::Fp2> g2_table_;

  std::mutex mu_;
  // Dense prefix caches (acc1-style consecutive powers)...
  std::vector<G1Affine> g1_dense_;
  std::vector<Fr> s_dense_;  // s^j alongside, to extend cheaply
  std::vector<G2Affine> g2_dense_;
  // ...plus sparse memo for acc2's scattered indices.
  std::unordered_map<uint64_t, G1Affine> g1_sparse_;
  std::unordered_map<uint64_t, G2Affine> g2_sparse_;
};

}  // namespace vchain::accum

#endif  // VCHAIN_ACCUM_KEYS_H_
