#include "accum/keys.h"

#include "common/rand.h"

namespace vchain::accum {

template <typename F>
FixedBaseTable<F>::FixedBaseTable(const Affine& base) {
  table_.reserve(kWindows * kPerWindow);
  std::vector<Point> row(kPerWindow);
  std::vector<Affine> row_affine;
  std::vector<F> zs, scratch;
  Affine cur = base;
  for (int w = 0; w < kWindows; ++w) {
    // cur == base * 2^{8w}; fill d*cur for d = 1..128.
    row[0] = Point::FromAffine(cur);
    for (size_t d = 1; d < kPerWindow; ++d) {
      row[d] = row[d - 1].AddAffine(cur);
    }
    crypto::BatchToAffine(row, &row_affine, &zs, &scratch);
    table_.insert(table_.end(), row_affine.begin(), row_affine.end());
    cur = row[kPerWindow - 1].Double().ToAffine();  // 256 * cur
  }
}

template <typename F>
typename FixedBaseTable<F>::Point FixedBaseTable<F>::Mul(const U256& k) const {
  int32_t digits[kWindows];
  crypto::msm_internal::SignedDigits(k, kWindowBits, kWindows, 1, digits);
  Point acc = Point::Infinity();
  for (int w = 0; w < kWindows; ++w) {
    int32_t d = digits[w];
    if (d == 0) continue;
    const Affine& p = table_[static_cast<size_t>(w) * kPerWindow +
                             static_cast<size_t>(d < 0 ? -d : d) - 1];
    acc = acc.AddAffine(d < 0 ? p.Neg() : p);
  }
  return acc;
}

template class FixedBaseTable<crypto::Fp>;
template class FixedBaseTable<crypto::Fp2>;

KeyOracle::KeyOracle(const Fr& s, const AccParams& params)
    : params_(params),
      s_(s),
      g1_table_(crypto::G1Generator()),
      g2_table_(crypto::G2Generator()) {
  g1_dense_.push_back(crypto::G1Generator());
  g2_dense_.push_back(crypto::G2Generator());
  s_dense_.push_back(Fr::One());
}

std::shared_ptr<KeyOracle> KeyOracle::Create(uint64_t seed,
                                             const AccParams& params) {
  Rng rng(seed);
  Fr s = Fr::FromU256Reduce(U256(rng.Next(), rng.Next(), rng.Next(), 0));
  if (s.IsZero()) s = Fr::One();
  return std::shared_ptr<KeyOracle>(new KeyOracle(s, params));
}

Fr KeyOracle::SecretPow(uint64_t e) const {
  Fr acc = Fr::One();
  Fr base = s_;
  while (e != 0) {
    if (e & 1) acc *= base;
    base = base.Square();
    e >>= 1;
  }
  return acc;
}

G1 KeyOracle::CommitG1(const Fr& v) const {
  return g1_table_.Mul(v.ToCanonical());
}

G2 KeyOracle::CommitG2(const Fr& v) const {
  return g2_table_.Mul(v.ToCanonical());
}

G1Affine KeyOracle::G1PowerOf(uint64_t j) {
  std::lock_guard<std::mutex> lock(mu_);
  if (j < g1_dense_.size()) return g1_dense_[j];
  auto it = g1_sparse_.find(j);
  if (it != g1_sparse_.end()) return it->second;
  G1Affine p = CommitG1(SecretPow(j)).ToAffine();
  g1_sparse_.emplace(j, p);
  return p;
}

G2Affine KeyOracle::G2PowerOf(uint64_t j) {
  std::lock_guard<std::mutex> lock(mu_);
  if (j < g2_dense_.size()) return g2_dense_[j];
  auto it = g2_sparse_.find(j);
  if (it != g2_sparse_.end()) return it->second;
  G2Affine p = CommitG2(SecretPow(j)).ToAffine();
  g2_sparse_.emplace(j, p);
  return p;
}

void KeyOracle::G1PowersOfUncached(const std::vector<uint64_t>& js,
                                   std::vector<G1Affine>* out) const {
  std::vector<G1> jac;
  jac.reserve(js.size());
  for (uint64_t j : js) jac.push_back(CommitG1(SecretPow(j)));
  std::vector<crypto::Fp> zs, scratch;
  crypto::BatchToAffine(jac, out, &zs, &scratch);
}

void KeyOracle::WarmupG1(uint64_t n) {
  std::lock_guard<std::mutex> lock(mu_);
  while (s_dense_.size() <= n + 1) {
    s_dense_.push_back(s_dense_.back() * s_);
  }
  while (g1_dense_.size() <= n) {
    g1_dense_.push_back(CommitG1(s_dense_[g1_dense_.size()]).ToAffine());
  }
}

void KeyOracle::WarmupG2(uint64_t n) {
  std::lock_guard<std::mutex> lock(mu_);
  while (s_dense_.size() <= n + 1) {
    s_dense_.push_back(s_dense_.back() * s_);
  }
  while (g2_dense_.size() <= n) {
    g2_dense_.push_back(CommitG2(s_dense_[g2_dense_.size()]).ToAffine());
  }
}

}  // namespace vchain::accum
