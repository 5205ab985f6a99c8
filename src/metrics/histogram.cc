#include "metrics/histogram.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/logging.h"

namespace retrasyn {

namespace {

constexpr double kLn2 = 0.6931471805599453;

double MassOf(const std::vector<double>& v) {
  double m = 0.0;
  for (double x : v) {
    if (x > 0.0) m += x;
  }
  return m;
}

}  // namespace

double JensenShannonDivergence(const std::vector<double>& p,
                               const std::vector<double>& q) {
  RETRASYN_CHECK(p.size() == q.size());
  const double mp = MassOf(p);
  const double mq = MassOf(q);
  if (mp <= 0.0 && mq <= 0.0) return 0.0;
  if (mp <= 0.0 || mq <= 0.0) return kLn2;
  double jsd = 0.0;
  for (size_t i = 0; i < p.size(); ++i) {
    const double pi = p[i] > 0.0 ? p[i] / mp : 0.0;
    const double qi = q[i] > 0.0 ? q[i] / mq : 0.0;
    const double mi = 0.5 * (pi + qi);
    if (pi > 0.0) jsd += 0.5 * pi * std::log(pi / mi);
    if (qi > 0.0) jsd += 0.5 * qi * std::log(qi / mi);
  }
  // Clamp tiny negative float residue.
  return std::max(0.0, jsd);
}

double JensenShannonDivergence(const std::vector<uint32_t>& p,
                               const std::vector<uint32_t>& q) {
  std::vector<double> dp(p.begin(), p.end());
  std::vector<double> dq(q.begin(), q.end());
  return JensenShannonDivergence(dp, dq);
}

double KendallTauB(const std::vector<double>& a,
                   const std::vector<double>& b) {
  RETRASYN_CHECK(a.size() == b.size());
  const size_t n = a.size();
  if (n < 2) return 0.0;
  int64_t concordant = 0, discordant = 0;
  int64_t ties_a = 0, ties_b = 0;
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      const double da = a[i] - a[j];
      const double db = b[i] - b[j];
      if (da == 0.0 && db == 0.0) continue;  // tied in both: excluded
      if (da == 0.0) {
        ++ties_a;
      } else if (db == 0.0) {
        ++ties_b;
      } else if ((da > 0.0) == (db > 0.0)) {
        ++concordant;
      } else {
        ++discordant;
      }
    }
  }
  const double n0 = static_cast<double>(concordant + discordant);
  const double denom = std::sqrt((n0 + ties_a) * (n0 + ties_b));
  if (denom <= 0.0) return 0.0;
  return static_cast<double>(concordant - discordant) / denom;
}

std::vector<uint32_t> TopKIndices(const std::vector<double>& scores, int k) {
  // A plain min<size_t>(k, size) would turn a negative k into SIZE_MAX.
  if (k <= 0) return {};
  std::vector<uint32_t> idx(scores.size());
  std::iota(idx.begin(), idx.end(), 0);
  const size_t kk = std::min<size_t>(k, scores.size());
  std::partial_sort(idx.begin(), idx.begin() + kk, idx.end(),
                    [&](uint32_t x, uint32_t y) {
                      if (scores[x] != scores[y]) return scores[x] > scores[y];
                      return x < y;
                    });
  idx.resize(kk);
  return idx;
}

double NdcgAtK(const std::vector<double>& relevance,
               const std::vector<uint32_t>& ranking, int k) {
  if (k <= 0) return 0.0;
  const size_t kk = std::min<size_t>(k, ranking.size());
  double dcg = 0.0;
  for (size_t i = 0; i < kk; ++i) {
    const double rel = relevance[ranking[i]];
    dcg += rel / std::log2(static_cast<double>(i) + 2.0);
  }
  // Ideal DCG from the top-k true relevances.
  std::vector<uint32_t> ideal = TopKIndices(relevance, static_cast<int>(kk));
  double idcg = 0.0;
  for (size_t i = 0; i < ideal.size(); ++i) {
    idcg += relevance[ideal[i]] / std::log2(static_cast<double>(i) + 2.0);
  }
  if (idcg <= 0.0) return 0.0;
  return dcg / idcg;
}

}  // namespace retrasyn
