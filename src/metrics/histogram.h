// Distribution-comparison primitives shared by the utility metrics:
// Jensen-Shannon divergence (natural log, matching the paper: the maximal
// JSD between disjoint distributions is ln 2 = 0.6931, the value the
// baselines hit on Length Error in Table III), Kendall tau-b, and NDCG.

#ifndef RETRASYN_METRICS_HISTOGRAM_H_
#define RETRASYN_METRICS_HISTOGRAM_H_

#include <cstdint>
#include <vector>

namespace retrasyn {

/// \brief JSD between two non-negative vectors, which are normalized
/// internally. Conventions for empty mass: JSD(0, 0) = 0 and
/// JSD(P, 0) = ln 2 (maximally different).
double JensenShannonDivergence(const std::vector<double>& p,
                               const std::vector<double>& q);

/// Convenience overload for count histograms.
double JensenShannonDivergence(const std::vector<uint32_t>& p,
                               const std::vector<uint32_t>& q);

/// \brief Kendall tau-b rank correlation between two paired score vectors
/// (tie-corrected). Returns 0 when either vector is constant.
double KendallTauB(const std::vector<double>& a, const std::vector<double>& b);

/// \brief NDCG@k of a predicted item ranking against graded relevance.
///
/// \param relevance  relevance (e.g. true counts) per item id
/// \param ranking    predicted item ids, best first; only the first k used
/// \return 0 when k <= 0
double NdcgAtK(const std::vector<double>& relevance,
               const std::vector<uint32_t>& ranking, int k);

/// \brief Indices of the k largest entries of \p scores, descending (ties
/// broken by lower index). Empty when k <= 0.
std::vector<uint32_t> TopKIndices(const std::vector<double>& scores, int k);

}  // namespace retrasyn

#endif  // RETRASYN_METRICS_HISTOGRAM_H_
