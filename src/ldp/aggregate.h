// Transition-state collection round: the bridge between a set of reporting
// users (each holding one TransitionState) and the curator's noisy frequency
// estimate over the state space.
//
// Two fidelities are provided:
//  * kPerUser       — every reporting user runs a real OUE client and the
//                     curator aggregates the bit vectors. This is the actual
//                     protocol; O(n * |S|) per round.
//  * kAggregateSim  — the aggregated one-counts are drawn directly from their
//                     exact sampling distribution: for a state with true count
//                     c among n reporters, ones(state) ~ Binomial(c, 1/2) +
//                     Binomial(n - c, q). Because OUE perturbs every bit
//                     independently, this equals the distribution of the
//                     per-user sum, at O(|S|) per round. Benches use this mode
//                     so laptop-scale runs match the paper's population sizes.
//                     Each state costs two Rng::Binomial calls. With c = 0
//                     (nearly every state) the first returns at once and the
//                     second reuses the memoized sampler set-up for (n, q),
//                     so a state costs one rejection-sampler draw: about
//                     0.2 us at n = 4,096 (docs/performance.md).
//
// A statistical test (tests/ldp/collector_test.cc) verifies the two modes
// produce estimates with matching mean and variance.

#ifndef RETRASYN_LDP_AGGREGATE_H_
#define RETRASYN_LDP_AGGREGATE_H_

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "geo/state_space.h"
#include "ldp/frequency_oracle.h"

namespace retrasyn {

enum class CollectionMode {
  kPerUser,
  kAggregateSim,
};

/// \brief Which frequency oracle a collection round runs.
enum class OracleKind {
  kOue,   ///< optimized unary encoding (paper default; best for large |S|)
  kGrr,   ///< generalized randomized response (wins for tiny domains/high eps)
  kAuto,  ///< pick per round by comparing worst-case estimator variances
};

/// \brief Outcome of one LDP collection round.
struct CollectionResult {
  /// Unbiased frequency estimates over the full state space (fraction of the
  /// reporting population per state; may contain negatives before
  /// post-processing).
  std::vector<double> frequencies;
  /// Number of users that reported this round.
  uint64_t num_reports = 0;
  /// Per-report privacy budget used this round.
  double epsilon = 0.0;
};

/// \brief Wall-clock split of one collection round, for the component
/// efficiency experiment (paper Table V): perturbation happens on the user
/// side, aggregation/estimation on the curator side.
struct CollectTimings {
  double user_side_seconds = 0.0;
  double aggregation_seconds = 0.0;
};

/// \brief Runs LDP collection rounds over a transition-state domain.
class TransitionCollector {
 public:
  TransitionCollector(uint32_t domain_size, CollectionMode mode,
                      OracleKind oracle = OracleKind::kOue)
      : domain_size_(domain_size), mode_(mode), oracle_(oracle) {}

  uint32_t domain_size() const { return domain_size_; }
  CollectionMode mode() const { return mode_; }
  OracleKind oracle() const { return oracle_; }

  /// The oracle a round with budget \p epsilon would use (resolves kAuto by
  /// the worst-case variance comparison; per-round population size does not
  /// affect the comparison since both variances scale as 1/n).
  OracleKind EffectiveOracle(double epsilon) const;

  /// Collects the given users' states with per-report budget \p epsilon.
  /// An empty \p states or non-positive epsilon yields a zero-report result
  /// with empty frequency estimates (callers treat that as "no update").
  /// When \p timings is non-null, the user-side / curator-side wall-clock
  /// split is reported through it.
  CollectionResult Collect(const std::vector<StateId>& states, double epsilon,
                           Rng& rng, CollectTimings* timings = nullptr) const;

 private:
  CollectionResult CollectOue(const std::vector<StateId>& states,
                              double epsilon, Rng& rng,
                              CollectTimings* timings) const;
  CollectionResult CollectGrr(const std::vector<StateId>& states,
                              double epsilon, Rng& rng,
                              CollectTimings* timings) const;

  uint32_t domain_size_;
  CollectionMode mode_;
  OracleKind oracle_;
};

}  // namespace retrasyn

#endif  // RETRASYN_LDP_AGGREGATE_H_
