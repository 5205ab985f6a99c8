// The benchmark's named workloads: one deployment shape plus one traffic
// shape each. perfbench/README.md records why each was chosen and which
// layer metrics should move its end-to-end metrics.

#ifndef RETRASYN_PERFBENCH_WORKLOADS_H_
#define RETRASYN_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/engine.h"

namespace retrasyn {
namespace perfbench {

struct WorkloadSpec {
  std::string name;

  // Traffic (the load generator's side).
  uint32_t users = 0;        ///< constant live population
  double churn = 0.0;        ///< share of users that quit (and are replaced)
                             ///< each round
  int producers = 1;         ///< shard-affine producer threads
  bool open_loop = false;    ///< rounds due on a fixed schedule
  double round_period_s = 0.0;  ///< open loop: seconds per round

  // Deployment (the service's side).
  uint32_t grid_k = 16;      ///< uniform k x k grid over the 1000 x 1000 box
  int shards = 1;
  SyncPolicy sync = SyncPolicy::kInline;
  DivisionStrategy division = DivisionStrategy::kPopulation;
  int num_threads = 1;       ///< synthesis threads
  bool durable = false;      ///< journal fsync per round + checkpoints

  /// Rounds per measured pass: a fixed amount of work whatever --seconds
  /// says, and at least the 200 for which p95 leaves 10 rounds beyond it.
  int64_t rounds = 200;

};

/// Every workload the benchmark knows, in BENCHMARK.json order.
const std::vector<WorkloadSpec>& AllWorkloads();

/// The workload named \p name, or nullptr.
const WorkloadSpec* FindWorkload(const std::string& name);

/// The deployment's RetraSynConfig (journal/checkpoint directories unset).
RetraSynConfig MakeConfig(const WorkloadSpec& spec, uint64_t seed);

}  // namespace perfbench
}  // namespace retrasyn

#endif  // RETRASYN_PERFBENCH_WORKLOADS_H_
