#include "workloads.h"

namespace retrasyn {
namespace perfbench {
namespace {

std::vector<WorkloadSpec> BuildWorkloads() {
  std::vector<WorkloadSpec> all;

  // The O(|S|) LDP collection dominates: a small population on a fine grid,
  // budget division with adaptive allocation (RetraSyn_b), synthesis on a
  // pool of two threads. The collection's cost follows the grid, not the
  // users, so 4,096 cells give rounds of about 26 ms: 1,200 of them, many
  // latency samples, fit in a run.
  WorkloadSpec model;
  model.name = "model_bound";
  model.users = 4'096;
  model.churn = 0.01;
  model.producers = 1;
  model.grid_k = 64;
  model.shards = 1;
  model.division = DivisionStrategy::kBudget;
  model.num_threads = 2;
  model.rounds = 1'200;
  all.push_back(model);

  // Durability and the async closer under a paced, churn-heavy stream:
  // rounds are due every 150 ms whether or not the service kept up, which
  // offers about 40% of what this deployment admits closed loop on 4 cores.
  WorkloadSpec durable;
  durable.name = "durable_paced";
  durable.users = 65'536;
  durable.churn = 0.07;
  durable.producers = 2;
  durable.open_loop = true;
  durable.round_period_s = 0.15;
  durable.grid_k = 32;
  durable.shards = 2;
  durable.sync = SyncPolicy::kAsync;  // default 8-round queue, blocking
  durable.durable = true;
  durable.rounds = 300;
  all.push_back(durable);

  return all;
}

}  // namespace

const std::vector<WorkloadSpec>& AllWorkloads() {
  static const std::vector<WorkloadSpec> all = BuildWorkloads();
  return all;
}

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : AllWorkloads()) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

RetraSynConfig MakeConfig(const WorkloadSpec& spec, uint64_t seed) {
  RetraSynConfig config;
  config.epsilon = 1.0;
  config.window = 20;
  config.division = spec.division;
  config.allocation.kind = AllocationKind::kAdaptive;
  config.seed = seed;
  config.num_threads = spec.num_threads;
  config.ingest_shards = spec.shards;
  config.sync_policy = spec.sync;
  config.backpressure = BackpressurePolicy::kBlock;
  if (spec.durable) {
    config.journal_fsync = FsyncPolicy::kEveryRound;
    config.journal_segment_bytes = 8 << 20;
    config.checkpoint_every_rounds = 10;
    config.checkpoint_retain = 2;
    config.checkpoint_spill_history = true;
  }
  return config;
}

}  // namespace perfbench
}  // namespace retrasyn
