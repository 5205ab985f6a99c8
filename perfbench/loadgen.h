// The benchmark's seeded load generator. Each producer thread owns the users
// of its shards (users are hashed to shards by IngestSession::ShardOf), keeps
// O(users) state of its own, and regenerates its round's events into a
// reused buffer; the service only ever sees the generated events.
//
// Users move by the repository's T-Drive-like motion model
// (stream/hotspot_generator.h), with its distances scaled from the model's
// 30 km box to the benchmark's 1000 x 1000 box: a few hotspots whose pull
// follows a daily cycle, trips between hotspots in noisy straight lines,
// and dwelling at reached destinations. The hotspot layout is fixed; the
// seed drives the users. The population is held constant: a
// user that quits is replaced by one entering near a hotspot.
//
// Every producer's state is a separate, cache-line-aligned allocation, so no
// two producer threads write the same cache line; the hotspot layout is
// shared read-only. The events of round t are a pure function of
// (workload, seed, t), whatever the timing.

#ifndef RETRASYN_PERFBENCH_LOADGEN_H_
#define RETRASYN_PERFBENCH_LOADGEN_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "workloads.h"

namespace retrasyn {
namespace perfbench {

enum class EventKind : uint8_t { kEnter, kMove, kQuit };

struct Event {
  uint64_t user = 0;
  float x = 0.0f;
  float y = 0.0f;
  EventKind kind = EventKind::kMove;
};

/// One hotspot of the layout every producer of one generator shares.
struct Hotspot {
  float x = 0.0f;
  float y = 0.0f;
  double base_weight = 1.0;
  double amplitude = 0.0;  ///< strength of the daily modulation
  double phase = 0.0;      ///< fraction of a day by which the peak is shifted
};

class alignas(64) ProducerLoad {
 public:
  ProducerLoad(const WorkloadSpec& spec, int producer,
               std::vector<uint64_t> users,
               const std::vector<Hotspot>& hotspots, uint64_t seed);
  ProducerLoad(const ProducerLoad&) = delete;
  ProducerLoad& operator=(const ProducerLoad&) = delete;

  /// Replaces events() with round \p t's events. Rounds are generated in
  /// order from 0; round 0 enters every user.
  void Generate(int64_t t);
  const std::vector<Event>& events() const { return events_; }

 private:
  struct User {
    uint64_t id = 0;
    float x = 0.0f;
    float y = 0.0f;
    float dest_x = 0.0f;
    float dest_y = 0.0f;
    bool dwelling = false;
  };

  bool Owns(uint64_t id) const;
  uint64_t NextFreshId();
  /// Sets the hotspot weights of round \p t (the daily cycle).
  void SetRound(int64_t t);
  void NearHotspot(float* x, float* y);
  void Spawn(User* user);
  void Step(User* user);

  const int producer_;
  const int producers_;
  const int shards_;
  const double churn_;
  const std::vector<Hotspot>& hotspots_;
  std::vector<double> cumulative_;  ///< this round's hotspot weights, summed
  Rng rng_;
  std::vector<User> users_;
  std::vector<Event> events_;
  uint64_t fresh_cursor_;  ///< next id to consider for a replacement user
  int64_t next_round_ = 0;
};

class LoadGenerator {
 public:
  LoadGenerator(const WorkloadSpec& spec, uint64_t seed);
  LoadGenerator(const LoadGenerator&) = delete;
  LoadGenerator& operator=(const LoadGenerator&) = delete;

  int num_producers() const { return static_cast<int>(producers_.size()); }
  ProducerLoad& producer(int p) { return *producers_[p]; }

 private:
  std::vector<Hotspot> hotspots_;
  std::vector<std::unique_ptr<ProducerLoad>> producers_;
};

}  // namespace perfbench
}  // namespace retrasyn

#endif  // RETRASYN_PERFBENCH_LOADGEN_H_
