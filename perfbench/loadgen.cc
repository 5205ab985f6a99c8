#include "loadgen.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>

#include "service/ingest_session.h"
#include "stream/hotspot_generator.h"

namespace retrasyn {
namespace perfbench {
namespace {

constexpr float kBoxSide = 1000.0f;

/// The T-Drive-like model's parameters, distances scaled to the box.
struct Motion {
  double sigma, min_step, max_step, route_noise, dwell;
  int64_t day_length;
  uint32_t hotspots;
};

const Motion& TDriveMotion() {
  static const Motion motion = [] {
    const HotspotGeneratorConfig ref;
    const double scale = kBoxSide / ref.box.Width();
    return Motion{ref.hotspot_sigma * scale, ref.min_step * scale,
                  ref.max_step * scale,      ref.route_noise * scale,
                  ref.dwell_probability,     ref.day_length,
                  ref.num_hotspots};
  }();
  return motion;
}

int OwnerOf(uint64_t user, int shards, int producers) {
  return static_cast<int>(IngestSession::ShardOf(user, shards)) % producers;
}

float ClampToBox(double v) {
  return static_cast<float>(std::clamp(v, 0.0, static_cast<double>(kBoxSide)));
}

}  // namespace

ProducerLoad::ProducerLoad(const WorkloadSpec& spec, int producer,
                           std::vector<uint64_t> users,
                           const std::vector<Hotspot>& hotspots, uint64_t seed)
    : producer_(producer),
      producers_(spec.producers),
      shards_(spec.shards),
      churn_(spec.churn),
      hotspots_(hotspots),
      cumulative_(hotspots.size()),
      rng_(seed * 0x9e3779b97f4a7c15ull + static_cast<uint64_t>(producer) + 1),
      fresh_cursor_(spec.users) {
  SetRound(0);
  users_.reserve(users.size());
  for (uint64_t id : users) {
    User user;
    user.id = id;
    Spawn(&user);
    users_.push_back(user);
  }
  events_.reserve(static_cast<size_t>(
      static_cast<double>(users_.size()) * (1.0 + 2.0 * churn_) + 64));
}

bool ProducerLoad::Owns(uint64_t id) const {
  return OwnerOf(id, shards_, producers_) == producer_;
}

uint64_t ProducerLoad::NextFreshId() {
  while (!Owns(fresh_cursor_)) ++fresh_cursor_;
  return fresh_cursor_++;
}

void ProducerLoad::SetRound(int64_t t) {
  const int64_t day = TDriveMotion().day_length;
  const double day_fraction =
      static_cast<double>(t % day) / static_cast<double>(day);
  double sum = 0.0;
  for (size_t h = 0; h < hotspots_.size(); ++h) {
    const Hotspot& spot = hotspots_[h];
    const double cycle = std::sin(2.0 * M_PI * (day_fraction - spot.phase));
    sum += spot.base_weight * std::max(0.05, 1.0 + spot.amplitude * cycle);
    cumulative_[h] = sum;
  }
}

void ProducerLoad::NearHotspot(float* x, float* y) {
  const double pick = rng_.UniformDouble() * cumulative_.back();
  const size_t h = std::min<size_t>(
      std::upper_bound(cumulative_.begin(), cumulative_.end(), pick) -
          cumulative_.begin(),
      hotspots_.size() - 1);
  const double sigma = TDriveMotion().sigma;
  *x = ClampToBox(hotspots_[h].x + rng_.Gaussian(0.0, sigma));
  *y = ClampToBox(hotspots_[h].y + rng_.Gaussian(0.0, sigma));
}

void ProducerLoad::Spawn(User* user) {
  NearHotspot(&user->x, &user->y);
  NearHotspot(&user->dest_x, &user->dest_y);
  user->dwelling = false;
}

void ProducerLoad::Step(User* user) {
  const Motion& m = TDriveMotion();
  if (user->dwelling) {
    user->dwelling = false;
    NearHotspot(&user->dest_x, &user->dest_y);
    return;
  }
  const double dx = user->dest_x - user->x;
  const double dy = user->dest_y - user->y;
  const double dist = std::sqrt(dx * dx + dy * dy);
  const double step = rng_.UniformDouble(m.min_step, m.max_step);
  if (dist <= step) {
    user->x = user->dest_x;
    user->y = user->dest_y;
    if (rng_.Bernoulli(m.dwell)) {
      user->dwelling = true;
    } else {
      NearHotspot(&user->dest_x, &user->dest_y);
    }
    return;
  }
  // Toward the destination, with perpendicular route noise.
  const double ux = dx / dist;
  const double uy = dy / dist;
  const double noise = rng_.Gaussian(0.0, m.route_noise);
  user->x = ClampToBox(user->x + ux * step - uy * noise);
  user->y = ClampToBox(user->y + uy * step + ux * noise);
}

void ProducerLoad::Generate(int64_t t) {
  // The generator is a sequential process; a skipped round would change
  // every later one.
  if (t != next_round_) std::abort();
  ++next_round_;
  SetRound(t);
  events_.clear();
  for (User& user : users_) {
    if (t == 0) {
      events_.push_back({user.id, user.x, user.y, EventKind::kEnter});
    } else if (rng_.UniformDouble() < churn_) {
      // The user leaves and a new one takes its place, entering this round.
      events_.push_back({user.id, 0.0f, 0.0f, EventKind::kQuit});
      user.id = NextFreshId();
      Spawn(&user);
      events_.push_back({user.id, user.x, user.y, EventKind::kEnter});
    } else {
      Step(&user);
      events_.push_back({user.id, user.x, user.y, EventKind::kMove});
    }
  }
}

LoadGenerator::LoadGenerator(const WorkloadSpec& spec, uint64_t seed) {
  // The hotspot layout of stream/hotspot_generator.cc: inside the central
  // 80% of the box, alternately peaking by day and by night. The layout is
  // the workload's map, drawn with the T-Drive-like dataset's default seed,
  // so seeds vary the users and not the geography.
  Rng layout(42);
  for (uint32_t h = 0; h < TDriveMotion().hotspots; ++h) {
    Hotspot spot;
    spot.x = static_cast<float>(layout.UniformDouble(0.1, 0.9) * kBoxSide);
    spot.y = static_cast<float>(layout.UniformDouble(0.1, 0.9) * kBoxSide);
    spot.base_weight = layout.UniformDouble(0.5, 1.5);
    spot.amplitude = layout.UniformDouble(0.3, 0.9);
    spot.phase = h % 2 == 0 ? layout.UniformDouble(0.25, 0.4)
                            : layout.UniformDouble(0.75, 0.95);
    hotspots_.push_back(spot);
  }
  std::vector<std::vector<uint64_t>> owned(static_cast<size_t>(spec.producers));
  for (uint64_t id = 0; id < spec.users; ++id) {
    owned[OwnerOf(id, spec.shards, spec.producers)].push_back(id);
  }
  for (int p = 0; p < spec.producers; ++p) {
    producers_.push_back(std::make_unique<ProducerLoad>(
        spec, p, std::move(owned[p]), hotspots_, seed));
  }
}

}  // namespace perfbench
}  // namespace retrasyn
