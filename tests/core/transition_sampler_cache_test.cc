// TransitionSamplerCache: the cached O(1) samplers must (a) draw from
// exactly the distributions the model's frequencies define, (b) re-derive only
// what a DMU-selective update touched, and (c) rebuild fully on ReplaceAll
// or a collapsed dirty log.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "core/mobility_model.h"
#include "core/synthesizer.h"
#include "core/transition_sampler_cache.h"
#include "geo/grid.h"
#include "geo/state_space.h"

namespace retrasyn {
namespace {

class TransitionSamplerCacheTest : public testing::Test {
 protected:
  TransitionSamplerCacheTest()
      : grid_(BoundingBox{0.0, 0.0, 1.0, 1.0}, 6),
        states_(grid_),
        model_(states_) {}

  std::vector<double> RandomFrequencies(uint64_t seed) {
    Rng rng(seed);
    std::vector<double> f(states_.size());
    for (double& x : f) x = rng.UniformDouble() * 0.02;
    return f;
  }

  Grid grid_;
  StateSpace states_;
  GlobalMobilityModel model_;
};

TEST_F(TransitionSamplerCacheTest, FirstSyncIsAFullRebuild) {
  model_.ReplaceAll(RandomFrequencies(1));
  TransitionSamplerCache cache(states_);
  EXPECT_FALSE(cache.synced_once());
  cache.Sync(model_);
  EXPECT_TRUE(cache.synced_once());
  EXPECT_EQ(cache.stats().full_rebuilds, 1u);
  EXPECT_EQ(cache.stats().cell_rebuilds, grid_.NumCells());

  // Re-syncing an unchanged model is free.
  cache.Sync(model_);
  cache.Sync(model_);
  EXPECT_EQ(cache.stats().syncs, 1u);
  EXPECT_EQ(cache.stats().full_rebuilds, 1u);
}

TEST_F(TransitionSamplerCacheTest, SelectiveUpdateRebuildsOnlyTouchedCells) {
  model_.ReplaceAll(RandomFrequencies(2));
  TransitionSamplerCache cache(states_);
  cache.Sync(model_);
  const uint64_t cells_after_full = cache.stats().cell_rebuilds;

  // Touch one movement state of cell 7 and the enter state of cell 3.
  const CellId move_cell = 7, enter_cell = 3;
  std::vector<StateId> selected{states_.MoveOffset(move_cell),
                                states_.EnterIndex(enter_cell)};
  std::vector<double> fresh = RandomFrequencies(3);
  model_.UpdateStates(selected, fresh);
  cache.Sync(model_);
  EXPECT_EQ(cache.stats().full_rebuilds, 1u);  // still only the initial one
  EXPECT_EQ(cache.stats().cell_rebuilds, cells_after_full + 1);
  EXPECT_EQ(cache.stats().enter_rebuilds, 2u);
  EXPECT_EQ(cache.stats().quit_rebuilds, 1u);  // no quit state touched

  // A quit-state update re-derives that cell's Eq. 8 term and the global
  // quitting distribution, but not the enter table.
  model_.UpdateStates({states_.QuitIndex(11)}, fresh);
  cache.Sync(model_);
  EXPECT_EQ(cache.stats().cell_rebuilds, cells_after_full + 2);
  EXPECT_EQ(cache.stats().enter_rebuilds, 2u);
  EXPECT_EQ(cache.stats().quit_rebuilds, 2u);
}

TEST_F(TransitionSamplerCacheTest, ReplaceAllForcesFullRebuild) {
  model_.ReplaceAll(RandomFrequencies(4));
  TransitionSamplerCache cache(states_);
  cache.Sync(model_);
  model_.ReplaceAll(RandomFrequencies(5));
  cache.Sync(model_);
  EXPECT_EQ(cache.stats().full_rebuilds, 2u);
}

TEST_F(TransitionSamplerCacheTest, OverflowingDirtyLogCollapsesToFullRebuild) {
  model_.ReplaceAll(RandomFrequencies(6));
  TransitionSamplerCache cache(states_);
  cache.Sync(model_);
  // Push more dirty states than |S| without syncing: the model's log
  // collapses and the next sync is a (single) full rebuild.
  std::vector<StateId> all(states_.size());
  for (StateId s = 0; s < states_.size(); ++s) all[s] = s;
  const std::vector<double> fresh = RandomFrequencies(7);
  model_.UpdateStates(all, fresh);
  model_.UpdateStates(all, fresh);
  cache.Sync(model_);
  EXPECT_EQ(cache.stats().full_rebuilds, 2u);
  EXPECT_EQ(model_.dirty_log().size(), 0u);
}

TEST_F(TransitionSamplerCacheTest, CachedValuesTrackSelectiveUpdates) {
  model_.ReplaceAll(RandomFrequencies(8));
  TransitionSamplerCache cache(states_);
  cache.Sync(model_);
  for (CellId c = 0; c < grid_.NumCells(); ++c) {
    EXPECT_DOUBLE_EQ(cache.QuitProbability(c), model_.QuitProbability(c));
  }
  EXPECT_EQ(cache.QuitDistribution(), model_.QuitDistribution());

  // Selectively zero one cell's quit state; the cached views must follow.
  std::vector<double> fresh = model_.frequencies();
  fresh[states_.QuitIndex(5)] = 0.0;
  model_.UpdateStates({states_.QuitIndex(5)}, fresh);
  cache.Sync(model_);
  for (CellId c = 0; c < grid_.NumCells(); ++c) {
    EXPECT_DOUBLE_EQ(cache.QuitProbability(c), model_.QuitProbability(c));
  }
  EXPECT_EQ(cache.QuitDistribution(), model_.QuitDistribution());
}

TEST_F(TransitionSamplerCacheTest, NextCellSamplerMatchesLinearDistribution) {
  model_.ReplaceAll(RandomFrequencies(9));
  TransitionSamplerCache cache(states_);
  cache.Sync(model_);
  // Chi-square of cached next-cell draws against the exact movement weights
  // for a few representative cells (corner, edge, interior).
  const int n = 120000;
  for (CellId from : {CellId{0}, CellId{3}, CellId{14}}) {
    const auto& nbrs = grid_.Neighbors(from);
    const StateId offset = states_.MoveOffset(from);
    double total = 0.0;
    std::vector<double> weights(nbrs.size());
    for (size_t i = 0; i < nbrs.size(); ++i) {
      weights[i] = std::max(0.0, model_.frequency(offset + i));
      total += weights[i];
    }
    ASSERT_GT(total, 0.0);
    Rng rng(200 + from);
    std::vector<int> counts(grid_.NumCells(), 0);
    for (int i = 0; i < n; ++i) ++counts[cache.SampleNextCell(from, rng)];
    double chi2 = 0.0;
    int dof = -1;
    for (size_t i = 0; i < nbrs.size(); ++i) {
      const double expected = n * weights[i] / total;
      if (expected == 0.0) continue;
      const int got = counts[nbrs[i]];
      chi2 += (got - expected) * (got - expected) / expected;
      ++dof;
    }
    // 99.9th percentile for dof <= 8 is below 26.1.
    EXPECT_LT(chi2, 26.1) << "cell " << from;
  }
}

TEST_F(TransitionSamplerCacheTest, ZeroMassCellDwellsInPlace) {
  // A model with zero movement mass out of cell 0 must dwell, exactly like
  // the linear path's sentinel fallback.
  std::vector<double> f(states_.size(), 0.01);
  const StateId offset = states_.MoveOffset(0);
  for (size_t i = 0; i < grid_.Neighbors(0).size(); ++i) f[offset + i] = 0.0;
  model_.ReplaceAll(f);
  TransitionSamplerCache cache(states_);
  cache.Sync(model_);
  Rng rng(17);
  for (int i = 0; i < 200; ++i) EXPECT_EQ(cache.SampleNextCell(0, rng), 0u);
}

TEST_F(TransitionSamplerCacheTest, EnterSamplerMatchesEnterDistribution) {
  model_.ReplaceAll(RandomFrequencies(10));
  TransitionSamplerCache cache(states_);
  cache.Sync(model_);
  const std::vector<double> enter = model_.EnterDistribution();
  Rng rng(19);
  const int n = 200000;
  std::vector<int> counts(grid_.NumCells(), 0);
  for (int i = 0; i < n; ++i) {
    const CellId c = cache.SampleEnterCell(rng);
    ASSERT_LT(c, grid_.NumCells());
    ++counts[c];
  }
  double chi2 = 0.0;
  for (CellId c = 0; c < grid_.NumCells(); ++c) {
    const double expected = n * enter[c];
    if (expected < 1.0) continue;
    chi2 += (counts[c] - expected) * (counts[c] - expected) / expected;
  }
  // dof ~ 35; 99.9th percentile ~ 66.6.
  EXPECT_LT(chi2, 66.6);
}

TEST_F(TransitionSamplerCacheTest, MoveMarginalSamplerMatchesClampedMoveMass) {
  // The random_init spawn distribution: cell c is drawn with probability
  // proportional to the sum of its clamped outgoing movement frequencies.
  // Checked on a fresh Sync, then again after a selective update, which must
  // mark the lazily built marginal table stale and rebuild it on next draw.
  auto chi_square = [&](const TransitionSamplerCache& cache, uint64_t seed) {
    std::vector<double> mass(grid_.NumCells(), 0.0);
    double total = 0.0;
    for (CellId c = 0; c < grid_.NumCells(); ++c) {
      const StateId offset = states_.MoveOffset(c);
      for (size_t i = 0; i < grid_.Neighbors(c).size(); ++i) {
        mass[c] += std::max(0.0, model_.frequency(offset + i));
      }
      total += mass[c];
    }
    EXPECT_GT(total, 0.0);
    Rng rng(seed);
    const int n = 200000;
    std::vector<int> counts(grid_.NumCells(), 0);
    for (int i = 0; i < n; ++i) {
      const CellId c = cache.SampleMoveMarginalCell(rng);
      EXPECT_LT(c, grid_.NumCells());
      if (c < grid_.NumCells()) ++counts[c];
    }
    double chi2 = 0.0;
    for (CellId c = 0; c < grid_.NumCells(); ++c) {
      const double expected = n * mass[c] / total;
      if (expected == 0.0) {
        EXPECT_EQ(counts[c], 0) << "cell " << c << " has no movement mass";
        continue;
      }
      chi2 += (counts[c] - expected) * (counts[c] - expected) / expected;
    }
    return chi2;
  };

  model_.ReplaceAll(RandomFrequencies(12));
  TransitionSamplerCache cache(states_);
  cache.Sync(model_);
  // dof = 35; 99.9th percentile ~ 66.6.
  EXPECT_LT(chi_square(cache, 31), 66.6);

  // Shift a large share of the movement mass onto cell 0 and remove all of
  // cell 20's (one negative input, which the model clamps to zero).
  std::vector<double> fresh = model_.frequencies();
  std::vector<StateId> selected;
  for (size_t i = 0; i < grid_.Neighbors(0).size(); ++i) {
    selected.push_back(states_.MoveOffset(0) + i);
    fresh[selected.back()] = 0.5;
  }
  for (size_t i = 0; i < grid_.Neighbors(20).size(); ++i) {
    selected.push_back(states_.MoveOffset(20) + i);
    fresh[selected.back()] = i == 0 ? -0.3 : 0.0;
  }
  const uint64_t cells_before = cache.stats().cell_rebuilds;
  model_.UpdateStates(selected, fresh);
  cache.Sync(model_);
  EXPECT_EQ(cache.stats().full_rebuilds, 1u);  // selective, not a full rebuild
  EXPECT_EQ(cache.stats().cell_rebuilds, cells_before + 2);
  // dof = 34 (cell 20 has no mass left); 99.9th percentile ~ 65.2.
  EXPECT_LT(chi_square(cache, 37), 65.2);
}

TEST_F(TransitionSamplerCacheTest, NoMassSentinelsMirrorDiscreteContract) {
  // Empty model: every sampler reports "no mass" the way Discrete does, so
  // callers keep their uniform fallbacks.
  model_.ReplaceAll(std::vector<double>(states_.size(), 0.0));
  TransitionSamplerCache cache(states_);
  cache.Sync(model_);
  Rng rng(23);
  EXPECT_EQ(cache.SampleEnterCell(rng), grid_.NumCells());
  EXPECT_EQ(cache.SampleMoveMarginalCell(rng), grid_.NumCells());
  EXPECT_EQ(cache.SampleNextCell(4, rng), 4u);
  for (double q : cache.QuitDistribution()) EXPECT_EQ(q, 0.0);
}

TEST_F(TransitionSamplerCacheTest, SpawnDoesNotRederivePerStream) {
  // Satellite regression: Spawn used to recompute the O(|C|) entering
  // distribution for every spawned stream. With the cache, spawning any
  // number of streams triggers at most the initial full derivation — the
  // enter table is rebuilt once per model change, never per stream.
  model_.ReplaceAll(RandomFrequencies(11));
  SynthesizerConfig config;
  config.lambda = 20.0;
  Synthesizer synthesizer(states_, config);
  Rng rng(29);
  synthesizer.Initialize(model_, 5000, 0, rng);
  EXPECT_EQ(synthesizer.cache_stats().enter_rebuilds, 1u);
  EXPECT_EQ(synthesizer.cache_stats().full_rebuilds, 1u);

  // Steps without model changes derive nothing further, regardless of how
  // many points are sampled.
  for (int64_t t = 1; t <= 5; ++t) {
    synthesizer.Step(model_, 5000, t, rng);
  }
  EXPECT_EQ(synthesizer.cache_stats().enter_rebuilds, 1u);
  EXPECT_EQ(synthesizer.cache_stats().cell_rebuilds, grid_.NumCells());
}

}  // namespace
}  // namespace retrasyn
