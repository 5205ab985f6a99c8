#include "core/synthesizer.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "geo/grid.h"

namespace retrasyn {
namespace {

class SynthesizerTest : public testing::Test {
 protected:
  SynthesizerTest()
      : grid_(BoundingBox{0.0, 0.0, 1.0, 1.0}, 3),
        states_(grid_),
        model_(states_) {}

  // A model where every cell moves uniformly over its neighbors, enters
  // uniformly, and quits with the given per-cell quit mass.
  void FillUniformModel(double quit_mass) {
    std::vector<double> f(states_.size(), 0.0);
    for (CellId c = 0; c < grid_.NumCells(); ++c) {
      for (StateId s : states_.MoveStatesFrom(c)) f[s] = 0.1;
      f[states_.EnterIndex(c)] = 0.1;
      f[states_.QuitIndex(c)] = quit_mass;
    }
    model_.ReplaceAll(f);
  }

  SynthesizerConfig DefaultConfig() const {
    SynthesizerConfig config;
    config.lambda = 10.0;
    return config;
  }

  Grid grid_;
  StateSpace states_;
  GlobalMobilityModel model_;
};

TEST_F(SynthesizerTest, InitializeSpawnsTargetCount) {
  FillUniformModel(0.0);
  Synthesizer syn(states_, DefaultConfig());
  Rng rng(1);
  EXPECT_FALSE(syn.initialized());
  syn.Initialize(model_, 50, 0, rng);
  EXPECT_TRUE(syn.initialized());
  EXPECT_EQ(syn.num_live(), 50u);
  EXPECT_EQ(syn.total_points(), 50u);
}

TEST_F(SynthesizerTest, SizeAdjustmentTracksTargetExactly) {
  FillUniformModel(0.05);
  Synthesizer syn(states_, DefaultConfig());
  Rng rng(2);
  syn.Initialize(model_, 30, 0, rng);
  const uint32_t targets[] = {35, 35, 20, 60, 1, 100};
  int64_t t = 1;
  for (uint32_t target : targets) {
    syn.Step(model_, target, t++, rng);
    EXPECT_EQ(syn.num_live(), target);
  }
}

TEST_F(SynthesizerTest, GeneratedTransitionsRespectAdjacency) {
  FillUniformModel(0.02);
  Synthesizer syn(states_, DefaultConfig());
  Rng rng(3);
  syn.Initialize(model_, 40, 0, rng);
  for (int64_t t = 1; t < 30; ++t) syn.Step(model_, 40, t, rng);
  const CellStreamSet out = syn.Snapshot(30);
  for (const CellStream& s : out.streams()) {
    for (size_t i = 1; i < s.cells.size(); ++i) {
      EXPECT_TRUE(grid_.AreNeighbors(s.cells[i - 1], s.cells[i]));
    }
  }
}

TEST_F(SynthesizerTest, StartCellsFollowEnterDistribution) {
  // Put all entering mass on cell 4; every spawned stream must start there.
  std::vector<double> f(states_.size(), 0.0);
  for (CellId c = 0; c < grid_.NumCells(); ++c) {
    for (StateId s : states_.MoveStatesFrom(c)) f[s] = 0.1;
  }
  f[states_.EnterIndex(4)] = 1.0;
  model_.ReplaceAll(f);
  Synthesizer syn(states_, DefaultConfig());
  Rng rng(4);
  syn.Initialize(model_, 25, 0, rng);
  const CellStreamSet out = syn.Snapshot(1);
  for (const CellStream& s : out.streams()) {
    EXPECT_EQ(s.cells.front(), 4u);
  }
}

TEST_F(SynthesizerTest, QuitProbabilityGrowsWithLength) {
  // Eq. 8: with quit mass present, longer streams must terminate more often.
  FillUniformModel(0.2);
  SynthesizerConfig config = DefaultConfig();
  config.lambda = 5.0;
  config.use_size_adjustment = false;  // isolate the quit phase
  Synthesizer syn(states_, config);
  Rng rng(5);
  syn.Initialize(model_, 3000, 0, rng);
  std::vector<uint32_t> live_history{syn.num_live()};
  for (int64_t t = 1; t < 12; ++t) {
    syn.Step(model_, 0, t, rng);
    live_history.push_back(syn.num_live());
  }
  // Monotone shrinking population.
  for (size_t i = 1; i < live_history.size(); ++i) {
    EXPECT_LE(live_history[i], live_history[i - 1]);
  }
  // Per-step hazard must grow over time (longer streams -> higher quit).
  const double early_rate =
      1.0 - static_cast<double>(live_history[2]) / live_history[1];
  const double late_rate =
      1.0 - static_cast<double>(live_history[11]) / live_history[10];
  EXPECT_GT(late_rate, early_rate);
}

TEST_F(SynthesizerTest, NoQuitConfigNeverTerminates) {
  FillUniformModel(0.5);  // heavy quit mass, but disabled
  SynthesizerConfig config = DefaultConfig();
  config.use_quit = false;
  config.use_size_adjustment = false;
  Synthesizer syn(states_, config);
  Rng rng(6);
  syn.Initialize(model_, 20, 0, rng);
  for (int64_t t = 1; t < 50; ++t) syn.Step(model_, 3, t, rng);
  EXPECT_EQ(syn.num_live(), 20u);
  const CellStreamSet out = syn.Snapshot(50);
  for (const CellStream& s : out.streams()) {
    EXPECT_EQ(s.length(), 50u);
  }
}

TEST_F(SynthesizerTest, RandomInitSpreadsStartCells) {
  // random_init ignores E even when E is a point mass.
  std::vector<double> f(states_.size(), 0.0);
  f[states_.EnterIndex(0)] = 1.0;
  model_.ReplaceAll(f);
  SynthesizerConfig config = DefaultConfig();
  config.random_init = true;
  Synthesizer syn(states_, config);
  Rng rng(7);
  syn.Initialize(model_, 500, 0, rng);
  const CellStreamSet out = syn.Snapshot(1);
  std::vector<int> starts(grid_.NumCells(), 0);
  for (const CellStream& s : out.streams()) ++starts[s.cells.front()];
  int nonzero = 0;
  for (int c : starts) {
    if (c > 0) ++nonzero;
  }
  EXPECT_GT(nonzero, 5);  // definitely not a point mass
}

TEST_F(SynthesizerTest, ZeroMassModelDwellsInPlace) {
  model_.ReplaceAll(std::vector<double>(states_.size(), 0.0));
  SynthesizerConfig config = DefaultConfig();
  config.use_size_adjustment = false;
  Synthesizer syn(states_, config);
  Rng rng(8);
  syn.Initialize(model_, 10, 0, rng);
  for (int64_t t = 1; t < 5; ++t) syn.Step(model_, 10, t, rng);
  const CellStreamSet out = syn.Snapshot(5);
  for (const CellStream& s : out.streams()) {
    for (size_t i = 1; i < s.cells.size(); ++i) {
      EXPECT_EQ(s.cells[i], s.cells[0]);  // dwell fallback
    }
  }
}

TEST_F(SynthesizerTest, SnapshotHoldsFinishedThenLiveAndKeepsRunning) {
  FillUniformModel(0.0);
  Synthesizer syn(states_, DefaultConfig());
  Rng rng(9);
  syn.Initialize(model_, 15, 0, rng);
  syn.Step(model_, 10, 1, rng);  // 5 terminated, 10 live
  const CellStreamSet out = syn.Snapshot(2);
  ASSERT_EQ(out.streams().size(), 15u);
  EXPECT_EQ(out.ActiveCount(0), 15u);
  EXPECT_EQ(out.ActiveCount(1), 10u);
  // Finished streams come first, then the live set in its current order.
  ASSERT_EQ(syn.finished_streams().size(), 5u);
  for (size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(out.streams()[i].cells, syn.finished_streams()[i].cells);
  }
  for (size_t i = 0; i < 10; ++i) {
    EXPECT_EQ(out.streams()[5 + i].cells, syn.live_streams()[i].cells);
  }
  // Non-destructive: the synthesizer keeps running.
  EXPECT_TRUE(syn.initialized());
  EXPECT_EQ(syn.num_live(), 10u);
  syn.Step(model_, 10, 2, rng);
  EXPECT_EQ(syn.Snapshot(3).ActiveCount(2), 10u);
}

TEST_F(SynthesizerTest, SurplusTerminationPrefersQuitDistribution) {
  // Quit mass concentrated on cell 8: streams currently at cell 8 should be
  // terminated first during size adjustment.
  std::vector<double> f(states_.size(), 0.0);
  for (CellId c = 0; c < grid_.NumCells(); ++c) {
    f[states_.MoveIndex(c, c)] = 1.0;  // everyone dwells
  }
  f[states_.QuitIndex(8)] = 1.0;
  f[states_.EnterIndex(0)] = 0.5;
  f[states_.EnterIndex(8)] = 0.5;
  model_.ReplaceAll(f);
  SynthesizerConfig config = DefaultConfig();
  config.use_quit = false;  // only size adjustment may terminate
  Synthesizer syn(states_, config);
  Rng rng(10);
  syn.Initialize(model_, 400, 0, rng);
  syn.Step(model_, 250, 1, rng);
  EXPECT_EQ(syn.num_live(), 250u);
  const CellStreamSet out = syn.Snapshot(2);
  size_t terminated_at_8 = 0, terminated_elsewhere = 0;
  for (const CellStream& s : out.streams()) {
    if (s.length() == 1) {  // terminated during the adjustment
      if (s.cells.back() == 8) {
        ++terminated_at_8;
      } else {
        ++terminated_elsewhere;
      }
    }
  }
  EXPECT_GT(terminated_at_8, 0u);
  EXPECT_EQ(terminated_elsewhere, 0u);  // all victims were at cell 8
}

}  // namespace
}  // namespace retrasyn
