// Tests for the multi-threaded synthesis path (the paper's future-work
// acceleration): correctness invariants must hold for any thread count, and
// results must be reproducible for a fixed thread count.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/synthesizer.h"
#include "geo/grid.h"

namespace retrasyn {
namespace {

class ParallelSynthesizerTest : public testing::Test {
 protected:
  ParallelSynthesizerTest()
      : grid_(BoundingBox{0.0, 0.0, 1.0, 1.0}, 5),
        states_(grid_),
        model_(states_) {
    std::vector<double> f(states_.size(), 0.0);
    Rng rng(77);
    for (CellId c = 0; c < grid_.NumCells(); ++c) {
      for (StateId s : states_.MoveStatesFrom(c)) {
        f[s] = rng.UniformDouble() * 0.02;
      }
      f[states_.EnterIndex(c)] = rng.UniformDouble() * 0.02;
      f[states_.QuitIndex(c)] = rng.UniformDouble() * 0.004;
    }
    model_.ReplaceAll(f);
  }

  CellStreamSet Run(int num_threads, uint32_t population, int64_t horizon,
                    ThreadPool* pool = nullptr) {
    SynthesizerConfig config;
    config.lambda = 40.0;
    config.num_threads = num_threads;
    Synthesizer synthesizer(states_, config);
    synthesizer.SetThreadPool(pool);
    Rng rng(5);
    synthesizer.Initialize(model_, population, 0, rng);
    for (int64_t t = 1; t < horizon; ++t) {
      synthesizer.Step(model_, population, t, rng);
    }
    return synthesizer.Snapshot(horizon);
  }

  Grid grid_;
  StateSpace states_;
  GlobalMobilityModel model_;
};

class ThreadCountTest : public ParallelSynthesizerTest,
                        public testing::WithParamInterface<int> {};

TEST_P(ThreadCountTest, InvariantsHoldForAnyThreadCount) {
  // Population large enough to actually engage the parallel path.
  const CellStreamSet out = Run(GetParam(), 12000, 10);
  EXPECT_GT(out.streams().size(), 0u);
  for (const CellStream& s : out.streams()) {
    EXPECT_GE(s.enter_time, 0);
    EXPECT_LE(s.end_time(), 10);
    for (size_t i = 1; i < s.cells.size(); ++i) {
      EXPECT_TRUE(grid_.AreNeighbors(s.cells[i - 1], s.cells[i]));
    }
  }
  // Size adjustment still exact at every timestamp.
  for (int64_t t = 0; t < 10; ++t) {
    EXPECT_EQ(out.ActiveCount(t), 12000u) << "t=" << t;
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, ThreadCountTest, testing::Values(1, 2, 4, 8));

TEST_F(ParallelSynthesizerTest, DeterministicForFixedThreadCount) {
  const CellStreamSet a = Run(4, 12000, 8);
  const CellStreamSet b = Run(4, 12000, 8);
  ASSERT_EQ(a.streams().size(), b.streams().size());
  for (size_t i = 0; i < a.streams().size(); ++i) {
    EXPECT_EQ(a.streams()[i].enter_time, b.streams()[i].enter_time);
    EXPECT_EQ(a.streams()[i].cells, b.streams()[i].cells);
  }
}

TEST_F(ParallelSynthesizerTest, PoolAndNoPoolAreByteIdentical) {
  // The determinism contract of the chunked phase: the chunk schedule is a
  // pure function of (seed, num_threads, work size), so executing the chunks
  // on a persistent pool — of any size — must produce the same bytes as
  // executing them inline with no pool at all.
  const CellStreamSet inline_run = Run(4, 12000, 8, /*pool=*/nullptr);
  for (int pool_size : {1, 2, 8}) {
    ThreadPool pool(pool_size);
    const CellStreamSet pooled = Run(4, 12000, 8, &pool);
    ASSERT_EQ(inline_run.streams().size(), pooled.streams().size())
        << "pool size " << pool_size;
    for (size_t i = 0; i < inline_run.streams().size(); ++i) {
      ASSERT_EQ(inline_run.streams()[i].enter_time,
                pooled.streams()[i].enter_time);
      ASSERT_EQ(inline_run.streams()[i].cells, pooled.streams()[i].cells)
          << "stream " << i << " pool size " << pool_size;
    }
  }
}

TEST_F(ParallelSynthesizerTest, PooledRunsDeterministicAcrossRepeats) {
  // Multi-thread determinism pin: fixed seed + fixed num_threads on a live
  // pool, run twice, byte-identical output.
  ThreadPool pool(4);
  const CellStreamSet a = Run(4, 12000, 8, &pool);
  const CellStreamSet b = Run(4, 12000, 8, &pool);
  ASSERT_EQ(a.streams().size(), b.streams().size());
  for (size_t i = 0; i < a.streams().size(); ++i) {
    EXPECT_EQ(a.streams()[i].enter_time, b.streams()[i].enter_time);
    EXPECT_EQ(a.streams()[i].cells, b.streams()[i].cells);
  }
}

TEST_F(ParallelSynthesizerTest, MarkovStepMatchesModelMovementWeights) {
  // Analytic reference for the sampled transitions: with quits and size
  // adjustment off, one Step moves every stream exactly once, so the
  // from->to counts must follow each cell's clamped movement weights
  // (chi-square over every cell), serially and across chunks.
  constexpr uint32_t kPopulation = 200000;
  for (int num_threads : {1, 4}) {
    SynthesizerConfig config;
    config.lambda = 40.0;
    config.num_threads = num_threads;
    config.use_quit = false;
    config.use_size_adjustment = false;
    Synthesizer synthesizer(states_, config);
    Rng rng(11);
    synthesizer.Initialize(model_, kPopulation, 0, rng);
    synthesizer.Step(model_, kPopulation, 1, rng);
    ASSERT_EQ(synthesizer.num_live(), kPopulation);

    // counts[from][slot]: moves out of `from` into Neighbors(from)[slot].
    std::vector<std::vector<double>> counts(grid_.NumCells());
    for (CellId c = 0; c < grid_.NumCells(); ++c) {
      counts[c].assign(grid_.Neighbors(c).size(), 0.0);
    }
    for (const CellStream& s : synthesizer.live_streams()) {
      ASSERT_EQ(s.cells.size(), 2u);
      const auto& nbrs = grid_.Neighbors(s.cells[0]);
      const auto it = std::find(nbrs.begin(), nbrs.end(), s.cells[1]);
      ASSERT_NE(it, nbrs.end()) << "non-adjacent move";
      ++counts[s.cells[0]][it - nbrs.begin()];
    }

    double chi2 = 0.0;
    int dof = 0;
    for (CellId c = 0; c < grid_.NumCells(); ++c) {
      const StateId offset = states_.MoveOffset(c);
      std::vector<double> weights(counts[c].size());
      double total = 0.0, moved = 0.0;
      for (size_t i = 0; i < weights.size(); ++i) {
        weights[i] = std::max(0.0, model_.frequency(offset + i));
        total += weights[i];
        moved += counts[c][i];
      }
      if (moved == 0.0) continue;
      ASSERT_GT(total, 0.0);
      --dof;  // the per-cell total is fixed by the observed moves
      for (size_t i = 0; i < weights.size(); ++i) {
        const double expected = moved * weights[i] / total;
        if (expected == 0.0) {
          EXPECT_EQ(counts[c][i], 0.0) << "cell " << c << " slot " << i;
          continue;
        }
        chi2 += (counts[c][i] - expected) * (counts[c][i] - expected) /
                expected;
        ++dof;
      }
    }
    ASSERT_GT(dof, 100);
    // Far beyond the 99.9th percentile (about dof + 4.4 sigma here).
    EXPECT_LT(chi2, dof + 6.0 * std::sqrt(2.0 * dof))
        << "threads " << num_threads << " dof " << dof;
  }
}

TEST_F(ParallelSynthesizerTest, SmallPopulationsStaySerial) {
  // Below the per-thread work threshold the serial path is used even when
  // threads are configured; outputs must match the single-threaded run
  // exactly (identical RNG consumption).
  const CellStreamSet serial = Run(1, 500, 10);
  const CellStreamSet configured = Run(8, 500, 10);
  ASSERT_EQ(serial.streams().size(), configured.streams().size());
  for (size_t i = 0; i < serial.streams().size(); ++i) {
    EXPECT_EQ(serial.streams()[i].cells, configured.streams()[i].cells);
  }
}

TEST_F(ParallelSynthesizerTest, ParallelPreservesPopulationStatistics) {
  // The parallel path must sample from the same distributions: compare the
  // aggregate cell-visit histograms of serial vs 4-thread runs.
  const CellStreamSet serial = Run(1, 20000, 6);
  const CellStreamSet parallel = Run(4, 20000, 6);
  std::vector<double> h1(grid_.NumCells(), 0.0), h2(grid_.NumCells(), 0.0);
  for (const CellStream& s : serial.streams()) {
    for (CellId c : s.cells) ++h1[c];
  }
  for (const CellStream& s : parallel.streams()) {
    for (CellId c : s.cells) ++h2[c];
  }
  double t1 = 0, t2 = 0;
  for (size_t c = 0; c < h1.size(); ++c) {
    t1 += h1[c];
    t2 += h2[c];
  }
  ASSERT_GT(t1, 0);
  ASSERT_GT(t2, 0);
  for (size_t c = 0; c < h1.size(); ++c) {
    EXPECT_NEAR(h1[c] / t1, h2[c] / t2, 0.01) << "cell " << c;
  }
}

}  // namespace
}  // namespace retrasyn
