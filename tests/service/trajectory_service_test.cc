// TrajectoryService: validated construction, non-destructive snapshot
// releases while the stream is open, and push-based sink notification.

#include "geo/grid.h"
#include "geo/grid_factory.h"
#include "service/trajectory_service.h"

#include <gtest/gtest.h>

#include <memory>

#include "baselines/ldp_ids.h"
#include "common/rng.h"
#include "core/release_server.h"
#include "metrics/queries.h"
#include "service/replay.h"
#include "stream/feeder.h"
#include "stream/random_walk_generator.h"

namespace retrasyn {
namespace {

struct ServiceFixture {
  ServiceFixture()
      : grid_owner(MakeEnvGrid(BoundingBox{0.0, 0.0, 1000.0, 1000.0}, 4)),
        grid(*grid_owner),
        states(grid) {
    RandomWalkConfig config;
    config.num_timestamps = 50;
    config.initial_users = 200;
    config.mean_arrivals = 12.0;
    Rng rng(41);
    db = GenerateRandomWalkStreams(config, rng);
  }

  RetraSynConfig EngineConfig() const {
    RetraSynConfig config;
    config.epsilon = 1.0;
    config.window = 10;
    config.division = DivisionStrategy::kPopulation;
    config.lambda = 12.0;
    config.seed = 6;
    return config;
  }

  std::unique_ptr<SpatialGrid> grid_owner;
  const SpatialGrid& grid;
  StateSpace states;
  StreamDatabase db;
};

TEST(TrajectoryServiceTest, CreateRejectsInvalidConfig) {
  const ServiceFixture fx;
  RetraSynConfig config = fx.EngineConfig();
  config.epsilon = -1.0;
  auto service = TrajectoryService::Create(fx.states, config);
  ASSERT_FALSE(service.ok());
  EXPECT_EQ(service.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(service.status().message().find("epsilon"), std::string::npos);
}

TEST(TrajectoryServiceTest, SnapshotBeforeFirstRoundFails) {
  const ServiceFixture fx;
  auto service = TrajectoryService::Create(fx.states, fx.EngineConfig());
  ASSERT_TRUE(service.ok());
  auto snapshot = service.value()->SnapshotRelease();
  EXPECT_FALSE(snapshot.ok());
  EXPECT_EQ(snapshot.status().code(), StatusCode::kFailedPrecondition);
}

TEST(TrajectoryServiceTest, SnapshotIsNonDestructiveAndGrows) {
  const ServiceFixture fx;
  auto service = TrajectoryService::Create(fx.states, fx.EngineConfig());
  ASSERT_TRUE(service.ok());
  TrajectoryService& svc = *service.value();

  // Ingest half the stream, snapshot twice, ingest the rest, snapshot again.
  const int64_t half = fx.db.num_timestamps() / 2;
  IngestSession& session = svc.session();
  for (int64_t t = 0; t < fx.db.num_timestamps(); ++t) {
    for (uint32_t idx = 0; idx < fx.db.streams().size(); ++idx) {
      const UserStream& s = fx.db.streams()[idx];
      if (s.enter_time == t) {
        ASSERT_TRUE(session.Enter(idx, s.points.front()).ok());
      } else if (s.ActiveAt(t)) {
        ASSERT_TRUE(session.Move(idx, s.At(t)).ok());
      }
    }
    ASSERT_TRUE(session.Tick().ok());
    if (t + 1 == half) {
      auto first = svc.SnapshotRelease();
      auto second = svc.SnapshotRelease();
      ASSERT_TRUE(first.ok());
      ASSERT_TRUE(second.ok());
      // Snapshotting twice yields the same release; the stream stays open.
      EXPECT_EQ(first.value().TotalPoints(), second.value().TotalPoints());
      EXPECT_EQ(first.value().streams().size(),
                second.value().streams().size());
      EXPECT_EQ(first.value().num_timestamps(), half);
      EXPECT_GT(first.value().TotalPoints(), 0u);
    }
  }
  auto final_snapshot = svc.SnapshotRelease();
  ASSERT_TRUE(final_snapshot.ok());
  EXPECT_EQ(final_snapshot.value().num_timestamps(), fx.db.num_timestamps());
  // The mid-stream snapshot cannot exceed the final one.
  EXPECT_GT(final_snapshot.value().TotalPoints(), 0u);
  EXPECT_EQ(svc.rounds_closed(), fx.db.num_timestamps());
}

TEST(TrajectoryServiceTest, SnapshotHorizonMustCoverClosedRounds) {
  const ServiceFixture fx;
  auto service = TrajectoryService::Create(fx.states, fx.EngineConfig());
  ASSERT_TRUE(service.ok());
  ASSERT_TRUE(ReplayDatabase(fx.db, *service.value()).ok());
  auto too_short = service.value()->SnapshotRelease(3);
  EXPECT_FALSE(too_short.ok());
  EXPECT_EQ(too_short.status().code(), StatusCode::kInvalidArgument);
  auto padded = service.value()->SnapshotRelease(fx.db.num_timestamps() + 10);
  EXPECT_TRUE(padded.ok());
}

TEST(TrajectoryServiceTest, SubscribedReleaseServerMatchesPostHocRelease) {
  // The push-based sink sees exactly the live view the legacy polling loop
  // saw: its answers equal the post-hoc DensityIndex of the release.
  const ServiceFixture fx;
  auto service = TrajectoryService::Create(fx.states, fx.EngineConfig());
  ASSERT_TRUE(service.ok());
  ReleaseServer server(fx.grid);
  service.value()->AddSink(&server);
  ASSERT_TRUE(ReplayDatabase(fx.db, *service.value()).ok());

  auto released = service.value()->SnapshotRelease();
  ASSERT_TRUE(released.ok());
  const DensityIndex post_hoc(released.value(), fx.grid);
  ASSERT_EQ(server.horizon(), fx.db.num_timestamps());
  for (int64_t t = 0; t < server.horizon(); ++t) {
    EXPECT_EQ(server.DensityAt(t), post_hoc.DensityAt(t)) << "t=" << t;
    EXPECT_EQ(server.ActiveAt(t), post_hoc.TotalPointsIn(t, t + 1))
        << "t=" << t;
  }
}

TEST(TrajectoryServiceTest, MidStreamSubscriberSeesZerosForMissedRounds) {
  // A sink added after some rounds closed must still index round t at t,
  // answering zeros for the rounds it missed.
  const ServiceFixture fx;
  auto service = TrajectoryService::Create(fx.states, fx.EngineConfig());
  ASSERT_TRUE(service.ok());
  IngestSession& session = service.value()->session();
  ASSERT_TRUE(session.AdvanceTo(5).ok());  // 5 empty rounds, no subscriber

  ReleaseServer late(fx.grid);
  service.value()->AddSink(&late);
  for (int64_t t = 5; t < 15; ++t) {
    for (uint32_t idx = 0; idx < fx.db.streams().size(); ++idx) {
      const UserStream& s = fx.db.streams()[idx];
      if (s.enter_time == t) {
        ASSERT_TRUE(session.Enter(idx, s.points.front()).ok());
      } else if (s.ActiveAt(t) && s.enter_time < t && s.enter_time >= 5) {
        ASSERT_TRUE(session.Move(idx, s.At(t)).ok());
      }
    }
    ASSERT_TRUE(session.Tick().ok());
  }
  ASSERT_EQ(late.horizon(), 15);
  for (int64_t t = 0; t < 5; ++t) {
    EXPECT_EQ(late.ActiveAt(t), 0u) << "t=" << t;
  }
  // Rounds ingested after subscription land at their own timestamps.
  EXPECT_GT(late.ActiveAt(14), 0u);
}

TEST(TrajectoryServiceTest, ReplayRequiresFreshService) {
  const ServiceFixture fx;
  auto service = TrajectoryService::Create(fx.states, fx.EngineConfig());
  ASSERT_TRUE(service.ok());
  ASSERT_TRUE(service.value()->session().Tick().ok());
  const Status st = ReplayDatabase(fx.db, *service.value());
  EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition);
}

TEST(TrajectoryServiceTest, ValidatesNumThreads) {
  const ServiceFixture fx;
  RetraSynConfig config = fx.EngineConfig();
  config.num_threads = -2;
  auto service = TrajectoryService::Create(fx.states, config);
  ASSERT_FALSE(service.ok());
  EXPECT_EQ(service.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(service.status().message().find("num_threads"),
            std::string::npos);

  config.num_threads = RetraSynConfig::kMaxThreads + 1;
  service = TrajectoryService::Create(fx.states, config);
  ASSERT_FALSE(service.ok());
  EXPECT_EQ(service.status().code(), StatusCode::kInvalidArgument);

  // 0 = auto (hardware / shared pool size) is valid.
  config.num_threads = 0;
  service = TrajectoryService::Create(fx.states, config);
  ASSERT_TRUE(service.ok()) << service.status().ToString();
}

TEST(TrajectoryServiceTest, SessionsShareOneThreadPool) {
  // Multi-tenant deployments run one pool for several sessions: both engines
  // must use the caller-provided pool instead of spawning their own workers.
  const ServiceFixture fx;
  auto pool = std::make_shared<ThreadPool>(2);
  RetraSynConfig config = fx.EngineConfig();
  config.num_threads = 2;
  config.thread_pool = pool;
  auto a = TrajectoryService::Create(fx.states, config);
  auto b = TrajectoryService::Create(fx.states, config);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a.value()->retrasyn_engine()->thread_pool(), pool.get());
  EXPECT_EQ(b.value()->retrasyn_engine()->thread_pool(), pool.get());
  // Both sessions stream through the shared pool without interference.
  ASSERT_TRUE(ReplayDatabase(fx.db, *a.value()).ok());
  ASSERT_TRUE(ReplayDatabase(fx.db, *b.value()).ok());
  auto ra = a.value()->SnapshotRelease();
  auto rb = b.value()->SnapshotRelease();
  ASSERT_TRUE(ra.ok());
  ASSERT_TRUE(rb.ok());
  // Identical configs + identical input + one pool: identical releases.
  ASSERT_EQ(ra.value().streams().size(), rb.value().streams().size());
  EXPECT_EQ(ra.value().TotalPoints(), rb.value().TotalPoints());
}

TEST(TrajectoryServiceTest, WrapsBaselineEnginesToo) {
  // The service layer is engine-agnostic: the LDP-IDS baselines stream
  // through the same sessions and snapshots.
  const ServiceFixture fx;
  LdpIdsConfig config;
  config.epsilon = 1.0;
  config.window = 10;
  config.method = LdpIdsMethod::kLPD;
  config.seed = 2;
  auto service = TrajectoryService::Create(
      fx.states, std::make_unique<LdpIdsEngine>(fx.states, config));
  ASSERT_TRUE(service.ok());
  EXPECT_EQ(service.value()->retrasyn_engine(), nullptr);
  ASSERT_TRUE(ReplayDatabase(fx.db, *service.value()).ok());
  auto released = service.value()->SnapshotRelease();
  ASSERT_TRUE(released.ok());
  EXPECT_GT(released.value().TotalPoints(), 0u);
}

}  // namespace
}  // namespace retrasyn
