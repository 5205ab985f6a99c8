#include "bench_support.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace retrasyn {
namespace perfbench {
namespace {

TEST(PercentileTest, NearestRankPicksTheCeilRankSample) {
  std::vector<double> v;
  for (int i = 1; i <= 200; ++i) v.push_back(i);
  EXPECT_EQ(NearestRank(v, 0.5), 100);
  EXPECT_EQ(NearestRank(v, 0.95), 190);
  EXPECT_EQ(NearestRank(v, 1.0), 200);
  EXPECT_EQ(NearestRank({}, 0.5), 0);
  EXPECT_EQ(NearestRank({7.0}, 0.95), 7.0);
}

TEST(PercentileTest, SamplesBeyondCountsStrictlyHigherRanks) {
  EXPECT_EQ(SamplesBeyond(200, 0.95), 10u);
  EXPECT_EQ(SamplesBeyond(199, 0.95), 9u);
  EXPECT_EQ(SamplesBeyond(0, 0.95), 0u);
  EXPECT_EQ(SamplesBeyond(20, 0.5), 10u);
}

TEST(PercentileTest, MinSamplesForLeavesTenBeyond) {
  EXPECT_EQ(MinSamplesFor(0.95), 200u);
  EXPECT_EQ(MinSamplesFor(0.99), 1000u);
  EXPECT_EQ(MinSamplesFor(0.5), 20u);
}

TEST(PercentileTest, HighestSupportedPercentileNeedsTenBeyond) {
  EXPECT_EQ(HighestSupportedPercentile(19), 0.0);
  EXPECT_EQ(HighestSupportedPercentile(20), 0.5);
  EXPECT_EQ(HighestSupportedPercentile(100), 0.9);
  EXPECT_EQ(HighestSupportedPercentile(199), 0.9);
  EXPECT_EQ(HighestSupportedPercentile(200), 0.95);
  EXPECT_EQ(HighestSupportedPercentile(1000), 0.99);
  EXPECT_EQ(HighestSupportedPercentile(10000), 0.999);
}

TEST(SpanTest, CoveredNsMergesOverlapsAndClips) {
  EXPECT_EQ(CoveredNs(0, 100, {}), 0);
  EXPECT_EQ(CoveredNs(0, 100, {{10, 20}, {15, 30}}), 20);
  EXPECT_EQ(CoveredNs(0, 100, {{-50, 10}, {90, 150}}), 20);
  EXPECT_EQ(CoveredNs(0, 100, {{40, 60}, {10, 20}}), 30);
  EXPECT_EQ(CoveredNs(0, 100, {{200, 300}}), 0);
  EXPECT_EQ(CoveredNs(0, 100, {{10, 90}, {20, 30}}), 80);
}

TEST(SpanTest, SelfTimeSubtractsTheUnionOfDirectChildren) {
  // A round with two parallel producers, a tick, and a grandchild that must
  // not count against the round.
  std::vector<Span> spans = {
      {0, -1, "round", 0, 0, 100},
      {1, 0, "admit", 0, 0, 40},
      {2, 0, "admit", 0, 10, 50},
      {3, 0, "tick", 0, 60, 90},
      {4, 3, "deliver", 0, 80, 85},
  };
  const std::vector<int64_t> self = SelfTimes(spans);
  ASSERT_EQ(self.size(), spans.size());
  EXPECT_EQ(self[0], 100 - 50 - 30);
  EXPECT_EQ(self[1], 40);
  EXPECT_EQ(self[2], 40);
  EXPECT_EQ(self[3], 30 - 5);
  EXPECT_EQ(self[4], 5);
}

TEST(DigestTest, ReleaseDigestIsStableAndCoversEveryField) {
  RoundRelease r;
  r.t = 3;
  r.active = 6;
  r.density = {1, 2, 3};
  const uint32_t d = ReleaseDigest(r);
  // Pinned: the digest is part of BENCHMARK pins, so its byte layout
  // (t and active as u64 LE, then each density cell as u32 LE) is frozen.
  EXPECT_EQ(d, ReleaseDigest(r));
  EXPECT_EQ(d, 0x66b8ba0du) << std::hex << d;  // bitwise CRC32C reference
  RoundRelease other = r;
  other.t = 4;
  EXPECT_NE(ReleaseDigest(other), d);
  other = r;
  other.active = 7;
  EXPECT_NE(ReleaseDigest(other), d);
  other = r;
  other.density[2] = 4;
  EXPECT_NE(ReleaseDigest(other), d);
  // The retired list is observability only and stays out of the digest.
  other = r;
  other.retired = {9};
  EXPECT_EQ(ReleaseDigest(other), d);
}

TEST(DigestTest, ChainDigestIsOrderSensitive) {
  EXPECT_NE(ChainDigest(ChainDigest(0, 1), 2), ChainDigest(ChainDigest(0, 2), 1));
  EXPECT_EQ(ChainDigest(ChainDigest(0, 1), 2), ChainDigest(ChainDigest(0, 1), 2));
}

TEST(SnapshotTest, SameStreamsSeesStreamBoundaries) {
  CellStreamSet a(4);
  ASSERT_TRUE(a.Add({0, {1, 2}}).ok());
  ASSERT_TRUE(a.Add({2, {3}}).ok());
  CellStreamSet b(4);
  ASSERT_TRUE(b.Add({0, {1}}).ok());
  ASSERT_TRUE(b.Add({1, {2, 3}}).ok());
  CellStreamSet c(4);
  ASSERT_TRUE(c.Add({0, {1, 2}}).ok());
  ASSERT_TRUE(c.Add({2, {3}}).ok());
  EXPECT_FALSE(SameStreams(a, b));
  EXPECT_TRUE(SameStreams(a, c));
  CellStreamSet longer(5);
  ASSERT_TRUE(longer.Add({0, {1, 2}}).ok());
  ASSERT_TRUE(longer.Add({2, {3}}).ok());
  EXPECT_FALSE(SameStreams(a, longer));
}

ResultRow SampleRow() {
  ResultRow row;
  row.workload = "model_bound";
  row.seed = 7;
  row.rounds = 200;
  row.latency_samples = 200;
  row.latency_top_percentile = 0.95;
  row.attempted = 10;
  row.metrics = {{"events_per_s", 1.5e6, "events/s"},
                 {"setup_s", 0.25, "s"}};
  row.checks = {{"sink_every_round_once_in_order", true, "ok \"quoted\""}};
  row.host.nproc = 4;
  row.host.cpu_model = "cpu";
  return row;
}

TEST(ResultRowTest, JsonCarriesTheSchemaKeys) {
  const std::string json = SampleRow().ToJson();
  for (const char* key :
       {"\"schema\": \"perfbench.row/1\"", "\"workload\": \"model_bound\"",
        "\"seed\": 7", "\"trace\": 0", "\"rounds\": 200",
        "\"latency_samples\": 200", "\"correct\": true", "\"attempted\": 10",
        "\"failed\": 0", "\"error_rate\": 0", "\"checks\": [",
        "\"metrics\": {\"events_per_s\": {\"value\": 1500000, \"unit\": "
        "\"events/s\"}",
        "\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}", "\"host\": {",
        "\"nproc\": 4", "\"cpu_model\": \"cpu\"", "\\\"quoted\\\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << key << "\n" << json;
  }
  EXPECT_EQ(json.find('\n'), std::string::npos);
}

TEST(ResultRowTest, FailuresMakeTheRowIncorrect) {
  ResultRow row = SampleRow();
  EXPECT_TRUE(row.correct());
  row.checks.push_back({"budget_window_spend_le_epsilon", false, ""});
  EXPECT_FALSE(row.correct());
  row = SampleRow();
  row.failed = 1;
  EXPECT_FALSE(row.correct());
  EXPECT_DOUBLE_EQ(row.error_rate(), 0.1);
}

TEST(ResultRowTest, NonFiniteValuesRenderAsNull) {
  ResultRow row = SampleRow();
  row.metrics[0].value = 1.0 / 0.0;
  EXPECT_NE(row.ToJson().find("{\"value\": null"), std::string::npos);
}

}  // namespace
}  // namespace perfbench
}  // namespace retrasyn
