// Figure 5 reproduction: impact of the evaluation time-range size phi in
// {5, 10, 20, 50, 100} on Query Error, Pattern F1, and Hotspot NDCG for all
// six methods on the T-Drive-like and Oldenburg-like datasets.
//
// The released synthetic stream does not depend on phi, so each method runs
// once per dataset and the stored release is re-evaluated at every phi —
// exactly how the paper's evaluation treats phi as an analysis-side knob.
//
// Expected shape (paper SV-D Fig. 5): RetraSyn best everywhere; its Pattern
// F1 / Hotspot NDCG improve with larger phi (long-range patterns accumulate)
// while baselines stay flat or degrade.

#include <cstdio>
#include <vector>

#include "bench_common.h"
#include "service/replay.h"
#include "service/trajectory_service.h"

namespace retrasyn {
namespace bench {
namespace {

int Run(int argc, char** argv) {
  const Flags flags = Flags::Parse(argc, argv);
  BenchOptions options = BenchOptions::FromFlags(flags);

  std::vector<int64_t> phis{5, 10, 20, 50, 100};
  if (flags.Has("phi")) phis = {options.metrics.phi};

  const std::vector<MethodId> methods{MethodId::kLBD,       MethodId::kLBA,
                                      MethodId::kLPD,       MethodId::kLPA,
                                      MethodId::kRetraSynB, MethodId::kRetraSynP};

  std::printf(
      "=== Figure 5: impact of evaluation range phi (eps=%.1f, w=%d, K=%u) "
      "===\n",
      options.epsilon, options.window, options.grid_k);
  TablePrinter csv_table({"dataset", "phi", "method", "query_error",
                          "pattern_f1", "hotspot_ndcg"});

  for (DatasetKind kind :
       {DatasetKind::kTDriveLike, DatasetKind::kOldenburgLike}) {
    const NamedDataset dataset = Prepare(kind, options);
    // One engine run per method; re-evaluate the stored release per phi.
    std::vector<CellStreamSet> releases;
    for (size_t mi = 0; mi < methods.size(); ++mi) {
      auto engine = MakeEngine(methods[mi], dataset.prepared->states(),
                               options.epsilon, options.window,
                               AllocationKind::kAdaptive,
                               dataset.average_length,
                               options.seed + 100 + mi);
      auto service = TrajectoryService::Create(
          dataset.prepared->states(), std::move(engine));
      service.status().CheckOK();
      ReplayDatabase(dataset.prepared->db(), *service.value()).CheckOK();
      releases.push_back(service.value()
                             ->SnapshotRelease(dataset.prepared->horizon())
                             .ValueOrDie());
    }

    TablePrinter table({"phi", "method", "QueryError", "PatternF1",
                        "HotspotNDCG"});
    for (size_t pi = 0; pi < phis.size(); ++pi) {
      StreamingMetricsConfig metrics = options.metrics;
      metrics.phi = phis[pi];
      for (size_t mi = 0; mi < methods.size(); ++mi) {
        const MetricsReport m = EvaluateMetrics(
            *dataset.prepared, releases[mi], metrics, options.seed + 1000);
        table.AddRow({std::to_string(phis[pi]), MethodName(methods[mi]),
                      FormatDouble(m.query_error), FormatDouble(m.pattern_f1),
                      FormatDouble(m.hotspot_ndcg)});
        csv_table.AddRow({dataset.name, std::to_string(phis[pi]),
                          MethodName(methods[mi]),
                          FormatDouble(m.query_error),
                          FormatDouble(m.pattern_f1),
                          FormatDouble(m.hotspot_ndcg)});
      }
      if (pi + 1 < phis.size()) table.AddRow(TablePrinter::Separator());
    }
    std::printf("\n--- %s ---\n", dataset.name.c_str());
    table.Print();
  }
  MaybeWriteCsv(csv_table, options);
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace retrasyn

int main(int argc, char** argv) { return retrasyn::bench::Run(argc, argv); }
