// Helpers of the end-to-end service benchmark that carry no workload logic:
// percentile selection, span self-time arithmetic, release digests, the
// result-row schema, and host provenance. Kept apart from the runner so
// bench_support_test.cc can pin each of them.

#ifndef RETRASYN_PERFBENCH_BENCH_SUPPORT_H_
#define RETRASYN_PERFBENCH_BENCH_SUPPORT_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/release_sink.h"
#include "stream/cell_stream.h"

namespace retrasyn {
namespace perfbench {

// --- Percentiles -----------------------------------------------------------

/// Samples a percentile must leave beyond it before the benchmark reports it.
inline constexpr size_t kMinSamplesBeyond = 10;

/// Nearest-rank q-quantile (q in (0, 1]) of ascending \p sorted: the
/// ceil(q * n)-th smallest sample. 0 when empty.
double NearestRank(const std::vector<double>& sorted, double q);

/// Samples strictly above the nearest-rank q-quantile of \p n samples.
size_t SamplesBeyond(size_t n, double q);

/// Fewest samples for which the q-quantile leaves \p min_beyond beyond it.
size_t MinSamplesFor(double q, size_t min_beyond = kMinSamplesBeyond);

/// The highest of p50/p90/p95/p99/p99.9 that leaves at least \p min_beyond
/// samples beyond it among \p n samples; 0 when even the median does not.
double HighestSupportedPercentile(size_t n,
                                  size_t min_beyond = kMinSamplesBeyond);

// --- Spans -----------------------------------------------------------------

/// One bench-side span: a layer boundary crossed by one round.
struct Span {
  int64_t id = 0;
  int64_t parent = -1;  ///< -1 for a root span
  std::string name;
  int64_t round = -1;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// Length of the union of \p intervals clipped to [start, end).
int64_t CoveredNs(int64_t start, int64_t end,
                  std::vector<std::pair<int64_t, int64_t>> intervals);

/// Self time of every span (parallel to \p spans): its duration minus the
/// part of it its direct children cover. Overlapping children (parallel
/// producers) are counted once.
std::vector<int64_t> SelfTimes(const std::vector<Span>& spans);

// --- Digests ---------------------------------------------------------------

/// CRC32C over the round's t, active and density, as little-endian bytes.
uint32_t ReleaseDigest(const RoundRelease& round);

/// Folds one round digest into a running chain digest (order-sensitive).
uint32_t ChainDigest(uint32_t chain, uint32_t round_digest);

/// Whether two snapshots hold the same streams (enter time and cells), in
/// the same order, over the same horizon.
bool SameStreams(const CellStreamSet& a, const CellStreamSet& b);

// --- Result rows -----------------------------------------------------------

struct MetricValue {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct CheckResult {
  std::string name;
  bool ok = false;
  std::string detail;
};

/// The provenance every row carries.
struct HostInfo {
  int nproc = 0;
  std::string cpu_model;
  std::string compiler;
  std::string build_type;
  std::string build_flags;
};

/// One run of one workload: what run.py turns into the contract's last line.
struct ResultRow {
  std::string workload;
  uint64_t seed = 0;
  int trace = 0;
  int64_t rounds = 0;
  size_t latency_samples = 0;
  double latency_top_percentile = 0.0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<CheckResult> checks;
  std::vector<MetricValue> metrics;
  /// Span self-time means by span name (traced runs only).
  std::vector<std::pair<std::string, double>> span_self_ms;
  std::string spans_file;
  HostInfo host;
  /// Share of host CPU time stolen by the hypervisor during the measured
  /// pass: a noisy-neighbour indicator for reading the timings.
  double cpu_steal_share = 0.0;

  bool correct() const;
  double error_rate() const;
  /// One-line JSON object; see kRowSchema. Non-finite metric values render
  /// as null, which run.py's schema check refuses.
  std::string ToJson() const;
};

/// Schema tag of ResultRow::ToJson, checked by run.py.
inline constexpr const char* kRowSchema = "perfbench.row/1";

/// Reads nproc and the CPU model of this host; the build fields are the
/// caller's (compile-time) strings.
HostInfo ReadHostInfo(const std::string& compiler,
                      const std::string& build_type,
                      const std::string& build_flags);

/// VmHWM of this process in MiB (0 when /proc is unavailable).
double PeakRssMiB();

/// Host-wide CPU time counters from /proc/stat, in clock ticks.
struct CpuTimes {
  uint64_t total = 0;
  uint64_t steal = 0;

  static CpuTimes Read();
  /// Share of CPU time the hypervisor stole since \p before (0 when the
  /// counters did not move).
  double StealShareSince(const CpuTimes& before) const;
};

}  // namespace perfbench
}  // namespace retrasyn

#endif  // RETRASYN_PERFBENCH_BENCH_SUPPORT_H_
