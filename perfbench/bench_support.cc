#include "bench_support.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <thread>
#include <unordered_map>

#include "common/crc32c.h"

namespace retrasyn {
namespace perfbench {
namespace {

constexpr double kCandidatePercentiles[] = {0.999, 0.99, 0.95, 0.90, 0.50};

size_t RankOf(size_t n, double q) {
  // ceil(q * n), guarded against q * n landing a hair above an integer.
  const double exact = q * static_cast<double>(n);
  size_t rank = static_cast<size_t>(std::ceil(exact - 1e-9));
  return std::clamp<size_t>(rank, 1, n);
}

void AppendLe(std::string* out, uint64_t v, int bytes) {
  for (int i = 0; i < bytes; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

std::string FormatNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

}  // namespace

double NearestRank(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  return sorted[RankOf(sorted.size(), q) - 1];
}

size_t SamplesBeyond(size_t n, double q) {
  return n == 0 ? 0 : n - RankOf(n, q);
}

size_t MinSamplesFor(double q, size_t min_beyond) {
  size_t n = 1;
  while (SamplesBeyond(n, q) < min_beyond) ++n;
  return n;
}

double HighestSupportedPercentile(size_t n, size_t min_beyond) {
  for (double q : kCandidatePercentiles) {
    if (SamplesBeyond(n, q) >= min_beyond) return q;
  }
  return 0.0;
}

int64_t CoveredNs(int64_t start, int64_t end,
                  std::vector<std::pair<int64_t, int64_t>> intervals) {
  for (auto& [s, e] : intervals) {
    s = std::max(s, start);
    e = std::min(e, end);
  }
  std::sort(intervals.begin(), intervals.end());
  int64_t covered = 0;
  int64_t reach = start;
  for (const auto& [s, e] : intervals) {
    if (e <= s) continue;
    const int64_t from = std::max(s, reach);
    if (e > from) {
      covered += e - from;
      reach = e;
    }
  }
  return covered;
}

std::vector<int64_t> SelfTimes(const std::vector<Span>& spans) {
  std::unordered_map<int64_t, size_t> index;
  for (size_t i = 0; i < spans.size(); ++i) index[spans[i].id] = i;
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(spans.size());
  for (const Span& s : spans) {
    auto it = index.find(s.parent);
    if (it != index.end()) children[it->second].emplace_back(s.start_ns, s.end_ns);
  }
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    self[i] = (s.end_ns - s.start_ns) -
              CoveredNs(s.start_ns, s.end_ns, std::move(children[i]));
  }
  return self;
}

uint32_t ReleaseDigest(const RoundRelease& round) {
  std::string bytes;
  bytes.reserve(16 + 4 * round.density.size());
  AppendLe(&bytes, static_cast<uint64_t>(round.t), 8);
  AppendLe(&bytes, round.active, 8);
  for (uint32_t d : round.density) AppendLe(&bytes, d, 4);
  return Crc32c(bytes.data(), bytes.size());
}

uint32_t ChainDigest(uint32_t chain, uint32_t round_digest) {
  std::string bytes;
  AppendLe(&bytes, round_digest, 4);
  return Crc32c(bytes.data(), bytes.size(), chain);
}

bool SameStreams(const CellStreamSet& a, const CellStreamSet& b) {
  if (a.num_timestamps() != b.num_timestamps() ||
      a.streams().size() != b.streams().size()) {
    return false;
  }
  for (size_t i = 0; i < a.streams().size(); ++i) {
    const CellStream& x = a.streams()[i];
    const CellStream& y = b.streams()[i];
    if (x.enter_time != y.enter_time || x.cells != y.cells) return false;
  }
  return true;
}

bool ResultRow::correct() const {
  if (failed != 0) return false;
  for (const CheckResult& c : checks) {
    if (!c.ok) return false;
  }
  return true;
}

double ResultRow::error_rate() const {
  return attempted == 0 ? 1.0
                        : static_cast<double>(failed) /
                              static_cast<double>(attempted);
}

std::string ResultRow::ToJson() const {
  auto str = [](const std::string& s) { return "\"" + JsonEscape(s) + "\""; };
  std::string out = "{";
  out += "\"schema\": " + str(kRowSchema);
  out += ", \"workload\": " + str(workload);
  out += ", \"seed\": " + std::to_string(seed);
  out += ", \"trace\": " + std::to_string(trace);
  out += ", \"rounds\": " + std::to_string(rounds);
  out += ", \"latency_samples\": " + std::to_string(latency_samples);
  out += ", \"latency_top_percentile\": " +
         FormatNumber(latency_top_percentile);
  out += ", \"correct\": " + std::string(correct() ? "true" : "false");
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"error_rate\": " + FormatNumber(error_rate());
  out += ", \"checks\": [";
  for (size_t i = 0; i < checks.size(); ++i) {
    const CheckResult& c = checks[i];
    out += (i > 0 ? ", " : "");
    out += "{\"name\": " + str(c.name) +
           ", \"ok\": " + (c.ok ? "true" : "false") +
           ", \"detail\": " + str(c.detail) + "}";
  }
  out += "], \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    const MetricValue& m = metrics[i];
    out += (i > 0 ? ", " : "");
    out += str(m.name) + ": {\"value\": " + FormatNumber(m.value) +
           ", \"unit\": " + str(m.unit) + "}";
  }
  out += "}, \"span_self_ms\": {";
  for (size_t i = 0; i < span_self_ms.size(); ++i) {
    out += (i > 0 ? ", " : "");
    out += str(span_self_ms[i].first) + ": " +
           FormatNumber(span_self_ms[i].second);
  }
  out += "}, \"spans_file\": " + str(spans_file);
  out += ", \"cpu_steal_share\": " + FormatNumber(cpu_steal_share);
  out += ", \"host\": {\"nproc\": " + std::to_string(host.nproc) +
         ", \"cpu_model\": " + str(host.cpu_model) +
         ", \"compiler\": " + str(host.compiler) +
         ", \"build_type\": " + str(host.build_type) +
         ", \"build_flags\": " + str(host.build_flags) + "}";
  out += "}";
  return out;
}

HostInfo ReadHostInfo(const std::string& compiler,
                      const std::string& build_type,
                      const std::string& build_flags) {
  HostInfo host;
  host.nproc = static_cast<int>(std::thread::hardware_concurrency());
  host.compiler = compiler;
  host.build_type = build_type;
  host.build_flags = build_flags;
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        host.cpu_model = line.substr(line.find_first_not_of(" \t", colon + 1));
      }
      break;
    }
  }
  if (host.cpu_model.empty()) host.cpu_model = "unknown";
  return host;
}

double PeakRssMiB() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // reported in kB
    }
  }
  return 0.0;
}

CpuTimes CpuTimes::Read() {
  CpuTimes t;
  std::ifstream stat("/proc/stat");
  std::string cpu;
  stat >> cpu;
  if (cpu != "cpu") return t;
  // user nice system idle iowait irq softirq steal (guest time is already
  // inside user/nice).
  for (int field = 0; field < 8; ++field) {
    uint64_t v = 0;
    if (!(stat >> v)) break;
    t.total += v;
    if (field == 7) t.steal = v;
  }
  return t;
}

double CpuTimes::StealShareSince(const CpuTimes& before) const {
  if (total <= before.total) return 0.0;
  return static_cast<double>(steal - before.steal) /
         static_cast<double>(total - before.total);
}

}  // namespace perfbench
}  // namespace retrasyn
