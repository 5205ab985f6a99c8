// The end-to-end service benchmark runner: one workload per process.
//
//   perfbench_e2e --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 [--out_dir .bench_out] [--expect_prefix_digest <hex>]
//
// It samples set-up in fresh child processes, sets up the deployment it
// measures, drives
// TrajectoryService from the seeded load generator (loadgen.h) through to
// the releases delivered to a ReleaseServer and the benchmark's own
// digest/latency sink, checks the outputs, and prints one JSON result row
// (bench_support.h, ResultRow) as the last line of stdout; a human summary
// goes to stderr. Untraced runs (--trace 0) report the end-to-end metrics.
// Traced runs (--trace 1) read what the layers export after every round of
// alternate 20-round windows, keep bench-side spans, rerun the workload on
// one synthesis thread for the thread-scaling baseline, and report the
// per-layer metrics.
// perfbench/run.py is the command that wraps this.
//
// Only public entry points are called: IngestSession Enter/Move/Quit/Tick,
// TrajectoryService Create/Drain/Recover/SnapshotRelease/telemetry, and the
// sinks' OnRound. Layer timings are read from what the layers export.

#include <algorithm>
#include <array>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "bench_support.h"
#include "common/file_io.h"
#include "common/mutex.h"
#include "core/release_server.h"
#include "geo/grid.h"
#include "geo/state_space.h"
#include "loadgen.h"
#include "service/trajectory_service.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace retrasyn {
namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

void SleepUntilNs(int64_t ns) {
  std::this_thread::sleep_until(
      Clock::time_point(std::chrono::nanoseconds(ns)));
}

constexpr int kSetups = 41;           ///< set-ups per run; setup_s = median
constexpr int kRecoveries = 9;        ///< recoveries per run; recover_s = median
constexpr int64_t kPinnedRounds = 32;     ///< rounds in the pinned digest
constexpr int64_t kReferenceRounds = 8;   ///< rounds replayed as reference
constexpr int64_t kRetentionRounds = 64;  ///< ReleaseServer query horizon
constexpr double kMaxPassSeconds = 120.0; ///< stop a pass early past this
constexpr double kPacedShare = 0.8;   ///< open loop: events spread over this
                                      ///< share of the round period
constexpr size_t kPaceChunk = 256;    ///< open loop: events per pacing step
constexpr int64_t kWindowRounds = 20; ///< rounds per events_per_s window

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  if (v.empty()) return 0.0;
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// --- Arguments --------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  /// Accepted and checked for the benchmark's command-line contract; a run
  /// measures a fixed number of rounds, not a fixed time.
  double seconds = 20.0;
  int trace = 0;
  std::string out_dir = ".bench_out";
  std::string expect_prefix_digest;  ///< hex; empty = no pinned digest
};

bool ParseArgs(int argc, char** argv, Args* args) {
  std::map<std::string, std::string> kv;
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) return false;
    key = key.substr(2);
    std::string value;
    const size_t eq = key.find('=');
    if (eq != std::string::npos) {
      value = key.substr(eq + 1);
      key = key.substr(0, eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      return false;
    }
    kv[key] = value;
  }
  for (const auto& [key, value] : kv) {
    char* end = nullptr;
    if (key == "workload") {
      args->workload = value;
    } else if (key == "seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
    } else if (key == "seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
    } else if (key == "trace") {
      args->trace = static_cast<int>(std::strtol(value.c_str(), &end, 10));
    } else if (key == "out_dir") {
      args->out_dir = value;
    } else if (key == "expect_prefix_digest") {
      args->expect_prefix_digest = value;

    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') return false;
  }
  return !args->workload.empty() && args->seconds > 0 &&
         (args->trace == 0 || args->trace == 1);
}

// --- The digest / latency sink ---------------------------------------------

/// Subscribed last, after the ReleaseServer, so a round's arrival here is
/// the moment its release has reached every sink. Records arrival times and
/// digests into preallocated per-round slots; read them only after Drain().
class BenchSink : public ReleaseSink {
 public:
  explicit BenchSink(int64_t capacity)
      : arrival_ns_(capacity, 0), done_ns_(capacity, 0), digest_(capacity, 0) {}
  BenchSink(const BenchSink&) = delete;
  BenchSink& operator=(const BenchSink&) = delete;

  Status OnRound(const RoundRelease& round) override {
    const int64_t arrived = NowNs();
    if (round.t != next_ ||
        round.t >= static_cast<int64_t>(arrival_ns_.size()) ||
        round.density.empty()) {
      ++violations_;
      return Status::OK();
    }
    digest_[round.t] = ReleaseDigest(round);
    arrival_ns_[round.t] = arrived;
    done_ns_[round.t] = NowNs();
    ++next_;
    return Status::OK();
  }

  int64_t received() const { return next_; }
  int64_t violations() const { return violations_; }
  int64_t arrival_ns(int64_t t) const { return arrival_ns_[t]; }
  int64_t done_ns(int64_t t) const { return done_ns_[t]; }
  uint32_t digest(int64_t t) const { return digest_[t]; }

 private:
  std::vector<int64_t> arrival_ns_;
  std::vector<int64_t> done_ns_;
  std::vector<uint32_t> digest_;
  int64_t next_ = 0;
  int64_t violations_ = 0;
};

// --- Deployments -------------------------------------------------------------

/// One set-up deployment: grid, state space, service, and its two sinks.
/// Destroys the service (joining its workers, which call the sinks) before
/// the sinks, and removes its durable directories last.
struct Deployment {
  Deployment() = default;
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;
  ~Deployment() {
    service.reset();
    if (!dir.empty()) (void)RemoveDirTree(dir);
  }

  std::string dir;  ///< durable state root; empty when not durable
  std::unique_ptr<UniformGrid> grid;
  std::unique_ptr<StateSpace> states;
  RetraSynConfig config;
  std::unique_ptr<ReleaseServer> server;
  std::unique_ptr<BenchSink> sink;
  std::unique_ptr<TrajectoryService> service;
  double setup_s = 0.0;
};

Result<std::unique_ptr<Deployment>> SetUp(const WorkloadSpec& spec,
                                          uint64_t seed, int64_t capacity,
                                          const std::string& tmp_root) {
  auto d = std::make_unique<Deployment>();
  d->config = MakeConfig(spec, seed);
  if (spec.durable) {
    Result<std::string> dir = MakeTempDir(spec.name + "-", tmp_root);
    if (!dir.ok()) return dir.status();
    d->dir = dir.value();
    d->config.journal_dir = d->dir + "/journal";
    d->config.checkpoint_dir = d->dir + "/checkpoints";
  }
  const int64_t start = NowNs();
  d->grid = std::make_unique<UniformGrid>(BoundingBox{0.0, 0.0, 1000.0, 1000.0},
                                          spec.grid_k);
  d->states = std::make_unique<StateSpace>(*d->grid);
  Result<std::unique_ptr<TrajectoryService>> service =
      TrajectoryService::Create(*d->states, d->config);
  if (!service.ok()) return service.status();
  d->service = std::move(service).value();
  d->server = std::make_unique<ReleaseServer>(*d->grid, kRetentionRounds);
  d->sink = std::make_unique<BenchSink>(capacity);
  d->service->AddSink(d->server.get());
  d->service->AddSink(d->sink.get());
  d->setup_s = static_cast<double>(NowNs() - start) * 1e-9;
  return d;
}

/// Runs \p probe once in each of \p n fresh processes, one after another,
/// and returns the seconds each reported. Fork only while this process has
/// no threads: the children start as single-threaded copies that pay the
/// cold start (page faults, first allocations) a new deployment pays.
/// A probe that fails reports nothing and counts in \p failed.
std::vector<double> SampleInFreshProcesses(
    int n, const std::function<Result<double>()>& probe, uint64_t* failed) {
  std::vector<double> samples;
  for (int i = 0; i < n; ++i) {
    int fds[2];
    if (pipe(fds) != 0) {
      ++*failed;
      continue;
    }
    std::fflush(stdout);
    std::fflush(stderr);
    const pid_t pid = fork();
    if (pid == 0) {
      close(fds[0]);
      Result<double> seconds = probe();
      int code = 1;
      if (seconds.ok() &&
          write(fds[1], &seconds.value(), sizeof(double)) ==
              static_cast<ssize_t>(sizeof(double))) {
        code = 0;
      }
      _exit(code);
    }
    close(fds[1]);
    double seconds = 0.0;
    const bool got =
        pid > 0 && read(fds[0], &seconds, sizeof(seconds)) ==
                       static_cast<ssize_t>(sizeof(seconds));
    close(fds[0]);
    int status = 0;
    const bool exited_ok = pid > 0 && waitpid(pid, &status, 0) == pid &&
                           WIFEXITED(status) && WEXITSTATUS(status) == 0;
    if (got && exited_ok) {
      samples.push_back(seconds);
    } else {
      ++*failed;
    }
  }
  return samples;
}

// --- Registry totals ----------------------------------------------------------

/// The registry's counters and histogram sums at one instant, summed across
/// label sets; per-shard accepted counts kept apart for the skew.
struct Totals {
  std::map<std::string, double> value;
  std::map<std::string, double> hist_sum;
  std::map<std::string, double> hist_count;
  std::vector<double> shard_accepted;

  static Totals Of(const TelemetrySnapshot& snap) {
    Totals t;
    for (const MetricSample& m : snap.metrics) {
      if (m.kind == MetricKind::kHistogram) {
        t.hist_sum[m.name] += m.histogram.sum_seconds;
        t.hist_count[m.name] += static_cast<double>(m.histogram.count);
      } else {
        t.value[m.name] += m.value;
        if (m.name == "retrasyn_ingest_events_accepted_total") {
          t.shard_accepted.push_back(m.value);
        }
      }
    }
    return t;
  }

  double Value(const std::string& name) const { return Get(value, name); }
  double Sum(const std::string& name) const { return Get(hist_sum, name); }
  double Count(const std::string& name) const { return Get(hist_count, name); }

  Totals Minus(const Totals& before) const {
    Totals d = *this;
    for (auto& [k, v] : d.value) v -= before.Value(k);
    for (auto& [k, v] : d.hist_sum) v -= before.Sum(k);
    for (auto& [k, v] : d.hist_count) v -= before.Count(k);
    for (size_t i = 0; i < d.shard_accepted.size(); ++i) {
      if (i < before.shard_accepted.size()) {
        d.shard_accepted[i] -= before.shard_accepted[i];
      }
    }
    return d;
  }

 private:
  static double Get(const std::map<std::string, double>& m,
                    const std::string& k) {
    auto it = m.find(k);
    return it == m.end() ? 0.0 : it->second;
  }
};

// --- Producers ---------------------------------------------------------------

/// Round handshake between the ticking thread and the producers.
class RoundGate {
 public:
  explicit RoundGate(int producers) : producers_(producers) {}

  void Open(int64_t t) {
    MutexLock l(mu_);
    open_ = t;
    done_ = 0;
    cv_.NotifyAll();
  }
  void Stop() {
    MutexLock l(mu_);
    stop_ = true;
    cv_.NotifyAll();
  }
  /// Blocks until round \p t opens; false when the pass was stopped.
  bool AwaitOpen(int64_t t) {
    MutexLock l(mu_);
    while (open_ < t && !stop_) cv_.Wait(mu_);
    return !stop_;
  }
  void MarkDone() {
    MutexLock l(mu_);
    if (++done_ == producers_) cv_.NotifyAll();
  }
  void AwaitAllDone() {
    MutexLock l(mu_);
    while (done_ < producers_) cv_.Wait(mu_);
  }

 private:
  const int producers_;
  Mutex mu_;
  CondVar cv_;
  int64_t open_ = -1;
  int done_ = 0;
  bool stop_ = false;
};

/// One producer's counters, on cache lines of its own.
struct alignas(64) ProducerStats {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t accepted = 0;
  uint64_t generated = 0;
  int64_t admit_busy_ns = 0;  ///< time inside Enter/Move/Quit
  int64_t gen_ns = 0;         ///< time generating events
  std::string first_error;
  std::vector<int64_t> admit_start_ns;  ///< per round
  std::vector<int64_t> admit_end_ns;
  std::vector<uint64_t> accepted_in_round;
  std::vector<double> lag_ms;  ///< open loop: how late the round ran
};

Status Submit(IngestSession& session, const Event& e) {
  switch (e.kind) {
    case EventKind::kEnter:
      return session.Enter(e.user, Point{e.x, e.y});
    case EventKind::kMove:
      return session.Move(e.user, Point{e.x, e.y});
    case EventKind::kQuit:
      return session.Quit(e.user);
  }
  return Status::Internal("unknown event kind");
}

void SubmitRange(IngestSession& session, const std::vector<Event>& events,
                 size_t begin, size_t end, ProducerStats* stats) {
  const int64_t start = NowNs();
  for (size_t i = begin; i < end; ++i) {
    const Status s = Submit(session, events[i]);
    ++stats->attempted;
    if (s.ok()) {
      ++stats->accepted;
    } else {
      ++stats->failed;
      if (stats->first_error.empty()) stats->first_error = s.ToString();
    }
  }
  stats->admit_busy_ns += NowNs() - start;
}

// --- One measured pass ---------------------------------------------------------

struct PassOptions {
  int64_t rounds = 0;
  /// Trace odd kWindowRounds-round windows (per-round reads of what the
  /// layers export); even windows run untraced, so trace.overhead compares
  /// neighbouring windows of one pass.
  bool traced = false;
};

bool TracedRound(const PassOptions& options, int64_t t) {
  return options.traced && (t / kWindowRounds) % 2 == 1;
}

struct PassResult {
  int64_t rounds = 0;  ///< rounds closed (fewer than asked only on timeout)
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t accepted = 0;
  uint64_t generated = 0;
  std::vector<std::string> errors;
  double wall_s = 0.0;  ///< first event -> final Drain() returned
  /// Accepted events / wall time of consecutive kWindowRounds-round windows,
  /// each from the moment its first round opened to the moment the next
  /// window's did (the last one ends when the final Drain() returns).
  std::vector<double> window_events_per_s;
  /// Per round: RoundTrace phases (seconds), and on inline workloads the
  /// engine's component-time deltas (ms: user side, model, DMU, synthesis)
  /// for traced rounds, NaN otherwise.
  std::vector<std::array<double, kNumRoundPhases>> phases;
  std::vector<std::array<double, 4>> engine_ms;
  std::vector<double> latency_ms;  ///< per round; NaN when never delivered
  std::vector<double> tick_ms;
  std::vector<double> lag_ms;
  std::vector<double> admit_wall_ms;  ///< per round, slowest producer
  int64_t admit_busy_ns = 0;
  int64_t gen_ns = 0;
  Totals delta;  ///< registry totals over the pass
  /// Registry totals over the first half of a traced pass, comparable with
  /// the half-length single-thread baseline.
  Totals first_half;
  std::vector<Span> spans;
  /// The events_per_s metric: accepted events over the whole pass, first
  /// event to the final Drain() returning. Open loop it reads the offered
  /// rate while the service keeps up and falls when it does not (a Tick()
  /// blocked on a full closer queue delays the schedule; a backlog left at
  /// the end delays Drain()).
  double events_per_s() const {
    return wall_s > 0 ? static_cast<double>(accepted) / wall_s : 0.0;
  }
};

void AbsorbRing(const TelemetrySnapshot& snap, PassResult* r) {
  for (const RoundSpanSnapshot& s : snap.recent_rounds) {
    if (s.round >= 0 && s.round < static_cast<int64_t>(r->phases.size())) {
      r->phases[s.round] = s.phase_seconds;
    }
  }
}

std::array<double, 4> EngineSeconds(const RetraSynEngine& engine) {
  const ComponentTimes& c = engine.component_times();
  return {c.user_side.total(), c.model_construction.total(), c.dmu.total(),
          c.synthesis.total()};
}

PassResult RunPass(const WorkloadSpec& spec, uint64_t seed, Deployment& d,
                   const PassOptions& options) {
  PassResult r;
  const int64_t rounds = options.rounds;
  const int producers = spec.producers;
  TrajectoryService& service = *d.service;
  IngestSession& session = service.session();
  const bool inline_close = spec.sync == SyncPolicy::kInline;

  LoadGenerator load(spec, seed);
  std::vector<std::unique_ptr<ProducerStats>> stats;
  for (int p = 0; p < producers; ++p) {
    auto s = std::make_unique<ProducerStats>();
    s->admit_start_ns.assign(rounds, 0);
    s->admit_end_ns.assign(rounds, 0);
    s->accepted_in_round.assign(rounds, 0);
    stats.push_back(std::move(s));
  }
  auto generate = [&](int p, int64_t round) {
    const int64_t g0 = NowNs();
    load.producer(p).Generate(round);
    stats[p]->gen_ns += NowNs() - g0;
    stats[p]->generated += load.producer(p).events().size();
  };
  for (int p = 0; p < producers; ++p) generate(p, 0);

  RoundGate gate(producers);
  const int64_t period_ns =
      static_cast<int64_t>(spec.round_period_s * 1e9 + 0.5);
  // Open loop: round t is due at start + (t + 1) * period; its events are
  // spread over the first kPacedShare of [start + t * period, due).
  const int64_t start_ns = NowNs() + (spec.open_loop ? 20'000'000 : 0);

  // Producer p's share of round t, from the moment the round opens until
  // its last event is admitted.
  auto produce = [&](int p, int64_t t) {
    ProducerStats* s = stats[p].get();
    // Closed loop: generate this round's events once it opens, so no
    // producer competes with the previous round's Tick() for a core.
    if (!spec.open_loop && t > 0) generate(p, t);
    const std::vector<Event>& events = load.producer(p).events();
    const uint64_t accepted_before = s->accepted;
    s->admit_start_ns[t] = NowNs();
    if (spec.open_loop) {
      const int64_t window = static_cast<int64_t>(
          static_cast<double>(period_ns) * kPacedShare);
      const int64_t window_start = start_ns + t * period_ns;
      int64_t worst_late = 0;
      for (size_t i = 0; i < events.size(); i += kPaceChunk) {
        const int64_t due =
            window_start +
            static_cast<int64_t>(static_cast<double>(window) *
                                 static_cast<double>(i) /
                                 static_cast<double>(events.size()));
        const int64_t now = NowNs();
        if (now < due) {
          SleepUntilNs(due);
        } else {
          worst_late = std::max(worst_late, now - due);
        }
        SubmitRange(session, events, i,
                    std::min(events.size(), i + kPaceChunk), s);
      }
      s->lag_ms.push_back(static_cast<double>(worst_late) * 1e-6);
    } else {
      SubmitRange(session, events, 0, events.size(), s);
    }
    s->admit_end_ns[t] = NowNs();
    s->accepted_in_round[t] = s->accepted - accepted_before;
  };

  // A closed loop with one producer admits on the ticking thread, so a
  // round hands no work to a producer thread: on a shared host each wake-up
  // of a thread whose virtual CPU the hypervisor has descheduled waits for
  // that CPU to run again.
  const bool inline_producer = !spec.open_loop && producers == 1;
  std::vector<std::thread> threads;
  for (int p = 0; p < producers && !inline_producer; ++p) {
    threads.emplace_back([&, p] {
      for (int64_t t = 0; t < rounds; ++t) {
        if (!gate.AwaitOpen(t)) return;
        produce(p, t);
        gate.MarkDone();
        // Open loop: generate the next round's events in the slack before
        // this round is due.
        if (spec.open_loop && t + 1 < rounds) generate(p, t + 1);
      }
    });
  }

  const Totals before = Totals::Of(service.telemetry());
  const RetraSynEngine* engine =
      inline_close ? service.retrasyn_engine() : nullptr;
  if (options.traced) {
    r.phases.assign(rounds, {});
    const double nan = std::nan("");
    r.engine_ms.assign(rounds, {nan, nan, nan, nan});
  }
  std::vector<int64_t> ref_ns(rounds, 0);
  std::vector<int64_t> round_start_ns(rounds, 0);
  std::vector<std::pair<int64_t, int64_t>> tick_span(rounds);
  auto record_failure = [&](const std::string& what, const Status& s) {
    ++r.failed;
    if (r.errors.size() < 4) r.errors.push_back(what + ": " + s.ToString());
  };

  if (spec.open_loop) SleepUntilNs(start_ns);
  const int64_t first_event_ns = NowNs();
  int64_t t = 0;
  for (; t < rounds; ++t) {
    round_start_ns[t] = NowNs();
    if (inline_producer) {
      produce(0, t);
    } else {
      gate.Open(t);
      gate.AwaitAllDone();
    }
    if (spec.open_loop) {
      ref_ns[t] = start_ns + (t + 1) * period_ns;
      SleepUntilNs(ref_ns[t]);
    } else {
      for (const auto& s : stats) {
        ref_ns[t] = std::max(ref_ns[t], s->admit_end_ns[t]);
      }
    }
    const bool traced = TracedRound(options, t);
    std::array<double, 4> engine_before{};
    // Inline closing runs the engine on this thread, so its accumulators are
    // safe to read here; under async closing they belong to the closer.
    if (traced && engine != nullptr) engine_before = EngineSeconds(*engine);
    const int64_t tick_start = NowNs();
    const Status tick = session.Tick();
    const int64_t tick_end = NowNs();
    ++r.attempted;
    if (!tick.ok()) record_failure("Tick", tick);
    tick_span[t] = {tick_start, tick_end};
    r.tick_ms.push_back(static_cast<double>(tick_end - tick_start) * 1e-6);
    if (options.traced && t + 1 == rounds / 2) {
      r.first_half = Totals::Of(service.telemetry()).Minus(before);
    }
    if (traced) {
      // Per-round reads of what the layers export. The ring keeps 128
      // rounds and untraced windows are shorter, so no round is lost.
      AbsorbRing(service.telemetry(), &r);
      if (engine != nullptr) {
        const std::array<double, 4> now = EngineSeconds(*engine);
        for (size_t i = 0; i < now.size(); ++i) {
          r.engine_ms[t][i] = (now[i] - engine_before[i]) * 1e3;
        }
      }
    }
    if (static_cast<double>(NowNs() - first_event_ns) * 1e-9 >
            kMaxPassSeconds &&
        t + 1 < rounds) {
      std::fprintf(stderr, "pass stopped after %" PRId64 " rounds (%.0f s)\n",
                   t + 1, kMaxPassSeconds);
      ++t;
      break;
    }
  }
  gate.Stop();
  for (std::thread& th : threads) th.join();
  const Status drain = service.Drain();
  const int64_t end_ns = NowNs();
  ++r.attempted;
  if (!drain.ok()) record_failure("Drain", drain);
  r.rounds = t;
  r.wall_s = static_cast<double>(end_ns - first_event_ns) * 1e-9;

  const TelemetrySnapshot after = service.telemetry();
  r.delta = Totals::Of(after).Minus(before);
  if (options.traced) AbsorbRing(after, &r);

  for (const auto& s : stats) {
    r.attempted += s->attempted;
    r.failed += s->failed;
    r.accepted += s->accepted;
    r.generated += s->generated;
    r.admit_busy_ns += s->admit_busy_ns;
    r.gen_ns += s->gen_ns;
    r.lag_ms.insert(r.lag_ms.end(), s->lag_ms.begin(), s->lag_ms.end());
    if (!s->first_error.empty() && r.errors.size() < 4) {
      r.errors.push_back("event: " + s->first_error);
    }
  }
  for (int64_t w = 0; w < r.rounds; w += kWindowRounds) {
    const int64_t next = std::min(r.rounds, w + kWindowRounds);
    uint64_t events = 0;
    for (int64_t i = w; i < next; ++i) {
      for (const auto& s : stats) events += s->accepted_in_round[i];
    }
    const int64_t until = next < r.rounds ? round_start_ns[next] : end_ns;
    r.window_events_per_s.push_back(static_cast<double>(events) /
                                    (static_cast<double>(until -
                                                         round_start_ns[w]) *
                                     1e-9));
  }
  const BenchSink& sink = *d.sink;
  for (int64_t i = 0; i < r.rounds; ++i) {
    int64_t slowest = 0;
    for (const auto& s : stats) {
      slowest = std::max(slowest, s->admit_end_ns[i] - s->admit_start_ns[i]);
    }
    r.admit_wall_ms.push_back(static_cast<double>(slowest) * 1e-6);
    r.latency_ms.push_back(
        sink.arrival_ns(i) > 0
            ? static_cast<double>(sink.arrival_ns(i) - ref_ns[i]) * 1e-6
            : std::nan(""));
  }

  if (options.traced) {
    int64_t next_id = 0;
    for (int64_t i = 0; i < r.rounds; ++i) {
      const int64_t round_id = next_id++;
      const int64_t round_end =
          std::max(sink.done_ns(i), tick_span[i].second);
      r.spans.push_back({round_id, -1, "round", i, round_start_ns[i], round_end});
      for (int p = 0; p < producers; ++p) {
        r.spans.push_back({next_id++, round_id, "admit", i,
                           stats[p]->admit_start_ns[i],
                           stats[p]->admit_end_ns[i]});
      }
      r.spans.push_back({next_id++, round_id, "tick", i, tick_span[i].first,
                         tick_span[i].second});
      if (sink.arrival_ns(i) > 0) {
        r.spans.push_back({next_id++, round_id, "deliver", i,
                           sink.arrival_ns(i), sink.done_ns(i)});
      }
    }
  }
  return r;
}

// --- Correctness --------------------------------------------------------------

struct Checker {
  std::vector<CheckResult> results;
  void Add(const std::string& name, bool ok, const std::string& detail = "") {
    results.push_back({name, ok, detail});
    if (!ok) std::fprintf(stderr, "CHECK FAILED: %s %s\n", name.c_str(),
                          detail.c_str());
  }
};

std::string Hex(uint32_t v) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%08x", v);
  return buf;
}

void CheckPass(const Deployment& d, const PassResult& r, Checker* check) {
  const BenchSink& sink = *d.sink;
  check->Add("sink_every_round_once_in_order",
             sink.violations() == 0 && sink.received() == r.rounds,
             "received " + std::to_string(sink.received()) + " of " +
                 std::to_string(r.rounds) + ", " +
                 std::to_string(sink.violations()) + " out of order");
  check->Add("release_server_horizon", d.server->horizon() == r.rounds,
             "horizon " + std::to_string(d.server->horizon()));
  const double rejected = r.delta.Value("retrasyn_ingest_events_rejected_total");
  check->Add("zero_rejected_events", rejected == 0 && r.failed == 0,
             std::to_string(static_cast<uint64_t>(rejected)) + " rejected, " +
                 std::to_string(r.failed) + " failed calls");
  const double counted = r.delta.Value("retrasyn_ingest_events_accepted_total");
  check->Add("service_counted_every_event",
             counted == static_cast<double>(r.accepted),
             std::to_string(static_cast<uint64_t>(counted)) + " counted, " +
                 std::to_string(r.accepted) + " accepted");
  const RetraSynEngine* engine = d.service->retrasyn_engine();
  if (engine == nullptr) {
    check->Add("privacy_invariants", false, "no RetraSyn engine");
    return;
  }
  const double spend = engine->budget_ledger().MaxWindowSpend();
  const double epsilon = d.config.epsilon;
  check->Add("budget_window_spend_le_epsilon", spend <= epsilon + 1e-9,
             "max window spend " + std::to_string(spend));
  check->Add("report_once_per_window",
             !engine->report_tracker().HasViolation());
  const FirstFailure failure = d.service->telemetry().first_failure;
  check->Add("no_background_failure", !failure.failed,
             failure.component + " " + failure.message);
}

// --- Recovery -------------------------------------------------------------------

/// Destroys *\p service (not timed) and Recovers it from \p config's
/// journal (and checkpoints) \p n times, each in a fresh process, ready to
/// ingest; returns the seconds each Recover took. A restarted deployment is
/// a fresh process; run one after another in one process, successive
/// recoveries drifted by up to 40% (0.36 s to 0.52 s on durable_paced).
/// Every recovered snapshot must equal the one taken before the destroy.
/// Call it with no other thread running: it forks.
std::vector<double> TimeRecoveries(const StateSpace& states,
                                   const RetraSynConfig& config, int n,
                                   const std::string& tag,
                                   std::unique_ptr<TrajectoryService>* service,
                                   ResultRow* r, Checker* check) {
  Result<CellStreamSet> live = (*service)->SnapshotRelease();
  if (!live.ok()) {
    check->Add(tag + "_live_snapshot", false, live.status().ToString());
    return {};
  }
  const int64_t rounds = (*service)->rounds_closed();
  service->reset();
  uint64_t failed = 0;
  std::vector<double> samples = SampleInFreshProcesses(
      n,
      [&]() -> Result<double> {
        const int64_t start = NowNs();
        Result<std::unique_ptr<TrajectoryService>> recovered =
            TrajectoryService::Recover(states, config);
        const int64_t end = NowNs();
        if (!recovered.ok()) return recovered.status();
        Result<CellStreamSet> snap = recovered.value()->SnapshotRelease();
        if (!snap.ok()) return snap.status();
        if (recovered.value()->rounds_closed() != rounds ||
            !SameStreams(snap.value(), live.value())) {
          return Status::Internal("recovered snapshot differs");
        }
        return static_cast<double>(end - start) * 1e-9;
      },
      &failed);
  r->attempted += static_cast<uint64_t>(n);
  r->failed += failed;
  check->Add(tag + "_recovered_identical", failed == 0,
             std::to_string(n - static_cast<int>(failed)) + " of " +
                 std::to_string(n) +
                 " recoveries identical to the live snapshot (" +
                 std::to_string(live.value().TotalPoints()) + " points)");
  return samples;
}

/// Replays the first \p rounds rounds of the same generated events through a
/// plain journaled deployment (inline closing, one shard, no checkpoints,
/// telemetry off): the released bytes must match the measured deployment's
/// round for round. With \p recoveries > 0 it then times that many
/// recoveries of the replayed deployment from its journal; journal-off
/// workloads report these as recover_s, since their own deployment has
/// nothing to recover from.
std::vector<double> ReplayReference(const WorkloadSpec& spec, uint64_t seed,
                                    const Deployment& measured, int64_t rounds,
                                    int recoveries, const std::string& tmp_root,
                                    ResultRow* r, Checker* check) {
  Result<std::string> dir = MakeTempDir(spec.name + "-reference-", tmp_root);
  if (!dir.ok()) {
    check->Add("reference_dir", false, dir.status().ToString());
    return {};
  }
  RetraSynConfig config = MakeConfig(spec, seed);
  config.ingest_shards = 1;
  config.sync_policy = SyncPolicy::kInline;
  config.journal_dir = dir.value() + "/journal";
  config.journal_fsync = FsyncPolicy::kEveryRound;
  config.checkpoint_every_rounds = 0;
  config.enable_telemetry = false;
  std::vector<double> samples;
  {
    Result<std::unique_ptr<TrajectoryService>> created =
        TrajectoryService::Create(*measured.states, config);
    ++r->attempted;
    if (!created.ok()) {
      ++r->failed;
      check->Add("reference_replay", false, created.status().ToString());
      (void)RemoveDirTree(dir.value());
      return {};
    }
    std::unique_ptr<TrajectoryService> service = std::move(created).value();
    BenchSink sink(rounds);
    service->AddSink(&sink);
    IngestSession& session = service->session();
    LoadGenerator load(spec, seed);
    std::string mismatch;
    for (int64_t t = 0; t < rounds && mismatch.empty(); ++t) {
      for (int p = 0; p < load.num_producers(); ++p) {
        load.producer(p).Generate(t);
        for (const Event& e : load.producer(p).events()) {
          const Status s = Submit(session, e);
          if (!s.ok() && mismatch.empty()) mismatch = "event: " + s.ToString();
        }
      }
      const Status s = session.Tick();
      if (!s.ok() && mismatch.empty()) mismatch = "Tick: " + s.ToString();
      if (mismatch.empty() &&
          (sink.received() != t + 1 ||
           sink.digest(t) != measured.sink->digest(t))) {
        mismatch = "round " + std::to_string(t) + " digest " +
                   Hex(sink.digest(t)) + " vs " +
                   Hex(measured.sink->digest(t));
      }
    }
    check->Add("reference_replay_identical", mismatch.empty(),
               mismatch.empty() ? std::to_string(rounds) + " rounds"
                                : mismatch);
    if (mismatch.empty() && recoveries > 0) {
      samples = TimeRecoveries(*measured.states, config, recoveries,
                               "reference", &service, r, check);
    }
  }
  (void)RemoveDirTree(dir.value());
  return samples;
}

// --- Reporting --------------------------------------------------------------------

uint32_t PrefixDigest(const BenchSink& sink, int64_t rounds) {
  uint32_t chain = 0;
  for (int64_t t = 0; t < rounds; ++t) chain = ChainDigest(chain, sink.digest(t));
  return chain;
}

void WriteSpans(const std::string& path, const PassResult& r) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return;
  const std::vector<int64_t> self = SelfTimes(r.spans);
  std::fprintf(f, "[\n");
  for (size_t i = 0; i < r.spans.size(); ++i) {
    const Span& s = r.spans[i];
    std::fprintf(f,
                 "  {\"id\": %" PRId64 ", \"parent\": %" PRId64
                 ", \"name\": \"%s\", \"round\": %" PRId64
                 ", \"start_ns\": %" PRId64 ", \"end_ns\": %" PRId64
                 ", \"self_ns\": %" PRId64,
                 s.id, s.parent, s.name.c_str(), s.round, s.start_ns,
                 s.end_ns, self[i]);
    if (s.name == "round" && s.round < static_cast<int64_t>(r.phases.size())) {
      std::fprintf(f, ", \"phases_ms\": {");
      for (int p = 0; p < kNumRoundPhases; ++p) {
        std::fprintf(f, "%s\"%s\": %.6f", p > 0 ? ", " : "",
                     RoundPhaseName(static_cast<RoundPhase>(p)),
                     r.phases[s.round][p] * 1e3);
      }
      std::fprintf(f, "}");
      if (s.round < static_cast<int64_t>(r.engine_ms.size()) &&
          !std::isnan(r.engine_ms[s.round][0])) {
        const auto& e = r.engine_ms[s.round];
        std::fprintf(f,
                     ", \"engine_ms\": {\"user_side\": %.6f, \"model\": %.6f, "
                     "\"dmu\": %.6f, \"synthesis\": %.6f}",
                     e[0], e[1], e[2], e[3]);
      }
    }
    std::fprintf(f, "}%s\n", i + 1 < r.spans.size() ? "," : "");
  }
  std::fprintf(f, "]\n");
  std::fclose(f);
}

std::vector<std::pair<std::string, double>> SpanSelfMeans(
    const std::vector<Span>& spans) {
  const std::vector<int64_t> self = SelfTimes(spans);
  std::map<std::string, std::pair<double, int>> acc;
  for (size_t i = 0; i < spans.size(); ++i) {
    auto& [sum, n] = acc[spans[i].name];
    sum += static_cast<double>(self[i]) * 1e-6;
    ++n;
  }
  std::vector<std::pair<std::string, double>> out;
  for (const auto& [name, v] : acc) out.emplace_back(name, v.first / v.second);
  return out;
}

/// Median over the traced (odd) windows of a traced pass of their events/s
/// relative to the mean of their two untraced neighbours; the first pair is
/// skipped (warm-up). 0 when the pass is too short.
double TraceOverhead(const PassResult& r) {
  const std::vector<double>& w = r.window_events_per_s;
  std::vector<double> ratios;
  for (size_t k = 3; k + 1 < w.size(); k += 2) {
    const double untraced = 0.5 * (w[k - 1] + w[k + 1]);
    if (untraced > 0) ratios.push_back(w[k] / untraced);
  }
  return Median(ratios);
}

/// The per-layer metrics of a traced pass over a grid of \p cells cells;
/// \p baseline is the single-thread rerun (may be null).
std::vector<MetricValue> LayerMetrics(const WorkloadSpec& spec, uint32_t cells,
                                      const PassResult& r,
                                      const PassResult* baseline) {
  const Totals& x = r.delta;
  const double rounds = static_cast<double>(std::max<int64_t>(r.rounds, 1));
  const double events = static_cast<double>(std::max<uint64_t>(r.accepted, 1));
  auto per_round_ms = [&](const std::string& hist) {
    return x.Sum(hist) * 1e3 / rounds;
  };
  auto mean_ms = [&](const std::string& hist) {
    const double n = x.Count(hist);
    return n > 0 ? x.Sum(hist) * 1e3 / n : 0.0;
  };
  auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };

  const double seal = per_round_ms("retrasyn_ingest_seal_seconds");
  const double merge = per_round_ms("retrasyn_ingest_merge_seconds");
  const double commit = per_round_ms("retrasyn_ingest_commit_seconds");
  const double user_side = per_round_ms("retrasyn_engine_user_side_seconds");
  const double model = per_round_ms("retrasyn_engine_model_construction_seconds");
  const double dmu = per_round_ms("retrasyn_engine_dmu_seconds");
  const double synthesis = per_round_ms("retrasyn_engine_synthesis_seconds");
  const double close = per_round_ms("retrasyn_service_close_seconds");
  const double deliver = per_round_ms("retrasyn_service_delivery_seconds");
  const double step = per_round_ms("retrasyn_synthesis_step_seconds");
  const double unattributed =
      std::max(0.0, close - user_side - model - dmu - synthesis);
  double tick = 0.0;
  for (double ms : r.tick_ms) tick += ms;
  tick /= rounds;
  // Admission time per round: the slowest producer closed loop (it blocks
  // the round), the mean busy time per producer open loop (pacing sleeps
  // are not work).
  double admit = 0.0;
  if (spec.open_loop) {
    admit = static_cast<double>(r.admit_busy_ns) * 1e-6 /
            (rounds * static_cast<double>(spec.producers));
  } else {
    for (double ms : r.admit_wall_ms) admit += ms;
    admit /= rounds;
  }
  double skew = 0.0;
  if (!x.shard_accepted.empty()) {
    double max = 0.0;
    double sum = 0.0;
    for (double v : x.shard_accepted) {
      max = std::max(max, v);
      sum += v;
    }
    skew = ratio(max, sum / static_cast<double>(x.shard_accepted.size()));
  }
  const double ingest = admit + seal + merge + commit;
  const double engine = user_side + model + dmu;
  const double total = ingest + engine + synthesis + unattributed + deliver;
  const double rebuilds =
      x.Value("retrasyn_sampler_cache_cell_rebuilds_total") / rounds;
  const double points = x.Value("retrasyn_synthesis_points_total");
  const double writes = x.Value("retrasyn_checkpoint_writes_total");

  // The baseline reruns the first half of the pass; compare like with like.
  double thread_scaling = 0.0;
  if (baseline != nullptr && spec.num_threads > 1) {
    thread_scaling =
        ratio(baseline->delta.Sum("retrasyn_synthesis_step_seconds"),
              r.first_half.Sum("retrasyn_synthesis_step_seconds"));
  }
  std::vector<double> lags = r.lag_ms;
  std::sort(lags.begin(), lags.end());

  return {
      {"ingest.admit_ms", admit, "ms"},
      {"ingest.admit_ns_per_event",
       static_cast<double>(r.admit_busy_ns) / events, "ns"},
      {"ingest.seal_ms", seal, "ms"},
      {"ingest.merge_ms", merge, "ms"},
      {"ingest.commit_ms", commit, "ms"},
      {"ingest.tick_ms", tick, "ms"},
      {"ingest.shard_skew", skew, "ratio"},
      {"engine.user_side_ms", user_side, "ms"},
      {"engine.model_ms", model, "ms"},
      {"engine.dmu_ms", dmu, "ms"},
      {"engine.unattributed_ms", unattributed, "ms"},
      {"engine.reports_per_round",
       x.Value("retrasyn_engine_reports_total") / rounds, "count"},
      {"synthesizer.step_ms", step, "ms"},
      {"synthesizer.ns_per_point",
       ratio(x.Sum("retrasyn_synthesis_step_seconds") * 1e9, points), "ns"},
      {"synthesizer.cell_rebuilds_per_round", rebuilds, "count"},
      {"synthesizer.cell_rebuild_ratio",
       ratio(rebuilds, static_cast<double>(cells)), "ratio"},
      {"synthesizer.thread_scaling", thread_scaling, "ratio"},
      {"closer.queue_wait_ms", mean_ms("retrasyn_closer_queue_wait_seconds"),
       "ms"},
      {"closer.backpressure_blocks",
       x.Value("retrasyn_closer_backpressure_blocks_total"), "count"},
      {"closer.deliver_ms", deliver, "ms"},
      {"journal.bytes_per_event",
       x.Value("retrasyn_journal_bytes_appended_total") / events, "bytes"},
      {"journal.fsync_ms", mean_ms("retrasyn_journal_fsync_seconds"), "ms"},
      {"journal.fsyncs_per_round",
       x.Value("retrasyn_journal_fsyncs_total") / rounds, "count"},
      {"checkpoint.write_ms", mean_ms("retrasyn_checkpoint_write_seconds"),
       "ms"},
      {"checkpoint.bytes_per_write",
       ratio(x.Value("retrasyn_checkpoint_bytes_written_total"), writes),
       "bytes"},
      {"checkpoint.streams_spilled_per_write",
       ratio(x.Value("retrasyn_checkpoint_streams_spilled_total"), writes),
       "count"},
      {"loadgen.ns_per_event",
       ratio(static_cast<double>(r.gen_ns), static_cast<double>(r.generated)),
       "ns"},
      {"loadgen.lag_ms_p95", NearestRank(lags, 0.95), "ms"},
      {"split.ingest_share", ratio(ingest, total), "ratio"},
      {"split.engine_share", ratio(engine, total), "ratio"},
      {"split.synthesizer_share", ratio(synthesis, total), "ratio"},
      {"trace.overhead", TraceOverhead(r), "ratio"},
  };
}

void PrintPass(const char* tag, const PassResult& r) {
  std::vector<double> lat = r.latency_ms;
  std::sort(lat.begin(), lat.end());
  std::fprintf(stderr,
               "[%s] rounds=%" PRId64 " events=%" PRIu64
               " wall=%.2fs events/s=%.0f latency p50=%.2fms p95=%.2fms "
               "tick mean=%.2fms\n",
               tag, r.rounds, r.accepted, r.wall_s, r.events_per_s(),
               NearestRank(lat, 0.5), NearestRank(lat, 0.95),
               [&] {
                 double s = 0;
                 for (double v : r.tick_ms) s += v;
                 return r.tick_ms.empty() ? 0.0 : s / r.tick_ms.size();
               }());
  for (const std::string& e : r.errors) std::fprintf(stderr, "  error: %s\n", e.c_str());
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench_e2e --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--out_dir <dir>] "
                 "[--expect_prefix_digest <hex>]\n");
    return 2;
  }
  const WorkloadSpec* found = FindWorkload(args.workload);
  if (found == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  const WorkloadSpec& spec = *found;
  if (!CreateDirIfMissing(args.out_dir).ok()) return 2;
  const std::string tmp_root = args.out_dir + "/tmp";
  if (!CreateDirIfMissing(tmp_root).ok()) return 2;

  ResultRow row;
  row.workload = spec.name;
  row.seed = args.seed;
  row.trace = args.trace;
  row.host = ReadHostInfo(PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE,
                          PERFBENCH_CXX_FLAGS);
  const int64_t rounds = spec.rounds;
  Checker check;

  // Set-up samples, each in a fresh process, taken before this process
  // starts a thread; the last set-up is the deployment measured here.
  uint64_t probe_failures = 0;
  std::vector<double> setup_samples = SampleInFreshProcesses(
      kSetups - 1,
      [&]() -> Result<double> {
        Result<std::unique_ptr<Deployment>> made =
            SetUp(spec, args.seed, rounds, tmp_root);
        if (!made.ok()) return made.status();
        return made.value()->setup_s;
      },
      &probe_failures);
  row.attempted += kSetups - 1;
  row.failed += probe_failures;
  if (probe_failures > 0) {
    std::fprintf(stderr, "%" PRIu64 " set-up probes failed\n", probe_failures);
  }
  std::unique_ptr<Deployment> d;
  {
    Result<std::unique_ptr<Deployment>> made =
        SetUp(spec, args.seed, rounds, tmp_root);
    if (!made.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n",
                   made.status().ToString().c_str());
      return 1;
    }
    d = std::move(made).value();
    setup_samples.push_back(d->setup_s);
  }

  PassOptions options;
  options.rounds = rounds;
  options.traced = args.trace == 1;
  const CpuTimes cpu_before = CpuTimes::Read();
  const PassResult pass = RunPass(spec, args.seed, *d, options);
  row.cpu_steal_share = CpuTimes::Read().StealShareSince(cpu_before);
  PrintPass(options.traced ? "traced" : "untraced", pass);
  const double peak_rss = PeakRssMiB();
  CheckPass(*d, pass, &check);
  row.attempted += pass.attempted;
  row.failed += pass.failed;
  row.rounds = pass.rounds;

  const int64_t pinned = std::min(kPinnedRounds, pass.rounds);
  const uint32_t prefix = PrefixDigest(*d->sink, pinned);
  std::fprintf(stderr, "prefix digest over %" PRId64 " rounds: %s\n", pinned,
               Hex(prefix).c_str());
  if (!args.expect_prefix_digest.empty()) {
    check.Add("pinned_prefix_digest",
              pinned == kPinnedRounds && Hex(prefix) == args.expect_prefix_digest,
              Hex(prefix) + " vs pinned " + args.expect_prefix_digest);
  }
  // recover_s: the measured deployment's own recovery where it journals;
  // journal-off workloads time recovery of the journaled reference replay.
  // Recoveries fork, so no service of the measured deployment may still
  // run a thread.
  if (!spec.durable) d->service.reset();
  std::vector<double> recover_samples = ReplayReference(
      spec, args.seed, *d, std::min(kReferenceRounds, pass.rounds),
      spec.durable ? 0 : kRecoveries, tmp_root, &row, &check);
  if (spec.durable) {
    recover_samples = TimeRecoveries(*d->states, d->config, kRecoveries,
                                     "measured", &d->service, &row, &check);
  }

  std::vector<double> latency = pass.latency_ms;
  bool all_delivered = true;
  for (double v : latency) all_delivered = all_delivered && !std::isnan(v);
  latency.erase(std::remove_if(latency.begin(), latency.end(),
                               [](double v) { return std::isnan(v); }),
                latency.end());
  std::sort(latency.begin(), latency.end());
  row.latency_samples = latency.size();
  row.latency_top_percentile = HighestSupportedPercentile(latency.size());
  check.Add("p95_has_10_rounds_beyond",
            SamplesBeyond(latency.size(), 0.95) >= kMinSamplesBeyond &&
                all_delivered,
            std::to_string(latency.size()) + " latency samples");

  if (args.trace == 0) {
    row.metrics = {
        {"events_per_s", pass.events_per_s(), "events/s"},
        {"release_latency_p50_ms", NearestRank(latency, 0.50), "ms"},
        {"release_latency_p95_ms", NearestRank(latency, 0.95), "ms"},
        {"setup_s", Median(setup_samples), "s"},
        {"peak_rss_mb", peak_rss, "MiB"},
        {"recover_s", Median(recover_samples), "s"},
    };
  } else {
    const uint32_t cells = d->grid->NumCells();
    PassResult baseline;
    bool have_baseline = false;
    if (spec.num_threads > 1) {
      // The first half of the workload again on one synthesis thread: the
      // denominator of thread_scaling.
      WorkloadSpec single = spec;
      single.num_threads = 1;
      d.reset();
      Result<std::unique_ptr<Deployment>> made =
          SetUp(single, args.seed, rounds / 2, tmp_root);
      ++row.attempted;
      if (made.ok()) {
        d = std::move(made).value();
        PassOptions base_options;
        base_options.rounds = rounds / 2;
        baseline = RunPass(single, args.seed, *d, base_options);
        PrintPass("baseline", baseline);
        row.attempted += baseline.attempted;
        row.failed += baseline.failed;
        have_baseline = true;
      } else {
        check.Add("setup_baseline", false, made.status().ToString());
      }
    }
    row.metrics = LayerMetrics(spec, cells, pass,
                               have_baseline ? &baseline : nullptr);
    row.span_self_ms = SpanSelfMeans(pass.spans);
    row.spans_file = args.out_dir + "/spans-" + spec.name + "-seed" +
                     std::to_string(args.seed) + ".json";
    WriteSpans(row.spans_file, pass);
  }
  row.checks = check.results;
  row.attempted += row.checks.size();
  for (const CheckResult& c : row.checks) row.failed += c.ok ? 0 : 1;
  auto print_samples = [](const char* what, const std::vector<double>& v) {
    std::fprintf(stderr, "%s samples (s):", what);
    for (double x : v) std::fprintf(stderr, " %.5f", x);
    std::fprintf(stderr, "\n");
  };
  print_samples("setup", setup_samples);
  print_samples("recover", recover_samples);
  std::fprintf(stderr, "events/s windows:");
  for (double x : pass.window_events_per_s) std::fprintf(stderr, " %.0f", x);
  std::fprintf(stderr, "\ncpu steal during the pass: %.2f%%\n",
               100 * row.cpu_steal_share);
  for (const MetricValue& m : row.metrics) {
    std::fprintf(stderr, "  %-40s %14.6g %s\n", m.name.c_str(), m.value,
                 m.unit.c_str());
  }
  d.reset();
  std::printf("%s\n", row.ToJson().c_str());
  std::fflush(stdout);
  return row.correct() ? 0 : 3;
}

}  // namespace
}  // namespace perfbench
}  // namespace retrasyn

int main(int argc, char** argv) {
  return retrasyn::perfbench::Main(argc, argv);
}
