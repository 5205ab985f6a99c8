// Periodic checkpoint writer + journal compactor.
//
// The manager turns the unbounded-replay recovery model (PR 4) into an
// O(window) one: every `every_rounds` closed rounds it captures the full
// service state — engine and ingest session — on the threads that own them,
// pairs the two halves by round, and hands them to a single background
// worker that:
//
//   1. spills the engine's closed synthetic streams to a `history-*.hst`
//      file (when spill_history is on), so steady-state RSS stays flat while
//      SnapshotRelease still serves the complete history;
//   2. writes `checkpoint-*.ckpt` atomically (tmp + fsync + rename + dir
//      fsync) — a crash never leaves a half-written checkpoint under its
//      final name;
//   3. prunes checkpoints beyond the retention count; and
//   4. retires journal segments that ended at or before the oldest retained
//      checkpoint's round minus the w-window, through the BASE declaration
//      of journal_compaction.h — recovery then replays only the suffix.
//
// Capture happens at round boundaries on the owning threads (the session
// half on the ingest thread via the round-commit hook, the engine half on
// the round-closing thread right after Observe), so the worker never touches
// live state; it serializes privately owned copies. The first I/O failure
// poisons the manager exactly like JournalWriter: status() turns sticky,
// later captures are dropped, and the service surfaces the error on the
// next Tick — the journal itself is unaffected, so nothing durable is lost.

#ifndef RETRASYN_CHECKPOINT_CHECKPOINT_MANAGER_H_
#define RETRASYN_CHECKPOINT_CHECKPOINT_MANAGER_H_

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "checkpoint/checkpoint_format.h"
#include "common/mutex.h"
#include "common/status.h"
#include "journal/journal_reader.h"
#include "journal/journal_writer.h"
#include "stream/cell_stream.h"
#include "telemetry/telemetry.h"

namespace retrasyn {

struct CheckpointOptions {
  /// Directory for checkpoint and history spill files. Owned by the service
  /// that owns the journal (the journal LOCK covers both).
  std::string dir;
  /// Write a checkpoint every N closed rounds; 0 disables checkpointing.
  int64_t every_rounds = 0;
  /// Newest checkpoints kept on disk; older ones are pruned. At least 1 —
  /// two by default, so a checkpoint corrupted in place still leaves a
  /// bounded-replay recovery path.
  int retain = 2;
  /// Move closed synthetic streams out of memory into history spill files at
  /// every checkpoint; SnapshotRelease reads them back on demand.
  bool spill_history = true;
  /// Deployment fingerprint stamped into every file (same hash the journal
  /// carries); a checkpoint only loads into the deployment that wrote it.
  uint64_t fingerprint = 0;
  /// The grid's canonical Describe() bytes, stored verbatim in every
  /// checkpoint body so recovery can verify the discretization exactly (the
  /// fingerprint above already hashes them; the copy makes the refusal
  /// message precise and the format self-describing).
  std::string grid_describe;
  /// The w-event window; journal retirement keeps a full window of rounds
  /// behind the oldest retained checkpoint.
  int window = 0;
  /// The journal directories compaction retires segments from — one per
  /// ingest shard (a single entry for unsharded deployments); empty disables
  /// retirement (checkpoints still bound recovery *time*, not disk). Every
  /// shard journal carries one boundary record per round, so one cutoff
  /// round drives retirement in all of them independently.
  std::vector<std::string> journal_dirs;

  Status Validate() const;
};

/// \brief What recovery found in a checkpoint directory. Finding it deletes
/// nothing: the caller removes `stale_files` (RemoveFiles) only once it has
/// accepted the recovery, so a refused open leaves the directory as it found
/// it.
struct CheckpointRecovery {
  /// True when a usable checkpoint exists; `state` is then the newest one.
  bool found = false;
  CheckpointState state;
  /// Rounds of the checkpoints that stay on disk, ascending (retention
  /// seeding through SeedRecovered).
  std::vector<int64_t> surviving_rounds;
  /// Orphaned `*.tmp` files, the corrupt checkpoints the ladder skipped, and
  /// the history files the chosen checkpoint does not reference (every one
  /// when none was found).
  std::vector<std::string> stale_files;
  /// Corrupt checkpoints skipped before the usable one: the recovery
  /// fallback depth surfaced in telemetry.
  int corrupt_skipped = 0;
  /// True when the directory holds any checkpoint or history file, usable or
  /// not: recoverable state a fresh deployment must not shadow.
  bool holds_state = false;
};

class CheckpointManager {
 public:
  /// Creates \p options.dir if missing and starts the worker. Seed the
  /// manager through SeedRecovered before the first captured round.
  static Result<std::unique_ptr<CheckpointManager>> Open(
      const CheckpointOptions& options);

  /// Finds the newest usable checkpoint for recovery, reading only: tries
  /// checkpoints newest-first, skipping (and listing) corrupt ones — torn
  /// frame, CRC failure, malformed body, missing referenced spill file. A
  /// checkpoint that is structurally VALID but carries a different
  /// deployment fingerprint fails loudly with FailedPrecondition instead of
  /// falling back: silently replaying the full journal under a changed
  /// deployment is exactly the divergence the fingerprint exists to
  /// prevent. A missing directory finds nothing.
  static Result<CheckpointRecovery> LoadForRecovery(const std::string& dir,
                                                    uint64_t fingerprint);

  CheckpointManager(const CheckpointManager&) = delete;
  CheckpointManager& operator=(const CheckpointManager&) = delete;
  ~CheckpointManager();

  /// The journals whose sealed segments retirement may delete (not owned),
  /// one per entry of options.journal_dirs, in the same order; an empty
  /// vector detaches — retirement then only considers recovery-seeded
  /// segments.
  void AttachJournals(std::vector<JournalWriter*> journals);

  /// Seeds post-recovery bookkeeping: the recovered checkpoint's spill
  /// manifest (served file-backed from day one), the surviving checkpoint
  /// rounds (retention), and the scanned journal segments — one vector per
  /// entry of options.journal_dirs — as retirement candidates whose suffix
  /// the new writers continue. A fresh deployment seeds empty state and
  /// lists.
  Status SeedRecovered(
      const CheckpointState& state, std::vector<int64_t> surviving_rounds,
      const std::vector<std::vector<ScannedSegment>>& segments_per_journal);

  /// True when a checkpoint is due at the round boundary that sealed round
  /// \p t — i.e. every `every_rounds` closed rounds.
  bool DueAt(int64_t sealed_round) const {
    return options_.every_rounds > 0 &&
           (sealed_round + 1) % options_.every_rounds == 0;
  }

  /// Engine half, from the round-closing thread right after Observe(t).
  /// \p spilled holds the closed streams taken from the engine this round
  /// (empty when spill_history is off); they are servable from memory
  /// immediately and from their spill file once the worker persists them.
  void OnRoundClosed(int64_t sealed_round, EngineCheckpointState engine,
                     std::vector<CellStream> spilled);

  /// Session half, from the ingest thread's round-commit hook.
  void OnRoundCommitted(int64_t sealed_round, SessionCheckpointState session);

  /// Appends every spilled stream to \p out in spill order (ascending
  /// checkpoint round, original order within). The caller appends the
  /// engine's in-memory snapshot after — the concatenation reproduces the
  /// no-spill snapshot byte-for-byte.
  Status AppendSpilledHistory(CellStreamSet* out) const
      EXCLUDES(spill_mu_);
  bool has_spilled_history() const EXCLUDES(spill_mu_);

  /// Registers this manager's metrics in \p telemetry (not owned; null
  /// detaches). Call before the first captured round — the worker reads the
  /// pointers without a lock. Observation-only: no effect on what is
  /// written, pruned, or retired.
  void AttachTelemetry(Telemetry* telemetry);

  /// Sticky first failure (OK while healthy).
  Status status() const EXCLUDES(mu_);

  /// Blocks until the worker has drained every ready checkpoint; returns
  /// status(). Used by Drain and tests for deterministic error surfacing.
  Status WaitIdle() EXCLUDES(mu_);

  uint64_t checkpoints_written() const EXCLUDES(mu_);
  uint64_t segments_retired() const EXCLUDES(mu_);
  uint64_t streams_spilled() const EXCLUDES(spill_mu_);
  /// The newest durable checkpoint's round; -1 before the first one.
  int64_t last_checkpoint_round() const EXCLUDES(mu_);

  const CheckpointOptions& options() const { return options_; }

 private:
  /// A spilled batch of closed streams: memory-backed until its file is
  /// durable, file-backed after.
  struct SpillEntry {
    int64_t round = 0;
    uint64_t count = 0;
    bool file_backed = false;
    std::vector<CellStream> streams;  ///< empty once file_backed
  };

  /// The two capture halves of one due round, paired by round.
  struct PendingCapture {
    bool have_engine = false;
    bool have_session = false;
    EngineCheckpointState engine;
    SessionCheckpointState session;
  };

  /// Per-journal retirement bookkeeping, one per options.journal_dirs entry.
  struct JournalRetireState {
    std::string dir;
    JournalWriter* writer = nullptr;  ///< not owned; null = detached
    // Worker-only once the worker owns it.
    std::vector<SealedSegment> candidates;  ///< sorted by index
    uint64_t first_live = 0;   ///< lowest journal index not retired
    bool first_live_known = false;
    int64_t retired_base_round = 0;  ///< rounds summarized by retired prefix
  };

  explicit CheckpointManager(CheckpointOptions options);

  void WorkerLoop() EXCLUDES(mu_);
  /// One full checkpoint: spill file, checkpoint file, pruning, retirement.
  /// Runs on the worker with mu_ released (file I/O must not block captures);
  /// takes mu_/spill_mu_ briefly for the shared touches inside.
  Status WriteCheckpoint(int64_t round, EngineCheckpointState engine,
                         SessionCheckpointState session)
      EXCLUDES(mu_, spill_mu_);
  Status PruneCheckpoints();
  Status RetireJournalPrefix() EXCLUDES(mu_);
  void MaybeEnqueueLocked(int64_t round) REQUIRES(mu_);

  const CheckpointOptions options_;

  mutable Mutex mu_;
  CondVar cv_;
  std::thread worker_;
  bool stop_ GUARDED_BY(mu_) = false;
  bool busy_ GUARDED_BY(mu_) = false;
  Status error_ GUARDED_BY(mu_);  ///< first failure; sticky
  /// Halves awaiting their pair.
  std::map<int64_t, PendingCapture> pending_ GUARDED_BY(mu_);
  /// Fully captured rounds.
  std::deque<int64_t> ready_ GUARDED_BY(mu_);

  // Handoff-owned retirement state, deliberately NOT mutex-guarded: after
  // SeedRecovered (which verifies the worker is idle under mu_ — no busy_,
  // no ready_, no pending_ — before touching it), journals_'
  // candidates/first_live/retired_base_round and retained_rounds_ are owned
  // exclusively by the worker thread, which mutates them with file
  // I/O interleaved and must not hold mu_ across that. The one exception is
  // each JournalRetireState::writer pointer, which AttachJournals swaps and
  // the worker reads — both under mu_ (GUARDED_BY cannot name the outer
  // class's mu_ from a nested struct; see docs/concurrency.md).
  std::vector<JournalRetireState> journals_;
  std::vector<int64_t> retained_rounds_;       ///< on-disk checkpoints, asc

  /// Leaf lock, ordered after mu_ (SeedRecovered nests mu_ -> spill_mu_;
  /// never the reverse).
  mutable Mutex spill_mu_ ACQUIRED_AFTER(mu_);
  /// Ascending by round.
  std::vector<SpillEntry> spills_ GUARDED_BY(spill_mu_);
  uint64_t streams_spilled_ GUARDED_BY(spill_mu_) = 0;

  uint64_t checkpoints_written_ GUARDED_BY(mu_) = 0;
  uint64_t segments_retired_ GUARDED_BY(mu_) = 0;
  int64_t last_checkpoint_round_ GUARDED_BY(mu_) = -1;

  // Telemetry (all null when detached). Set once before the first capture;
  // read by the worker and capture threads without a lock.
  Telemetry* telemetry_ = nullptr;
  Counter* writes_metric_ = nullptr;
  Counter* bytes_metric_ = nullptr;
  Counter* prunes_metric_ = nullptr;
  Counter* segments_retired_metric_ = nullptr;
  Counter* spills_metric_ = nullptr;
  Counter* poisonings_metric_ = nullptr;
  Gauge* last_round_metric_ = nullptr;
  LatencyHistogram* write_hist_ = nullptr;
  RoundTrace* trace_ = nullptr;
};

}  // namespace retrasyn

#endif  // RETRASYN_CHECKPOINT_CHECKPOINT_MANAGER_H_
