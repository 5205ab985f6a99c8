// Segmented append-only writer for the ingestion event journal.
//
// A journal is a directory of numbered segment files
// (`journal-00000000.wal`, `journal-00000001.wal`, ...), each starting with
// the versioned header of event_codec.h and followed by framed records.
// Segments rotate when the current one crosses `segment_bytes`, and only at
// round boundaries (Tick records) — so every segment except the
// last ends on a closed round, and only the final segment can ever hold a
// torn tail after a crash.
//
// Durability knob (FsyncPolicy):
//   kNever       appends are buffered; the OS decides when bytes hit disk.
//                Fastest; a crash can lose any suffix of the journal.
//   kEveryRound  fsync once per round-boundary record. A crash loses at most
//                the open (uncommitted) round — the default, matching the
//                session's unit of atomicity.
//   kEveryRecord fsync after every record. A crash loses at most the one
//                event being appended. Strongest and slowest.
//
// Open() always starts a NEW segment (it never appends into an existing
// file), so a writer opened over a recovered journal cannot be corrupted by
// a stale tail, and it takes an exclusive flock on `<dir>/LOCK` held for
// the writer's lifetime — a second writer (another process racing a
// supervisor restart, or a misconfigured replica sharing the directory)
// fails fast with FailedPrecondition instead of interleaving appends into
// the same segment. The first I/O failure poisons the writer: every later
// Append/Sync returns the same sticky error, mirroring the service layer's
// poisoned-pipeline semantics.

#ifndef RETRASYN_JOURNAL_JOURNAL_WRITER_H_
#define RETRASYN_JOURNAL_JOURNAL_WRITER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/file_io.h"
#include "common/mutex.h"
#include "common/status.h"
#include "journal/event_codec.h"
#include "journal/journal_options.h"
#include "telemetry/telemetry.h"

namespace retrasyn {

/// \brief A finished (rotated-away) segment: its file index and the absolute
/// closed-round count at its end. The checkpoint manager uses end_round to
/// decide when a whole segment has left the retention horizon and can be
/// deleted by compaction.
struct SealedSegment {
  uint64_t index = 0;
  int64_t end_round = 0;
};

class JournalWriter {
 public:
  /// Creates \p dir if missing, takes the exclusive `<dir>/LOCK`, and opens
  /// a fresh segment numbered after the highest existing one. Fails with
  /// FailedPrecondition while another writer holds the lock.
  static Result<std::unique_ptr<JournalWriter>> Open(
      const std::string& dir, const JournalOptions& options);

  /// Like Open, but adopts a `<dir>/LOCK` the caller already holds — for
  /// recovery, which must take the lock *before* its destructive scan and
  /// tail truncation, not merely before appending.
  static Result<std::unique_ptr<JournalWriter>> OpenLocked(
      const std::string& dir, const JournalOptions& options, FileLock lock);

  /// The lock-file name; never parsed as a segment.
  static constexpr char kLockFileName[] = "LOCK";

  JournalWriter(const JournalWriter&) = delete;
  JournalWriter& operator=(const JournalWriter&) = delete;
  ~JournalWriter();

  /// Appends one framed record, fsyncing and rotating per the options.
  Status Append(const JournalEvent& event);

  /// Starts making the records appended so far durable on a background
  /// presync worker (kEveryRound only; no-op otherwise). Cheap and
  /// non-blocking: the caller overlaps it with the round-closing work so
  /// the boundary record's fsync finds the round's event data already on
  /// disk and pays only for the boundary bytes. Making events durable
  /// *early* is always safe — the boundary record is what commits the
  /// round. Errors surface, sticky, on the next Append/Sync.
  void BeginRoundSync();

  /// Forces the appended records to disk regardless of the fsync policy.
  Status Sync();

  /// Flushes and closes the current segment; the writer is unusable after.
  Status Close();

  /// The sticky first I/O failure (OK while healthy). Callers that must not
  /// proceed on a poisoned journal (e.g. IngestSession::Tick) check this
  /// before doing work the failure would strand.
  Status status() const { return error_; }

  /// Registers this writer's metrics in \p telemetry (not owned; null
  /// detaches). Sharded sessions attach every shard's writer to the same
  /// bundle: the counters are shared by (name, labels) identity, so journal
  /// metrics aggregate across shards. Call right after Open/OpenLocked,
  /// before the first Append. Observation-only — no effect on bytes.
  void AttachTelemetry(Telemetry* telemetry);

  /// Seeds the absolute closed-round count this writer's rounds continue
  /// from: recovery passes the number of rounds already in the journal, a
  /// fresh deployment passes 0 (the default). Call right after
  /// Open/OpenLocked, before the first Append, so sealed segments carry
  /// absolute end rounds.
  void set_base_round(int64_t base) { base_round_ = base; }

  /// Drains the segments sealed (rotated away) since the last call, each
  /// tagged with the absolute closed-round count at its end. Thread-safe:
  /// the checkpoint manager's worker drains while the ingest thread appends.
  std::vector<SealedSegment> TakeSealedSegments() EXCLUDES(sealed_mu_);

  const std::string& dir() const { return dir_; }
  uint64_t records_appended() const { return records_appended_; }
  uint64_t rounds_appended() const { return rounds_appended_; }
  uint64_t segments_created() const { return segments_created_; }
  /// Total framed bytes appended across all segments (headers excluded).
  uint64_t bytes_appended() const { return bytes_appended_; }

  /// `journal-%08llu.wal` for segment \p index.
  static std::string SegmentFileName(uint64_t index);
  /// Parses a segment file name back into its index; false for other files.
  static bool ParseSegmentFileName(const std::string& name, uint64_t* index);

 private:
  JournalWriter(std::string dir, const JournalOptions& options,
                uint64_t next_segment_index)
      : dir_(std::move(dir)),
        options_(options),
        next_segment_index_(next_segment_index) {}

  /// Closes the current segment (if any) and starts the next one.
  Status RotateSegment();

  /// segment_.SyncData() with fsync count + latency recording attached.
  Status SyncDataTimed();
  /// Marks the sticky-error transition in telemetry (poisoning counter +
  /// first-failure record). Call where error_ flips from OK to non-OK.
  void NotePoison(const Status& st);

  /// Blocks until the presync worker is idle, folding its error (if any)
  /// into the sticky writer error. Every file-touching entry point calls
  /// this first, so the worker only ever runs while the writer is quiescent.
  Status WaitForPresync() EXCLUDES(presync_mu_);
  void PresyncLoop() EXCLUDES(presync_mu_);

  // Owner-thread state. The writer has exactly one driving thread (the
  // ingest thread, or a shard producer holding that shard's lock); nothing
  // below this comment is touched by the presync or checkpoint workers, so
  // it is thread-confined rather than mutex-guarded. The two cross-thread
  // surfaces are sealed_ (under sealed_mu_) and the presync_* block (under
  // presync_mu_); WaitForPresync() quiesces the worker before any owner
  // access to segment_/error_ it could race with.
  const std::string dir_;
  const JournalOptions options_;
  FileLock lock_;  ///< exclusive <dir>/LOCK, held for the writer's lifetime
  uint64_t next_segment_index_ = 0;

  AppendableFile segment_;  ///< closed until the first RotateSegment
  int64_t segment_size_ = 0;
  std::string scratch_;

  uint64_t records_appended_ = 0;
  uint64_t rounds_appended_ = 0;
  uint64_t segments_created_ = 0;
  uint64_t bytes_appended_ = 0;
  int64_t base_round_ = 0;  ///< absolute rounds preceding this writer's first
  Status error_;  ///< first I/O failure; sticky
  bool closed_ = false;

  // Telemetry (null when detached). The metric objects live in the service's
  // registry and are shared across shard writers.
  Telemetry* telemetry_ = nullptr;
  Counter* records_metric_ = nullptr;
  Counter* rounds_metric_ = nullptr;
  Counter* bytes_metric_ = nullptr;
  Counter* segments_metric_ = nullptr;
  Counter* fsyncs_metric_ = nullptr;
  Counter* poisonings_metric_ = nullptr;
  LatencyHistogram* fsync_hist_ = nullptr;

  /// Segments rotated away and not yet drained by TakeSealedSegments().
  Mutex sealed_mu_;
  std::vector<SealedSegment> sealed_ GUARDED_BY(sealed_mu_);

  // Background data presync (kEveryRound): one worker, started lazily on
  // the first BeginRoundSync, fdatasync-ing the current segment while the
  // ingest thread runs the round-closing work.
  std::thread presync_thread_;
  Mutex presync_mu_;
  CondVar presync_cv_;
  bool presync_requested_ GUARDED_BY(presync_mu_) = false;
  bool presync_stop_ GUARDED_BY(presync_mu_) = false;
  int presync_fd_ GUARDED_BY(presync_mu_) = -1;
  Status presync_error_ GUARDED_BY(presync_mu_);
};

/// `shard-%03d` — the per-shard journal subdirectory under the configured
/// journal_dir when ingest_shards > 1. Each subdirectory is a complete
/// journal in its own right (LOCK, segments, BASE); the flat layout is
/// reserved for single-shard deployments, so a layout mismatch between the
/// on-disk journal and the configured shard count is detectable before any
/// record is read.
std::string ShardJournalDirName(int shard);
/// Parses a shard subdirectory name back into its shard index; false for
/// other names.
bool ParseShardJournalDirName(const std::string& name, int* shard);

}  // namespace retrasyn

#endif  // RETRASYN_JOURNAL_JOURNAL_WRITER_H_
