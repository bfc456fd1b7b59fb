#pragma once
// Persistent append-only job store for the quml_serve daemon.
//
// The journal is NDJSON: one record per line, two record kinds —
//
//   {"rec":"enqueue","ticket":N,"tenant":"...","bundle":{...}}
//   {"rec":"settle","ticket":N,"status":"DONE"}
//
// Accepted jobs append an enqueue record *before* they enter the run queue;
// terminal jobs append a settle record.  Every append is fflush()ed, never
// fsync()ed: a record survives a killed process, not a kernel crash or power
// loss (the page cache may still hold it).  On boot the journal is replayed:
// enqueued-but-never-settled jobs are the daemon's recovery set, re-run with
// their original tickets and bundles (the bundle JSON is the lossless
// artifact format, so exec.seed survives and results are bit-identical to
// the pre-crash run).  A torn final line — the signature of a crash mid
// append — is tolerated and dropped; corruption anywhere earlier throws.
//
// Settled jobs are dead weight in the journal; compact() rewrites it with
// only the live enqueue records (atomically, via rename) so the file stays
// proportional to the backlog, not the lifetime job count.
//
// The store is externally synchronized: the daemon serializes every call
// under its own mutex, so the store itself carries no lock.

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "core/bundle.hpp"

namespace quml::serve {

/// One accepted-but-unsettled job as persisted.
struct PendingJob {
  std::uint64_t ticket = 0;
  std::string tenant;
  core::JobBundle bundle;
};

class JobStore {
 public:
  /// Opens (creating if absent) and replays the journal at `path`.
  /// Throws quml::Error on unreadable files or mid-journal corruption.
  explicit JobStore(std::string path);
  ~JobStore();
  JobStore(const JobStore&) = delete;
  JobStore& operator=(const JobStore&) = delete;

  const std::string& path() const noexcept { return path_; }

  /// First unused ticket (max ticket ever journaled + 1; 1 for a new store).
  std::uint64_t next_ticket() const noexcept { return max_ticket_ + 1; }

  /// The recovery set: enqueued, never settled, in ticket order.
  std::vector<PendingJob> pending() const;

  /// Journal records dropped during replay (the torn tail; 0 or 1 lines).
  std::size_t torn_records() const noexcept { return torn_records_; }
  /// Settle records currently in the journal file (compaction resets this).
  std::size_t settled_records() const noexcept { return settled_records_; }
  /// Total records currently in the journal file.
  std::size_t journal_records() const noexcept { return journal_records_; }

  void append_enqueue(const PendingJob& job);
  /// `status` is the terminal state string ("DONE", "FAILED", "CANCELLED").
  void append_settle(std::uint64_t ticket, const std::string& status);

  /// Rewrites the journal keeping only the live enqueue records, then
  /// atomically replaces the old file.  The max ticket is preserved even when
  /// every job is settled (a "ticket" watermark record), so restart never
  /// reissues an already-used ticket.
  void compact();

 private:
  void replay_();
  void open_append_();
  void append_line_(const std::string& line);

  std::string path_;
  std::FILE* out_ = nullptr;
  std::map<std::uint64_t, PendingJob> pending_;
  std::uint64_t max_ticket_ = 0;
  std::size_t torn_records_ = 0;
  std::size_t settled_records_ = 0;
  std::size_t journal_records_ = 0;
};

}  // namespace quml::serve
