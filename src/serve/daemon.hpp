#pragma once
// The quml_serve job daemon: multi-tenant admission and persistence in front
// of svc::ExecutionService, the only queue between the socket and a worker.
// The daemon owns no threads.
//
// Lifecycle of one job:
//
//   submit(tenant, bundle) -> ExecutionService::submit on the tenant's lane
//     -> routing, capacity check and admission analysis on the calling
//        thread: any synchronous throw (a defect, an unknown engine, a
//        register too wide for its engine) -> REJECTED, service rendering
//     -> tenant at its bound -> QueueFullError -> SHED, nothing persisted
//     -> admitted hook: ticket minted, enqueue record journalled (a failed
//        append -> SHED, nothing queued)
//   a service worker pops in fair-share order and runs the job (retries,
//   breakers and failover all apply)
//     -> settled hook on that worker: the service forgets the job, the
//        settle record is journalled, the result cached, the callback fired
//
// Crash recovery: the constructor resubmits the store's pending set with the
// original tickets and bundles.  exec.seed rides in the bundle, so a
// replayed job reproduces its counts bit-identically.  stop() cancels what
// is still queued without journalling a settle, so it replays next boot.
//
// Lock order: daemon mutex_ -> svc record mutex (JobHandle::status/cancel) /
// store (no lock).  No daemon lock is held while calling into the service's
// submit/forget/shutdown, and the service holds none of its locks while
// running the hooks.  The settle callback is invoked with no daemon lock
// held, so a server can take its own locks freely.

#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <string>

#include "core/bundle.hpp"
#include "core/result.hpp"
#include "serve/store.hpp"
#include "svc/execution_service.hpp"
#include "util/sync.hpp"
#include "util/thread_annotations.hpp"

namespace quml::serve {

/// Per-tenant scheduling weight and admission bound.
struct TenantPolicy {
  double weight = 1.0;
  /// Maximum jobs queued (not yet running) per tenant, enforced by the
  /// service (SubmitOptions::max_queued); the next submit past it is SHED.
  std::size_t max_queued = 64;
};

struct DaemonConfig {
  /// Journal path (required).
  std::string store_path;
  /// Per-tenant overrides; unknown tenants get `default_policy`.
  std::map<std::string, TenantPolicy> tenants;
  TenantPolicy default_policy;
  /// Compact the journal once this many settle records accumulate.
  std::size_t compact_after_settles = 256;
  /// Settled jobs kept queryable in memory (status/result).  Past the bound
  /// the oldest settled records are evicted — their tickets then read as
  /// unknown — so a long-running daemon's memory tracks its backlog, not its
  /// lifetime job count.  The settle callback always sees the full snapshot
  /// before eviction.
  std::size_t settled_retention = 4096;
  /// Worker pools, breakers, and service.start_paused — which lets tests
  /// fill the queue, destroy the daemon undrained, and assert the store
  /// replays on the next boot (service().resume() releases the workers).
  svc::ServiceConfig service;
};

enum class SubmitOutcome { Accepted, Rejected, Shed };
const char* to_string(SubmitOutcome outcome) noexcept;

struct SubmitReply {
  SubmitOutcome outcome = SubmitOutcome::Rejected;
  std::uint64_t ticket = 0;  ///< valid when Accepted
  std::string detail;        ///< rejection diagnostics / shed reason
};

/// Snapshot of one job, tenant-scoped.  `known` is false for tickets the
/// tenant does not own — other tenants' jobs are indistinguishable from
/// nonexistent ones.
struct JobInfo {
  bool known = false;
  std::uint64_t ticket = 0;
  std::string tenant;
  std::string status;  ///< "QUEUED", "RUNNING", "DONE", "FAILED", "CANCELLED"
  std::string engine;  ///< resolved engine once terminal ("" before)
  std::string error;   ///< failure rendering for FAILED
  std::size_t attempts = 0;
  std::optional<core::ExecutionResult> result;  ///< DONE only
};

class JobDaemon {
 public:
  explicit JobDaemon(DaemonConfig config);
  ~JobDaemon();
  JobDaemon(const JobDaemon&) = delete;
  JobDaemon& operator=(const JobDaemon&) = delete;

  /// Admits, persists, and enqueues one bundle.  Never throws for program
  /// defects — they come back as Rejected with the service's QA-coded
  /// rendering, as do bundles no engine could run (unknown engine, register
  /// too wide for the engine).
  SubmitReply submit(const std::string& tenant, core::JobBundle bundle) QUML_EXCLUDES(mutex_);

  /// Tenant-scoped job snapshot (see JobInfo::known).
  JobInfo info(const std::string& tenant, std::uint64_t ticket) const QUML_EXCLUDES(mutex_);

  /// Blocks until the job settles (or `timeout` passes -> false).  Unknown
  /// or foreign tickets return true immediately (their info() stays unknown).
  bool wait_for(const std::string& tenant, std::uint64_t ticket,
                std::chrono::milliseconds timeout) const QUML_EXCLUDES(mutex_);

  /// Stops admitting: every later submit is SHED while queued/running work
  /// proceeds normally.  Call before drain() so a graceful shutdown only
  /// waits on the backlog present at signal time, not on sustained new load.
  void quiesce() QUML_EXCLUDES(mutex_);

  /// Blocks until every accepted job has settled.  Call quiesce() first and
  /// stop() after for a graceful (SIGTERM) shutdown; without quiesce(), new
  /// submissions keep being accepted and can extend the drain.
  void drain() QUML_EXCLUDES(mutex_);

  /// Stops accepting, abandons whatever is still queued (cancelled, with no
  /// settle record, so it replays on the next boot), lets running jobs
  /// settle, and shuts the service down.  Idempotent; the destructor calls it.
  void stop() QUML_EXCLUDES(mutex_);

  struct Stats {
    std::uint64_t accepted = 0;
    std::uint64_t rejected = 0;
    std::uint64_t shed = 0;
    std::uint64_t settled = 0;
    std::uint64_t replayed = 0;  ///< jobs recovered from the store at boot
    std::size_t queued = 0;      ///< accepted, not yet claimed by a worker
    std::size_t in_flight = 0;   ///< claimed, not yet settled
  };
  Stats stats() const QUML_EXCLUDES(mutex_);

  /// Fired on the settling service worker's thread, with only the callback mutex
  /// held, for every job that reaches a terminal state.  Invocation is
  /// serialized against set_settle_callback: once set_settle_callback({})
  /// returns, no callback is running or will run again — the unhooking
  /// handshake a Server needs before it may close its wake pipe.
  using SettleCallback = std::function<void(const JobInfo&)>;
  void set_settle_callback(SettleCallback callback) QUML_EXCLUDES(callback_mutex_);

  /// The underlying execution service (breaker states, capability snapshot).
  svc::ExecutionService& service() noexcept { return svc_; }

 private:
  struct Record {
    std::string tenant;
    svc::JobHandle job;  ///< the service's view until settled, then reset
    svc::JobStatus status = svc::JobStatus::Queued;  ///< terminal once settled
    std::string engine;
    std::string error;
    std::size_t attempts = 0;
    std::optional<core::ExecutionResult> result;
  };

  const TenantPolicy& policy_for_(const std::string& tenant) const;
  /// Resubmits one journalled job under its original ticket (no new
  /// enqueue record, no tenant bound).
  void replay_(PendingJob job) QUML_EXCLUDES(mutex_);
  JobInfo info_locked_(std::uint64_t ticket, const Record& record) const QUML_REQUIRES(mutex_);
  /// The settled hook: reads the outcome off the service's handle.
  void on_settled_(std::uint64_t ticket, const svc::JobHandle& job) QUML_EXCLUDES(mutex_);
  void settle_(std::uint64_t ticket, svc::JobStatus status, std::string engine, std::string error,
               std::size_t attempts, std::optional<core::ExecutionResult> result)
      QUML_EXCLUDES(mutex_);

  DaemonConfig config_;

  mutable Mutex mutex_;
  mutable CondVar settled_cv_;  // any job settled / counters moved
  JobStore store_ QUML_GUARDED_BY(mutex_);
  std::map<std::uint64_t, Record> records_ QUML_GUARDED_BY(mutex_);
  /// Settle order, for retention eviction (oldest settled record first).
  std::deque<std::uint64_t> settled_order_ QUML_GUARDED_BY(mutex_);
  std::uint64_t next_ticket_ QUML_GUARDED_BY(mutex_) = 1;
  Stats counters_ QUML_GUARDED_BY(mutex_);  // queued/in_flight are computed by stats()
  std::size_t unsettled_ QUML_GUARDED_BY(mutex_) = 0;  // accepted or replayed, not settled
  bool quiescing_ QUML_GUARDED_BY(mutex_) = false;
  bool stopping_ QUML_GUARDED_BY(mutex_) = false;
  /// Never nested with mutex_ (settle_ releases mutex_ before taking it).
  mutable Mutex callback_mutex_;
  SettleCallback on_settle_ QUML_GUARDED_BY(callback_mutex_);

  /// Declared last, so destroyed first: its workers run the settled hook,
  /// which touches every member above.
  svc::ExecutionService svc_;
};

}  // namespace quml::serve
