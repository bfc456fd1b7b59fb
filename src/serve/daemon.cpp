#include "serve/daemon.hpp"

#include <exception>
#include <memory>
#include <utility>
#include <vector>

#include "backend/register_backends.hpp"

namespace quml::serve {

namespace {

/// Thrown by the admitted hook to refuse a job as SHED (nothing is queued).
struct ShedSignal {
  std::string detail;
};

}  // namespace

const char* to_string(SubmitOutcome outcome) noexcept {
  switch (outcome) {
    case SubmitOutcome::Accepted: return "ACCEPTED";
    case SubmitOutcome::Rejected: return "REJECTED";
    case SubmitOutcome::Shed: return "SHED";
  }
  return "?";
}

JobDaemon::JobDaemon(DaemonConfig config)
    : config_(std::move(config)), store_(config_.store_path), svc_(config_.service) {
  backend::register_builtin_backends();  // idempotent; the daemon may be first
  std::vector<PendingJob> pending;
  {
    MutexLock lock(mutex_);
    next_ticket_ = store_.next_ticket();
    pending = store_.pending();
  }
  // Crash recovery: every enqueued-but-unsettled job in the journal goes
  // back into the service with its original ticket and bundle.
  for (PendingJob& job : pending) replay_(std::move(job));
}

JobDaemon::~JobDaemon() { stop(); }

const TenantPolicy& JobDaemon::policy_for_(const std::string& tenant) const {
  const auto it = config_.tenants.find(tenant);
  return it != config_.tenants.end() ? it->second : config_.default_policy;
}

void JobDaemon::replay_(PendingJob job) {
  const std::uint64_t ticket = job.ticket;
  const auto adopt = [&](svc::JobHandle handle) {
    MutexLock lock(mutex_);
    Record& record = records_[ticket];
    record.tenant = job.tenant;
    record.job = std::move(handle);
    ++unsettled_;
    ++counters_.replayed;
  };
  svc::SubmitOptions options;
  options.tenant = job.tenant;
  options.weight = policy_for_(job.tenant).weight;
  options.admitted = adopt;
  options.settled = [this, ticket](const svc::JobHandle& handle) { on_settled_(ticket, handle); };
  try {
    svc_.submit(std::move(job.bundle), std::move(options));
  } catch (const std::exception& e) {
    // No longer admissible (say, its engine is gone): it settles FAILED now
    // rather than replaying on every boot.
    adopt(svc::JobHandle());
    settle_(ticket, svc::JobStatus::Failed, "", e.what(), 0, std::nullopt);
  }
}

SubmitReply JobDaemon::submit(const std::string& tenant, core::JobBundle bundle) {
  SubmitReply reply;
  reply.outcome = SubmitOutcome::Rejected;
  if (tenant.empty()) {
    reply.detail = "tenant identity required";
    MutexLock lock(mutex_);
    ++counters_.rejected;
    return reply;
  }

  const TenantPolicy& policy = policy_for_(tenant);
  PendingJob journalled{0, tenant, bundle};  // what the enqueue record persists
  // Minted by the admitted hook, read by the settled hook (which cannot run
  // before the job is queued, i.e. after admission returned).
  const auto ticket = std::make_shared<std::uint64_t>(0);
  svc::SubmitOptions options;
  options.tenant = tenant;
  options.weight = policy.weight;
  options.max_queued = policy.max_queued;
  options.admitted = [&](const svc::JobHandle& job) {
    MutexLock lock(mutex_);
    if (stopping_ || quiescing_) throw ShedSignal{"daemon is shutting down"};
    journalled.ticket = next_ticket_;
    try {
      store_.append_enqueue(journalled);  // persisted before it can run
    } catch (const Error& e) {
      // Journal failure (e.g. disk full): the job was never accepted, and
      // the caller's thread — possibly the server's poll loop — must hear
      // that as a reply, not an exception.  The unused ticket is not burned.
      throw ShedSignal{std::string("job store append failed: ") + e.what()};
    }
    *ticket = next_ticket_++;
    Record& record = records_[*ticket];
    record.tenant = tenant;
    record.job = job;
    ++counters_.accepted;
    ++unsettled_;
  };
  options.settled = [this, ticket](const svc::JobHandle& job) { on_settled_(*ticket, job); };

  // Routing, the capacity check and the admission analysis all run inside
  // svc_.submit: any synchronous throw there is a job that could never run.
  try {
    svc_.submit(std::move(bundle), std::move(options));
    reply.outcome = SubmitOutcome::Accepted;
    reply.ticket = *ticket;
    return reply;
  } catch (const ShedSignal& shed) {
    reply.outcome = SubmitOutcome::Shed;
    reply.detail = shed.detail;
  } catch (const svc::QueueFullError& e) {
    reply.outcome = SubmitOutcome::Shed;
    reply.detail = e.what();
  } catch (const std::exception& e) {
    reply.detail = e.what();
  }
  MutexLock lock(mutex_);
  if (reply.outcome == SubmitOutcome::Rejected && stopping_) {
    // After stop() the service itself refuses: shutdown, not a defect.
    reply.outcome = SubmitOutcome::Shed;
    reply.detail = "daemon is shutting down";
  }
  ++(reply.outcome == SubmitOutcome::Shed ? counters_.shed : counters_.rejected);
  return reply;
}

JobInfo JobDaemon::info_locked_(std::uint64_t ticket, const Record& record) const {
  JobInfo info;
  info.known = true;
  info.ticket = ticket;
  info.tenant = record.tenant;
  if (record.job.valid()) {
    // Unsettled: a job the service already finished still reads RUNNING
    // until the settled hook has cached its outcome here.
    info.status = record.job.status() == svc::JobStatus::Queued ? "QUEUED" : "RUNNING";
  } else {
    info.status = svc::to_string(record.status);
  }
  info.engine = record.engine;
  info.error = record.error;
  info.attempts = record.attempts;
  info.result = record.result;
  return info;
}

JobInfo JobDaemon::info(const std::string& tenant, std::uint64_t ticket) const {
  MutexLock lock(mutex_);
  const auto it = records_.find(ticket);
  if (it == records_.end() || it->second.tenant != tenant) return JobInfo{};
  return info_locked_(ticket, it->second);
}

bool JobDaemon::wait_for(const std::string& tenant, std::uint64_t ticket,
                         std::chrono::milliseconds timeout) const {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  MutexLock lock(mutex_);
  for (;;) {
    const auto it = records_.find(ticket);
    if (it == records_.end() || it->second.tenant != tenant) return true;
    if (svc::is_terminal(it->second.status)) return true;
    if (settled_cv_.wait_until(mutex_, deadline) == std::cv_status::timeout) {
      const auto again = records_.find(ticket);
      return again == records_.end() || svc::is_terminal(again->second.status);
    }
  }
}

void JobDaemon::quiesce() {
  MutexLock lock(mutex_);
  quiescing_ = true;
}

void JobDaemon::drain() {
  MutexLock lock(mutex_);
  while (unsettled_ > 0) settled_cv_.wait(mutex_);
}

void JobDaemon::stop() {
  std::vector<svc::JobHandle> live;
  {
    MutexLock lock(mutex_);
    stopping_ = true;
    for (const auto& [ticket, record] : records_)
      if (record.job.valid()) live.push_back(record.job);
  }
  // Abandon the backlog to the store: a cancelled job settles without a
  // settle record (on_settled_), so it replays on the next boot.  Running
  // jobs refuse the cancel; shutdown() lets them finish and settle.
  for (const svc::JobHandle& job : live) job.cancel();
  svc_.shutdown();
}

JobDaemon::Stats JobDaemon::stats() const {
  MutexLock lock(mutex_);
  Stats stats = counters_;
  for (const auto& [ticket, record] : records_) {
    if (!record.job.valid()) continue;
    ++(record.job.status() == svc::JobStatus::Queued ? stats.queued : stats.in_flight);
  }
  return stats;
}

void JobDaemon::set_settle_callback(SettleCallback callback) {
  MutexLock lock(callback_mutex_);
  on_settle_ = std::move(callback);
}

void JobDaemon::on_settled_(std::uint64_t ticket, const svc::JobHandle& job) {
  svc_.forget(job.id());  // the daemon's record is the only one kept
  const svc::JobStatus status = job.status();
  if (status == svc::JobStatus::Cancelled) {
    // Only stop() cancels: the job stays pending in the journal.
    {
      MutexLock lock(mutex_);
      records_.erase(ticket);
      --unsettled_;
    }
    settled_cv_.notify_all();
    return;
  }
  std::optional<core::ExecutionResult> result;
  std::string error;
  if (status == svc::JobStatus::Done) {
    result = job.result();
  } else {
    error = job.error();
  }
  settle_(ticket, status, job.engine(), std::move(error), job.attempts(), std::move(result));
}

void JobDaemon::settle_(std::uint64_t ticket, svc::JobStatus status, std::string engine,
                        std::string error, std::size_t attempts,
                        std::optional<core::ExecutionResult> result) {
  JobInfo info;
  {
    MutexLock lock(mutex_);
    const auto it = records_.find(ticket);
    if (it == records_.end()) return;
    Record& record = it->second;
    record.job = svc::JobHandle();
    record.status = status;
    record.engine = std::move(engine);
    record.error = std::move(error);
    record.attempts = attempts;
    record.result = std::move(result);
    try {
      store_.append_settle(ticket, svc::to_string(status));
      if (store_.settled_records() >= config_.compact_after_settles) store_.compact();
    } catch (const Error&) {
      // Journal trouble must not take the worker down; worst case the job
      // replays (deterministically) on the next boot.
    }
    ++counters_.settled;
    --unsettled_;
    info = info_locked_(ticket, record);
    // Retention: only the newest `settled_retention` settled records stay
    // queryable; older ones are evicted so memory tracks the backlog, not
    // the daemon's lifetime job count.
    settled_order_.push_back(ticket);
    while (settled_order_.size() > config_.settled_retention) {
      records_.erase(settled_order_.front());
      settled_order_.pop_front();
    }
  }
  settled_cv_.notify_all();
  {
    // Serialized against set_settle_callback (see the header): holding the
    // callback mutex across the call is what makes unhooking a barrier.
    MutexLock lock(callback_mutex_);
    if (on_settle_) on_settle_(info);
  }
}

}  // namespace quml::serve
