#include "ckpt/session.hpp"

#include <condition_variable>
#include <functional>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>

#include "ckpt/plan.hpp"
#include "telemetry/forensics.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"
#include "util/clock.hpp"
#include "util/log.hpp"

namespace skt::ckpt {
namespace {

/// One commit's bracket, the same on the rank thread (Session::commit) and
/// on the async worker: take `tenant`'s fair-share turnstile slot (none
/// without a service), then exclude the scrubber (none without one), run
/// `commit`, account its payload to the slot, release both, and only then
/// publish the commit's telemetry and forensic note for `world_rank`.
CommitStats run_commit(StoreService* service, const std::string& tenant, Scrubber* scrubber,
                       int world_rank, const std::function<CommitStats()>& commit) {
  CommitStats stats;
  {
    CommitGate gate(service, tenant);
    util::WallTimer timer;
    // A scrub pass gives way, so this waits at most one chunk copy.
    std::unique_lock<std::mutex> scrub_lock;
    if (scrubber != nullptr) scrub_lock = scrubber->lock_for_commit();
    stats = commit();
    gate.account(stats.checkpoint_bytes + stats.checksum_bytes, timer.seconds());
  }
  // Telemetry is the Session layer's job; protocols publish none of their own.
  record_commit_telemetry(stats);
  telemetry::forensics::recorder().note_commit(
      world_rank, {stats.epoch, stats.dirty_bytes, stats.dirty_fraction});
  return stats;
}

/// Leave the forensic note a postmortem reads group membership and stripe
/// geometry from. Cheap (one map insert) and always on: the recorder is
/// what makes a kill diagnosable after the rank thread is gone.
void note_session_geometry(mpi::Comm& group, CheckpointProtocol& protocol) {
  telemetry::GroupGeometry geo;
  geo.strategy = std::string(to_string(protocol.strategy()));
  geo.group_size = group.size();
  geo.parity_count = protocol.max_failures();
  geo.members.reserve(static_cast<std::size_t>(group.size()));
  for (int i = 0; i < group.size(); ++i) {
    geo.members.push_back(group.translate(i));
    geo.nodes.push_back(group.node_id_of(i));
  }
  if (!geo.members.empty() && group.size() > 0) {
    geo.group_index = geo.members.front() / group.size();
  }
  geo.data_bytes = protocol.data().size();
  if (const DirtyTracker* t = protocol.dirty_tracker()) {
    geo.stripe_bytes = t->stripe_bytes();
    geo.stripe_count = t->stripe_count();
  }
  const int me = group.world_rank();
  telemetry::forensics::recorder().note_geometry(me, std::move(geo));
}

}  // namespace

// The async commit pipeline: one thread running the collective remainder
// of each staged epoch off the application's critical path. sim::Comm is
// not thread-safe, so the worker runs on communicators dup()'d for its
// exclusive use (its own collective sequence space). At most one job is
// ever posted: commit_async() drains the previous ticket first, so the
// staging buffer is never overwritten while the worker still reads it.
//
// Because commit_async() is collective (every rank stages, every worker
// runs the same collectives), the drain in the destructor is collectively
// symmetric: either all workers finish the epoch or the job aborts and
// the mailbox interrupts wake every blocked worker with JobAborted.
struct Session::Worker {
  /// dup() is communication-free but the derivation is ordered: every
  /// rank dups world first, then its group (member order).
  Worker(mpi::Comm& rank_world, mpi::Comm& rank_group)
      : world(rank_world.dup()),
        group(rank_group.dup()),
        thread([this, rank = world.world_rank()] { loop(rank); }) {}

  /// Waits out the last ticket (swallowing its failure: the job is tearing
  /// down anyway, and the worker only has to reach its slot wait so the
  /// join below cannot deadlock), then stops and joins the thread.
  ~Worker() {
    try {
      last.wait();
    } catch (...) {  // NOLINT(bugprone-empty-catch)
    }
    {
      std::lock_guard lock(mutex);
      stop = true;
    }
    cv.notify_all();
    thread.join();
  }

  Worker(const Worker&) = delete;
  Worker& operator=(const Worker&) = delete;

  void post(std::packaged_task<CommitStats()> task) {
    {
      std::lock_guard lock(mutex);
      job = std::move(task);
    }
    cv.notify_all();
  }

  /// Runs each posted job; a failed job's exception lands in its ticket
  /// and the thread goes back to waiting.
  void loop(int world_rank) {
    util::set_thread_label("ckpt-worker " + std::to_string(world_rank));
    telemetry::set_thread_async_worker(world_rank);
    std::unique_lock lock(mutex);
    for (;;) {
      cv.wait(lock, [&] { return stop || job.valid(); });
      if (!job.valid()) return;  // stop with an empty slot
      std::packaged_task<CommitStats()> run = std::move(job);
      lock.unlock();
      run();
      lock.lock();
    }
  }

  mpi::Comm world;
  mpi::Comm group;
  std::mutex mutex;
  std::condition_variable cv;
  bool stop = false;
  std::packaged_task<CommitStats()> job;  ///< the one slot; empty once taken
  CommitTicket last;                      ///< rank thread only
  std::thread thread;                     // last member: starts after the rest
};

Session SessionBuilder::build(mpi::Comm& world) const {
  // Unified configuration validation: every misconfigured knob reports
  // through ConfigError with its field name, before anything is built.
  if (strategy_ == Strategy::kNone) {
    throw ConfigError("strategy", "Strategy::kNone has no checkpoint protocol");
  }
  if (strategy_ == Strategy::kBlcr && params_.level2_flush_every > 0) {
    throw ConfigError("level2_flush_every",
                      "Strategy::kBlcr already writes every commit to the vault");
  }
  if (params_.data_bytes == 0) {
    throw ConfigError("data_bytes", "must be > 0");
  }
  if (group_size_ < 0) {
    throw ConfigError("group_size", "must be >= 0 (0 = one job-wide group)");
  }
  if (group_.has_value() && group_size_ > 0) {
    throw ConfigError("group_size", "mutually exclusive with group(): pass one, not both");
  }
  if (group_size_ > 0 && world.size() % group_size_ != 0) {
    throw ConfigError("group_size", "must divide the world size (world " +
                                        std::to_string(world.size()) + ", group size " +
                                        std::to_string(group_size_) + ")");
  }
  if (params_.parity_degree < 1) {
    throw ConfigError("parity_degree", "must be >= 1");
  }
  const int effective_group = group_.has_value() ? group_->size()
                              : group_size_ > 0  ? group_size_
                                                 : world.size();
  const bool group_coded = strategy_ == Strategy::kSelf || strategy_ == Strategy::kDouble;
  if (group_coded && params_.parity_degree >= 2 &&
      effective_group < params_.parity_degree + 2) {
    throw ConfigError("parity_degree",
                      "RS(k, m) parity needs group size >= parity_degree + 2 (group size " +
                          std::to_string(effective_group) + ", parity_degree " +
                          std::to_string(params_.parity_degree) + ")");
  }
  if (service_ != nullptr && tenant_.empty()) {
    throw ConfigError("tenant", "service() is set but no tenant() name was given");
  }
  if (service_ == nullptr && !tenant_.empty()) {
    throw ConfigError("service", "tenant() is set but no StoreService was given");
  }
  if (service_ != nullptr && !service_->has_tenant(tenant_)) {
    throw ConfigError("tenant",
                      "unknown tenant '" + tenant_ + "' (register it with the StoreService first)");
  }

  FactoryParams params = params_;
  params.async_staging = (mode_ == CommitMode::kAsync);
  if (service_ != nullptr) {
    // Namespace isolation: every segment and vault key this session
    // creates lives under the tenant prefix, and the segments carry the
    // namespace as their owner tag — a colliding key from another tenant
    // is refused by the PersistentStore instead of silently shared.
    const std::string ns = StoreService::namespace_prefix(tenant_);
    params.key_prefix = ns + params.key_prefix;
    params.owner = ns;
    if (params.vault == nullptr) params.vault = service_->vault();
  }
  if (strategy_ == Strategy::kBlcr && params.vault == nullptr) {
    throw ConfigError("vault", "required for Strategy::kBlcr");
  }
  if (params.level2_flush_every > 0 && params.vault == nullptr) {
    throw ConfigError("vault", "required for level2_flush_every");
  }

  std::unique_ptr<mpi::Comm> group;
  if (group_.has_value()) {
    group = std::make_unique<mpi::Comm>(*group_);
  } else {
    const int color = group_size_ > 0 ? world.rank() / group_size_ : 0;
    group = std::make_unique<mpi::Comm>(world.split(color, world.rank()));
  }

  std::unique_ptr<CheckpointProtocol> protocol = make_protocol(strategy_, params);

  // Admission is against the planning estimate of the session's
  // persistent footprint (Table 1 math), computed identically on every
  // rank so the collective admit sees one consistent job reservation.
  std::size_t admit_bytes = 0;
  if (service_ != nullptr) {
    admit_bytes = estimate_session_bytes(strategy_, params.data_bytes, params.user_bytes,
                                         effective_group, params.parity_degree,
                                         params.async_staging,
                                         params.level2_flush_every > 0);
  }

  return Session(world, std::move(group), std::move(protocol), mode_, scrub_interval_s_,
                 service_, tenant_, admit_bytes);
}

Session::Session(mpi::Comm& world, std::unique_ptr<mpi::Comm> group,
                 std::unique_ptr<CheckpointProtocol> protocol, CommitMode mode,
                 double scrub_interval_s, StoreService* service, std::string tenant,
                 std::size_t admit_bytes)
    : world_(&world),
      group_(std::move(group)),
      protocol_(std::move(protocol)),
      mode_(mode),
      scrub_interval_s_(scrub_interval_s),
      service_(service),
      tenant_(std::move(tenant)),
      admit_bytes_(admit_bytes) {
  if (mode_ == CommitMode::kAsync) worker_ = std::make_unique<Worker>(world, *group_);
}

Session::Session(Session&&) noexcept = default;
Session& Session::operator=(Session&&) noexcept = default;
Session::~Session() = default;

void Session::require_open() const {
  if (!opened_) throw std::logic_error("Session: open() has not been called");
}

OpenOutcome Session::open() {
  if (opened_) throw std::logic_error("Session: open() called twice");
  if (service_ != nullptr) {
    // Admission precedes allocation: an over-quota or timed-out open
    // throws here with ZERO segments created, and the lease is released
    // automatically when the Session goes away.
    auto lease = std::make_unique<LeaseHolder>();
    lease->service = service_;
    lease->id = service_->admit(tenant_, admit_bytes_, world_->size());
    lease_ = std::move(lease);
  }
  opened_ = true;
  CommCtx ctx{*world_, *group_};
  if (!protocol_->open(ctx)) {
    note_session_geometry(*group_, *protocol_);
    start_scrubber();
    return OpenOutcome::kFresh;
  }
  const RestoreStats stats = protocol_->restore(ctx);
  note_session_geometry(*group_, *protocol_);
  start_scrubber();
  last_restore_ = stats;
  record_restore_telemetry(stats);
  telemetry::forensics::RestoreNote note;
  note.rank = world_->world_rank();
  note.epoch = stats.epoch;
  note.rebuilt_member = stats.rebuilt_member;
  note.rebuild_s = stats.rebuild_s;
  telemetry::forensics::recorder().note_restore(note);
  return OpenOutcome::kRestored;
}

void Session::start_scrubber() {
  if (scrub_interval_s_ <= 0.0) return;
  Scrubber::Options options;
  options.interval_s = scrub_interval_s_;
  scrubber_ = std::make_unique<Scrubber>(*protocol_, options);
  scrubber_->start();
}

CommitStats Session::commit() {
  require_open();
  drain();
  return run_commit(service_, tenant_, scrubber_.get(), world_->world_rank(),
                    [&] { return protocol_->commit({*world_, *group_}); });
}

CommitTicket Session::commit_async() {
  require_open();
  if (worker_ == nullptr) {
    throw std::logic_error("Session: commit_async() requires CommitMode::kAsync");
  }
  // Bounded staleness: at most one epoch in flight. Waiting on the
  // previous ticket also protects the staging buffer — the worker is
  // done reading it before stage() overwrites it. A failed previous
  // epoch rethrows here, on the rank thread, where the launcher's
  // restart logic can see it.
  drain();

  double stage_s = 0.0;
  {
    SKT_SPAN("ckpt.async.stage");
    stage_s = protocol_->stage();
  }
  group_->failpoint("ckpt.async_stage");
  // The "checkpoint" timer is the application-visible critical-path cost;
  // for an async commit that is the stage copy alone.
  group_->record_time("checkpoint", stage_s);

  // The job holds only heap-stable pointers and its own tenant name, so
  // it runs unchanged when the Session moves while the epoch is in flight.
  std::packaged_task<CommitStats()> job([protocol = protocol_.get(),
                                         scrubber = scrubber_.get(), worker = worker_.get(),
                                         service = service_, tenant = tenant_, stage_s] {
    util::WallTimer timer;
    CommitStats stats;
    {
      SKT_SPAN("ckpt.async.pipeline");
      // The service serializes commit windows across tenants, so concurrent
      // jobs' pipelines share the store bandwidth instead of piling up.
      stats = run_commit(service, tenant, scrubber, worker->world.world_rank(), [&] {
        return protocol->commit_staged({worker->world, worker->group});
      });
    }
    const double worker_s = timer.seconds();
    worker->group.record_time("ckpt_worker", worker_s);
    auto& metrics = telemetry::metrics();
    metrics.histogram("ckpt.async.stage_s").record(stage_s);
    metrics.histogram("ckpt.async.worker_s").record(worker_s);
    // Fraction of the full commit hidden from the critical path.
    const double total = stage_s + worker_s;
    if (total > 0.0) metrics.gauge("ckpt.async.overlap_fraction").set(worker_s / total);
    return stats;
  });
  worker_->last = CommitTicket(job.get_future().share(), stage_s);
  worker_->post(std::move(job));
  return worker_->last;
}

void Session::drain() {
  if (worker_ != nullptr) worker_->last.wait();
}

}  // namespace skt::ckpt
