#include "ckpt/async_engine.hpp"

#include <string>
#include <utility>

#include "ckpt/scrubber.hpp"
#include "ckpt/store_service.hpp"
#include "telemetry/forensics.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"
#include "util/clock.hpp"
#include "util/log.hpp"

namespace skt::ckpt {

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

bool CommitTicket::poll() const {
  if (!state_) return true;
  std::lock_guard lock(state_->mutex);
  return state_->done;
}

CommitStats CommitTicket::wait() const {
  if (!state_) return {};
  std::unique_lock lock(state_->mutex);
  state_->cv.wait(lock, [&] { return state_->done; });
  if (state_->error) std::rethrow_exception(state_->error);
  return state_->stats;
}

AsyncCommitEngine::AsyncCommitEngine(CheckpointProtocol& protocol, mpi::Comm world,
                                     mpi::Comm group, int world_rank)
    : protocol_(protocol),
      world_(std::move(world)),
      group_(std::move(group)),
      world_rank_(world_rank),
      worker_([this] { worker_loop(); }) {}

AsyncCommitEngine::~AsyncCommitEngine() {
  // Drain without throwing: if the in-flight epoch failed the job is
  // aborting and the rank thread is already unwinding — the worker just
  // needs to reach its queue wait so the join below can't deadlock.
  try {
    last_ticket().wait();
  } catch (...) {  // NOLINT(bugprone-empty-catch)
  }
  {
    std::lock_guard lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  worker_.join();
}

CommitTicket AsyncCommitEngine::last_ticket() const {
  std::lock_guard lock(mutex_);
  return last_;
}

void AsyncCommitEngine::drain() { last_ticket().wait(); }

CommitTicket AsyncCommitEngine::commit_async(mpi::Comm& sync_group) {
  // Bounded staleness: at most one epoch in flight. Waiting on the
  // previous ticket also protects the staging buffer — the worker is
  // done reading it before stage() overwrites it. A failed previous
  // epoch rethrows here, on the rank thread, where the launcher's
  // restart logic can see it.
  drain();

  double stage_s = 0.0;
  {
    SKT_SPAN("ckpt.async.stage");
    stage_s = protocol_.stage();
  }
  sync_group.failpoint("ckpt.async_stage");
  // The "checkpoint" timer is the application-visible critical-path cost;
  // for an async commit that is the stage copy alone.
  sync_group.record_time("checkpoint", stage_s);

  CommitTicket ticket;
  ticket.state_ = std::make_shared<CommitTicket::State>();
  ticket.state_->stage_s = stage_s;
  {
    std::lock_guard lock(mutex_);
    pending_ = ticket.state_;
    pending_stage_s_ = stage_s;
    last_ = ticket;
  }
  cv_.notify_all();
  return ticket;
}

void AsyncCommitEngine::worker_loop() {
  util::set_thread_label("ckpt-worker " + std::to_string(world_rank_));
  telemetry::set_thread_async_worker(world_rank_);
  for (;;) {
    std::shared_ptr<CommitTicket::State> state;
    double stage_s = 0.0;
    {
      std::unique_lock lock(mutex_);
      cv_.wait(lock, [&] { return stop_ || pending_ != nullptr; });
      if (pending_ == nullptr) return;  // stop with an empty queue
      state = std::exchange(pending_, nullptr);
      stage_s = pending_stage_s_;
    }
    run_job(state, stage_s);
    {
      std::lock_guard lock(state->mutex);
      if (state->error) {
        // The pipeline died (typically JobAborted from a node failure).
        // Stay alive so the destructor's join works, but accept no more
        // work: any queued ticket would observe torn collective state.
        break;
      }
    }
  }
  // Failure path: complete any job enqueued after the failure with the
  // same error so no ticket waits forever.
  for (;;) {
    std::shared_ptr<CommitTicket::State> state;
    {
      std::unique_lock lock(mutex_);
      cv_.wait(lock, [&] { return stop_ || pending_ != nullptr; });
      if (pending_ == nullptr) return;
      state = std::exchange(pending_, nullptr);
    }
    {
      std::lock_guard lock(state->mutex);
      state->error = std::make_exception_ptr(
          std::runtime_error("ckpt: async worker stopped after a failed epoch"));
      state->done = true;
    }
    state->cv.notify_all();
  }
}

void AsyncCommitEngine::run_job(const std::shared_ptr<CommitTicket::State>& state,
                                double stage_s) {
  util::WallTimer timer;
  CommitStats stats;
  std::exception_ptr error;
  try {
    SKT_SPAN("ckpt.async.pipeline");
    // The service serializes commit windows across tenants, so concurrent
    // jobs' pipelines share the store bandwidth instead of piling up.
    stats = run_commit(store_service_, tenant_, scrubber_, world_rank_,
                       [&] { return protocol_.commit_staged({world_, group_}); });
  } catch (...) {
    error = std::current_exception();
  }
  const double worker_s = timer.seconds();

  if (!error) {
    group_.record_time("ckpt_worker", worker_s);
    auto& metrics = telemetry::metrics();
    metrics.histogram("ckpt.async.stage_s").record(stage_s);
    metrics.histogram("ckpt.async.worker_s").record(worker_s);
    // Fraction of the full commit hidden from the critical path.
    const double total = stage_s + worker_s;
    if (total > 0.0) {
      metrics.gauge("ckpt.async.overlap_fraction").set(worker_s / total);
    }
  }

  {
    std::lock_guard lock(state->mutex);
    state->stats = stats;
    state->error = error;
    state->done = true;
  }
  state->cv.notify_all();
}

}  // namespace skt::ckpt
