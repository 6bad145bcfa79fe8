// Asynchronous commit pipeline: a per-process worker thread that drives
// the collective encode/seal/flush state machine off the application's
// critical path.
//
// The split follows the paper's observation that the dominant commit cost
// is the encode + flush, not the snapshot copy: commit_async() pays only
// stage() — a local memcpy into the sealed staging buffer — and hands the
// rest to the worker, which runs CheckpointProtocol::commit_staged() on
// communicators dup()'d for its exclusive use (sim::Comm is not
// thread-safe; per-thread dups give the worker its own collective
// sequence space).
//
// Staleness is bounded to ONE in-flight epoch: a second commit_async()
// first wait()s the previous ticket, so the staging buffer is never
// overwritten while the worker still reads it, and a failure can only
// ever lose the single epoch currently in the pipe.
//
// Because commit_async() is collective (every rank stages, every worker
// runs the same collectives), the drain in the destructor is collectively
// symmetric: either all workers finish the epoch or the job aborts and
// the mailbox interrupts wake every blocked worker with JobAborted.
#pragma once

#include <condition_variable>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "ckpt/protocol.hpp"
#include "mpi/comm.hpp"

namespace skt::ckpt {

class Scrubber;
class StoreService;

/// One commit's bracket, the same on the rank thread (Session::commit) and
/// on the async worker: take `tenant`'s fair-share turnstile slot (none
/// without a service), then exclude the scrubber (none without one), run
/// `commit`, account its payload to the slot, release both, and only then
/// publish the commit's telemetry and forensic note for `world_rank`.
CommitStats run_commit(StoreService* service, const std::string& tenant, Scrubber* scrubber,
                       int world_rank, const std::function<CommitStats()>& commit);

/// Completion handle for one asynchronous commit epoch. Copyable; all
/// copies observe the same completion.
class CommitTicket {
 public:
  CommitTicket() = default;

  /// True once the pipeline finished (successfully or not). Never blocks.
  [[nodiscard]] bool poll() const;

  /// Block until the pipeline finishes. Returns the commit's stats on
  /// success; rethrows the worker's exception (e.g. mpi::JobAborted when
  /// a node died mid-pipeline) on failure. Idempotent.
  CommitStats wait() const;

  /// True when this ticket refers to a real in-flight commit (default
  /// constructed tickets are empty and poll() as done).
  [[nodiscard]] bool valid() const { return state_ != nullptr; }

  /// Seconds the critical-path stage() copy took for this epoch (known at
  /// issue time; 0 for an empty ticket).
  [[nodiscard]] double stage_seconds() const { return state_ ? state_->stage_s : 0.0; }

 private:
  friend class AsyncCommitEngine;
  struct State {
    std::mutex mutex;
    std::condition_variable cv;
    bool done = false;
    double stage_s = 0.0;  // immutable after construction
    CommitStats stats;
    std::exception_ptr error;
  };
  std::shared_ptr<State> state_;
};

/// Owns the worker thread and the single-slot job queue. One engine per
/// Session; constructed only when the Session runs in CommitMode::kAsync.
class AsyncCommitEngine {
 public:
  /// `protocol` must outlive the engine. `world`/`group` are the worker's
  /// private communicators (pass dup()s — the worker runs collectives on
  /// them concurrently with the rank thread's own traffic).
  AsyncCommitEngine(CheckpointProtocol& protocol, mpi::Comm world, mpi::Comm group,
                    int world_rank);

  /// Drains the in-flight ticket (swallowing its failure — the job is
  /// tearing down anyway), then stops and joins the worker.
  ~AsyncCommitEngine();

  AsyncCommitEngine(const AsyncCommitEngine&) = delete;
  AsyncCommitEngine& operator=(const AsyncCommitEngine&) = delete;

  /// Collective across the job. Backpressure: waits for the previous
  /// ticket first (rethrowing its failure), then stages on the calling
  /// thread and enqueues the collective remainder for the worker.
  /// `sync_group` is the rank thread's own group comm, used for the
  /// ckpt.async_stage failpoint and the "checkpoint" critical-path timer.
  CommitTicket commit_async(mpi::Comm& sync_group);

  /// Wait for the in-flight commit, if any, rethrowing its failure.
  void drain();

  /// Serialize the worker's commit_staged() against a background scrubber
  /// (see scrubber.hpp). `scrubber` must outlive the engine; nullptr (the
  /// default) disables the exclusion. Set before the first commit_async().
  void set_scrubber(Scrubber* scrubber) { scrubber_ = scrubber; }

  /// Route the worker's commits through a StoreService's fair-share
  /// turnstile as `tenant` (multi-tenant sessions; see store_service.hpp).
  /// `service` must outlive the engine; set before the first commit_async().
  void set_store_dispatch(StoreService* service, std::string tenant) {
    store_service_ = service;
    tenant_ = std::move(tenant);
  }

  /// The last ticket handed out (empty before the first commit_async).
  [[nodiscard]] CommitTicket last_ticket() const;

 private:
  void worker_loop();
  void run_job(const std::shared_ptr<CommitTicket::State>& state, double stage_s);

  CheckpointProtocol& protocol_;
  mpi::Comm world_;
  mpi::Comm group_;
  int world_rank_ = 0;
  Scrubber* scrubber_ = nullptr;             // borrowed from the Session
  StoreService* store_service_ = nullptr;    // borrowed; multi-tenant only
  std::string tenant_;

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
  /// Single-slot queue: the staged epoch waiting for (or being run by)
  /// the worker. Cleared by the worker when it picks the job up.
  std::shared_ptr<CommitTicket::State> pending_;
  double pending_stage_s_ = 0.0;
  CommitTicket last_;

  std::thread worker_;  // last member: starts after everything is ready
};

}  // namespace skt::ckpt
