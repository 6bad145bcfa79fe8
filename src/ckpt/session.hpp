// ckpt::Session — the front door of the checkpoint library.
//
// A Session bundles everything an application previously wired by hand:
// the encoding-group communicator (split from world by group size), the
// concrete CheckpointProtocol (built through the make_protocol SPI, with
// an optional level-2 disk flush), restore-on-open, commit telemetry, and
// — in CommitMode::kAsync — the background commit pipeline.
//
//   auto session = ckpt::SessionBuilder{}
//                      .strategy(ckpt::Strategy::kSelf)
//                      .data_bytes(n)
//                      .user_bytes(sizeof(State))
//                      .mode(ckpt::CommitMode::kAsync)
//                      .build(world);
//   if (session.open() == ckpt::OpenOutcome::kRestored) { ...resume... }
//   ...mutate session.data()...
//   session.commit_async();   // critical path pays only the stage copy
//
// open() performs the restore itself: on a restart it rebuilds
// data()/user_state() from the newest consistent checkpoint and returns
// kRestored; the caller never sequences open/restore by hand.
//
// commit() and commit_async() are collective over the world communicator
// the Session was built from. In async mode at most ONE epoch is in
// flight: a second commit_async() first waits out the previous ticket
// (bounded staleness), and the destructor drains any in-flight commit
// before tearing the worker down.
//
// Multi-tenant operation: pointing the builder at a StoreService and a
// registered tenant (.service(&svc).tenant("hpl-a")) namespaces every
// segment and vault key under "ns/<tenant>/", owner-tags the segments so
// cross-tenant collisions fail loudly, admits the session against the
// tenant's quota BEFORE any segment is allocated (open() throws
// QuotaExceeded / AdmissionTimeout with nothing created), and routes all
// commits — sync and async — through the service's fair-share turnstile.
//
// Every builder misconfiguration throws ckpt::ConfigError (errors.hpp)
// carrying the offending field name; runtime misuse of a correctly built
// Session (commit before open, double open) stays std::logic_error.
//
// Strategy authors and embedders who need the raw state machine can still
// reach the SPI through unsafe_protocol(); see protocol.hpp for that
// contract.
#pragma once

#include <chrono>
#include <cstdint>
#include <future>
#include <memory>
#include <optional>
#include <string>

#include "ckpt/errors.hpp"
#include "ckpt/factory.hpp"
#include "ckpt/protocol.hpp"
#include "ckpt/scrubber.hpp"
#include "ckpt/store_service.hpp"
#include "mpi/comm.hpp"

namespace skt::ckpt {

enum class CommitMode {
  kSync,   ///< commit() runs the full state machine on the calling thread
  kAsync,  ///< commit_async() stages locally; a worker thread encodes/flushes
};

enum class OpenOutcome {
  kFresh,     ///< no committed checkpoint anywhere; caller initializes data
  kRestored,  ///< data()/user_state() rebuilt from the newest checkpoint
};

class Session;

/// Completion handle for one asynchronous commit epoch. Copyable; all
/// copies observe the same completion.
class CommitTicket {
 public:
  CommitTicket() = default;

  /// True once the pipeline finished (successfully or not), and for an
  /// empty ticket. Never blocks.
  [[nodiscard]] bool poll() const {
    return !result_.valid() ||
           result_.wait_for(std::chrono::seconds(0)) == std::future_status::ready;
  }

  /// Block until the pipeline finishes. Returns the commit's stats on
  /// success; rethrows the worker's exception (e.g. mpi::JobAborted when
  /// a node died mid-pipeline) on every call. Idempotent; {} for an empty
  /// ticket.
  CommitStats wait() const { return result_.valid() ? result_.get() : CommitStats{}; }

  /// True when this ticket refers to a real commit (default constructed
  /// tickets are empty and poll() as done).
  [[nodiscard]] bool valid() const { return result_.valid(); }

  /// Seconds the critical-path stage() copy took for this epoch (known at
  /// issue time; 0 for an empty ticket).
  [[nodiscard]] double stage_seconds() const { return stage_s_; }

 private:
  friend class Session;
  CommitTicket(std::shared_future<CommitStats> result, double stage_s)
      : result_(std::move(result)), stage_s_(stage_s) {}

  std::shared_future<CommitStats> result_;
  double stage_s_ = 0.0;
};

/// Fluent configuration for a Session. build() is collective (it splits
/// the encoding-group communicator off `world`), so every rank must call
/// it with identical settings.
class SessionBuilder {
 public:
  SessionBuilder& strategy(Strategy s) { strategy_ = s; return *this; }
  SessionBuilder& data_bytes(std::size_t n) { params_.data_bytes = n; return *this; }
  SessionBuilder& user_bytes(std::size_t n) { params_.user_bytes = n; return *this; }
  SessionBuilder& codec(enc::CodecKind c) { params_.codec = c; return *this; }
  /// Degree m of the group code (enc::GroupCodec) under self and double:
  /// 1 = the single-erasure checksum (default); m >= 2 keeps m parity
  /// rows, RS(k, m), so each group survives m concurrent losses. Requires
  /// group size >= m + 2. Single always keeps one checksum.
  SessionBuilder& parity_degree(int d) { params_.parity_degree = d; return *this; }
  SessionBuilder& key_prefix(std::string p) { params_.key_prefix = std::move(p); return *this; }
  /// Durable store; required for Strategy::kBlcr and level2_flush_every.
  /// Its device (VaultConfig::device) prices every image it stores.
  SessionBuilder& vault(storage::Vault* v) { params_.vault = v; return *this; }
  /// Ranks per encoding group (0 = one job-wide group). Must divide the
  /// world size.
  SessionBuilder& group_size(int n) { group_size_ = n; return *this; }
  /// Hand the Session a pre-built encoding-group communicator (e.g. a
  /// topology-aware one from ckpt::make_group_comm) instead of the plain
  /// rank/group_size split. The Session takes the communicator over; the
  /// caller must not keep using another handle to it.
  SessionBuilder& group(mpi::Comm g) { group_ = std::move(g); return *this; }
  SessionBuilder& mode(CommitMode m) { mode_ = m; return *this; }
  /// > 0 adds level 2 (SCR/FTI-style) to self, single or double: the
  /// committed image goes to the vault every N commits, and a restore that
  /// level 1 cannot serve falls back to the newest disk generation.
  SessionBuilder& level2_flush_every(int n) { params_.level2_flush_every = n; return *this; }
  /// > 0 starts a background scrubber on open(): a low-priority thread
  /// re-verifying the CRC32C of every sealed checkpoint buffer each
  /// `seconds`, repairing mirror-backed corruption in place (scrubber.hpp).
  SessionBuilder& scrub_interval(double seconds) { scrub_interval_s_ = seconds; return *this; }
  /// Open against a shared StoreService (must outlive the Session). Pairs
  /// with tenant(): both or neither.
  SessionBuilder& service(StoreService* s) { service_ = s; return *this; }
  /// The service namespace this session belongs to; must be registered
  /// with the StoreService. Keys gain the "ns/<tenant>/" prefix, open()
  /// admits against the tenant quota, commits take fair-share slots.
  SessionBuilder& tenant(std::string name) { tenant_ = std::move(name); return *this; }

  /// Collective. `world` must outlive the Session. Every misconfiguration
  /// throws ConfigError naming the bad field.
  [[nodiscard]] Session build(mpi::Comm& world) const;

 private:
  Strategy strategy_ = Strategy::kSelf;
  FactoryParams params_;
  int group_size_ = 0;
  std::optional<mpi::Comm> group_;
  CommitMode mode_ = CommitMode::kSync;
  double scrub_interval_s_ = 0.0;
  StoreService* service_ = nullptr;
  std::string tenant_;
};

class Session {
 public:
  Session(Session&&) noexcept;
  Session& operator=(Session&&) noexcept;
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;
  /// Drains any in-flight async commit, then stops the worker.
  ~Session();

  /// Collective. Attaches/creates the checkpoint state; on a restart it
  /// ALSO restores data()/user_state() (recording restore telemetry) and
  /// returns kRestored. Must be called exactly once, before any commit.
  OpenOutcome open();

  /// The protected working buffer / small user-state area (see
  /// CheckpointProtocol). Valid after open().
  [[nodiscard]] std::span<std::byte> data() { return protocol_->data(); }
  [[nodiscard]] std::span<std::byte> user_state() { return protocol_->user_state(); }

  /// Collective synchronous commit. In async mode this first drains the
  /// in-flight epoch, so it is safe to mix the two (e.g. a final sync
  /// commit before shutdown).
  CommitStats commit();

  /// Collective asynchronous commit (CommitMode::kAsync only). Blocks for
  /// the previous epoch if one is still in flight — at most one epoch of
  /// staleness — then stages locally and returns a ticket for the
  /// background encode+flush.
  CommitTicket commit_async();

  /// Wait for any in-flight async commit; rethrows its failure. No-op in
  /// sync mode or when idle.
  void drain();

  /// Stats of the restore open() performed, when it returned kRestored.
  [[nodiscard]] const std::optional<RestoreStats>& last_restore() const {
    return last_restore_;
  }

  [[nodiscard]] CommitMode mode() const { return mode_; }
  [[nodiscard]] Strategy strategy() const { return protocol_->strategy(); }
  [[nodiscard]] std::size_t memory_bytes() const { return protocol_->memory_bytes(); }
  /// Newest locally committed epoch. In async mode call drain() first for
  /// a settled value — the worker publishes it mid-pipeline.
  [[nodiscard]] std::uint64_t committed_epoch() const { return protocol_->committed_epoch(); }

  /// The encoding-group communicator the Session owns (split from world).
  [[nodiscard]] mpi::Comm& group() { return *group_; }

  /// Declare [offset, offset+len) of data() modified since the last
  /// commit/stage so the next commit copies and encodes only the touched
  /// stripes. Optional: protocols treat un-annotated epochs as all-dirty.
  /// An annotated epoch must annotate every write, since its unmarked
  /// stripes count as clean; a fresh run that annotates its first epoch
  /// therefore declares the initial fill with mark_all_dirty(). No-op for
  /// strategies without a dirty tracker.
  void mark_dirty(std::size_t offset, std::size_t len) {
    if (DirtyTracker* t = protocol_->dirty_tracker()) t->mark(offset, len);
  }

  /// Mark the whole working buffer dirty (full-footprint epochs of an
  /// otherwise-annotating application).
  void mark_all_dirty() {
    if (DirtyTracker* t = protocol_->dirty_tracker()) t->mark_all();
  }

  /// SPI escape hatch: the underlying protocol, for tests and embedders
  /// that need calls the Session does not forward (e.g. scrub_view() or
  /// the dirty tracker's state). "unsafe" because calls on it bypass the
  /// Session's drain/scrub/tenant sequencing — the caller owns the
  /// consequences.
  [[nodiscard]] CheckpointProtocol& unsafe_protocol() { return *protocol_; }

  /// The tenant namespace this session runs under ("" single-tenant).
  [[nodiscard]] const std::string& tenant() const { return tenant_; }

  /// The background scrubber, or nullptr when scrub_interval was not set.
  /// Started by open(); tests can call scrubber()->scrub_now() for a
  /// deterministic pass.
  [[nodiscard]] Scrubber* scrubber() { return scrubber_.get(); }

 private:
  friend class SessionBuilder;
  /// The async commit worker (session.cpp): a thread with a one-job slot
  /// and its own dup()'d communicators. Heap-allocated, so a job it runs
  /// never sees the Session move.
  struct Worker;

  Session(mpi::Comm& world, std::unique_ptr<mpi::Comm> group,
          std::unique_ptr<CheckpointProtocol> protocol, CommitMode mode,
          double scrub_interval_s, StoreService* service, std::string tenant,
          std::size_t admit_bytes);

  void require_open() const;
  void start_scrubber();

  /// Releases the rank's admission lease on destruction (move-safe: the
  /// holder travels with the Session).
  struct LeaseHolder {
    StoreService* service = nullptr;
    std::uint64_t id = 0;
    ~LeaseHolder() {
      if (service != nullptr && id != 0) service->release(id);
    }
  };

  mpi::Comm* world_;                             // borrowed; outlives the Session
  std::unique_ptr<mpi::Comm> group_;             // owned encoding group
  std::unique_ptr<CheckpointProtocol> protocol_;
  // Teardown order (reverse of declaration): the worker drains and joins
  // first — its jobs use the scrubber and the protocol — then the
  // scrubber stops its thread, then the admission lease is released, and
  // the protocol and comms go last.
  std::unique_ptr<LeaseHolder> lease_;
  std::unique_ptr<Scrubber> scrubber_;
  std::unique_ptr<Worker> worker_;  // kAsync only
  CommitMode mode_;
  double scrub_interval_s_ = 0.0;
  StoreService* service_ = nullptr;  // borrowed; outlives the Session
  std::string tenant_;
  std::size_t admit_bytes_ = 0;  ///< per-rank estimate admitted at open()
  bool opened_ = false;
  std::optional<RestoreStats> last_restore_;
};

}  // namespace skt::ckpt
