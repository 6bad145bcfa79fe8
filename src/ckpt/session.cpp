#include "ckpt/session.hpp"

#include <stdexcept>
#include <string>
#include <utility>

#include "ckpt/plan.hpp"
#include "telemetry/forensics.hpp"

namespace skt::ckpt {
namespace {

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

  std::unique_ptr<AsyncCommitEngine> engine;
  if (mode_ == CommitMode::kAsync) {
    // The worker thread gets private communicators: sim::Comm is not
    // thread-safe, so it must not share the rank thread's handles. dup()
    // is communication-free but the derivation is ordered — every rank
    // dups world first, then its group.
    engine = std::make_unique<AsyncCommitEngine>(*protocol, world.dup(), group->dup(),
                                                 world.world_rank());
    if (service_ != nullptr) engine->set_store_dispatch(service_, tenant_);
  }

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

  return Session(world, std::move(group), std::move(protocol), std::move(engine), mode_,
                 scrub_interval_s_, service_, tenant_, admit_bytes);
}

Session::Session(mpi::Comm& world, std::unique_ptr<mpi::Comm> group,
                 std::unique_ptr<CheckpointProtocol> protocol,
                 std::unique_ptr<AsyncCommitEngine> engine, CommitMode mode,
                 double scrub_interval_s, StoreService* service, std::string tenant,
                 std::size_t admit_bytes)
    : world_(&world),
      group_(std::move(group)),
      protocol_(std::move(protocol)),
      engine_(std::move(engine)),
      mode_(mode),
      scrub_interval_s_(scrub_interval_s),
      service_(service),
      tenant_(std::move(tenant)),
      admit_bytes_(admit_bytes) {}

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
  if (engine_ != nullptr) {
    engine_->set_scrubber(scrubber_.get());
  }
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
  if (engine_ == nullptr) {
    throw std::logic_error("Session: commit_async() requires CommitMode::kAsync");
  }
  return engine_->commit_async(*group_);
}

void Session::drain() {
  if (engine_ != nullptr) engine_->drain();
}

}  // namespace skt::ckpt
