// StoreService — checkpoint storage as a shared, multi-tenant service.
//
// One StoreService per cluster owns the checkpoint-memory budget that the
// per-node PersistentStores and the (optional) shared storage::Vault
// provide, and serves many concurrent jobs. Each job registers as a named
// TENANT and opens its ckpt::Sessions against that namespace
// (SessionBuilder::tenant("hpl-a").service(&svc)):
//
//   * Namespace isolation — every segment key and vault key the tenant's
//     protocols create is prefixed with "ns/<tenant>/" and the segment is
//     owner-tagged in the PersistentStore, so one tenant's restore or
//     scrub can never read (or silently overwrite) another tenant's
//     stripes. Collisions fail loudly (persistent_store.hpp).
//
//   * Admission control — Session::open() asks the service for a lease
//     BEFORE the protocol allocates anything, against the Table 1
//     footprint estimate (plan.hpp). Over the tenant's quota → an
//     immediate, loud QuotaExceeded. Over the service-wide capacity →
//     the open QUEUES (FIFO of whole-job reservations, so two half-
//     admitted jobs can never deadlock on each other) and fails with
//     AdmissionTimeout when capacity never frees up.
//
//   * Fair-share commit dispatch — independent jobs' commit pipelines
//     (sync commits on rank threads, async commits on each Session's
//     worker) multiplex over the shared memory/NIC. The service runs a
//     tenant-granularity turnstile: at most `max_concurrent_commits`
//     tenants hold an active commit window, a window admits exactly one
//     entry per open session (one collective epoch), and the tenant then
//     re-queues behind the others — round-robin over epochs. Entry for a
//     rank of an ACTIVE tenant never blocks, so a collective commit can
//     always complete once its tenant holds the window (no cross-tenant
//     deadlock by construction). The queue is FIFO, so a waiting tenant
//     sees at most (tenants - 1) * max_concurrent_commits windows go to
//     others before its own (TenantStats::max_bypass).
//
// Telemetry: the service publishes store.* metrics (per-tenant reserved
// bytes, quotas, commit counts/bytes/throughput, admission waits, and a
// min/max per-tenant commit-slowdown fairness ratio) into the
// process-wide registry, so every RunReport carries the multi-tenant
// picture.
#pragma once

#include <cstddef>
#include <cstdint>
#include <condition_variable>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "ckpt/errors.hpp"

namespace skt::storage {
class Vault;
}

namespace skt::ckpt {

struct TenantConfig {
  std::string name;
  /// Reserved-byte ceiling across ALL of this tenant's open sessions
  /// (estimates, per plan.hpp); 0 = unlimited.
  std::size_t quota_bytes = 0;
};

struct StoreServiceConfig {
  /// Service-wide checkpoint-memory budget the admission queue enforces;
  /// 0 = unbounded (quotas still apply).
  std::size_t capacity_bytes = 0;
  /// Tenants allowed to run commit pipelines concurrently (the fair-share
  /// window width). 1 = strict round-robin over epochs.
  int max_concurrent_commits = 2;
  /// A queued open gives up (AdmissionTimeout) after this long.
  double admission_timeout_s = 30.0;
  /// Shared durable tier handed to every tenant Session (level-2 flushes,
  /// BLCR images) under its namespace prefix; may be nullptr. One shard
  /// off the cluster by default, or sharded across node-local devices.
  storage::Vault* vault = nullptr;
};

/// Per-tenant service statistics (a snapshot; see tenant_stats()).
struct TenantStats {
  std::string name;
  std::size_t quota_bytes = 0;
  std::size_t reserved_bytes = 0;  ///< admitted estimate currently held
  int open_sessions = 0;           ///< admitted, not yet released
  std::uint64_t commits = 0;       ///< rank-commits completed
  std::uint64_t committed_bytes = 0;
  std::uint64_t windows = 0;       ///< commit windows completed (epochs dispatched)
  double gate_wait_s = 0.0;        ///< total seconds spent blocked at the turnstile
  double busy_s = 0.0;             ///< total accounted commit seconds
  /// Most windows dispatched to other tenants during one wait of this
  /// tenant in the dispatch queue. FIFO dispatch bounds it by
  /// (tenants - 1) * max_concurrent_commits, whatever the OS scheduler
  /// does; a starved tenant's grows with the others' commits.
  std::uint64_t max_bypass = 0;
  /// Attained commit bandwidth: committed_bytes over the tenant's demand
  /// time (gate_wait_s + commit busy seconds). Idle/compute/restart gaps
  /// don't count, so the figure is comparable across tenants with
  /// different lifetimes.
  double throughput_Bps = 0.0;
};

class StoreService {
 public:
  explicit StoreService(StoreServiceConfig config = {});

  /// Force-fails queued admissions (their opens throw AdmissionTimeout),
  /// waits out in-flight commit windows and blocked waiters, then tears
  /// down. The service must outlive its Sessions' release() calls — hold
  /// leases only while the service exists.
  ~StoreService();

  StoreService(const StoreService&) = delete;
  StoreService& operator=(const StoreService&) = delete;

  // ---------------------------------------------------------- tenants --
  /// Throws ConfigError("tenant", ...) on an empty or duplicate name.
  void register_tenant(const TenantConfig& config);

  [[nodiscard]] bool has_tenant(const std::string& name) const;

  /// "ns/<tenant>/" — prepended to every segment/vault key of the tenant
  /// and used as the PersistentStore owner tag.
  [[nodiscard]] static std::string namespace_prefix(const std::string& tenant);

  [[nodiscard]] storage::Vault* vault() const { return config_.vault; }
  [[nodiscard]] const StoreServiceConfig& config() const { return config_; }

  // -------------------------------------------------------- admission --
  /// Called by Session::open() on every rank, collectively. The first
  /// rank of a job to arrive reserves `per_rank_bytes * expected_ranks`
  /// as one atomic whole-job lease (queueing FIFO while the service is
  /// over capacity); the job's other ranks join that lease without
  /// reserving again. Returns a lease id for release().
  /// Throws ConfigError (unknown tenant), QuotaExceeded (tenant quota),
  /// or AdmissionTimeout (capacity never freed / service shut down).
  std::uint64_t admit(const std::string& tenant, std::size_t per_rank_bytes,
                      int expected_ranks);

  /// Release one rank's admission (Session teardown). Frees that rank's
  /// share; when every attached rank has released, any remainder of the
  /// whole-job reservation is freed too.
  void release(std::uint64_t lease_id) noexcept;

  // ----------------------------------------------- fair-share dispatch --
  /// Blocks until `tenant` holds an active commit window with entry slots
  /// left, then takes one slot. Ranks of an already-active tenant pass
  /// straight through (a collective epoch can always complete).
  void begin_commit(const std::string& tenant);

  /// Returns the slot taken by begin_commit and accounts the commit.
  /// `bytes` is the payload the epoch moved (0 for a failed commit).
  void end_commit(const std::string& tenant, std::size_t bytes, double seconds) noexcept;

  // ---------------------------------------------------- introspection --
  [[nodiscard]] std::size_t capacity_bytes() const { return config_.capacity_bytes; }
  [[nodiscard]] std::size_t bytes_in_use() const;
  [[nodiscard]] std::size_t tenant_bytes(const std::string& name) const;
  [[nodiscard]] int tenant_count() const;
  [[nodiscard]] TenantStats tenant_stats(const std::string& name) const;
  [[nodiscard]] std::vector<TenantStats> all_tenant_stats() const;

  /// min / max of per-tenant commit slowdown — demand time (gate wait +
  /// busy) over busy time — across tenants that completed at least two
  /// commit windows; one-epoch bystanders have no sustained demand to
  /// compare and are excluded. Each tenant is normalized by its own
  /// service time, so slow and fast commit paths compare on equal
  /// footing. 1.0 with fewer than two such tenants; fair dispatch keeps
  /// the ratio well above 0.5, while a starved tenant's gate-wait
  /// balloons its slowdown and drags the ratio toward 0. A wall-clock
  /// gauge: with tiny commits both terms are thread wake-ups, so it
  /// measures the OS scheduler as much as the turnstile. The exact
  /// property the turnstile guarantees is TenantStats::max_bypass.
  [[nodiscard]] double fairness_ratio() const;

  /// What FIFO dispatch guarantees every TenantStats::max_bypass stays
  /// within: (tenants - 1) * max_concurrent_commits. Published as
  /// store.bypass_bound, beside each tenant's store.tenant.<name>.max_bypass.
  [[nodiscard]] std::uint64_t bypass_bound() const;

  /// Re-publish every store.* gauge into telemetry::metrics() (also done
  /// incrementally on admit/release/end_commit).
  void publish_gauges() const;

 private:
  struct Tenant {
    TenantConfig config;
    std::size_t reserved_bytes = 0;
    int open_sessions = 0;
    std::uint64_t commits = 0;
    std::uint64_t committed_bytes = 0;
    std::uint64_t windows = 0;  ///< commit windows closed
    double busy_s = 0.0;        ///< accounted commit seconds
    double gate_wait_s = 0.0;   ///< seconds blocked in begin_commit
    // Dispatch turnstile state.
    bool active = false;   ///< holds a commit window
    bool queued = false;   ///< waiting in dispatch_queue_
    std::uint64_t bypass = 0;      ///< windows dispatched to others in this wait
    std::uint64_t max_bypass = 0;  ///< largest `bypass` of any wait
    int entered = 0;       ///< entries taken in this activation
    int in_flight = 0;     ///< entries not yet ended
  };

  struct Lease {
    std::uint64_t id = 0;
    std::string tenant;
    std::size_t per_rank_bytes = 0;
    int expected_ranks = 0;
    int attached = 0;
    int released = 0;
    std::size_t reserved_bytes = 0;  ///< remaining whole-job reservation
    bool granted = false;
    bool failed = false;  ///< timed out / service shut down
  };

  [[nodiscard]] Tenant& tenant_ref(const std::string& name);
  [[nodiscard]] const Tenant* find_tenant(const std::string& name) const;
  /// Activate queued tenants while window slots are free. Lock held.
  void schedule_locked();
  /// Deactivate `t` when its activation is spent. Lock held.
  void maybe_close_window_locked(Tenant& t);
  [[nodiscard]] double fairness_ratio_locked() const;
  [[nodiscard]] std::uint64_t bypass_bound_locked() const;
  void publish_tenant_gauges_locked(const std::string& name, const Tenant& t) const;
  void publish_service_gauges_locked() const;

  StoreServiceConfig config_;
  mutable std::mutex mutex_;
  std::condition_variable admission_cv_;
  std::condition_variable dispatch_cv_;
  bool shutdown_ = false;

  std::map<std::string, Tenant> tenants_;
  std::map<std::uint64_t, Lease> leases_;  ///< open (not fully released)
  std::deque<std::uint64_t> admission_queue_;  ///< lease ids waiting FIFO
  std::deque<std::string> dispatch_queue_;     ///< tenants waiting for a window
  std::uint64_t next_lease_id_ = 1;
  std::size_t reserved_total_ = 0;
  int active_windows_ = 0;
  int waiters_ = 0;  ///< threads blocked in admit()/begin_commit() waits
};

/// RAII commit-gate guard that the Session's commit bracket (run_commit in
/// session.cpp) holds around one collective commit. Tolerates a null
/// service (single-tenant sessions).
class CommitGate {
 public:
  CommitGate(StoreService* service, const std::string& tenant)
      : service_(service), tenant_(tenant) {
    if (service_ != nullptr) service_->begin_commit(tenant_);
  }
  ~CommitGate() {
    if (service_ != nullptr) service_->end_commit(tenant_, bytes_, seconds_);
  }
  CommitGate(const CommitGate&) = delete;
  CommitGate& operator=(const CommitGate&) = delete;

  /// Account the epoch's payload before the gate closes.
  void account(std::size_t bytes, double seconds) {
    bytes_ = bytes;
    seconds_ = seconds;
  }

 private:
  StoreService* service_;
  std::string tenant_;
  std::size_t bytes_ = 0;
  double seconds_ = 0.0;
};

}  // namespace skt::ckpt
