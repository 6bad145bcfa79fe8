#include "ckpt/store_service.hpp"

#include <algorithm>
#include <chrono>

#include "telemetry/metrics.hpp"

namespace skt::ckpt {

namespace {

double steady_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Attained commit bandwidth: committed bytes over the tenant's DEMAND
/// time — the seconds it spent waiting at the turnstile plus the seconds
/// its commits ran. Idle gaps (the app computing, a job restarting) don't
/// count, so the number measures what the dispatcher gave the tenant when
/// the tenant actually wanted service — comparable across tenants with
/// different lifetimes and epoch cadences. A starved tenant's wait time
/// balloons and its bandwidth collapses.
double tenant_throughput(std::uint64_t commits, std::uint64_t committed_bytes,
                         double busy_s, double gate_wait_s) {
  if (commits == 0) return 0.0;
  return static_cast<double>(committed_bytes) / std::max(busy_s + gate_wait_s, 1e-9);
}

}  // namespace

StoreService::StoreService(StoreServiceConfig config) : config_(config) {
  if (config_.max_concurrent_commits < 1) {
    throw ConfigError("max_concurrent_commits", "must be >= 1");
  }
  if (config_.admission_timeout_s <= 0.0) {
    throw ConfigError("admission_timeout_s", "must be positive");
  }
}

StoreService::~StoreService() {
  std::unique_lock<std::mutex> lock(mutex_);
  shutdown_ = true;
  // Queued admissions fail loudly (their waiters throw AdmissionTimeout);
  // the waiters themselves clean their lease up on wake.
  for (const std::uint64_t id : admission_queue_) {
    auto it = leases_.find(id);
    if (it != leases_.end()) it->second.failed = true;
  }
  admission_cv_.notify_all();
  dispatch_cv_.notify_all();
  // Drain every thread still inside an admission/dispatch wait and every
  // in-flight commit window, so no rank touches this object's mutex or
  // condition variables after they die. Bounded: a wedged tenant cannot
  // hang teardown forever.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  dispatch_cv_.wait_until(lock, deadline, [this] {
    return waiters_ == 0 &&
           std::all_of(tenants_.begin(), tenants_.end(),
                       [](const auto& kv) { return kv.second.in_flight == 0; });
  });
}

// -------------------------------------------------------------- tenants --

void StoreService::register_tenant(const TenantConfig& config) {
  if (config.name.empty()) {
    throw ConfigError("tenant", "tenant name must be non-empty");
  }
  std::lock_guard<std::mutex> lock(mutex_);
  if (tenants_.contains(config.name)) {
    throw ConfigError("tenant", "duplicate tenant '" + config.name + "'");
  }
  tenants_[config.name].config = config;
  publish_tenant_gauges_locked(config.name, tenants_[config.name]);
  publish_service_gauges_locked();
}

bool StoreService::has_tenant(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return tenants_.contains(name);
}

std::string StoreService::namespace_prefix(const std::string& tenant) {
  return "ns/" + tenant + "/";
}

StoreService::Tenant& StoreService::tenant_ref(const std::string& name) {
  auto it = tenants_.find(name);
  if (it == tenants_.end()) {
    throw ConfigError("tenant", "unknown tenant '" + name + "'");
  }
  return it->second;
}

const StoreService::Tenant* StoreService::find_tenant(const std::string& name) const {
  const auto it = tenants_.find(name);
  return it == tenants_.end() ? nullptr : &it->second;
}

// ------------------------------------------------------------ admission --

std::uint64_t StoreService::admit(const std::string& tenant, std::size_t per_rank_bytes,
                                  int expected_ranks) {
  if (expected_ranks < 1) {
    throw ConfigError("expected_ranks", "must be >= 1");
  }
  const double t0 = steady_seconds();
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(config_.admission_timeout_s));

  std::unique_lock<std::mutex> lock(mutex_);
  Tenant& t = tenant_ref(tenant);

  // A job admits collectively: the first rank to arrive creates a lease
  // reserving the WHOLE job's footprint atomically; the others join it.
  // Partial reservations never block waiting on each other, so two
  // concurrently opening jobs cannot deadlock on a half-granted capacity.
  for (auto& [id, lease] : leases_) {
    if (lease.tenant != tenant || lease.failed ||
        lease.attached >= lease.expected_ranks) {
      continue;
    }
    if (lease.per_rank_bytes != per_rank_bytes ||
        lease.expected_ranks != expected_ranks) {
      continue;
    }
    ++lease.attached;
    const std::uint64_t lease_id = id;
    Lease& joined = lease;
    ++waiters_;
    const bool ok = admission_cv_.wait_until(lock, deadline, [&joined, this] {
      return joined.granted || joined.failed || shutdown_;
    });
    --waiters_;
    dispatch_cv_.notify_all();
    if (!ok || joined.failed || (!joined.granted && shutdown_)) {
      joined.failed = true;
      ++joined.released;
      if (joined.released >= joined.attached && !joined.granted) {
        leases_.erase(lease_id);
      }
      admission_cv_.notify_all();
      telemetry::metrics().counter("store.admission_rejections").increment();
      throw AdmissionTimeout(tenant, per_rank_bytes * static_cast<std::size_t>(expected_ranks),
                             config_.capacity_bytes);
    }
    ++t.open_sessions;
    telemetry::metrics().histogram("store.admission_wait_s").record(steady_seconds() - t0);
    publish_tenant_gauges_locked(tenant, t);
    return lease_id;
  }

  const std::size_t job_bytes =
      per_rank_bytes * static_cast<std::size_t>(expected_ranks);

  // Quota is a per-tenant property: exceeding it is an immediate, loud
  // rejection — waiting could never help.
  if (t.config.quota_bytes > 0 && t.reserved_bytes + job_bytes > t.config.quota_bytes) {
    telemetry::metrics().counter("store.quota_rejections").increment();
    throw QuotaExceeded(tenant, job_bytes, t.config.quota_bytes);
  }

  const std::uint64_t id = next_lease_id_++;
  Lease& lease = leases_[id];
  lease.id = id;
  lease.tenant = tenant;
  lease.per_rank_bytes = per_rank_bytes;
  lease.expected_ranks = expected_ranks;
  lease.attached = 1;

  const auto fits = [this, job_bytes] {
    return config_.capacity_bytes == 0 ||
           reserved_total_ + job_bytes <= config_.capacity_bytes;
  };

  bool queued = false;
  if (shutdown_ || !fits() || !admission_queue_.empty()) {
    // Over capacity (or behind earlier waiters): queue FIFO. Only the
    // front waiter may grant, so a stream of small jobs cannot starve a
    // large one indefinitely.
    admission_queue_.push_back(id);
    queued = true;
    ++waiters_;
    const bool ok = admission_cv_.wait_until(lock, deadline, [&] {
      return shutdown_ ||
             (!admission_queue_.empty() && admission_queue_.front() == id && fits());
    });
    --waiters_;
    dispatch_cv_.notify_all();
    admission_queue_.erase(
        std::find(admission_queue_.begin(), admission_queue_.end(), id));
    admission_cv_.notify_all();  // let the next FIFO waiter re-check
    if (!ok || shutdown_) {
      lease.failed = true;
      ++lease.released;
      if (lease.released >= lease.attached) leases_.erase(id);
      admission_cv_.notify_all();
      telemetry::metrics().counter("store.admission_rejections").increment();
      throw AdmissionTimeout(tenant, job_bytes, config_.capacity_bytes);
    }
  }

  lease.granted = true;
  lease.reserved_bytes = job_bytes;
  reserved_total_ += job_bytes;
  t.reserved_bytes += job_bytes;
  ++t.open_sessions;
  admission_cv_.notify_all();  // joiners wake on granted

  auto& metrics = telemetry::metrics();
  metrics.counter("store.admissions").increment();
  if (queued) metrics.counter("store.admission_waits").increment();
  metrics.histogram("store.admission_wait_s").record(steady_seconds() - t0);
  publish_tenant_gauges_locked(tenant, t);
  publish_service_gauges_locked();
  return id;
}

void StoreService::release(std::uint64_t lease_id) noexcept {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = leases_.find(lease_id);
  if (it == leases_.end()) return;
  Lease& lease = it->second;
  ++lease.released;

  auto tenant_it = tenants_.find(lease.tenant);
  Tenant* t = tenant_it == tenants_.end() ? nullptr : &tenant_it->second;

  if (lease.granted) {
    const std::size_t share = std::min(lease.per_rank_bytes, lease.reserved_bytes);
    lease.reserved_bytes -= share;
    reserved_total_ -= std::min(share, reserved_total_);
    if (t != nullptr) {
      t->reserved_bytes -= std::min(share, t->reserved_bytes);
      if (t->open_sessions > 0) --t->open_sessions;
    }
  }
  if (lease.released >= lease.attached) {
    // Last participant out: ranks that never attached (job died during
    // open) leave a remainder — free it so a relaunch is not starved by
    // a ghost reservation.
    reserved_total_ -= std::min(lease.reserved_bytes, reserved_total_);
    if (t != nullptr) {
      t->reserved_bytes -= std::min(lease.reserved_bytes, t->reserved_bytes);
    }
    leases_.erase(it);
  }
  admission_cv_.notify_all();
  if (t != nullptr) {
    if (t->open_sessions == 0) maybe_close_window_locked(*t);
    publish_tenant_gauges_locked(tenant_it->first, *t);
  }
  publish_service_gauges_locked();
}

// --------------------------------------------------- fair-share dispatch --

void StoreService::begin_commit(const std::string& tenant) {
  const double t0 = steady_seconds();
  std::unique_lock<std::mutex> lock(mutex_);
  Tenant& t = tenant_ref(tenant);
  ++waiters_;
  for (;;) {
    // During shutdown the turnstile opens wide so draining collectives
    // can always finish.
    if (shutdown_) break;
    if (t.active && t.entered < std::max(1, t.open_sessions)) break;
    if (!t.active && !t.queued) {
      t.queued = true;
      dispatch_queue_.push_back(tenant);
      schedule_locked();
      continue;  // may have been activated right away
    }
    dispatch_cv_.wait(lock);
  }
  --waiters_;
  ++t.entered;
  ++t.in_flight;
  const double waited = steady_seconds() - t0;
  t.gate_wait_s += waited;
  telemetry::metrics().histogram("store.commit_gate_wait_s").record(waited);
}

void StoreService::end_commit(const std::string& tenant, std::size_t bytes,
                              double seconds) noexcept {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = tenants_.find(tenant);
  if (it == tenants_.end()) return;
  Tenant& t = it->second;
  if (t.in_flight > 0) --t.in_flight;
  if (bytes > 0) {
    ++t.commits;
    t.committed_bytes += bytes;
    t.busy_s += std::max(seconds, 0.0);
    telemetry::metrics().counter("store.commits").increment();
  }
  maybe_close_window_locked(t);
  dispatch_cv_.notify_all();
  publish_tenant_gauges_locked(tenant, t);
  publish_service_gauges_locked();
}

void StoreService::schedule_locked() {
  while (active_windows_ < config_.max_concurrent_commits && !dispatch_queue_.empty()) {
    const std::string name = dispatch_queue_.front();
    dispatch_queue_.pop_front();
    const auto it = tenants_.find(name);
    if (it == tenants_.end()) continue;
    Tenant& t = it->second;
    t.queued = false;
    t.max_bypass = std::max(t.max_bypass, t.bypass);
    t.bypass = 0;
    if (t.active) continue;
    t.active = true;
    t.entered = 0;
    ++active_windows_;
    for (auto& [other_name, other] : tenants_) {
      if (other.queued) ++other.bypass;
    }
  }
  dispatch_cv_.notify_all();
}

void StoreService::maybe_close_window_locked(Tenant& t) {
  if (!t.active || t.in_flight != 0) return;
  // A window covers exactly one collective epoch: one entry per open
  // session. Keep it open while the epoch is still filling (unless the
  // tenant has no sessions left at all — e.g. its job died mid-epoch).
  if (t.open_sessions > 0 && t.entered < t.open_sessions) return;
  t.active = false;
  t.entered = 0;
  ++t.windows;
  if (active_windows_ > 0) --active_windows_;
  schedule_locked();
}

// --------------------------------------------------------- introspection --

std::size_t StoreService::bytes_in_use() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return reserved_total_;
}

std::size_t StoreService::tenant_bytes(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const Tenant* t = find_tenant(name);
  return t == nullptr ? 0 : t->reserved_bytes;
}

std::uint64_t StoreService::bypass_bound() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return bypass_bound_locked();
}

std::uint64_t StoreService::bypass_bound_locked() const {
  if (tenants_.empty()) return 0;
  return (tenants_.size() - 1) * static_cast<std::uint64_t>(config_.max_concurrent_commits);
}

int StoreService::tenant_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return static_cast<int>(tenants_.size());
}

TenantStats StoreService::tenant_stats(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  TenantStats stats;
  stats.name = name;
  const Tenant* t = find_tenant(name);
  if (t == nullptr) return stats;
  stats.quota_bytes = t->config.quota_bytes;
  stats.reserved_bytes = t->reserved_bytes;
  stats.open_sessions = t->open_sessions;
  stats.commits = t->commits;
  stats.committed_bytes = t->committed_bytes;
  stats.windows = t->windows;
  stats.gate_wait_s = t->gate_wait_s;
  stats.busy_s = t->busy_s;
  stats.max_bypass = std::max(t->max_bypass, t->bypass);
  stats.throughput_Bps =
      tenant_throughput(t->commits, t->committed_bytes, t->busy_s, t->gate_wait_s);
  return stats;
}

std::vector<TenantStats> StoreService::all_tenant_stats() const {
  std::vector<std::string> names;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    names.reserve(tenants_.size());
    for (const auto& [name, t] : tenants_) names.push_back(name);
  }
  std::vector<TenantStats> all;
  all.reserve(names.size());
  for (const auto& name : names) all.push_back(tenant_stats(name));
  return all;
}

double StoreService::fairness_ratio() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return fairness_ratio_locked();
}

double StoreService::fairness_ratio_locked() const {
  // min/max of per-tenant commit SLOWDOWN — demand time (gate wait +
  // busy) over busy time, the scheduling-theory fairness measure. Each
  // tenant is normalized by its own service time, so slow and fast
  // commit paths compare on equal footing: fair dispatch keeps every
  // slowdown near the same value (ratio → 1), a starved tenant's wait
  // balloons its slowdown (ratio → 0). Tenants with fewer than two
  // closed windows (one-epoch bystanders) have no sustained demand to
  // compare and are excluded.
  double min_rate = 0.0;
  double max_rate = 0.0;
  int n = 0;
  for (const auto& [name, t] : tenants_) {
    if (t.windows < 2 || t.busy_s <= 0.0) continue;
    // Invert the slowdown so "bigger = better served", matching the
    // min/max ratio convention below.
    const double rate = t.busy_s / (t.busy_s + t.gate_wait_s);
    if (n == 0) {
      min_rate = max_rate = rate;
    } else {
      min_rate = std::min(min_rate, rate);
      max_rate = std::max(max_rate, rate);
    }
    ++n;
  }
  if (n <= 1 || max_rate <= 0.0) return 1.0;
  return min_rate / max_rate;
}

void StoreService::publish_gauges() const {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [name, t] : tenants_) publish_tenant_gauges_locked(name, t);
  publish_service_gauges_locked();
}

void StoreService::publish_tenant_gauges_locked(const std::string& name,
                                                const Tenant& t) const {
  auto& metrics = telemetry::metrics();
  const std::string prefix = "store.tenant." + name + ".";
  metrics.gauge(prefix + "bytes").set(static_cast<double>(t.reserved_bytes));
  metrics.gauge(prefix + "quota_bytes").set(static_cast<double>(t.config.quota_bytes));
  metrics.gauge(prefix + "open_sessions").set(static_cast<double>(t.open_sessions));
  metrics.gauge(prefix + "commits").set(static_cast<double>(t.commits));
  metrics.gauge(prefix + "committed_bytes").set(static_cast<double>(t.committed_bytes));
  metrics.gauge(prefix + "throughput_Bps")
      .set(tenant_throughput(t.commits, t.committed_bytes, t.busy_s, t.gate_wait_s));
  metrics.gauge(prefix + "max_bypass").set(static_cast<double>(std::max(t.max_bypass, t.bypass)));
}

void StoreService::publish_service_gauges_locked() const {
  auto& metrics = telemetry::metrics();
  metrics.gauge("store.capacity_bytes").set(static_cast<double>(config_.capacity_bytes));
  metrics.gauge("store.bytes_in_use").set(static_cast<double>(reserved_total_));
  metrics.gauge("store.tenants").set(static_cast<double>(tenants_.size()));
  metrics.gauge("store.fairness_ratio").set(fairness_ratio_locked());
  metrics.gauge("store.bypass_bound").set(static_cast<double>(bypass_bound_locked()));
}

}  // namespace skt::ckpt
