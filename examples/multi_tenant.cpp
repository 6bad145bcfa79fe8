// Checkpoint store as a service — one StoreService carries four tenants
// on one shared cluster while nodes die:
//
//   hpl-a       4-rank SKT-HPL solve (sync commits)
//   jacobi-b    4-rank iterative app on the ASYNC pipeline; loses a node
//               mid-flush and must restore its own epoch from the group
//   accel-c     2-rank accelerator job (device-resident working set,
//               download-then-commit each epoch)
//   bystander-d 2-rank job that commits once and exits before the storm —
//               its namespaced stripes must sit out every other tenant's
//               kill/restore bit-identically
//
// Each job gets its own JobLauncher over a DISJOINT primary-node range
// (LauncherConfig::first_node); the spare pool, the per-node SHM stores,
// and the StoreService (quotas, admission, fair-share commit turnstile)
// are shared. The run validates:
//
//   * only the killed tenant restarts, and it recovers its own epoch
//   * the bystander's stripes are bit-identical across the storm
//   * an over-quota probe tenant is rejected LOUDLY before allocating
//   * fair-share dispatch: no tenant waits out more windows of the others
//     than FIFO dispatch allows, (tenants - 1) * max_concurrent_commits
//     (store.tenant.<name>.max_bypass against store.bypass_bound); the
//     wall-clock commit-slowdown spread is reported (store.fairness_ratio)
//
// With --monitor <prefix> (or --telemetry <prefix>) the run writes
// <prefix>_report.json — a RunReport whose metrics section carries the
// per-tenant store.* gauges (bytes, quotas, commits, throughput) plus the
// service-wide capacity/fairness picture; scripts/check.sh jq-validates
// it in the multi_tenant lane.
//
//   ./multi_tenant [--iters 6] [--monitor out/mt]
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "ckpt/session.hpp"
#include "ckpt/store_service.hpp"
#include "hpl/skt_hpl.hpp"
#include "mpi/launcher.hpp"
#include "sim/accelerator.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/report.hpp"
#include "util/log.hpp"
#include "util/options.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

using namespace skt;

namespace {

struct AppState {
  std::uint64_t iteration = 0;
};

/// FNV-1a over every (key, bytes) pair `owner` holds anywhere in the
/// cluster — the bit-identity witness for the bystander's stripes.
std::uint64_t owner_digest(sim::Cluster& cluster, const std::string& owner,
                           std::size_t* segments = nullptr) {
  std::uint64_t h = 1469598103934665603ull;
  std::size_t count = 0;
  for (int n = 0; n < cluster.total_nodes(); ++n) {
    for (const auto& [key, seg] : cluster.node(n).store().segments_of(owner)) {
      ++count;
      for (const char c : key) h = (h ^ static_cast<unsigned char>(c)) * 1099511628211ull;
      for (const std::byte b : seg->bytes()) {
        h = (h ^ std::to_integer<unsigned char>(b)) * 1099511628211ull;
      }
    }
  }
  if (segments != nullptr) *segments = count;
  return h;
}

void fill_pattern(std::span<std::byte> data, std::uint64_t seed, int rank,
                  std::uint64_t iteration) {
  std::span<double> lanes{reinterpret_cast<double*>(data.data()),
                          data.size() / sizeof(double)};
  for (std::size_t i = 0; i < lanes.size(); ++i) {
    lanes[i] = util::element_value(seed + iteration, static_cast<std::uint64_t>(rank), i);
  }
}

bool matches_pattern(std::span<const std::byte> data, std::uint64_t seed, int rank,
                     std::uint64_t iteration) {
  std::span<const double> lanes{reinterpret_cast<const double*>(data.data()),
                                data.size() / sizeof(double)};
  for (std::size_t i = 0; i < lanes.size(); ++i) {
    if (lanes[i] !=
        util::element_value(seed + iteration, static_cast<std::uint64_t>(rank), i)) {
      return false;
    }
  }
  return true;
}

/// The jacobi-b / bystander-d rank body: rewrite the whole protected
/// buffer each iteration, commit, verify after any restore. Counts the
/// restores it performed so the driver can assert WHO recovered.
void pattern_app(mpi::Comm& world, ckpt::StoreService& service, const std::string& tenant,
                 std::size_t data_bytes, int iterations, ckpt::CommitMode mode,
                 std::uint64_t seed, std::atomic<int>& restores) {
  ckpt::Session session = ckpt::SessionBuilder{}
                              .strategy(ckpt::Strategy::kSelf)
                              .key_prefix("app")
                              .data_bytes(data_bytes)
                              .user_bytes(sizeof(AppState))
                              .mode(mode)
                              .service(&service)
                              .tenant(tenant)
                              .build(world);
  auto* state = reinterpret_cast<AppState*>(session.user_state().data());
  if (session.open() == ckpt::OpenOutcome::kRestored) {
    restores.fetch_add(1);
    if (!matches_pattern(session.data(), seed, world.rank(), state->iteration)) {
      throw std::runtime_error(tenant + ": restored data does not match its epoch");
    }
  } else {
    state->iteration = 0;
    fill_pattern(session.data(), seed, world.rank(), 0);
  }
  const bool async = mode == ckpt::CommitMode::kAsync;
  while (state->iteration < static_cast<std::uint64_t>(iterations)) {
    world.failpoint("app.work");
    state->iteration += 1;
    fill_pattern(session.data(), seed, world.rank(), state->iteration);
    session.mark_all_dirty();
    if (async) {
      session.commit_async();
    } else {
      session.commit();
    }
  }
  if (async) session.drain();
  if (!matches_pattern(session.data(), seed, world.rank(),
                       static_cast<std::uint64_t>(iterations))) {
    throw std::runtime_error(tenant + ": final data mismatch");
  }
}

/// The accel-c rank body: the working set lives on a simulated
/// accelerator; every epoch runs an in-place device kernel, downloads the
/// device memory into the session's protected region, and commits.
void accel_app(mpi::Comm& world, ckpt::StoreService& service, const std::string& tenant,
               std::size_t data_bytes, int iterations) {
  ckpt::Session session = ckpt::SessionBuilder{}
                              .strategy(ckpt::Strategy::kSelf)
                              .key_prefix("app")
                              .data_bytes(data_bytes)
                              .user_bytes(sizeof(AppState))
                              .service(&service)
                              .tenant(tenant)
                              .build(world);
  auto* state = reinterpret_cast<AppState*>(session.user_state().data());
  sim::Accelerator device(data_bytes);
  const ckpt::OpenOutcome outcome = session.open();
  if (outcome == ckpt::OpenOutcome::kRestored) {
    device.upload(session.data());  // resume the device from the checkpoint
  } else {
    state->iteration = 0;
    fill_pattern(session.data(), 31, world.rank(), 0);
    device.upload(session.data());
  }
  while (state->iteration < static_cast<std::uint64_t>(iterations)) {
    world.failpoint("app.work");
    // Device-side "kernel": deterministic in-place mutation.
    for (double& v : std::span{reinterpret_cast<double*>(device.memory().data()),
                               data_bytes / sizeof(double)}) {
      v = v * 1.0009765625 + 1.0;
    }
    state->iteration += 1;
    device.download(session.data());
    session.commit();
  }
  // The committed image must equal the device's view bit-for-bit.
  std::vector<std::byte> check(data_bytes);
  device.download(check);
  if (std::memcmp(check.data(), session.data().data(), data_bytes) != 0) {
    throw std::runtime_error(tenant + ": committed image diverged from the device");
  }
}

}  // namespace

int main(int argc, char** argv) {
  util::Options opts(argc, argv);
  util::set_log_level(opts.get("log", "warn"));
  const int iterations = static_cast<int>(opts.get_int("iters", 6));
  const std::string monitor_prefix = opts.get("monitor", "");
  std::string telemetry_prefix = opts.get("telemetry", "");
  if (telemetry_prefix.empty()) telemetry_prefix = monitor_prefix;
  if (!telemetry_prefix.empty()) telemetry::set_enabled(true);

  // One cluster: hpl-a on nodes 0..3, jacobi-b on 4..7, accel-c on 8..9,
  // bystander-d on 10..11; two spares shared by everyone.
  sim::Cluster cluster({.num_nodes = 12, .spare_nodes = 2, .nodes_per_rack = 4});

  ckpt::StoreService service({.capacity_bytes = 64u << 20, .max_concurrent_commits = 2});
  service.register_tenant({.name = "hpl-a", .quota_bytes = 16u << 20});
  service.register_tenant({.name = "jacobi-b", .quota_bytes = 16u << 20});
  service.register_tenant({.name = "accel-c", .quota_bytes = 16u << 20});
  service.register_tenant({.name = "bystander-d", .quota_bytes = 16u << 20});
  service.register_tenant({.name = "probe-e", .quota_bytes = 1024});  // absurdly small

  // -------------------------------------------------- bystander epoch --
  // Commits once, exits; its stripes stay in the node stores (SHM
  // semantics) and must survive the coming storm untouched.
  std::atomic<int> bystander_restores{0};
  {
    mpi::JobLauncher launcher(cluster, nullptr, {.max_restarts = 0, .first_node = 10});
    const auto result = launcher.run(2, [&](mpi::Comm& w) {
      pattern_app(w, service, "bystander-d", 8192, 1, ckpt::CommitMode::kSync, 77,
                  bystander_restores);
    });
    if (!result.success) {
      std::printf("bystander job failed: %s\n", result.failure.c_str());
      return 1;
    }
  }
  std::size_t bystander_segments = 0;
  const std::uint64_t bystander_before = owner_digest(
      cluster, ckpt::StoreService::namespace_prefix("bystander-d"), &bystander_segments);

  // ------------------------------------------- three concurrent tenants --
  std::atomic<int> jacobi_restores{0};
  mpi::LaunchResult hpl_result;
  mpi::LaunchResult jacobi_result;
  mpi::LaunchResult accel_result;
  hpl::SktHplResult hpl_run;

  std::thread hpl_job([&] {
    hpl::SktHplConfig config;
    config.hpl = {.n = 64, .nb = 8, .grid_p = 2, .grid_q = 2, .seed = 42};
    config.strategy = ckpt::Strategy::kSelf;
    config.group_size = 4;
    config.ckpt_every_panels = 2;
    config.key_prefix = "hpl";
    config.service = &service;
    config.tenant = "hpl-a";
    mpi::JobLauncher launcher(cluster, nullptr, {.max_restarts = 0, .first_node = 0});
    hpl_result =
        launcher.run(4, [&](mpi::Comm& w) { hpl_run = hpl::run_skt_hpl(w, config); });
  });

  std::thread jacobi_job([&] {
    // The storm: rank 1's node dies inside the async flush of its second
    // commit. Only THIS tenant may restart.
    sim::FailureInjector injector;
    injector.add_rule(
        {.point = "ckpt.async_mid_flush", .world_rank = 1, .hit = 2, .repeat = false});
    mpi::JobLauncher launcher(cluster, &injector, {.max_restarts = 2, .first_node = 4});
    jacobi_result = launcher.run(4, [&](mpi::Comm& w) {
      pattern_app(w, service, "jacobi-b", 8192, iterations, ckpt::CommitMode::kAsync, 19,
                  jacobi_restores);
    });
  });

  std::thread accel_job([&] {
    mpi::JobLauncher launcher(cluster, nullptr, {.max_restarts = 0, .first_node = 8});
    accel_result = launcher.run(
        2, [&](mpi::Comm& w) { accel_app(w, service, "accel-c", 16384, iterations); });
  });

  hpl_job.join();
  jacobi_job.join();
  accel_job.join();

  // ------------------------------------------------------- validation --
  bool ok = true;
  const auto require = [&ok](bool condition, const char* what) {
    if (!condition) {
      std::printf("FAIL: %s\n", what);
      ok = false;
    }
  };
  require(hpl_result.success, "hpl-a did not finish");
  require(jacobi_result.success, "jacobi-b did not finish");
  require(accel_result.success, "accel-c did not finish");
  require(hpl_result.restarts == 0, "hpl-a restarted without being killed");
  require(accel_result.restarts == 0, "accel-c restarted without being killed");
  require(jacobi_result.restarts == 1, "jacobi-b must restart exactly once");
  require(jacobi_restores.load() >= 1, "jacobi-b never restored its epoch");
  require(bystander_restores.load() == 0, "bystander-d restored unexpectedly");
  require(hpl_run.hpl.residual.pass, "hpl-a residual check failed");

  std::size_t bystander_segments_after = 0;
  const std::uint64_t bystander_after =
      owner_digest(cluster, ckpt::StoreService::namespace_prefix("bystander-d"),
                   &bystander_segments_after);
  require(bystander_segments > 0, "bystander-d left no stripes to witness");
  require(bystander_segments_after == bystander_segments &&
              bystander_after == bystander_before,
          "bystander-d's stripes changed across the other tenants' storm");

  // The over-quota probe: admission must reject BEFORE any allocation.
  std::atomic<bool> probe_rejected{false};
  {
    mpi::JobLauncher launcher(cluster, nullptr, {.max_restarts = 0, .first_node = 10});
    const auto result = launcher.run(2, [&](mpi::Comm& w) {
      ckpt::Session session = ckpt::SessionBuilder{}
                                  .strategy(ckpt::Strategy::kSelf)
                                  .key_prefix("probe")
                                  .data_bytes(1u << 20)
                                  .service(&service)
                                  .tenant("probe-e")
                                  .build(w);
      try {
        (void)session.open();
      } catch (const ckpt::QuotaExceeded&) {
        probe_rejected = true;  // both rank threads throw and store true
      }
    });
    require(result.success, "probe job crashed instead of rejecting cleanly");
  }
  require(probe_rejected.load(), "over-quota probe was admitted");
  std::size_t probe_segments = 0;
  (void)owner_digest(cluster, ckpt::StoreService::namespace_prefix("probe-e"),
                     &probe_segments);
  require(probe_segments == 0, "rejected probe still allocated segments");

  service.publish_gauges();
  const double fairness = service.fairness_ratio();  // reported, not gated
  for (const char* name : {"hpl-a", "jacobi-b", "accel-c"}) {
    const ckpt::TenantStats stats = service.tenant_stats(name);
    require(stats.commits > 0, "an active tenant recorded no commits");
    require(stats.open_sessions == 0, "a finished tenant still holds sessions");
    require(stats.max_bypass <= service.bypass_bound(),
            "a tenant waited out more windows than FIFO dispatch allows");
  }
  require(service.bytes_in_use() == 0, "leases were not released at teardown");

  if (!telemetry_prefix.empty()) {
    telemetry::RunReport report("multi_tenant");
    report.set("iterations", static_cast<std::int64_t>(iterations));
    report.set("hpl_restarts", static_cast<std::int64_t>(hpl_result.restarts));
    report.set("jacobi_restarts", static_cast<std::int64_t>(jacobi_result.restarts));
    report.set("accel_restarts", static_cast<std::int64_t>(accel_result.restarts));
    report.set("jacobi_restores", static_cast<std::int64_t>(jacobi_restores.load()));
    report.set("bystander_bit_identical", bystander_after == bystander_before);
    report.set("probe_rejected", probe_rejected.load());
    report.set("fairness_ratio", fairness);
    report.set("ok", ok);
    const std::string report_path = telemetry_prefix + "_report.json";
    if (!report.write(report_path)) {
      std::printf("could not write %s\n", report_path.c_str());
      ok = false;
    }
  }

  std::printf("\n=== multi-tenant checkpoint store ===\n");
  util::Table table({"tenant", "commits", "windows", "max bypass", "committed", "gate wait",
                     "busy", "restarts", "throughput"});
  const auto row = [&](const char* name, int restarts) {
    const ckpt::TenantStats stats = service.tenant_stats(name);
    table.add_row({name, std::to_string(stats.commits), std::to_string(stats.windows),
                   std::to_string(stats.max_bypass), util::format_bytes(stats.committed_bytes),
                   util::format_seconds(stats.gate_wait_s),
                   util::format_seconds(stats.busy_s), std::to_string(restarts),
                   util::format("{:.1f} MB/s", stats.throughput_Bps / 1e6)});
  };
  row("hpl-a", hpl_result.restarts);
  row("jacobi-b", jacobi_result.restarts);
  row("accel-c", accel_result.restarts);
  row("bystander-d", 0);
  table.print();
  std::printf("bypass bound: %llu   fairness ratio: %.2f   bystander stripes: %s   "
              "over-quota probe: %s\n",
              static_cast<unsigned long long>(service.bypass_bound()), fairness,
              bystander_after == bystander_before ? "bit-identical" : "CHANGED",
              probe_rejected.load() ? "rejected loudly" : "ADMITTED");
  std::printf("%s\n", ok ? "all multi-tenant invariants hold" : "INVARIANT VIOLATIONS");
  return ok ? 0 : 1;
}
