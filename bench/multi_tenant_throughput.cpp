// Multi-tenant bench — what sharing one StoreService costs: three
// identical 2-rank jobs commit E epochs of B bytes per rank through the
// async pipeline, first ISOLATED (each job alone, back to back, its own
// service) and then CONCURRENT (three threads, one shared service, fair-
// share turnstile + admission in the path).
//
// The headline number is the aggregate-throughput retention
//   (total_bytes / T_concurrent) / (total_bytes / sum of isolated times)
// i.e. sum-of-isolated-walls over the concurrent wall. On this
// timesharing host the concurrent phase cannot beat the core count, so
// retention ~1.0 means the service machinery (turnstile, admission,
// locks) adds nothing material; the acceptance bar is >= 0.6 — a
// pathological dispatcher (stalls, serialization bugs, timeouts) blows
// the concurrent wall up and fails loudly. The concurrent phase also
// gates every tenant's bypass count (windows dispatched to others while it
// waited) on the turnstile's exact bound, on every attempt; the
// wall-clock fairness ratio is reported, not gated.
//
//   ./multi_tenant_throughput [--epochs 8] [--bytes 262144] [--reps 3]
//                             [--smoke]
//                             [--report BENCH_multi_tenant.json]
//
// --smoke shrinks the problem for the ctest wiring. Both phases take the
// best of --reps attempts: walls are milliseconds here, so a single
// scheduler hiccup would otherwise dominate the ratio.
#include <algorithm>
#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "ckpt/session.hpp"
#include "ckpt/store_service.hpp"
#include "telemetry/report.hpp"
#include "util/json_writer.hpp"
#include "util/options.hpp"
#include "util/clock.hpp"
#include "util/rng.hpp"

using namespace skt;

namespace {

constexpr int kTenants = 3;
constexpr int kRanksPerTenant = 2;

/// One tenant's job: a 2-rank group committing `epochs` full rewrites of
/// `bytes` per rank through commit_async against `service`.
bool run_tenant_job(ckpt::StoreService& service, const std::string& tenant,
                    std::size_t bytes, int epochs) {
  bench::ClusterSpec spec;
  spec.ranks = kRanksPerTenant;
  spec.spares = 0;
  const auto result = bench::run_job(spec, [&](mpi::Comm& world) {
    ckpt::Session session = ckpt::SessionBuilder{}
                                .strategy(ckpt::Strategy::kSelf)
                                .key_prefix("bench")
                                .data_bytes(bytes)
                                .group_size(kRanksPerTenant)
                                .mode(ckpt::CommitMode::kAsync)
                                .service(&service)
                                .tenant(tenant)
                                .build(world);
    (void)session.open();
    std::span<double> lanes{reinterpret_cast<double*>(session.data().data()),
                            session.data().size() / sizeof(double)};
    for (int e = 0; e < epochs; ++e) {
      for (std::size_t i = 0; i < lanes.size(); ++i) {
        lanes[i] = util::element_value(static_cast<std::uint64_t>(e),
                                       static_cast<std::uint64_t>(world.rank()), i);
      }
      session.mark_all_dirty();
      session.commit_async();
    }
    session.drain();
  });
  return result.success;
}

struct PhaseRun {
  bool ok = false;
  double wall_s = 0.0;
  double fairness = 1.0;          ///< concurrent phase only
  std::uint64_t max_bypass = 0;   ///< largest TenantStats::max_bypass
  std::uint64_t bypass_bound = 0; ///< StoreService::bypass_bound()
};

/// Each tenant alone, back to back, a fresh service per job: the no-
/// interference baseline.
PhaseRun run_isolated(std::size_t bytes, int epochs) {
  PhaseRun run;
  run.ok = true;
  util::WallTimer timer;
  for (int i = 0; i < kTenants; ++i) {
    ckpt::StoreService service;
    const std::string tenant = "iso-" + std::to_string(i);
    service.register_tenant({.name = tenant});
    run.ok = run.ok && run_tenant_job(service, tenant, bytes, epochs);
  }
  run.wall_s = timer.seconds();
  return run;
}

/// All tenants at once through ONE service (default two-wide turnstile).
PhaseRun run_concurrent(std::size_t bytes, int epochs) {
  PhaseRun run;
  ckpt::StoreService service;
  std::vector<std::string> tenants;
  for (int i = 0; i < kTenants; ++i) {
    tenants.push_back("con-" + std::to_string(i));
    service.register_tenant({.name = tenants.back()});
  }
  std::atomic<int> failures{0};
  util::WallTimer timer;
  std::vector<std::thread> jobs;
  for (int i = 0; i < kTenants; ++i) {
    jobs.emplace_back([&, i] {
      if (!run_tenant_job(service, tenants[i], bytes, epochs)) failures.fetch_add(1);
    });
  }
  for (std::thread& t : jobs) t.join();
  run.wall_s = timer.seconds();
  run.ok = failures.load() == 0;
  run.fairness = service.fairness_ratio();
  for (const std::string& tenant : tenants) {
    run.max_bypass = std::max(run.max_bypass, service.tenant_stats(tenant).max_bypass);
  }
  run.bypass_bound = service.bypass_bound();
  return run;
}

/// Best (shortest-wall) of `reps` attempts per phase: the host timeshares
/// rank threads, so single-shot walls are noisy and the MINIMUM is the
/// least-contaminated estimate of each phase's cost. The bypass count is
/// exact, so it keeps the worst attempt's.
PhaseRun best_of(int reps, const std::function<PhaseRun()>& phase) {
  PhaseRun best;
  std::uint64_t worst_bypass = 0;
  for (int i = 0; i < reps; ++i) {
    const PhaseRun r = phase();
    if (!r.ok) return r;
    worst_bypass = std::max(worst_bypass, r.max_bypass);
    if (i == 0 || r.wall_s < best.wall_s) best = r;
  }
  best.max_bypass = worst_bypass;
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  util::Options opts(argc, argv);
  const bool smoke = opts.get_bool("smoke", false);
  const int epochs = static_cast<int>(opts.get_int("epochs", smoke ? 6 : 8));
  const std::size_t bytes =
      static_cast<std::size_t>(opts.get_int("bytes", smoke ? 262144 : 1048576));
  const int reps = static_cast<int>(opts.get_int("reps", 3));
  const std::string report_path =
      opts.get("report", util::report_path("BENCH_multi_tenant.json"));

  bench::print_header("StoreService",
                      "aggregate commit throughput: shared service vs isolated");

  const PhaseRun isolated = best_of(reps, [&] { return run_isolated(bytes, epochs); });
  const PhaseRun concurrent = best_of(reps, [&] { return run_concurrent(bytes, epochs); });

  const std::size_t total_bytes = static_cast<std::size_t>(kTenants) * kRanksPerTenant *
                                  static_cast<std::size_t>(epochs) * bytes;
  const double iso_Bps = isolated.wall_s > 0 ? total_bytes / isolated.wall_s : 0.0;
  const double con_Bps = concurrent.wall_s > 0 ? total_bytes / concurrent.wall_s : 0.0;
  const double retention = iso_Bps > 0 ? con_Bps / iso_Bps : 0.0;

  util::Table table({"phase", "wall", "aggregate throughput", "fairness"});
  table.add_row({"isolated x3", util::format_seconds(isolated.wall_s),
                 util::format("{:.1f} MB/s", iso_Bps / 1e6), "-"});
  table.add_row({"concurrent", util::format_seconds(concurrent.wall_s),
                 util::format("{:.1f} MB/s", con_Bps / 1e6),
                 util::format("{:.2f}", concurrent.fairness)});
  table.print();
  std::printf("\naggregate-throughput retention (concurrent/isolated): %.3f\n", retention);

  telemetry::RunReport report("multi_tenant_throughput");
  report.set("tenants", static_cast<std::int64_t>(kTenants));
  report.set("ranks_per_tenant", static_cast<std::int64_t>(kRanksPerTenant));
  report.set("epochs", static_cast<std::int64_t>(epochs));
  report.set("bytes_per_rank_epoch", static_cast<std::int64_t>(bytes));
  report.set("reps", static_cast<std::int64_t>(reps));
  report.set("isolated_wall_s", isolated.wall_s);
  report.set("concurrent_wall_s", concurrent.wall_s);
  report.set("isolated_aggregate_Bps", iso_Bps);
  report.set("concurrent_aggregate_Bps", con_Bps);
  report.set("throughput_retention", retention);
  report.set("concurrent_fairness_ratio", concurrent.fairness);
  report.set("concurrent_max_bypass", static_cast<std::int64_t>(concurrent.max_bypass));
  report.set("bypass_bound", static_cast<std::int64_t>(concurrent.bypass_bound));
  report.write(report_path);
  std::printf("report written to %s\n", report_path.c_str());

  bool ok = true;
  ok &= bench::shape_check("isolated runs complete", isolated.ok);
  ok &= bench::shape_check("concurrent runs complete (no cross-tenant deadlock)",
                           concurrent.ok);
  ok &= bench::shape_check(
      "shared-service aggregate >= 60% of isolated (acceptance bar)", retention >= 0.6);
  ok &= bench::shape_check(
      util::format("every tenant's bypass count ({}) <= the turnstile bound ({})",
                   concurrent.max_bypass, concurrent.bypass_bound),
      concurrent.max_bypass <= concurrent.bypass_bound);
  return ok ? 0 : 1;
}
