// Table 3 — comparison of fault-tolerant HPL methods: original HPL,
// ABFT-HPL, BLCR on HDD and SSD, the SCR-style double in-memory
// checkpoint, and SKT-HPL with self-checkpoint.
//
// Methodology mirrors Section 6.2 at workstation scale:
//  * every method gets the same per-process memory capacity; in-memory
//    checkpoint methods can only use their Eq. 2/3 fraction of it, so they
//    solve smaller problems — exactly the paper's "Available Memory"
//    column;
//  * the BLCR device bandwidths are calibrated so one checkpoint costs the
//    same fraction of the fault-free runtime as in the paper (295 s and
//    112 s against a 2338 s run) — the scale-down preserves the
//    checkpoint-time/compute ratio that drives the ranking;
//  * "Recover after node powered-off?" physically powers a node off
//    mid-elimination and reports whether the job resumed from checkpoints
//    (methods without checkpoints fail, as on the real cluster).
#include <vector>

#include "bench_common.hpp"
#include "hpl/abft.hpp"
#include "storage/vault.hpp"

using namespace skt;

namespace {

struct Row {
  std::string method;
  std::int64_t n = 0;
  double runtime_no_ckpt = 0.0;
  double ckpt_time = 0.0;     // one checkpoint
  double gflops = 0.0;        // with periodic checkpoints
  std::size_t app_bytes = 0;  // available application memory per process
  double normalized = 0.0;    // vs original HPL GFLOP/s
  std::string recovers;
};

constexpr std::size_t kCapacityPerRank = 6u << 20;  // the "4 GB" of the scaled cluster
constexpr int kGroup = 8;
constexpr int kReps = 3;  // median-of-3 against host wall-clock noise

bench::Geometry geom{2, 4, 32};

/// All rows run on the same simulated cluster network: per-rank NIC of
/// 140 MB/s, the bandwidth that reproduces the paper's memory-size
/// efficiency penalty at this GEMM speed (see bench_common.hpp).
bench::ClusterSpec method_spec() {
  bench::ClusterSpec spec;
  spec.ranks = geom.ranks();
  spec.profile = bench::bench_network_profile(140.0e6);
  spec.model_network = true;
  return spec;
}

/// Power-off probe: inject a node loss mid-elimination and report whether
/// the job completed by RESUMING from a checkpoint (not by recomputing).
std::string poweroff_verdict(ckpt::Strategy strategy, std::int64_t n, std::int64_t ckpt_every,
                             storage::Vault* vault) {
  sim::FailureInjector injector;
  injector.add_rule({.point = "hpl.panel", .world_rank = 1,
                     .hit = static_cast<int>(ckpt_every + 1), .repeat = false});
  auto config = bench::make_config(geom, n, strategy, kGroup, ckpt_every);
  config.vault = vault;
  const bench::HplRun run =
      bench::run_hpl_job(method_spec(), config, &injector, {.max_restarts = 2});
  return run.ok && run.skt.restored ? "YES" : "NO";
}

}  // namespace

int main() {
  bench::print_header("Table 3", "comparison between methods of fault-tolerant HPL");
  std::printf("per-process capacity: %s, group size %d, grid %dx%d\n",
              util::format_bytes(kCapacityPerRank).c_str(), kGroup, geom.P, geom.Q);

  std::vector<Row> rows;
  const std::int64_t n_full = bench::fit_n(geom, kCapacityPerRank);
  const std::int64_t nblk = (n_full + geom.nb - 1) / geom.nb;
  const std::int64_t ckpt_every = std::max<std::int64_t>(1, nblk / 4);

  // ----------------------------------------------------- 1. original HPL
  Row original;
  {
    const auto config = bench::make_config(geom, n_full, ckpt::Strategy::kNone, kGroup, 0);
    const bench::HplRun run = bench::run_hpl_job_median(method_spec(), config, kReps);
    original = {"Original HPL", n_full, run.total_s, 0.0, run.gflops, kCapacityPerRank,
                1.0, "NO (no checkpoint)"};
    rows.push_back(original);
  }

  // ------------------------------------------------------------- 2. ABFT
  {
    double gflops = 0.0;
    double runtime = 0.0;
    bool ok = false;
    const auto result = bench::run_job(method_spec(), [&](mpi::Comm& world) {
      hpl::AbftConfig config;
      config.hpl.n = n_full;
      config.hpl.nb = geom.nb;
      config.hpl.grid_p = geom.P;
      config.hpl.grid_q = geom.Q;
      config.verify_every_panels = 1;
      const hpl::AbftResult r = hpl::run_abft_hpl(world, config);
      if (world.rank() == 0) {
        gflops = r.hpl.gflops;
        runtime = r.hpl.elapsed_s + r.hpl.virtual_s;
        ok = r.hpl.residual.pass && r.checksum_ok;
      }
    });
    rows.push_back({"ABFT", n_full, runtime, 0.0, gflops, kCapacityPerRank,
                    gflops / original.gflops,
                    result.success && ok ? "NO (MPI aborts, no state survives)" : "NO"});
  }

  // ------------------------------------------- 3./4. BLCR on HDD and SSD
  // Calibrate device bandwidth so a checkpoint costs the paper's fraction
  // of the fault-free runtime (295/2338 for HDD, 112/2338 for SSD).
  const std::size_t image_bytes = kCapacityPerRank;
  for (const auto& [name, fraction] :
       std::vector<std::pair<std::string, double>>{{"BLCR+HDD", 295.2 / 2338.6},
                                                   {"BLCR+SSD", 111.9 / 2338.6}}) {
    storage::DeviceProfile device;
    device.name = name;
    device.write_bandwidth_Bps =
        static_cast<double>(image_bytes) / (fraction * original.runtime_no_ckpt);
    device.read_bandwidth_Bps = device.write_bandwidth_Bps * 1.2;
    device.latency_s = 1e-3;

    // Every rep writes a fresh disk: one holding the previous rep's newest
    // image would resume that finished solve instead of timing a new one.
    const bench::HplRun run = bench::median_of(kReps, [&] {
      storage::Vault vault({.device = device});
      auto config = bench::make_config(geom, n_full, ckpt::Strategy::kBlcr, kGroup, ckpt_every);
      config.vault = &vault;
      return bench::run_hpl_job(method_spec(), config);
    });
    storage::Vault vault2({.device = device});
    rows.push_back({name, n_full, original.runtime_no_ckpt,
                    run.skt.checkpoints > 0 ? run.skt.ckpt_total_s / run.skt.checkpoints : 0,
                    run.gflops, kCapacityPerRank, run.gflops / original.gflops,
                    poweroff_verdict(ckpt::Strategy::kBlcr, n_full, ckpt_every, &vault2)});
  }

  // ----------------------------- 5. SCR-style double in-memory checkpoint
  {
    const double fraction = ckpt::available_fraction(ckpt::Strategy::kDouble, kGroup);
    const auto app_bytes = static_cast<std::size_t>(kCapacityPerRank * fraction);
    const std::int64_t n = bench::fit_n(geom, app_bytes);
    auto config = bench::make_config(geom, n, ckpt::Strategy::kDouble, kGroup, ckpt_every);
    const bench::HplRun run = bench::run_hpl_job_median(method_spec(), config, kReps);
    rows.push_back({"SCR+Memory (double)", n, run.total_s - run.skt.ckpt_total_s,
                    run.skt.checkpoints > 0 ? run.skt.ckpt_total_s / run.skt.checkpoints : 0,
                    run.gflops, app_bytes, run.gflops / original.gflops,
                    poweroff_verdict(ckpt::Strategy::kDouble, n, ckpt_every, nullptr)});
  }

  // ------------------------------------------- 6. SKT-HPL (self-checkpoint)
  {
    const double fraction = ckpt::available_fraction(ckpt::Strategy::kSelf, kGroup);
    const auto app_bytes = static_cast<std::size_t>(kCapacityPerRank * fraction);
    const std::int64_t n = bench::fit_n(geom, app_bytes);
    auto config = bench::make_config(geom, n, ckpt::Strategy::kSelf, kGroup, ckpt_every);
    const bench::HplRun run = bench::run_hpl_job_median(method_spec(), config, kReps);
    rows.push_back({"SKT-HPL (self)", n, run.total_s - run.skt.ckpt_total_s,
                    run.skt.checkpoints > 0 ? run.skt.ckpt_total_s / run.skt.checkpoints : 0,
                    run.gflops, app_bytes, run.gflops / original.gflops,
                    poweroff_verdict(ckpt::Strategy::kSelf, n, ckpt_every, nullptr)});
  }

  util::Table table({"method", "problem size", "runtime (no ckpt)", "ckpt time",
                     "GFLOP/s (with ckpts)", "available memory", "normalized eff.",
                     "recovers after power-off?"});
  for (const Row& row : rows) {
    table.add_row({row.method, std::to_string(row.n),
                   util::format_seconds(row.runtime_no_ckpt),
                   row.ckpt_time > 0 ? util::format_seconds(row.ckpt_time) : "-",
                   util::format("{:.2f}", row.gflops), util::format_bytes(row.app_bytes),
                   util::format("{:.1%}", row.normalized), row.recovers});
  }
  table.print();

  const Row& blcr_hdd = rows[2];
  const Row& blcr_ssd = rows[3];
  const Row& scr = rows[4];
  const Row& skt = rows[5];
  bool ok = true;
  ok &= bench::shape_check("SKT-HPL has the best normalized efficiency of the FT methods",
                           skt.normalized > scr.normalized &&
                               skt.normalized > blcr_hdd.normalized &&
                               skt.normalized > blcr_ssd.normalized);
  ok &= bench::shape_check(
      "SKT-HPL achieves > 85% of the original HPL (paper: 94.5% at its far "
      "larger problem sizes)",
      skt.normalized > 0.85);
  ok &= bench::shape_check("SKT-HPL beats the double-checkpoint (SCR) row",
                           skt.normalized > scr.normalized);
  ok &= bench::shape_check(
      "SKT solves a larger problem than SCR (43.8% vs 30.4% of memory)",
      skt.n > scr.n && skt.app_bytes > scr.app_bytes);
  ok &= bench::shape_check("BLCR+SSD beats BLCR+HDD",
                           blcr_ssd.normalized > blcr_hdd.normalized);
  ok &= bench::shape_check("only checkpointing methods recover from power-off",
                           rows[0].recovers.substr(0, 2) == "NO" &&
                               rows[1].recovers.substr(0, 2) == "NO" &&
                               blcr_hdd.recovers == "YES" && blcr_ssd.recovers == "YES" &&
                               scr.recovers == "YES" && skt.recovers == "YES");
  ok &= bench::shape_check(
      "in-memory checkpoint time is far below the HDD checkpoint time (paper: 6.2 s vs "
      "295 s)",
      skt.ckpt_time < 0.25 * blcr_hdd.ckpt_time);
  return ok ? 0 : 1;
}
