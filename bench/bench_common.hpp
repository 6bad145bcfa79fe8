// Shared harness for the per-figure/per-table bench binaries.
//
// Scale note (documented in DESIGN.md): rank threads timeshare the host
// cores, so HPL "efficiency" is defined as measured useful GFLOP/s over
// the calibrated single-thread GEMM peak times the cores the ranks can
// occupy, min(ranks, usable_cores()) — i.e. the fraction of the machine
// time available to the job that is spent in the O(N^3) kernel. That is
// precisely the quantity the paper's efficiency model E(N) = N/(aN+b)
// describes, so the figures' shapes transfer even though absolute FLOP
// rates are workstation-scale.
#pragma once

#include <sched.h>

#include <algorithm>
#include <cstdio>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "hpl/driver.hpp"
#include "hpl/skt_hpl.hpp"
#include "mpi/launcher.hpp"
#include "model/systems.hpp"
#include "sim/cluster.hpp"
#include "util/format.hpp"
#include "util/log.hpp"
#include "util/table.hpp"

namespace skt::bench {

/// Calibrated single-thread GEMM peak (GFLOP/s), measured once per binary.
inline double peak_gflops() {
  static const double peak = hpl::calibrate_peak_gflops(320, 3);
  return peak;
}

/// Cores this process may run on (its CPU affinity mask), at least 1.
inline int usable_cores() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) return std::max(1, CPU_COUNT(&set));
  return static_cast<int>(std::max(1U, std::thread::hardware_concurrency()));
}

/// Network bandwidths are scaled down by this factor for the HPL figure
/// benches: a real node computes ~20-1400 flops per byte of NIC bandwidth,
/// while this workstation's GEMM is ~100x slower than a supercomputer node
/// — shrinking the modeled NIC by the same factor restores the paper's
/// compute/communication balance, which is what E(N) = N/(aN+b) describes.
/// The factor was chosen for the scalar GEMM loop (~2-5 GFLOP/s per
/// thread); the AVX2+FMA tier computes ~9x faster against the same NIC.
inline constexpr double kNetworkScale = 20.0;

/// A system profile with its NIC scaled to bench proportions.
inline model::SystemProfile bench_system(const model::SystemProfile& system) {
  model::SystemProfile scaled = system;
  scaled.node.nic_bandwidth_Bps /= kNetworkScale;
  return scaled;
}

/// Generic profile for single-system sweeps: `per_rank_bw` bytes/s of NIC
/// bandwidth per rank.
inline sim::NodeProfile bench_network_profile(double per_rank_bw) {
  sim::NodeProfile profile;
  profile.nic_bandwidth_Bps = per_rank_bw;
  profile.nic_latency_s = 5.0e-6;
  profile.ranks_per_port = 1;
  return profile;
}

inline void print_header(const char* id, const char* title) {
  std::printf("\n================================================================\n");
  std::printf("%s — %s\n", id, title);
  std::printf("================================================================\n");
}

/// Print a shape assertion the paper makes; benches end with these so a
/// regression in the reproduction is visible in plain output.
inline bool shape_check(const std::string& what, bool ok) {
  std::printf("[%s] %s\n", ok ? "PASS" : "FAIL", what.c_str());
  return ok;
}

struct ClusterSpec {
  int ranks = 8;
  int ranks_per_node = 1;
  int spares = 2;
  sim::NodeProfile profile;
  bool model_network = false;
};

/// Run one job (optionally with failure injection) and return the result.
inline mpi::LaunchResult run_job(const ClusterSpec& spec,
                                 const std::function<void(mpi::Comm&)>& fn,
                                 sim::FailureInjector* injector = nullptr,
                                 mpi::LauncherConfig launcher_config = {}) {
  const int nodes = (spec.ranks + spec.ranks_per_node - 1) / spec.ranks_per_node;
  sim::Cluster cluster(
      {.num_nodes = nodes, .spare_nodes = spec.spares, .nodes_per_rack = 4,
       .profile = spec.profile});
  launcher_config.ranks_per_node = spec.ranks_per_node;
  launcher_config.runtime.model_network = spec.model_network;
  mpi::JobLauncher launcher(cluster, injector, launcher_config);
  return launcher.run(spec.ranks, fn);
}

struct HplRun {
  bool ok = false;
  hpl::SktHplResult skt;
  double total_s = 0.0;      ///< wall + virtual across all attempts
  double gflops = 0.0;       ///< useful flops over total_s
  double efficiency = 0.0;   ///< gflops / (peak_gflops() * min(ranks, usable_cores()))
  int restarts = 0;
};

/// Run SKT-HPL (any strategy, including kNone = original HPL) once on a
/// fresh cluster and report totals including virtual time.
inline HplRun run_hpl_job(const ClusterSpec& spec, const hpl::SktHplConfig& config,
                          sim::FailureInjector* injector = nullptr,
                          mpi::LauncherConfig launcher_config = {}) {
  HplRun run;
  hpl::SktHplResult local{};
  const mpi::LaunchResult result = run_job(
      spec,
      [&](mpi::Comm& world) {
        const hpl::SktHplResult r = hpl::run_skt_hpl(world, config);
        if (world.rank() == 0) local = r;
      },
      injector, launcher_config);
  run.ok = result.success && local.hpl.residual.pass;
  run.skt = local;
  run.restarts = result.restarts;
  run.total_s = result.total_real_s + result.total_virtual_s;
  if (run.total_s > 0) {
    run.gflops = hpl::hpl_flops(config.hpl.n) / run.total_s * 1e-9;
    const int cores = std::min(spec.ranks, usable_cores());
    run.efficiency = run.gflops / (peak_gflops() * static_cast<double>(cores));
  }
  return run;
}

/// The median-GFLOP/s run of `reps` calls of `run`, or the first failed
/// one: the host is shared, with ~±10% wall-clock noise, so every figure
/// that compares GFLOP rates uses the median of several runs.
inline HplRun median_of(int reps, const std::function<HplRun()>& run) {
  std::vector<HplRun> runs;
  for (int i = 0; i < reps; ++i) {
    runs.push_back(run());
    if (!runs.back().ok) return runs.back();
  }
  std::sort(runs.begin(), runs.end(),
            [](const HplRun& a, const HplRun& b) { return a.gflops < b.gflops; });
  return runs[runs.size() / 2];
}

/// Median-of-`reps` wrapper over run_hpl_job. The reps share
/// config.vault, so a BLCR rep would resume the previous rep's finished
/// solve: give each rep its own vault through median_of instead.
inline HplRun run_hpl_job_median(const ClusterSpec& spec, const hpl::SktHplConfig& config,
                                 int reps) {
  return median_of(reps, [&] { return run_hpl_job(spec, config); });
}

/// HPL geometry used throughout the benches unless a figure needs more.
struct Geometry {
  int P = 2;
  int Q = 4;
  std::int64_t nb = 32;
  [[nodiscard]] int ranks() const { return P * Q; }
};

/// Largest nb-aligned problem for an application-memory budget per rank.
inline std::int64_t fit_n(const Geometry& g, std::size_t app_bytes_per_rank) {
  return hpl::max_problem_size(app_bytes_per_rank, g.nb, g.P, g.Q);
}

inline hpl::SktHplConfig make_config(const Geometry& g, std::int64_t n,
                                     ckpt::Strategy strategy, int group_size,
                                     std::int64_t ckpt_every) {
  hpl::SktHplConfig config;
  config.hpl.n = n;
  config.hpl.nb = g.nb;
  config.hpl.grid_p = g.P;
  config.hpl.grid_q = g.Q;
  config.strategy = strategy;
  config.group_size = group_size;
  config.ckpt_every_panels = ckpt_every;
  return config;
}

}  // namespace skt::bench
