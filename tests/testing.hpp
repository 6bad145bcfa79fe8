// Shared helpers for tests: one-line job execution over a fresh cluster,
// and pinning the kernel dispatch tier for one scope.
#pragma once

#include <functional>
#include <memory>

#include "encoding/kernels.hpp"
#include "mpi/comm.hpp"
#include "mpi/launcher.hpp"
#include "mpi/runtime.hpp"
#include "sim/cluster.hpp"

namespace skt::testing {

struct MiniCluster {
  explicit MiniCluster(int nodes, int spares = 2, sim::NodeProfile profile = {},
                       int nodes_per_rack = 4)
      : cluster({.num_nodes = nodes,
                 .spare_nodes = spares,
                 .nodes_per_rack = nodes_per_rack,
                 .profile = profile}) {}

  /// Run fn as an nranks job, one rank per node. Asserts completion is up
  /// to the caller (returns the JobResult).
  mpi::JobResult run(int nranks, const std::function<void(mpi::Comm&)>& fn,
                     sim::FailureInjector* injector = nullptr) {
    std::vector<int> ranklist(static_cast<std::size_t>(nranks));
    for (int r = 0; r < nranks; ++r) ranklist[static_cast<std::size_t>(r)] = r;
    mpi::Runtime rt(cluster, ranklist, injector);
    return rt.run(fn);
  }

  sim::Cluster cluster;
};

/// Pins the kernel dispatch tier (encoding kernels and the HPL GEMM) for
/// one scope; restores the previous tier on exit. Set it before spawning
/// rank threads: the tier is process-wide.
struct TierGuard {
  explicit TierGuard(enc::kernels::Tier t) : prev(enc::kernels::force_tier(t)) {}
  ~TierGuard() { enc::kernels::force_tier(prev); }
  TierGuard(const TierGuard&) = delete;
  TierGuard& operator=(const TierGuard&) = delete;
  enc::kernels::Tier prev;
};

}  // namespace skt::testing
