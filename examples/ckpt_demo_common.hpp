// Shared probe used by the strategy-comparison example: runs one small
// checkpointed workload per strategy, measures commit cost and footprint,
// then injects a failure inside the commit window and reports whether the
// strategy recovered.
#pragma once

#include <cstddef>

#include "ckpt/session.hpp"
#include "mpi/launcher.hpp"
#include "storage/vault.hpp"
#include "util/rng.hpp"

namespace skt::examples {

struct StrategyProbe {
  std::size_t memory_bytes = 0;  ///< protocol footprint per process
  double commit_s = 0.0;         ///< one commit (encode + flush + device)
  bool survives_update_failure = false;
};

inline StrategyProbe probe_strategy(ckpt::Strategy strategy, int ranks, int group_size,
                                    std::size_t data_bytes) {
  StrategyProbe probe;

  // Each pass gets a fresh vault: pass 2 must not resume pass 1's final
  // BLCR image.
  const auto app = [&](mpi::Comm& world, storage::Vault& vault, bool* done) {
    ckpt::Session session = ckpt::SessionBuilder{}
                                .strategy(strategy)
                                .key_prefix("probe")
                                .data_bytes(data_bytes)
                                .group_size(group_size)
                                .vault(&vault)
                                .build(world);
    const bool restored = session.open() == ckpt::OpenOutcome::kRestored;
    auto* iter = reinterpret_cast<std::uint64_t*>(session.user_state().data());
    if (!restored) {
      *iter = 0;
      for (std::size_t i = 0; i < session.data().size(); ++i) {
        session.data()[i] = static_cast<std::byte>(i);
      }
    }
    while (*iter < 3) {
      *iter += 1;
      const ckpt::CommitStats stats = session.commit();
      if (world.rank() == 0) {
        probe.commit_s = stats.total_s();
        probe.memory_bytes = session.memory_bytes();
      }
    }
    if (world.rank() == 0 && done != nullptr) *done = true;
  };

  // Pass 1: fault-free, to measure footprint and commit time.
  {
    sim::Cluster cluster({.num_nodes = ranks, .spare_nodes = 0, .nodes_per_rack = 4});
    storage::Vault vault;
    mpi::JobLauncher launcher(cluster, nullptr, {.max_restarts = 0});
    (void)launcher.run(ranks, [&](mpi::Comm& w) { app(w, vault, nullptr); });
  }
  // Pass 2: kill a node inside the second commit's update window.
  {
    sim::Cluster cluster({.num_nodes = ranks, .spare_nodes = 2, .nodes_per_rack = 4});
    sim::FailureInjector injector;
    const char* point =
        strategy == ckpt::Strategy::kSelf ? "ckpt.mid_flush" : "ckpt.mid_update";
    injector.add_rule({.point = point, .world_rank = 1, .hit = 2, .repeat = false});
    storage::Vault vault;
    mpi::JobLauncher launcher(cluster, &injector, {.max_restarts = 2});
    bool done = false;
    const auto result = launcher.run(ranks, [&](mpi::Comm& w) { app(w, vault, &done); });
    probe.survives_update_failure = result.success && done;
  }
  return probe;
}

}  // namespace skt::examples
