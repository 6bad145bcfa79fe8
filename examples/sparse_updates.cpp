// Incremental self-checkpoint on a sparse-update workload: a distributed
// particle/cell store where each step touches a small, random subset of
// cells and declares them with Session::mark_dirty, so each commit copies,
// encodes and flushes only the touched blocks — the opposite regime from
// HPL, whose full footprint is exactly why the paper rules incremental
// methods out for SKT-HPL.
//
//   ./sparse_updates [--ranks 8] [--cells-kib 1024] [--steps 20]
//                    [--touch-pct 4] [--kill-step 12]
#include <cstdio>
#include <cstring>

#include "ckpt/session.hpp"
#include "mpi/launcher.hpp"
#include "util/log.hpp"
#include "util/options.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

using namespace skt;

namespace {

struct SimState {
  std::uint64_t step = 0;
  std::uint64_t checksum = 0;  // running FNV over applied updates
};

void worker(mpi::Comm& world, std::size_t cell_bytes, int steps, int touch_pct,
            int kill_step, double* mean_commit_s, std::size_t* mean_flush) {
  ckpt::Session session = ckpt::SessionBuilder{}
                              .strategy(ckpt::Strategy::kSelf)
                              .data_bytes(cell_bytes)
                              .user_bytes(sizeof(SimState))
                              .key_prefix("sparse")
                              .build(world);
  auto* state = reinterpret_cast<SimState*>(session.user_state().data());
  if (session.open() == ckpt::OpenOutcome::kRestored) {
    SKT_LOG_INFO("resumed at step {} (epoch {})", state->step, session.last_restore()->epoch);
  } else {
    state->step = 0;
    state->checksum = 1469598103934665603ull;
    std::memset(session.data().data(), 0, session.data().size());
    // Every step annotates its writes, so the initial fill is declared too.
    session.mark_all_dirty();
  }
  const std::span<std::byte> cells = session.data();

  const std::size_t window = cells.size() * static_cast<std::size_t>(touch_pct) / 100;
  double commit_total = 0.0;
  std::size_t flush_total = 0;
  int commits = 0;

  while (state->step < static_cast<std::uint64_t>(steps)) {
    const std::uint64_t next = state->step + 1;
    if (static_cast<int>(next) == kill_step) world.failpoint("sparse.kill");

    // Touch a pseudo-random window of cells; the schedule is a pure
    // function of (rank, step) so recovery replays identically.
    util::Xoshiro256 rng(next * 2654435761ull + static_cast<std::uint64_t>(world.rank()));
    const std::size_t offset =
        window >= cells.size() ? 0 : rng.next_below(cells.size() - window);
    for (std::size_t i = 0; i < window; ++i) {
      cells[offset + i] = static_cast<std::byte>(rng.next());
    }
    session.mark_dirty(offset, window);
    state->checksum = (state->checksum ^ offset) * 1099511628211ull;
    state->step = next;

    const ckpt::CommitStats stats = session.commit();
    commit_total += stats.total_s();
    flush_total += stats.checkpoint_bytes;
    ++commits;
  }

  if (world.rank() == 0 && commits > 0) {
    *mean_commit_s = commit_total / commits;
    *mean_flush = flush_total / static_cast<std::size_t>(commits);
  }
}

}  // namespace

int main(int argc, char** argv) {
  util::Options opts(argc, argv);
  util::set_log_level(opts.get("log", "info"));
  const int ranks = static_cast<int>(opts.get_int("ranks", 8));
  const std::size_t cell_bytes =
      static_cast<std::size_t>(opts.get_int("cells-kib", 1024)) * 1024;
  const int steps = static_cast<int>(opts.get_int("steps", 20));
  const int touch_pct = static_cast<int>(opts.get_int("touch-pct", 4));
  const int kill_step = static_cast<int>(opts.get_int("kill-step", 12));

  sim::Cluster cluster({.num_nodes = ranks, .spare_nodes = 2, .nodes_per_rack = 4});
  sim::FailureInjector injector;
  injector.add_rule({.point = "sparse.kill", .world_rank = ranks / 2, .hit = 1,
                     .repeat = false});

  double mean_commit_s = 0.0;
  std::size_t mean_flush = 0;
  mpi::JobLauncher launcher(cluster, &injector, {.max_restarts = 2});
  const auto result = launcher.run(ranks, [&](mpi::Comm& w) {
    worker(w, cell_bytes, steps, touch_pct, kill_step, &mean_commit_s, &mean_flush);
  });

  std::printf("\n=== sparse-update workload with annotated self-checkpoint ===\n");
  util::Table table({"metric", "value"});
  table.add_row({"protected cells/rank", util::format_bytes(cell_bytes)});
  table.add_row({"touched per step", std::to_string(touch_pct) + "%"});
  table.add_row({"completed (with node loss at step " + std::to_string(kill_step) + ")",
                 result.success ? "yes" : "NO"});
  table.add_row({"restarts", std::to_string(result.restarts)});
  table.add_row({"mean flushed bytes/commit", util::format_bytes(mean_flush)});
  table.add_row({"mean commit time", util::format_seconds(mean_commit_s)});
  table.print();
  std::printf("(compare: a full checkpoint would flush %s every commit)\n",
              util::format_bytes(cell_bytes).c_str());
  return result.success ? 0 : 1;
}
