#include "hpl/skt_hpl.hpp"

#include <cstring>
#include <stdexcept>
#include <vector>

#include "hpl/dist_matrix.hpp"
#include "telemetry/trace.hpp"
#include "util/clock.hpp"
#include "util/log.hpp"

namespace skt::hpl {
namespace {

/// A2 — the small user-space state checkpointed alongside the matrix.
struct SktState {
  std::uint64_t magic = 0x534b544850ull;  // "SKTHP"
  std::int64_t next_panel = 0;
  std::int64_t n = 0;
  std::int64_t nb = 0;
  std::uint64_t seed = 0;

  [[nodiscard]] bool valid(const HplConfig& config) const {
    return magic == 0x534b544850ull && n == config.n && nb == config.nb &&
           seed == config.seed;
  }
};

mpi::Comm build_group_comm(mpi::Comm& world, int group_size, ckpt::Mapping mapping) {
  std::vector<int> nodes(static_cast<std::size_t>(world.size()));
  std::vector<int> racks(static_cast<std::size_t>(world.size()));
  for (int r = 0; r < world.size(); ++r) {
    const int node_id = world.node_id_of(r);
    nodes[static_cast<std::size_t>(r)] = node_id;
    racks[static_cast<std::size_t>(r)] = world.runtime().cluster().node(node_id).rack();
  }
  const ckpt::GroupAssignment assignment =
      ckpt::plan_groups(world.size(), group_size, nodes, racks, mapping);
  return ckpt::make_group_comm(world, assignment);
}

}  // namespace

SktHplResult run_skt_hpl(mpi::Comm& world, const SktHplConfig& config) {
  const HplConfig& h = config.hpl;
  SktHplResult result;

  mpi::Grid grid(world, h.grid_p, h.grid_q);
  // Uniform per-rank allocation (group encoding needs equal sizes).
  const std::int64_t elems =
      DistMatrix::max_local_elements(h.n, h.n + 1, h.nb, h.grid_p, h.grid_q);
  const std::size_t data_bytes = static_cast<std::size_t>(elems) * sizeof(double);

  // ---------------------------------------------------------------- none --
  if (config.strategy == ckpt::Strategy::kNone) {
    result.hpl = run_hpl(world, h);
    return result;
  }

  ckpt::Session session =
      ckpt::SessionBuilder{}
          .strategy(config.strategy)
          .key_prefix(config.key_prefix)
          .data_bytes(data_bytes)
          .user_bytes(sizeof(SktState))
          .codec(config.codec)
          .vault(config.vault)
          .group(build_group_comm(world, config.group_size, config.mapping))
          .mode(config.async ? ckpt::CommitMode::kAsync : ckpt::CommitMode::kSync)
          .service(config.service)
          .tenant(config.tenant)
          .build(world);

  const double virtual_before = world.virtual_seconds();
  util::WallTimer timer;

  util::WallTimer open_timer;
  const ckpt::OpenOutcome outcome = session.open();
  auto* state = reinterpret_cast<SktState*>(session.user_state().data());

  // data() is at least data_bytes long; alias it as the local matrix.
  const std::span<double> storage{reinterpret_cast<double*>(session.data().data()),
                                  static_cast<std::size_t>(elems)};
  DistMatrix a(grid, h.n, h.n + 1, h.nb, storage);

  if (outcome == ckpt::OpenOutcome::kRestored) {
    // Restart path (Fig. 9): open() restored data + loop position from the
    // checkpoint, so generation is skipped.
    result.restored = true;
    result.restore_s = open_timer.seconds();
    if (!state->valid(h)) {
      throw std::runtime_error("skt-hpl: restored state does not match this configuration");
    }
    SKT_LOG_INFO("skt-hpl: restored epoch {} -> resuming at panel {}",
                 session.last_restore()->epoch, state->next_panel);
  } else {
    *state = SktState{};
    state->next_panel = 0;
    state->n = h.n;
    state->nb = h.nb;
    state->seed = h.seed;
    generate(a, h.seed);
  }
  world.barrier();

  // Worker-side stats of an async epoch; reaped when its ticket resolves.
  double dirty_fraction_sum = 0.0;
  int absorbed_commits = 0;
  const auto absorb_pipeline = [&result, &dirty_fraction_sum,
                                &absorbed_commits](const ckpt::CommitStats& stats) {
    result.encode_total_s += stats.encode_s;
    result.encode_virtual_total_s += stats.encode_virtual_s;
    result.encode_last_s = stats.encode_s + stats.encode_virtual_s;
    result.ckpt_bytes = stats.checkpoint_bytes;
    result.checksum_bytes = stats.checksum_bytes;
    result.dirty_bytes_last = stats.dirty_bytes;
    result.dirty_bytes_total += stats.dirty_bytes;
    result.dirty_fraction_last = stats.dirty_fraction;
    dirty_fraction_sum += stats.dirty_fraction;
    ++absorbed_commits;
  };

  ckpt::CommitTicket pending;
  const PanelHook hook = [&](std::int64_t next_panel) {
    world.failpoint("hpl.panel");
    if (config.ckpt_every_panels > 0 && next_panel % config.ckpt_every_panels == 0) {
      SKT_SPAN("hpl.commit");
      state->next_panel = next_panel;
      if (config.async) {
        // Reap the previous epoch first: commit_async would block on it
        // anyway (staleness is bounded to one epoch), so the wait here
        // adds no latency but lets us account the worker's time.
        if (pending.valid()) {
          const ckpt::CommitStats done = pending.wait();
          absorb_pipeline(done);
          result.ckpt_worker_total_s += done.total_s();
        }
        pending = session.commit_async();
        ++result.checkpoints;
        // The loop only ever pays the stage copy.
        result.ckpt_stage_total_s += pending.stage_seconds();
        result.ckpt_total_s += pending.stage_seconds();
      } else {
        const ckpt::CommitStats stats = session.commit();
        ++result.checkpoints;
        result.ckpt_total_s += stats.total_s();
        absorb_pipeline(stats);
      }
    }
    return true;
  };

  lu_factorize(grid, a, h.n, state->next_panel, hook);
  if (pending.valid()) {
    const ckpt::CommitStats done = pending.wait();
    absorb_pipeline(done);
    result.ckpt_worker_total_s += done.total_s();
  }
  if (result.ckpt_stage_total_s + result.ckpt_worker_total_s > 0.0) {
    result.overlap_fraction = result.ckpt_worker_total_s /
                              (result.ckpt_stage_total_s + result.ckpt_worker_total_s);
  }
  if (absorbed_commits > 0) {
    result.dirty_fraction_mean = dirty_fraction_sum / absorbed_commits;
  }
  const std::vector<double> x = back_substitute(world, grid, a, h.n);
  const double elapsed = timer.seconds();
  const double virtual_delta = world.virtual_seconds() - virtual_before;

  world.failpoint("hpl.done");
  result.hpl.elapsed_s = elapsed;
  result.hpl.virtual_s = virtual_delta;
  result.hpl.gflops = hpl_flops(h.n) / (elapsed + virtual_delta) * 1e-9;
  result.hpl.residual = verify(world, a, h.n, h.seed, x);
  result.memory_bytes = session.memory_bytes();
  return result;
}

}  // namespace skt::hpl
