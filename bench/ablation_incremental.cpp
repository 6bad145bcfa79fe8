// Ablation — incremental vs full self-checkpoint, reproducing the paper's
// Section 1/7 argument: "HPL has a big memory footprint. Almost every byte
// is modified between two checkpoints. As a result, incremental checkpoint
// methods are not efficient for this problem."
//
// Incremental commits are SelfCheckpoint with annotated epochs (the dirty
// tracker that Session::mark_dirty feeds): only the marked blocks are
// copied, encoded and flushed. Two annotated workloads over the same
// protected buffer, against un-annotated full commits:
//  * full-footprint (HPL-like): every byte rewritten and marked between
//    commits — incremental degenerates to the full protocol;
//  * sparse (5% of the buffer rewritten per interval) — incremental
//    commits shrink proportionally.
#include <cstring>

#include "bench_common.hpp"
#include "ckpt/self_checkpoint.hpp"

using namespace skt;

namespace {

constexpr int kRanks = 8;
constexpr std::size_t kDataBytes = 8u << 20;
constexpr int kCommits = 5;

struct Run {
  double commit_s = 0.0;          ///< mean commit time
  std::size_t flushed_bytes = 0;  ///< bytes copied into B per commit
};

/// dirty_fraction: portion of the buffer rewritten between commits; 1.0
/// rewrites everything. annotate: mark each write in the dirty tracker;
/// otherwise every epoch is un-annotated and commits in full.
Run run_self(double dirty_fraction, bool annotate) {
  Run out;
  bench::ClusterSpec spec;
  spec.ranks = kRanks;
  spec.spares = 0;
  (void)bench::run_job(spec, [&](mpi::Comm& world) {
    ckpt::SelfCheckpoint proto({.key_prefix = "abl", .data_bytes = kDataBytes});
    ckpt::CommCtx ctx{world, world};
    proto.open(ctx);
    std::memset(proto.data().data(), 0x42, proto.data().size());
    proto.commit(ctx);  // baseline full commit excluded from the means

    const auto window = static_cast<std::size_t>(
        static_cast<double>(kDataBytes) * dirty_fraction);
    double total = 0.0;
    std::size_t flushed = 0;
    for (int i = 0; i < kCommits; ++i) {
      const std::size_t offset =
          window >= kDataBytes ? 0 : (static_cast<std::size_t>(i) * 977 * 4096) % (kDataBytes - window);
      std::memset(proto.data().data() + offset, 0x50 + i, window);
      if (annotate) proto.dirty_tracker()->mark(offset, window);
      const ckpt::CommitStats stats = proto.commit(ctx);
      total += stats.total_s();
      flushed += stats.checkpoint_bytes;
    }
    if (world.rank() == 0) {
      out.commit_s = total / kCommits;
      out.flushed_bytes = flushed / kCommits;
    }
  });
  return out;
}

}  // namespace

int main() {
  bench::print_header("Ablation",
                      "incremental vs full self-checkpoint (the Section 7 argument)");

  const Run full = run_self(1.0, false);
  const Run incr_hpl = run_self(1.0, true);      // HPL-like footprint
  const Run incr_sparse = run_self(0.05, true);  // sparse-update app

  util::Table table({"variant", "workload dirty fraction", "flushed bytes/commit",
                     "commit time"});
  table.add_row({"full (un-annotated)", "100%", util::format_bytes(full.flushed_bytes),
                 util::format_seconds(full.commit_s)});
  table.add_row({"incremental", "100% (HPL-like)",
                 util::format_bytes(incr_hpl.flushed_bytes),
                 util::format_seconds(incr_hpl.commit_s)});
  table.add_row({"incremental", "5% (sparse app)",
                 util::format_bytes(incr_sparse.flushed_bytes),
                 util::format_seconds(incr_sparse.commit_s)});
  table.print();

  bool ok = true;
  ok &= bench::shape_check(
      "with HPL's full footprint, incremental flushes everything anyway (paper's point)",
      incr_hpl.flushed_bytes > (kDataBytes * 9) / 10);
  // Dirty tracking works in 4 KiB blocks, so a 5% window costs its own
  // blocks (plus at most one partial block at each end) and the
  // always-dirty user-state tail one more.
  ok &= bench::shape_check(
      "with sparse updates, incremental flushes < 50% of the buffer (the window's blocks)",
      incr_sparse.flushed_bytes < kDataBytes / 2);
  ok &= bench::shape_check(
      "sparse incremental commits are at least 2x cheaper than full commits",
      incr_sparse.commit_s * 2.0 < full.commit_s);
  return ok ? 0 : 1;
}
