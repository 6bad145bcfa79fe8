// Table 1 — memory usage of the self-checkpoint mechanism per part
// (A1+A2, B, C, D) and the closed-form totals of Eqs. 2-4, validated
// against the byte counts the protocols actually allocate.
#include <memory>
#include <vector>

#include "bench_common.hpp"
#include "ckpt/plan.hpp"
#include "ckpt/session.hpp"
#include "storage/vault.hpp"

using namespace skt;

namespace {

/// Actually allocated protocol footprint for one strategy at group size N.
std::size_t measured_footprint(ckpt::Strategy strategy, int group, std::size_t m) {
  std::size_t bytes = 0;
  storage::Vault vault;
  bench::ClusterSpec spec;
  spec.ranks = group;
  spec.spares = 0;
  (void)bench::run_job(spec, [&](mpi::Comm& world) {
    ckpt::Session session = ckpt::SessionBuilder{}
                                .strategy(strategy)
                                .key_prefix("t1")
                                .data_bytes(m)
                                .vault(&vault)
                                .build(world);
    (void)session.open();
    if (world.rank() == 0) bytes = session.memory_bytes();
  });
  return bytes;
}

}  // namespace

int main() {
  bench::print_header("Table 1", "memory usage of the self-checkpoint mechanism");
  const std::size_t m = 1u << 20;  // M = 1 MiB per process

  {
    util::Table table({"item", "paper size", "bytes at M=1MiB, N=8"});
    const int n = 8;
    const ckpt::MemoryPlan plan = ckpt::plan_memory(ckpt::Strategy::kSelf, 0, 2);
    (void)plan;
    const double mn = static_cast<double>(m);
    table.add_row({"A1+A2 (work)", "M", util::format_bytes(m)});
    table.add_row({"B (checkpoint)", "M", util::format_bytes(m)});
    table.add_row({"C (old checksum)", "M/(N-1)",
                   util::format_bytes(static_cast<std::size_t>(mn / (n - 1)))});
    table.add_row({"D (new checksum)", "M/(N-1)",
                   util::format_bytes(static_cast<std::size_t>(mn / (n - 1)))});
    table.add_row({"total", "2MN/(N-1)",
                   util::format_bytes(static_cast<std::size_t>(2 * mn * n / (n - 1)))});
    table.print();
  }

  std::printf("\nmeasured allocation vs closed form (M = 1 MiB):\n");
  util::Table table({"strategy", "N", "formula total", "allocated", "deviation"});
  bool all_ok = true;
  for (const auto strategy :
       {ckpt::Strategy::kSingle, ckpt::Strategy::kDouble, ckpt::Strategy::kSelf}) {
    for (const int n : {2, 4, 8, 16}) {
      const double mn = static_cast<double>(m);
      double formula = 0;
      switch (strategy) {
        case ckpt::Strategy::kSingle: formula = mn * (2.0 + 1.0 / (n - 1)); break;
        case ckpt::Strategy::kDouble: formula = mn * (3.0 + 2.0 / (n - 1)); break;
        case ckpt::Strategy::kSelf: formula = 2.0 * mn * n / (n - 1); break;
        default: break;
      }
      const std::size_t allocated = measured_footprint(strategy, n, m);
      const double deviation =
          std::abs(static_cast<double>(allocated) - formula) / formula;
      all_ok &= deviation < 0.02;  // stripe padding + headers only
      table.add_row({std::string(ckpt::to_string(strategy)), std::to_string(n),
                     util::format_bytes(static_cast<std::size_t>(formula)),
                     util::format_bytes(allocated), util::format("{:.2%}", deviation)});
    }
  }
  table.print();
  bench::shape_check("allocated footprints match Table 1 formulas within 2%", all_ok);
  return all_ok ? 0 : 1;
}
