// Ablation — encoding design choices the paper calls out:
//
//  * XOR vs numeric SUM (Section 2.2: "On some platforms, the logical XOR
//    operation is much faster than the numerical SUM. Our implementation
//    uses XOR by default"): commit cost and recovery exactness.
//  * Single vs dual parity (the RAID-6/Reed-Solomon extension): memory
//    cost and encode cost of tolerating a second failure per group.
#include <cstring>

#include "bench_common.hpp"
#include "ckpt/plan.hpp"
#include "ckpt/session.hpp"

using namespace skt;

namespace {

constexpr int kRanks = 8;
constexpr int kGroup = 8;
constexpr std::size_t kDataBytes = 4u << 20;

/// Deterministic fill; content only needs to be non-trivial, the
/// harness-level tests already verify bit-exact recovery.
void fill_data(std::span<std::byte> data, int rank) {
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::byte>((i * 131 + static_cast<std::size_t>(rank) * 7) & 0xff);
  }
}

struct CodecRun {
  double encode_s = 0.0;        ///< mean wall encode time per commit
  std::size_t memory = 0;       ///< protocol footprint
  std::size_t redundancy = 0;   ///< checksum/parity bytes
  bool recovered = false;       ///< survived a mid-run node loss
};

CodecRun run_variant(enc::CodecKind codec, int parity_degree) {
  CodecRun out;
  const auto body = [&](mpi::Comm& world, bool measure) {
    ckpt::Session session = ckpt::SessionBuilder{}
                                .strategy(ckpt::Strategy::kSelf)
                                .key_prefix("codec")
                                .data_bytes(kDataBytes)
                                .codec(codec)
                                .parity_degree(parity_degree)
                                .build(world);
    const bool restored = session.open() == ckpt::OpenOutcome::kRestored;
    auto* iter = reinterpret_cast<std::uint64_t*>(session.user_state().data());
    if (!restored) {
      *iter = 0;
      fill_data(session.data(), world.rank());
    }
    double total = 0.0;
    int commits = 0;
    std::size_t redundancy = 0;
    while (*iter < 4) {
      world.failpoint("codec.work");
      *iter += 1;
      const ckpt::CommitStats stats = session.commit();
      total += stats.encode_s;
      redundancy = stats.checksum_bytes;
      ++commits;
    }
    if (measure && world.rank() == 0 && commits > 0) {
      out.encode_s = total / commits;
      out.memory = session.memory_bytes();
      out.redundancy = redundancy;
    }
  };

  // Fault-free measurement pass.
  {
    sim::Cluster cluster({.num_nodes = kRanks, .spare_nodes = 0, .nodes_per_rack = 4});
    mpi::JobLauncher launcher(cluster, nullptr, {.max_restarts = 0});
    (void)launcher.run(kRanks, [&](mpi::Comm& w) { body(w, true); });
  }
  // Recovery pass: one node loss mid-run.
  {
    sim::Cluster cluster({.num_nodes = kRanks, .spare_nodes = 2, .nodes_per_rack = 4});
    sim::FailureInjector injector;
    injector.add_rule({.point = "codec.work", .world_rank = 2, .hit = 3, .repeat = false});
    mpi::JobLauncher launcher(cluster, &injector, {.max_restarts = 2});
    const auto result = launcher.run(kRanks, [&](mpi::Comm& w) { body(w, false); });
    out.recovered = result.success;
  }
  return out;
}

}  // namespace

int main() {
  bench::print_header("Ablation", "encoding choices: XOR vs SUM, single vs dual parity");

  const CodecRun xor1 = run_variant(enc::CodecKind::kXor, 1);
  const CodecRun sum1 = run_variant(enc::CodecKind::kSum, 1);
  const CodecRun dual = run_variant(enc::CodecKind::kXor, 2);

  util::Table table({"variant", "available mem", "redundancy/process", "encode time",
                     "failures tolerated/group", "recovers"});
  table.add_row({"XOR, single parity (default)",
                 util::format("{:.1%}", ckpt::available_fraction(ckpt::Strategy::kSelf, kGroup)),
                 util::format_bytes(xor1.redundancy), util::format_seconds(xor1.encode_s),
                 "1", xor1.recovered ? "yes" : "NO"});
  table.add_row({"SUM, single parity",
                 util::format("{:.1%}", ckpt::available_fraction(ckpt::Strategy::kSelf, kGroup)),
                 util::format_bytes(sum1.redundancy), util::format_seconds(sum1.encode_s),
                 "1", sum1.recovered ? "yes" : "NO"});
  table.add_row({"GF(256), dual parity",
                 util::format("{:.1%}", ckpt::available_fraction(ckpt::Strategy::kSelf, kGroup, 2)),
                 util::format_bytes(dual.redundancy), util::format_seconds(dual.encode_s),
                 "2", dual.recovered ? "yes" : "NO"});
  table.print();

  bool ok = true;
  ok &= bench::shape_check("all three variants recover from a node loss",
                           xor1.recovered && sum1.recovered && dual.recovered);
  ok &= bench::shape_check(
      "dual parity stores ~2x the redundancy of single parity",
      dual.redundancy > static_cast<std::size_t>(1.5 * static_cast<double>(xor1.redundancy)) &&
          dual.redundancy < 3 * xor1.redundancy);
  ok &= bench::shape_check(
      "dual parity costs more encode time than single parity (GF multiplies)",
      dual.encode_s > xor1.encode_s);
  ok &= bench::shape_check(
      "dual parity still leaves more memory than double-checkpoint",
      ckpt::available_fraction(ckpt::Strategy::kSelf, kGroup, 2) >
          ckpt::available_fraction(ckpt::Strategy::kDouble, kGroup));
  return ok ? 0 : 1;
}
