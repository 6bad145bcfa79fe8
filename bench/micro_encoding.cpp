// Microbenchmarks (google-benchmark) for the encoding substrate: XOR and
// SUM lane accumulation, GF(2^8) multiply-accumulate, and the checkpoint
// flush memcpy.
//
// After the registered benchmarks, main() runs the old-vs-new encode
// comparison — GroupCodec::encode (each owner folds its family's lent
// stripes in place) against encode_reference (N sequential binomial
// reduces) — and the rebuild rows
// (GroupCodec::rebuild of one lost member, which folds the survivors'
// lent blocks in place, checked bit-identical against its pre-loss
// buffers) across group sizes {4, 8, 16}, then one RS(6, 2)
// row at group size 8 (its encode and a two-member rebuild), prints
// PASS/FAIL shape checks, and drops the numbers into
// BENCH_micro_encoding.json.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <numeric>
#include <string>
#include <tuple>
#include <vector>

#include "encoding/codec.hpp"
#include "encoding/gf256.hpp"
#include "encoding/group_codec.hpp"
#include "encoding/kernels.hpp"
#include "mpi/comm.hpp"
#include "mpi/runtime.hpp"
#include "sim/cluster.hpp"
#include "util/clock.hpp"
#include "util/json_writer.hpp"
#include "util/rng.hpp"

namespace {

using namespace skt;

// The pre-vectorization accumulate: one memcpy-load / op / memcpy-store
// round trip per lane. Kept as the measured baseline for the kernels in
// encoding/codec.cpp.
void scalar_xor_accumulate(std::span<std::byte> acc, std::span<const std::byte> in) {
  for (std::size_t i = 0; i + 8 <= acc.size(); i += 8) {
    std::uint64_t a = 0;
    std::uint64_t b = 0;
    std::memcpy(&a, acc.data() + i, 8);
    std::memcpy(&b, in.data() + i, 8);
    a ^= b;
    std::memcpy(acc.data() + i, &a, 8);
    benchmark::DoNotOptimize(a);
  }
}

std::vector<std::byte> random_buffer(std::size_t size, std::uint64_t seed) {
  std::vector<std::byte> buf(size);
  util::Xoshiro256 rng(seed);
  for (std::size_t i = 0; i + 8 <= size; i += 8) {
    const std::uint64_t v = rng.next();
    std::memcpy(buf.data() + i, &v, 8);
  }
  return buf;
}

void BM_XorAccumulate(benchmark::State& state) {
  const auto size = static_cast<std::size_t>(state.range(0));
  auto acc = random_buffer(size, 1);
  const auto in = random_buffer(size, 2);
  for (auto _ : state) {
    enc::accumulate(enc::CodecKind::kXor, acc, in);
    benchmark::DoNotOptimize(acc.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(size));
}
BENCHMARK(BM_XorAccumulate)->Arg(4 << 10)->Arg(256 << 10)->Arg(4 << 20);

void BM_XorAccumulateScalarBaseline(benchmark::State& state) {
  const auto size = static_cast<std::size_t>(state.range(0));
  auto acc = random_buffer(size, 1);
  const auto in = random_buffer(size, 2);
  for (auto _ : state) {
    scalar_xor_accumulate(acc, in);
    benchmark::DoNotOptimize(acc.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(size));
}
BENCHMARK(BM_XorAccumulateScalarBaseline)->Arg(4 << 10)->Arg(256 << 10)->Arg(4 << 20);

void BM_SumAccumulate(benchmark::State& state) {
  const auto size = static_cast<std::size_t>(state.range(0));
  std::vector<double> accv(size / 8, 1.5);
  std::vector<double> inv(size / 8, 0.25);
  auto acc = std::as_writable_bytes(std::span<double>(accv));
  const auto in = std::as_bytes(std::span<const double>(inv));
  for (auto _ : state) {
    enc::accumulate(enc::CodecKind::kSum, acc, in);
    benchmark::DoNotOptimize(accv.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(size));
}
BENCHMARK(BM_SumAccumulate)->Arg(4 << 10)->Arg(256 << 10)->Arg(4 << 20);

void BM_Gf256MulAcc(benchmark::State& state) {
  const auto size = static_cast<std::size_t>(state.range(0));
  std::vector<std::uint8_t> out(size, 3);
  std::vector<std::uint8_t> in(size, 7);
  for (auto _ : state) {
    enc::gf256::mul_acc(out, in, 0x1d);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(size));
}
BENCHMARK(BM_Gf256MulAcc)->Arg(4 << 10)->Arg(256 << 10);

void BM_CheckpointFlushMemcpy(benchmark::State& state) {
  const auto size = static_cast<std::size_t>(state.range(0));
  const auto src = random_buffer(size, 5);
  std::vector<std::byte> dst(size);
  for (auto _ : state) {
    std::memcpy(dst.data(), src.data(), size);
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(size));
}
BENCHMARK(BM_CheckpointFlushMemcpy)->Arg(1 << 20)->Arg(16 << 20);

// --- old-vs-new encode comparison ------------------------------------------

struct EncodeMeasure {
  double wall_s = 0.0;            ///< per-encode wall time, max across ranks
  std::uint64_t wire_bytes = 0;   ///< per-encode payload bytes on the wire
  std::uint64_t copied_bytes = 0; ///< per-encode mailbox copy bytes
};

EncodeMeasure measure_encode(int ranks, std::size_t data_bytes, int reps, bool reference,
                             int parity = 1) {
  sim::Cluster cluster(
      {.num_nodes = ranks, .spare_nodes = 0, .nodes_per_rack = 4, .profile = {}});
  std::vector<int> ranklist(static_cast<std::size_t>(ranks));
  std::iota(ranklist.begin(), ranklist.end(), 0);
  mpi::Runtime rt(cluster, ranklist);
  const mpi::JobResult result = rt.run([&](mpi::Comm& world) {
    const enc::GroupCodec codec(enc::CodecKind::kXor, data_bytes, world.size(), parity);
    std::vector<std::byte> data(codec.padded_bytes(), std::byte(world.rank() + 1));
    std::vector<std::byte> checksum(codec.redundancy_bytes());
    world.barrier();
    util::WallTimer timer;
    for (int i = 0; i < reps; ++i) {
      if (reference) {
        codec.encode_reference(world, data, checksum);
      } else {
        codec.encode(world, data, checksum);
      }
    }
    world.record_time("encode", timer.seconds());
  });
  EncodeMeasure m;
  const auto r = static_cast<std::uint64_t>(reps);
  m.wall_s = result.times.at("encode") / reps;
  m.wire_bytes = result.wire_bytes / r;  // barrier tokens are noise (bytes)
  m.copied_bytes = result.copied_bytes / r;
  return m;
}

/// Best-of-3 on wall time (threaded wall clocks are noisy on a shared
/// host); the byte counters are deterministic and identical across runs.
EncodeMeasure measure_encode_best(int ranks, std::size_t data_bytes, int reps,
                                  bool reference, int parity = 1) {
  EncodeMeasure best = measure_encode(ranks, data_bytes, reps, reference, parity);
  for (int i = 0; i < 2; ++i) {
    const EncodeMeasure m = measure_encode(ranks, data_bytes, reps, reference, parity);
    if (m.wall_s < best.wall_s) best.wall_s = m.wall_s;
  }
  return best;
}

// --- rebuild of lost members -------------------------------------------------

struct RebuildMeasure {
  double wall_s = 0.0;            ///< per-rebuild wall time, max across ranks
  std::uint64_t wire_bytes = 0;   ///< per-rebuild payload bytes on the wire
  std::uint64_t copied_bytes = 0; ///< per-rebuild mailbox copy bytes
  bool identical = false;         ///< every member ends bit-identical to pre-loss
};

/// Encodes every member's buffer in one job, then rebuilds members
/// ranks / 2 onward, one per parity row, `reps` times in a second job, so
/// the second job's byte counters hold the rebuilds alone (plus one
/// barrier's tokens).
RebuildMeasure measure_rebuild(int ranks, std::size_t data_bytes, int reps, int parity = 1) {
  sim::Cluster cluster(
      {.num_nodes = ranks, .spare_nodes = 0, .nodes_per_rack = 4, .profile = {}});
  std::vector<int> ranklist(static_cast<std::size_t>(ranks));
  std::iota(ranklist.begin(), ranklist.end(), 0);
  const enc::GroupCodec codec(enc::CodecKind::kXor, data_bytes, ranks, parity);
  std::vector<std::vector<std::byte>> data(ranklist.size());
  std::vector<std::vector<std::byte>> checksum(ranklist.size());
  mpi::Runtime(cluster, ranklist).run([&](mpi::Comm& world) {
    const auto r = static_cast<std::size_t>(world.rank());
    data[r] = random_buffer(codec.padded_bytes(), 100 + r);
    checksum[r].resize(codec.redundancy_bytes());
    codec.encode(world, data[r], checksum[r]);
  });

  std::vector<int> victims(static_cast<std::size_t>(parity));
  std::iota(victims.begin(), victims.end(), ranks / 2);
  std::atomic<bool> identical{true};
  const mpi::JobResult result = mpi::Runtime(cluster, ranklist).run([&](mpi::Comm& world) {
    const auto r = static_cast<std::size_t>(world.rank());
    std::vector<std::byte> mine = data[r];
    std::vector<std::byte> sum = checksum[r];
    if (std::find(victims.begin(), victims.end(), world.rank()) != victims.end()) {
      std::fill(mine.begin(), mine.end(), std::byte{0xAB});
      std::fill(sum.begin(), sum.end(), std::byte{0xCD});
    }
    world.barrier();
    util::WallTimer timer;
    for (int i = 0; i < reps; ++i) codec.rebuild(world, victims, mine, sum);
    world.record_time("rebuild", timer.seconds());
    if (mine != data[r] || sum != checksum[r]) identical = false;
  });
  RebuildMeasure m;
  const auto r = static_cast<std::uint64_t>(reps);
  m.wall_s = result.times.at("rebuild") / reps;
  m.wire_bytes = result.wire_bytes / r;
  m.copied_bytes = result.copied_bytes / r;
  m.identical = result.completed && identical.load();
  return m;
}

/// Best-of-3 on wall time; the byte counters and the check are the same
/// every run, and every run must pass the check.
RebuildMeasure measure_rebuild_best(int ranks, std::size_t data_bytes, int reps,
                                    int parity = 1) {
  RebuildMeasure best = measure_rebuild(ranks, data_bytes, reps, parity);
  for (int i = 0; i < 2; ++i) {
    const RebuildMeasure m = measure_rebuild(ranks, data_bytes, reps, parity);
    best.wall_s = std::min(best.wall_s, m.wall_s);
    best.identical = best.identical && m.identical;
  }
  return best;
}

bool shape_check(const std::string& what, bool ok) {
  std::printf("[%s] %s\n", ok ? "PASS" : "FAIL", what.c_str());
  return ok;
}

bool run_encode_comparison() {
  std::printf("\n--- GroupCodec encode: owner fold of lent stripes vs N sequential reduces ---\n");
  std::printf("%6s %10s %14s %14s %9s %16s %16s\n", "group", "data", "old wall/op",
              "new wall/op", "speedup", "wire old->new", "copied old->new");

  constexpr std::size_t kDataBytes = 1 << 20;
  constexpr int kReps = 16;
  util::JsonWriter report;
  report.begin_object();
  bool ok = true;
  double speedup_g16 = 0.0;
  for (const int g : {4, 8, 16}) {
    const EncodeMeasure oldm = measure_encode_best(g, kDataBytes, kReps, true);
    const EncodeMeasure newm = measure_encode_best(g, kDataBytes, kReps, false);
    const double speedup = oldm.wall_s / newm.wall_s;
    if (g == 16) speedup_g16 = speedup;
    std::printf("%6d %9zuK %12.3fms %12.3fms %8.2fx %7.2f->%-7.2fMB %7.2f->%-7.2fMB\n", g,
                kDataBytes >> 10, oldm.wall_s * 1e3, newm.wall_s * 1e3, speedup,
                static_cast<double>(oldm.wire_bytes) / 1e6,
                static_cast<double>(newm.wire_bytes) / 1e6,
                static_cast<double>(oldm.copied_bytes) / 1e6,
                static_cast<double>(newm.copied_bytes) / 1e6);
    const std::string tag = "encode_g" + std::to_string(g);
    report.field(tag + "_old_wall_s", oldm.wall_s);
    report.field(tag + "_new_wall_s", newm.wall_s);
    report.field(tag + "_speedup", speedup);
    report.field(tag + "_old_wire_bytes", static_cast<std::uint64_t>(oldm.wire_bytes));
    report.field(tag + "_new_wire_bytes", static_cast<std::uint64_t>(newm.wire_bytes));
    report.field(tag + "_old_copied_bytes", static_cast<std::uint64_t>(oldm.copied_bytes));
    report.field(tag + "_new_copied_bytes", static_cast<std::uint64_t>(newm.copied_bytes));
    ok &= shape_check("group " + std::to_string(g) +
                          ": lent encode puts no more bytes on the wire",
                      newm.wire_bytes <= oldm.wire_bytes);
    ok &= shape_check("group " + std::to_string(g) +
                          ": lent encode cuts mailbox copy bytes",
                      newm.copied_bytes < oldm.copied_bytes);
  }
  ok &= shape_check("group 16: encode throughput >= 2x the sequential-reduce baseline",
                    speedup_g16 >= 2.0);

  std::printf("\n--- GroupCodec rebuild: a lost member folds survivors' lent blocks ---\n");
  std::printf("%6s %10s %14s %12s %12s\n", "group", "data", "wall/op", "wire", "copied");
  for (const int g : {4, 8, 16}) {
    const RebuildMeasure m = measure_rebuild_best(g, kDataBytes, kReps);
    std::printf("%6d %9zuK %12.3fms %10.2fMB %10.2fMB\n", g, kDataBytes >> 10,
                m.wall_s * 1e3, static_cast<double>(m.wire_bytes) / 1e6,
                static_cast<double>(m.copied_bytes) / 1e6);
    const std::string tag = "rebuild_g" + std::to_string(g);
    report.field(tag + "_wall_s", m.wall_s);
    report.field(tag + "_wire_bytes", static_cast<std::uint64_t>(m.wire_bytes));
    report.field(tag + "_copied_bytes", static_cast<std::uint64_t>(m.copied_bytes));
    ok &= shape_check("group " + std::to_string(g) +
                          ": rebuilt member is bit-identical to its pre-loss buffers",
                      m.identical);
  }

  // RS(6, 2) at group size 8: every stripe lent to two owners (row 1
  // GF-weighted), and a rebuild of two adjacent members, which share
  // families.
  {
    constexpr int kGroup = 8;
    constexpr int kParity = 2;
    const EncodeMeasure e = measure_encode_best(kGroup, kDataBytes, kReps, false, kParity);
    const RebuildMeasure r = measure_rebuild_best(kGroup, kDataBytes, kReps, kParity);
    std::printf("\n--- RS(%d, %d) at group %d: encode and a %d-member rebuild ---\n",
                kGroup - kParity, kParity, kGroup, kParity);
    std::printf("%8s %12s %12s %12s\n", "", "wall/op", "wire", "copied");
    for (const auto& [name, wall, wire, copied] :
         {std::tuple{"encode", e.wall_s, e.wire_bytes, e.copied_bytes},
          std::tuple{"rebuild", r.wall_s, r.wire_bytes, r.copied_bytes}}) {
      std::printf("%8s %10.3fms %10.2fMB %10.2fMB\n", name, wall * 1e3,
                  static_cast<double>(wire) / 1e6, static_cast<double>(copied) / 1e6);
      const std::string tag = std::string(name) + "_g8_m2";
      report.field(tag + "_wall_s", wall);
      report.field(tag + "_wire_bytes", static_cast<std::uint64_t>(wire));
      report.field(tag + "_copied_bytes", static_cast<std::uint64_t>(copied));
    }
    ok &= shape_check("RS(6, 2): both rebuilt members are bit-identical to their pre-loss buffers",
                      r.identical);
  }

  // Scalar-baseline vs block-processed accumulate, measured directly.
  // Both are DRAM-bound at this size, so best-of-5 rounds and a noise
  // margin keep the check meaningful on a shared host.
  {
    constexpr std::size_t kBuf = 4 << 20;
    auto acc = random_buffer(kBuf, 3);
    const auto in = random_buffer(kBuf, 4);
    constexpr int kAccReps = 8;
    const auto best_of = [&](auto fn) {
      fn();  // warm
      double best = 1e30;
      for (int round = 0; round < 5; ++round) {
        util::WallTimer t;
        for (int i = 0; i < kAccReps; ++i) fn();
        best = std::min(best, t.seconds() / kAccReps);
      }
      return best;
    };
    const double scalar_s = best_of([&] { scalar_xor_accumulate(acc, in); });
    const double block_s = best_of([&] { enc::accumulate(enc::CodecKind::kXor, acc, in); });
    const double ratio = scalar_s / block_s;
    std::printf("accumulate 4MiB: scalar %.3fms, block %.3fms (%.2fx)\n", scalar_s * 1e3,
                block_s * 1e3, ratio);
    report.field("accumulate_scalar_s", scalar_s);
    report.field("accumulate_block_s", block_s);
    report.field("accumulate_speedup", ratio);
    ok &= shape_check("block-processed accumulate is no slower than the scalar baseline",
                      block_s <= scalar_s * 1.25);
  }

  // GF(2^8) multiply-accumulate: PSHUFB split-nibble tier vs the log/exp
  // scalar loop, pinned via force_tier so the comparison measures the
  // kernels, not the dispatch. Outputs are asserted bit-identical first —
  // a fast-but-wrong kernel must fail loudly, not report a speedup.
  {
    constexpr std::size_t kBuf = 256 << 10;
    std::vector<std::uint8_t> in(kBuf);
    util::Xoshiro256 rng(9);
    for (auto& b : in) b = static_cast<std::uint8_t>(rng.next());
    std::vector<std::uint8_t> out_scalar(kBuf, 0x3c);
    std::vector<std::uint8_t> out_simd = out_scalar;
    constexpr std::uint8_t kCoeff = 0x1d;

    {
      const enc::kernels::Tier prev = enc::kernels::force_tier(enc::kernels::Tier::kScalar);
      enc::kernels::gf256_mul_acc(out_scalar, in, kCoeff);
      enc::kernels::force_tier(prev);
    }
    {
      const enc::kernels::Tier prev = enc::kernels::force_tier(enc::kernels::Tier::kAvx2);
      enc::kernels::gf256_mul_acc(out_simd, in, kCoeff);
      enc::kernels::force_tier(prev);
    }
    ok &= shape_check("gf256 mul-acc: SIMD output is bit-identical to scalar",
                      out_scalar == out_simd);

    constexpr int kGfReps = 16;
    const auto best_at = [&](enc::kernels::Tier tier) {
      const enc::kernels::Tier prev = enc::kernels::force_tier(tier);
      enc::kernels::gf256_mul_acc(out_simd, in, kCoeff);  // warm
      double best = 1e30;
      for (int round = 0; round < 5; ++round) {
        util::WallTimer t;
        for (int i = 0; i < kGfReps; ++i) {
          enc::kernels::gf256_mul_acc(out_simd, in, kCoeff);
          benchmark::DoNotOptimize(out_simd.data());
        }
        best = std::min(best, t.seconds() / kGfReps);
      }
      enc::kernels::force_tier(prev);
      return best;
    };
    const double gf_scalar_s = best_at(enc::kernels::Tier::kScalar);
    const bool have_simd = [] {
      const enc::kernels::Tier prev = enc::kernels::force_tier(enc::kernels::Tier::kAvx2);
      const bool on = enc::kernels::active_tier() == enc::kernels::Tier::kAvx2;
      enc::kernels::force_tier(prev);
      return on;
    }();
    const double gf_simd_s = have_simd ? best_at(enc::kernels::Tier::kAvx2) : gf_scalar_s;
    const double gf_speedup = gf_scalar_s / gf_simd_s;
    std::printf("gf256 mul-acc 256KiB: scalar %.3fms, %s %.3fms (%.2fx)\n",
                gf_scalar_s * 1e3, have_simd ? "avx2" : "scalar", gf_simd_s * 1e3,
                gf_speedup);
    report.field("gf256_scalar_s", gf_scalar_s);
    report.field("gf256_simd_s", gf_simd_s);
    report.field("gf256_simd_speedup", gf_speedup);
    report.field("kernel_tier",
                 std::string(to_string(have_simd ? enc::kernels::Tier::kAvx2
                                                 : enc::kernels::Tier::kScalar)));
    if (have_simd) {
      ok &= shape_check("gf256 mul-acc: SIMD tier is >= 3x the scalar loop",
                        gf_speedup >= 3.0);
    } else {
      std::printf("[SKIP] gf256 SIMD speedup check (AVX2 tier not available)\n");
    }
  }
  report.end_object();
  util::write_json_file(util::report_path("BENCH_micro_encoding.json"), report);
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return run_encode_comparison() ? 0 : 1;
}
