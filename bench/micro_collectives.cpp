// Microbenchmarks for the SimMPI collectives that dominate the checkpoint
// protocol: group reduce (the reference encoder's workhorse),
// reduce-scatter, ring allreduce, bcast, barrier, and the GroupCodec encode
// itself (both the owners' fold of lent stripes and the sequential-reduce
// reference). Each benchmark iteration runs one job over rank threads
// performing `kOpsPerJob` operations, so thread spawn cost is amortized
// out of the per-op figure.
//
// main() additionally times binomial vs ring allreduce across message
// sizes and group sizes {4, 8, 16} and writes BENCH_micro_collectives.json.
#include <benchmark/benchmark.h>

#include <numeric>
#include <vector>

#include "encoding/group_codec.hpp"
#include "mpi/comm.hpp"
#include "mpi/runtime.hpp"
#include "sim/cluster.hpp"
#include "util/clock.hpp"
#include "util/json_writer.hpp"

namespace {

using namespace skt;

constexpr int kOpsPerJob = 64;

mpi::JobResult run_collective_job(int ranks, const std::function<void(mpi::Comm&)>& fn) {
  sim::Cluster cluster(
      {.num_nodes = ranks, .spare_nodes = 0, .nodes_per_rack = 4, .profile = {}});
  std::vector<int> ranklist(static_cast<std::size_t>(ranks));
  for (int r = 0; r < ranks; ++r) ranklist[static_cast<std::size_t>(r)] = r;
  mpi::Runtime rt(cluster, ranklist);
  return rt.run(fn);
}

void BM_Barrier(benchmark::State& state) {
  const int ranks = static_cast<int>(state.range(0));
  for (auto _ : state) {
    run_collective_job(ranks, [](mpi::Comm& world) {
      for (int i = 0; i < kOpsPerJob; ++i) world.barrier();
    });
  }
  state.SetItemsProcessed(state.iterations() * kOpsPerJob);
}
BENCHMARK(BM_Barrier)->Arg(4)->Arg(8)->Arg(16)->Unit(benchmark::kMillisecond);

void BM_Bcast(benchmark::State& state) {
  const int ranks = static_cast<int>(state.range(0));
  const auto bytes = static_cast<std::size_t>(state.range(1));
  for (auto _ : state) {
    run_collective_job(ranks, [bytes](mpi::Comm& world) {
      std::vector<std::uint64_t> buf(bytes / 8, 7);
      for (int i = 0; i < kOpsPerJob; ++i) {
        world.bcast<std::uint64_t>(i % world.size(), buf);
      }
    });
  }
  state.SetBytesProcessed(state.iterations() * kOpsPerJob *
                          static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_Bcast)->Args({8, 4 << 10})->Args({8, 256 << 10})->Args({16, 64 << 10})
    ->Unit(benchmark::kMillisecond);

void BM_BcastPipeline(benchmark::State& state) {
  const int ranks = static_cast<int>(state.range(0));
  const auto bytes = static_cast<std::size_t>(state.range(1));
  for (auto _ : state) {
    run_collective_job(ranks, [bytes](mpi::Comm& world) {
      std::vector<std::uint64_t> buf(bytes / 8, 7);
      for (int i = 0; i < kOpsPerJob; ++i) {
        world.bcast_pipeline<std::uint64_t>(i % world.size(), buf, 16 << 10);
      }
    });
  }
  state.SetBytesProcessed(state.iterations() * kOpsPerJob *
                          static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_BcastPipeline)->Args({8, 256 << 10})->Args({16, 64 << 10})
    ->Unit(benchmark::kMillisecond);

void BM_ReduceXor(benchmark::State& state) {
  const int ranks = static_cast<int>(state.range(0));
  const auto bytes = static_cast<std::size_t>(state.range(1));
  for (auto _ : state) {
    run_collective_job(ranks, [bytes](mpi::Comm& world) {
      std::vector<std::uint64_t> in(bytes / 8, 0x55aa);
      std::vector<std::uint64_t> out(bytes / 8);
      for (int i = 0; i < kOpsPerJob; ++i) {
        world.reduce<std::uint64_t>(i % world.size(), in, out, mpi::BXor{});
      }
    });
  }
  state.SetBytesProcessed(state.iterations() * kOpsPerJob *
                          static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_ReduceXor)->Args({8, 64 << 10})->Args({16, 64 << 10})
    ->Unit(benchmark::kMillisecond);

void BM_ReduceScatter(benchmark::State& state) {
  const int ranks = static_cast<int>(state.range(0));
  const auto bytes = static_cast<std::size_t>(state.range(1));  // total input
  for (auto _ : state) {
    run_collective_job(ranks, [ranks, bytes](mpi::Comm& world) {
      const std::size_t count = bytes / 8 / static_cast<std::size_t>(ranks);
      std::vector<std::uint64_t> in(count * static_cast<std::size_t>(ranks), 0x55aa);
      std::vector<std::uint64_t> out(count);
      for (int i = 0; i < kOpsPerJob; ++i) {
        world.reduce_scatter<std::uint64_t>(in, out, mpi::BXor{});
      }
    });
  }
  state.SetBytesProcessed(state.iterations() * kOpsPerJob *
                          static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_ReduceScatter)->Args({4, 64 << 10})->Args({8, 64 << 10})->Args({16, 64 << 10})
    ->Args({8, 1 << 20})->Args({16, 1 << 20})->Unit(benchmark::kMillisecond);

void BM_AllreduceRing(benchmark::State& state) {
  const int ranks = static_cast<int>(state.range(0));
  const auto bytes = static_cast<std::size_t>(state.range(1));
  for (auto _ : state) {
    run_collective_job(ranks, [ranks, bytes](mpi::Comm& world) {
      const std::size_t count =
          bytes / 8 / static_cast<std::size_t>(ranks) * static_cast<std::size_t>(ranks);
      std::vector<std::uint64_t> buf(count, 0x55aa);
      for (int i = 0; i < kOpsPerJob; ++i) {
        world.allreduce_ring<std::uint64_t>(buf, buf, mpi::BXor{});
      }
    });
  }
  state.SetBytesProcessed(state.iterations() * kOpsPerJob *
                          static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_AllreduceRing)->Args({8, 64 << 10})->Args({16, 64 << 10})->Args({16, 1 << 20})
    ->Unit(benchmark::kMillisecond);

void encode_job(benchmark::State& state, bool reference) {
  const int ranks = static_cast<int>(state.range(0));
  const auto data_bytes = static_cast<std::size_t>(state.range(1));
  for (auto _ : state) {
    run_collective_job(ranks, [ranks, data_bytes, reference](mpi::Comm& world) {
      const enc::GroupCodec codec(enc::CodecKind::kXor, data_bytes, ranks);
      std::vector<std::byte> data(codec.padded_bytes(), std::byte(world.rank() + 1));
      std::vector<std::byte> checksum(codec.redundancy_bytes());
      for (int i = 0; i < 4; ++i) {
        if (reference) {
          codec.encode_reference(world, data, checksum);
        } else {
          codec.encode(world, data, checksum);
        }
      }
    });
  }
  state.SetBytesProcessed(state.iterations() * 4 * static_cast<std::int64_t>(data_bytes));
}

void BM_GroupEncode(benchmark::State& state) { encode_job(state, false); }
BENCHMARK(BM_GroupEncode)->Args({4, 1 << 20})->Args({8, 1 << 20})->Args({16, 1 << 20})
    ->Unit(benchmark::kMillisecond);

void BM_GroupEncodeReference(benchmark::State& state) { encode_job(state, true); }
BENCHMARK(BM_GroupEncodeReference)->Args({4, 1 << 20})->Args({8, 1 << 20})
    ->Args({16, 1 << 20})->Unit(benchmark::kMillisecond);

// --- binomial vs ring allreduce sweep for the JSON report -------------------

double time_allreduce(int ranks, std::size_t bytes, bool ring) {
  double best = 0.0;
  for (int attempt = 0; attempt < 3; ++attempt) {
    const mpi::JobResult result = run_collective_job(ranks, [bytes, ring](mpi::Comm& world) {
      const std::size_t count = bytes / 8 / static_cast<std::size_t>(world.size()) *
                                static_cast<std::size_t>(world.size());
      std::vector<std::uint64_t> buf(count, 0x33cc);
      world.barrier();
      util::WallTimer timer;
      for (int i = 0; i < kOpsPerJob; ++i) {
        if (ring) {
          world.allreduce_ring<std::uint64_t>(buf, buf, mpi::BXor{});
        } else {
          std::vector<std::uint64_t> out(buf.size());
          world.reduce<std::uint64_t>(0, buf, out, mpi::BXor{});
          world.bcast<std::uint64_t>(0, out);
        }
      }
      world.record_time("op", timer.seconds());
    });
    const double t = result.times.at("op") / kOpsPerJob;
    if (attempt == 0 || t < best) best = t;
  }
  return best;
}

int run_allreduce_sweep() {
  std::printf("\n--- allreduce: binomial reduce+bcast vs ring, per-op wall time ---\n");
  util::JsonWriter report;
  report.begin_object();
  for (const int g : {4, 8, 16}) {
    for (const std::size_t bytes : {std::size_t{64} << 10, std::size_t{1} << 20}) {
      const double binomial = time_allreduce(g, bytes, false);
      const double ring = time_allreduce(g, bytes, true);
      std::printf("group %2d, %4zuKiB: binomial %8.3fms  ring %8.3fms  (%.2fx)\n", g,
                  bytes >> 10, binomial * 1e3, ring * 1e3, binomial / ring);
      const std::string tag =
          "allreduce_g" + std::to_string(g) + "_" + std::to_string(bytes >> 10) + "k";
      report.field(tag + "_binomial_s", binomial);
      report.field(tag + "_ring_s", ring);
    }
  }
  report.end_object();
  util::write_json_file(util::report_path("BENCH_micro_collectives.json"), report);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return run_allreduce_sweep();
}
