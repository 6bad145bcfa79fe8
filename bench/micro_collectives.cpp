// Microbenchmarks for the SimMPI collectives that the checkpoint protocol
// and HPL run: barrier, bcast, the pipelined reduce (the reference
// encoder's workhorse), and the GroupCodec encode itself (both the owners'
// fold of lent stripes and the sequential-reduce reference). Each benchmark
// iteration runs one job over rank threads performing `kOpsPerJob`
// operations, so thread spawn cost is amortized out of the per-op figure.
#include <benchmark/benchmark.h>

#include <vector>

#include "encoding/group_codec.hpp"
#include "mpi/comm.hpp"
#include "mpi/runtime.hpp"
#include "sim/cluster.hpp"

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

}  // namespace

BENCHMARK_MAIN();
