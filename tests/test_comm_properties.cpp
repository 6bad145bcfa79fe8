// Property-style sweeps over the SimMPI collectives: random payloads,
// every root, varying rank counts and message sizes, nested splits, and
// interleaved collectives on overlapping communicators — the traffic
// patterns the encoding and HPL layers generate.
#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "testing.hpp"
#include "util/rng.hpp"

namespace skt::mpi {
namespace {

using skt::testing::MiniCluster;

class CollectiveSweep
    : public ::testing::TestWithParam<std::tuple<int /*ranks*/, int /*elements*/>> {};

TEST_P(CollectiveSweep, BcastDeliversExactPayloadFromEveryRoot) {
  const auto [ranks, elements] = GetParam();
  MiniCluster mc(ranks, 0);
  const auto result = mc.run(ranks, [elements = elements](Comm& world) {
    for (int root = 0; root < world.size(); ++root) {
      std::vector<std::uint64_t> data(static_cast<std::size_t>(elements));
      if (world.rank() == root) {
        util::Xoshiro256 rng(static_cast<std::uint64_t>(root) * 7919 + 13);
        for (auto& v : data) v = rng.next();
      }
      world.bcast<std::uint64_t>(root, data);
      util::Xoshiro256 rng(static_cast<std::uint64_t>(root) * 7919 + 13);
      for (const auto v : data) ASSERT_EQ(v, rng.next());
    }
  });
  ASSERT_TRUE(result.completed) << result.abort_reason;
}

TEST_P(CollectiveSweep, ReduceMatchesLocalFold) {
  const auto [ranks, elements] = GetParam();
  MiniCluster mc(ranks, 0);
  const auto result = mc.run(ranks, [elements = elements, ranks = ranks](Comm& world) {
    std::vector<std::uint64_t> mine(static_cast<std::size_t>(elements));
    util::Xoshiro256 rng(static_cast<std::uint64_t>(world.rank()) * 104729 + 1);
    for (auto& v : mine) v = rng.next();

    // Expected XOR fold over all ranks, computed locally.
    std::vector<std::uint64_t> expect(static_cast<std::size_t>(elements), 0);
    for (int r = 0; r < ranks; ++r) {
      util::Xoshiro256 rr(static_cast<std::uint64_t>(r) * 104729 + 1);
      for (auto& v : expect) v ^= rr.next();
    }

    for (int root = 0; root < world.size(); ++root) {
      std::vector<std::uint64_t> out(mine.size());
      world.reduce<std::uint64_t>(root, mine, out, BXor{});
      if (world.rank() == root) {
        ASSERT_EQ(out, expect) << "root " << root;
      }
    }
    std::vector<std::uint64_t> all(mine.size());
    world.allreduce<std::uint64_t>(mine, all, BXor{});
    ASSERT_EQ(all, expect);
  });
  ASSERT_TRUE(result.completed) << result.abort_reason;
}

INSTANTIATE_TEST_SUITE_P(Shapes, CollectiveSweep,
                         ::testing::Combine(::testing::Values(2, 3, 5, 8, 16),
                                            ::testing::Values(1, 17, 1024)));

TEST(CommProperties, SplitOfSplitKeepsTranslationChain) {
  MiniCluster mc(12, 0);
  const auto result = mc.run(12, [](Comm& world) {
    // First split: thirds. Second split: parity within each third.
    Comm third = world.split(world.rank() / 4, world.rank());
    Comm pair = third.split(third.rank() % 2, third.rank());
    EXPECT_EQ(third.size(), 4);
    EXPECT_EQ(pair.size(), 2);
    // translate() composes back to world ranks.
    const int peer_world = pair.translate(1 - pair.rank());
    EXPECT_EQ(peer_world % 4 % 2, world.rank() % 4 % 2);
    EXPECT_EQ(peer_world / 4, world.rank() / 4);
    // Collectives on the innermost comm behave.
    const int sum = pair.allreduce_value<int>(world.rank(), Sum{});
    EXPECT_EQ(sum, world.rank() + peer_world);
  });
  ASSERT_TRUE(result.completed) << result.abort_reason;
}

TEST(CommProperties, InterleavedCollectivesOnOverlappingComms) {
  // Row/col style: every rank alternates collectives on two different
  // sub-communicators plus the world — the HPL elimination pattern. Tag
  // sequencing must keep the streams separate.
  MiniCluster mc(12, 0);
  const auto result = mc.run(12, [](Comm& world) {
    Comm row = world.split(world.rank() / 4, world.rank());
    Comm col = world.split(100 + world.rank() % 4, world.rank());
    for (int i = 0; i < 10; ++i) {
      const int row_sum = row.allreduce_value<int>(world.rank() + i, Sum{});
      const int col_sum = col.allreduce_value<int>(world.rank() + i, Sum{});
      world.barrier();
      int expect_row = 0;
      const int row_base = world.rank() / 4 * 4;
      for (int k = 0; k < 4; ++k) expect_row += row_base + k + i;
      int expect_col = 0;
      for (int k = 0; k < 3; ++k) expect_col += world.rank() % 4 + 4 * k + i;
      ASSERT_EQ(row_sum, expect_row) << i;
      ASSERT_EQ(col_sum, expect_col) << i;
    }
  });
  ASSERT_TRUE(result.completed) << result.abort_reason;
}

TEST(CommProperties, GatherHoldsEveryChunkInRankOrder) {
  MiniCluster mc(6, 0);
  const auto result = mc.run(6, [](Comm& world) {
    for (const int chunk : {1, 5, 64}) {
      std::vector<double> mine(static_cast<std::size_t>(chunk));
      for (int i = 0; i < chunk; ++i) {
        mine[static_cast<std::size_t>(i)] = world.rank() * 1000.0 + i;
      }
      const std::vector<double> all = world.gather<double>(3, mine);
      if (world.rank() != 3) {
        ASSERT_TRUE(all.empty()) << "chunk " << chunk;
        continue;
      }
      ASSERT_EQ(all.size(), static_cast<std::size_t>(world.size() * chunk));
      for (int r = 0; r < world.size(); ++r) {
        for (int i = 0; i < chunk; ++i) {
          ASSERT_EQ(all[static_cast<std::size_t>(r * chunk + i)], r * 1000.0 + i)
              << "chunk " << chunk << " rank " << r;
        }
      }
    }
  });
  ASSERT_TRUE(result.completed) << result.abort_reason;
}

TEST(CommProperties, MaxLocAgreesWithSerialScan) {
  MiniCluster mc(9, 0);
  const auto result = mc.run(9, [](Comm& world) {
    util::Xoshiro256 rng(777);
    for (int trial = 0; trial < 20; ++trial) {
      std::vector<double> values(9);
      for (auto& v : values) v = rng.next_centered();
      const ValueLoc mine{values[static_cast<std::size_t>(world.rank())], world.rank()};
      const ValueLoc best = world.allreduce_value<ValueLoc>(mine, MaxLoc{});
      // serial reference
      ValueLoc expect{values[0], 0};
      for (int r = 1; r < 9; ++r) {
        expect = MaxLoc{}(expect, ValueLoc{values[static_cast<std::size_t>(r)], r});
      }
      ASSERT_EQ(best.index, expect.index) << trial;
      ASSERT_DOUBLE_EQ(best.value, expect.value);
    }
  });
  ASSERT_TRUE(result.completed) << result.abort_reason;
}

TEST(CommProperties, InterRackLatencyHigherThanIntraRack) {
  sim::NodeProfile profile;
  profile.nic_bandwidth_Bps = 1e9;
  profile.nic_latency_s = 1e-3;
  profile.inter_rack_latency_s = 5e-3;
  // 4 nodes, 2 per rack: ranks 0,1 share rack 0; rank 2 is in rack 1.
  sim::Cluster cluster(
      {.num_nodes = 4, .spare_nodes = 0, .nodes_per_rack = 2, .profile = profile});
  mpi::Runtime rt(cluster, {0, 1, 2, 3}, nullptr, {.model_network = true});
  double intra = 0.0;
  double inter = 0.0;
  const auto result = rt.run([&](Comm& world) {
    const std::vector<std::byte> byte_payload(8);
    if (world.rank() == 0) {
      const double v0 = world.virtual_seconds();
      world.send_bytes(1, 1, byte_payload);  // same rack
      const double v1 = world.virtual_seconds();
      world.send_bytes(2, 2, byte_payload);  // other rack
      const double v2 = world.virtual_seconds();
      intra = v1 - v0;
      inter = v2 - v1;
    }
    if (world.rank() == 1) world.recv_any(0, 1);
    if (world.rank() == 2) world.recv_any(0, 2);
  });
  ASSERT_TRUE(result.completed) << result.abort_reason;
  EXPECT_NEAR(intra, 1e-3, 1e-4);
  EXPECT_NEAR(inter, 5e-3, 1e-4);
}

}  // namespace
}  // namespace skt::mpi
