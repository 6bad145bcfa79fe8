// Cross-checks for the chunked collectives: the pipelined binomial reduce,
// the allreduce built on it (reduce, then bcast) over many segments, and the
// zero-copy send path they are built on. Every result is compared against
// a locally computed expectation from deterministic per-rank payloads,
// across comm sizes 1..17 (non-powers-of-two included) and every root.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "testing.hpp"
#include "util/rng.hpp"

namespace skt::mpi {
namespace {

using skt::testing::MiniCluster;

// Deterministic payload of rank r: every rank can regenerate every other
// rank's contribution and compute the expected reduction locally.
std::vector<std::uint64_t> payload_u64(int rank, std::size_t count, std::uint64_t salt) {
  std::vector<std::uint64_t> v(count);
  std::uint64_t state = salt ^ (0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(rank + 1));
  for (auto& x : v) x = state = util::splitmix64(state);
  return v;
}

std::vector<double> payload_f64(int rank, std::size_t count, std::uint64_t salt) {
  const std::vector<std::uint64_t> bits = payload_u64(rank, count, salt);
  std::vector<double> v(count);
  for (std::size_t i = 0; i < count; ++i) {
    v[i] = static_cast<double>(bits[i] % 4096) / 64.0 - 32.0;
  }
  return v;
}

template <typename T, typename Op>
std::vector<T> expected_reduction(int n, std::size_t count, std::uint64_t salt, Op op) {
  std::vector<T> acc;
  for (int r = 0; r < n; ++r) {
    std::vector<T> contrib;
    if constexpr (std::is_same_v<T, std::uint64_t>) {
      contrib = payload_u64(r, count, salt);
    } else {
      contrib = payload_f64(r, count, salt);
    }
    if (r == 0) {
      acc = std::move(contrib);
    } else {
      for (std::size_t i = 0; i < count; ++i) acc[i] = op(acc[i], contrib[i]);
    }
  }
  return acc;
}

// Awkward sizes on purpose: not a multiple of the chunk, forcing a partial
// trailing segment through the pipelined paths.
constexpr std::size_t kCount = 203;
constexpr std::size_t kSmallChunk = 96;  // bytes -> 12 u64 lanes, forces chunking

TEST(Collectives, PipelinedReduceMatchesLocalAllRootsAllSizes) {
  for (int n = 1; n <= 17; ++n) {
    MiniCluster mc(n, 0);
    const auto result = mc.run(n, [n](Comm& world) {
      for (int root = 0; root < n; ++root) {
        const std::vector<std::uint64_t> in = payload_u64(world.rank(), kCount, 11);
        std::vector<std::uint64_t> out(world.rank() == root ? kCount : 0);
        world.reduce<std::uint64_t>(root, in, out, BXor{}, kSmallChunk);
        if (world.rank() == root) {
          const auto want = expected_reduction<std::uint64_t>(n, kCount, 11, BXor{});
          EXPECT_EQ(out, want) << "n=" << n << " root=" << root;
        }
      }
    });
    ASSERT_TRUE(result.completed) << result.abort_reason;
  }
}

TEST(Collectives, PipelinedReduceSumInPlaceAtRoot) {
  constexpr int kN = 7;
  MiniCluster mc(kN, 0);
  const auto result = mc.run(kN, [](Comm& world) {
    std::vector<double> buf = payload_f64(world.rank(), kCount, 23);
    // In-place: out aliases in on every rank (non-roots just keep their
    // input unchanged conceptually; only the root's buffer is defined).
    world.reduce<double>(3, buf, buf, Sum{}, kSmallChunk);
    if (world.rank() == 3) {
      const auto want = expected_reduction<double>(kN, kCount, 23, Sum{});
      for (std::size_t i = 0; i < kCount; ++i) {
        EXPECT_NEAR(buf[i], want[i], 1e-9) << "i=" << i;
      }
    }
  });
  ASSERT_TRUE(result.completed) << result.abort_reason;
}

TEST(Collectives, AllreduceOverManySegmentsMatchesLocal) {
  constexpr int kN = 6;
  MiniCluster mc(kN, 0);
  const auto result = mc.run(kN, [](Comm& world) {
    // Two and a half default segments (160 KiB of u64): the reduce to rank 0
    // pipelines three of them, the last one ragged, before the bcast.
    constexpr std::size_t kSegment = kCollectiveChunkBytes / sizeof(std::uint64_t);
    const std::size_t count = 2 * kSegment + kSegment / 2;
    const std::vector<std::uint64_t> in = payload_u64(world.rank(), count, 5);
    std::vector<std::uint64_t> out(count);
    world.allreduce<std::uint64_t>(in, out, BXor{});
    EXPECT_EQ(out, (expected_reduction<std::uint64_t>(kN, count, 5, BXor{})));
    // In place over SUM: every rank holds the sum within rounding.
    std::vector<double> buf = payload_f64(world.rank(), count, 77);
    world.allreduce<double>(buf, buf, Sum{});
    const auto want = expected_reduction<double>(kN, count, 77, Sum{});
    for (std::size_t i = 0; i < count; ++i) {
      ASSERT_NEAR(buf[i], want[i], 1e-9) << "i=" << i;
    }
    // One element takes the same path.
    const std::uint64_t v = world.allreduce_value<std::uint64_t>(
        static_cast<std::uint64_t>(world.rank()) + 1, Max{});
    EXPECT_EQ(v, static_cast<std::uint64_t>(kN));
  });
  ASSERT_TRUE(result.completed) << result.abort_reason;
}

TEST(Collectives, NodeFailureUnwindsRanksBlockedMidCollective) {
  constexpr int kN = 8;
  MiniCluster mc(kN, 0);
  sim::FailureInjector injector;
  injector.add_rule({.point = "mid.collective", .world_rank = 5, .hit = 1, .repeat = false});
  const auto result = mc.run(
      kN,
      [](Comm& world) {
        const std::vector<std::uint64_t> in = payload_u64(world.rank(), kCount, 9);
        std::vector<std::uint64_t> out(kCount);
        // Rank 5 dies between the first collective and the second; everyone
        // else ends up blocked inside the chunked reduce or the bcast after
        // it and must unwind via JobAborted instead of hanging.
        world.allreduce<std::uint64_t>(in, out, BXor{});
        world.failpoint("mid.collective");
        world.reduce<std::uint64_t>(0, in, out, BXor{}, kSmallChunk);
        world.bcast<std::uint64_t>(0, out);
        world.barrier();
      },
      &injector);
  EXPECT_FALSE(result.completed);
  EXPECT_NE(result.abort_reason.find("mid.collective"), std::string::npos);
}

// --- zero-copy messaging ---------------------------------------------------

TEST(ZeroCopy, MoveSendDeliversPayloadWithoutMailboxCopies) {
  MiniCluster mc(2, 0);
  const auto result = mc.run(2, [](Comm& world) {
    if (world.rank() == 0) {
      std::vector<std::byte> buf(4096);
      for (std::size_t i = 0; i < buf.size(); ++i) buf[i] = static_cast<std::byte>(i & 0xff);
      world.send_bytes(1, 7, std::move(buf));
      // Moved-from: valid but unspecified; our mailbox takes the allocation.
      EXPECT_TRUE(buf.empty());  // NOLINT(bugprone-use-after-move)
    } else {
      const std::vector<std::byte> got = world.recv_take(0, 7, 4096);
      for (std::size_t i = 0; i < got.size(); ++i) {
        ASSERT_EQ(got[i], static_cast<std::byte>(i & 0xff)) << "i=" << i;
      }
    }
  });
  ASSERT_TRUE(result.completed) << result.abort_reason;
  // The move-send / take-receive pair never copies through the mailbox
  // layer, while wire accounting still sees the payload once.
  EXPECT_EQ(result.copied_bytes, 0u);
  EXPECT_EQ(result.wire_bytes, 4096u);
  EXPECT_EQ(result.wire_messages, 1u);
}

TEST(ZeroCopy, CopySendAndCopyRecvAreCounted) {
  MiniCluster mc(2, 0);
  const auto result = mc.run(2, [](Comm& world) {
    if (world.rank() == 0) {
      const std::vector<std::byte> buf(1024, std::byte{0x5a});
      world.send_bytes(1, 7, std::span<const std::byte>(buf));  // copy in
      EXPECT_EQ(buf.size(), 1024u);                             // untouched
    } else {
      std::vector<std::byte> out(1024);
      world.recv_bytes(0, 7, out);  // copy out
      EXPECT_EQ(out[100], std::byte{0x5a});
    }
  });
  ASSERT_TRUE(result.completed) << result.abort_reason;
  EXPECT_EQ(result.copied_bytes, 2048u);  // once on send, once on receive
  EXPECT_EQ(result.wire_bytes, 1024u);
}

TEST(ZeroCopy, RecvTakeSizeMismatchAborts) {
  MiniCluster mc(2, 0);
  const auto result = mc.run(2, [](Comm& world) {
    if (world.rank() == 0) {
      world.send_value<int>(1, 1, 5);
    } else {
      (void)world.recv_take(0, 1, 999);  // throws logic_error -> job abort
    }
  });
  EXPECT_FALSE(result.completed);
  EXPECT_NE(result.abort_reason.find("mismatch"), std::string::npos);
}

}  // namespace
}  // namespace skt::mpi
