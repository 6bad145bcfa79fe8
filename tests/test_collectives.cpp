// Cross-checks for the bandwidth-optimal collectives: chunked binomial
// reduce, ring reduce-scatter, ring allreduce, the sparse tree reduce, and
// the zero-copy send path they are built on. Every result is compared
// against a locally computed expectation from deterministic per-rank
// payloads, across comm sizes 1..17 (non-powers-of-two included) and every
// root.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <cstring>
#include <thread>
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

TEST(Collectives, ReduceScatterMatchesLocalAllSizes) {
  for (int n = 1; n <= 17; ++n) {
    MiniCluster mc(n, 0);
    const auto result = mc.run(n, [n](Comm& world) {
      // Contribution layout: block b goes to rank b; rank r's full input is
      // n blocks of kCount lanes, all derived from (rank, block) so the
      // expected result is computable anywhere.
      std::vector<std::uint64_t> in(static_cast<std::size_t>(n) * kCount);
      for (int b = 0; b < n; ++b) {
        const auto block =
            payload_u64(world.rank(), kCount, 1000 + static_cast<std::uint64_t>(b));
        std::copy(block.begin(), block.end(), in.begin() + b * static_cast<long>(kCount));
      }
      std::vector<std::uint64_t> out(kCount);
      world.reduce_scatter<std::uint64_t>(in, out, BXor{}, kSmallChunk);
      const auto want = expected_reduction<std::uint64_t>(
          n, kCount, 1000 + static_cast<std::uint64_t>(world.rank()), BXor{});
      EXPECT_EQ(out, want) << "n=" << n << " rank=" << world.rank();
    });
    ASSERT_TRUE(result.completed) << result.abort_reason;
  }
}

TEST(Collectives, RingAllreduceMatchesBinomialAllSizes) {
  for (int n = 1; n <= 17; ++n) {
    MiniCluster mc(n, 0);
    const auto result = mc.run(n, [n](Comm& world) {
      const std::size_t count = static_cast<std::size_t>(n) * 13;  // divisible by n
      const std::vector<std::uint64_t> in = payload_u64(world.rank(), count, 42);
      std::vector<std::uint64_t> ring(count);
      world.allreduce_ring<std::uint64_t>(in, ring, BXor{}, kSmallChunk);
      std::vector<std::uint64_t> binomial(count);
      world.reduce<std::uint64_t>(0, in, binomial, BXor{});
      world.bcast<std::uint64_t>(0, binomial);
      EXPECT_EQ(ring, binomial) << "n=" << n << " rank=" << world.rank();
    });
    ASSERT_TRUE(result.completed) << result.abort_reason;
  }
}

TEST(Collectives, RingAllreduceInPlaceAndSumTolerance) {
  constexpr int kN = 6;
  MiniCluster mc(kN, 0);
  const auto result = mc.run(kN, [](Comm& world) {
    const std::size_t count = kN * 19;
    std::vector<double> buf = payload_f64(world.rank(), count, 77);
    world.allreduce_ring<double>(buf, buf, Sum{}, kSmallChunk);  // in-place
    const auto want = expected_reduction<double>(kN, count, 77, Sum{});
    for (std::size_t i = 0; i < count; ++i) {
      EXPECT_NEAR(buf[i], want[i], 1e-9) << "i=" << i;
    }
  });
  ASSERT_TRUE(result.completed) << result.abort_reason;
}

TEST(Collectives, AllreduceDispatchesRingForLargePayloads) {
  constexpr int kN = 4;
  MiniCluster mc(kN, 0);
  const auto result = mc.run(kN, [](Comm& world) {
    // >= kRingMinBytes and divisible by the comm size -> ring path.
    const std::size_t count = 8192;  // 64 KiB of u64
    const std::vector<std::uint64_t> in = payload_u64(world.rank(), count, 5);
    std::vector<std::uint64_t> out(count);
    world.allreduce<std::uint64_t>(in, out, BXor{});
    const auto want = expected_reduction<std::uint64_t>(kN, count, 5, BXor{});
    EXPECT_EQ(out, want);
    // Small payloads keep the binomial tree and must agree too.
    const std::uint64_t v = world.allreduce_value<std::uint64_t>(
        static_cast<std::uint64_t>(world.rank()) + 1, Max{});
    EXPECT_EQ(v, 4u);
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
        // else ends up blocked inside the ring and must unwind via
        // JobAborted instead of hanging.
        world.reduce_scatter<std::uint64_t>(
            std::span<const std::uint64_t>(in).subspan(0, kN * 8),
            std::span<std::uint64_t>(out).subspan(0, 8), BXor{});
        world.failpoint("mid.collective");
        world.allreduce_ring<std::uint64_t>(
            std::span<const std::uint64_t>(in).subspan(0, kN * 8),
            std::span<std::uint64_t>(out).subspan(0, kN * 8), BXor{}, kSmallChunk);
        world.barrier();
      },
      &injector);
  EXPECT_FALSE(result.completed);
  EXPECT_NE(result.abort_reason.find("mid.collective"), std::string::npos);
}

// --- sparse reduce -----------------------------------------------------------

using Reductions = std::vector<Comm::SparseReduction>;

/// Lane i of the extent member `rank` contributes to reduction `r`: a pure
/// function, so a root can check what it folded without shared state.
std::uint64_t block_lane(std::size_t r, int rank, std::size_t i) {
  return util::splitmix64((r * 131 + static_cast<std::size_t>(rank)) * 1000003 + i);
}

/// What the root of each reduction must hold: the XOR of its sources'
/// extents. Entry r is empty where `rank` is not reduction r's root.
std::vector<std::vector<std::uint64_t>> expected_roots(const Reductions& reductions, int rank) {
  std::vector<std::vector<std::uint64_t>> want(reductions.size());
  for (std::size_t r = 0; r < reductions.size(); ++r) {
    if (reductions[r].root != rank) continue;
    want[r].assign(reductions[r].bytes / 8, 0);
    for (const int s : reductions[r].sources) {
      for (std::size_t i = 0; i < want[r].size(); ++i) want[r][i] ^= block_lane(r, s, i);
    }
  }
  return want;
}

/// Runs reduce_sparse (XOR) on `comm`; returns what this member's roots
/// folded, and counts its fold calls per reduction in `folds`.
std::vector<std::vector<std::uint64_t>> run_sparse(Comm& comm, const Reductions& reductions,
                                                   std::vector<int>* folds = nullptr) {
  std::vector<std::vector<std::uint64_t>> got(reductions.size());
  for (std::size_t r = 0; r < reductions.size(); ++r) {
    if (reductions[r].root == comm.rank()) got[r].assign(reductions[r].bytes / 8, 0);
  }
  if (folds != nullptr) folds->assign(reductions.size(), 0);
  comm.reduce_sparse<std::uint64_t>(
      reductions, BXor{},
      [&](std::size_t r, std::size_t off, std::span<std::byte> out) {
        EXPECT_NE(reductions[r].root, comm.rank());
        for (std::size_t b = 0; b < out.size(); ++b) EXPECT_EQ(out[b], std::byte{0});
        for (std::size_t i = 0; i < out.size() / 8; ++i) {
          const std::uint64_t v = block_lane(r, comm.rank(), off / 8 + i);
          std::memcpy(out.data() + i * 8, &v, 8);
        }
      },
      [&](std::size_t r, std::size_t off, std::span<const std::byte> in) {
        EXPECT_EQ(reductions[r].root, comm.rank());
        if (folds != nullptr) ++(*folds)[r];
        for (std::size_t i = 0; i < in.size() / 8; ++i) {
          std::uint64_t v;
          std::memcpy(&v, in.data() + i * 8, 8);
          got[r][off / 8 + i] ^= v;
        }
      },
      kSmallChunk);
  return got;
}

std::size_t segments_of(std::size_t bytes) { return (bytes + kSmallChunk - 1) / kSmallChunk; }

TEST(SparseReduce, EmptyPatternMovesNothing) {
  MiniCluster mc(4, 0);
  const auto result = mc.run(4, [](Comm& world) {
    world.reduce_sparse<std::uint64_t>(
        std::span<const Comm::SparseReduction>{}, BXor{},
        [](std::size_t, std::size_t, std::span<std::byte>) { ADD_FAILURE() << "fill"; },
        [](std::size_t, std::size_t, std::span<const std::byte>) { ADD_FAILURE() << "fold"; });
  });
  ASSERT_TRUE(result.completed) << result.abort_reason;
  EXPECT_EQ(result.wire_messages, 0u);
  EXPECT_EQ(result.wire_bytes, 0u);
}

TEST(SparseReduce, OneSourceStreamsARaggedBlockInSegments) {
  // 125 lanes = 1000 bytes in 96-byte segments: ten full and a 40-byte tail.
  constexpr std::size_t kLanes = 125;
  const Reductions reductions{{.root = 0, .sources = {2}, .bytes = kLanes * 8}};
  MiniCluster mc(4, 0);
  const auto result = mc.run(4, [&](Comm& world) {
    EXPECT_EQ(run_sparse(world, reductions), expected_roots(reductions, world.rank()))
        << "rank " << world.rank();
  });
  ASSERT_TRUE(result.completed) << result.abort_reason;
  EXPECT_EQ(result.wire_bytes, kLanes * 8);
  EXPECT_EQ(result.wire_messages, segments_of(kLanes * 8));
  EXPECT_EQ(result.copied_bytes, 0u);  // segments are filled in place and moved
}

TEST(SparseReduce, AllSourcesCostTheirBlocksOnceWithLogarithmicFanIn) {
  // Every member is the root of one reduction over all the others, and
  // two more reductions share root 1 with ragged source sets, so trees
  // of every size overlap and a member is source and root at once.
  for (const int n : {2, 3, 5, 8}) {
    constexpr std::size_t kLanes = 203;
    Reductions reductions;
    for (int root = 0; root < n; ++root) {
      Comm::SparseReduction r{.root = root, .sources = {}, .bytes = kLanes * 8};
      for (int step = 1; step < n; ++step) r.sources.push_back((root + step) % n);
      reductions.push_back(r);
    }
    if (n > 2) {
      reductions.push_back({.root = 1, .sources = {n - 1, 0}, .bytes = kLanes * 8});
      reductions.push_back({.root = 1, .sources = {0}, .bytes = kLanes * 8});
    }
    std::size_t sources = 0;
    for (const auto& r : reductions) sources += r.sources.size();
    MiniCluster mc(n, 0);
    const auto result = mc.run(n, [&](Comm& world) {
      std::vector<int> folds;
      EXPECT_EQ(run_sparse(world, reductions, &folds), expected_roots(reductions, world.rank()))
          << "n=" << n << " rank=" << world.rank();
      for (std::size_t r = 0; r < reductions.size(); ++r) {
        if (reductions[r].root != world.rank()) continue;
        // The root hears from one child per bit of the tree size.
        const auto children = static_cast<std::size_t>(
            std::bit_width(reductions[r].sources.size()));
        EXPECT_EQ(static_cast<std::size_t>(folds[r]), children * segments_of(kLanes * 8))
            << "n=" << n << " reduction " << r;
      }
    });
    ASSERT_TRUE(result.completed) << result.abort_reason;
    EXPECT_EQ(result.wire_bytes, sources * kLanes * 8);
    EXPECT_EQ(result.wire_messages, sources * segments_of(kLanes * 8));
  }
}

TEST(SparseReduce, SumCombinesPartialsAlongTheTree) {
  // Integer-valued doubles, so every combination order is exact.
  constexpr int kN = 7;
  constexpr std::size_t kLanes = 50;
  const Reductions reductions{
      {.root = 3, .sources = {4, 5, 6, 0, 1, 2}, .bytes = kLanes * sizeof(double)}};
  MiniCluster mc(kN, 0);
  const auto result = mc.run(kN, [&](Comm& world) {
    std::vector<double> got(kLanes, 0.0);
    world.reduce_sparse<double>(
        reductions, Sum{},
        [&](std::size_t, std::size_t off, std::span<std::byte> out) {
          for (std::size_t i = 0; i < out.size() / 8; ++i) {
            const double v = static_cast<double>((world.rank() + 1) * 100 + off / 8 + i);
            std::memcpy(out.data() + i * 8, &v, 8);
          }
        },
        [&](std::size_t, std::size_t off, std::span<const std::byte> in) {
          for (std::size_t i = 0; i < in.size() / 8; ++i) {
            double v;
            std::memcpy(&v, in.data() + i * 8, 8);
            got[off / 8 + i] += v;
          }
        },
        kSmallChunk);
    if (world.rank() != 3) return;
    for (std::size_t i = 0; i < kLanes; ++i) {
      double want = 0.0;
      for (const int s : reductions[0].sources) want += static_cast<double>((s + 1) * 100 + i);
      EXPECT_EQ(got[i], want) << "lane " << i;
    }
  });
  ASSERT_TRUE(result.completed) << result.abort_reason;
}

TEST(SparseReduce, UnequalExtentsStreamTheirOwnSegments) {
  // Extents of 1000, 96, 40, 232 and 0 bytes in 96-byte segments: ragged,
  // exactly one segment, ending mid-way through the first segment, ending
  // mid-way through the third, and empty. Every member walks the segments
  // of the longest extent; each reduction stops at its own end, so the
  // trees still pair up and each source sends exactly its extent.
  constexpr int kN = 5;
  const Reductions reductions{{.root = 0, .sources = {1, 2, 3, 4}, .bytes = 1000},
                              {.root = 2, .sources = {3}, .bytes = 96},
                              {.root = 4, .sources = {0, 1, 2}, .bytes = 40},
                              {.root = 1, .sources = {4, 2}, .bytes = 232},
                              {.root = 3, .sources = {1}, .bytes = 0}};
  std::size_t bytes = 0;
  std::size_t messages = 0;
  for (const auto& r : reductions) {
    bytes += r.sources.size() * r.bytes;
    messages += r.sources.size() * segments_of(r.bytes);
  }
  MiniCluster mc(kN, 0);
  const auto result = mc.run(kN, [&](Comm& world) {
    std::vector<int> folds;
    EXPECT_EQ(run_sparse(world, reductions, &folds), expected_roots(reductions, world.rank()))
        << "rank " << world.rank();
    for (std::size_t r = 0; r < reductions.size(); ++r) {
      if (reductions[r].root != world.rank()) continue;
      const auto children =
          static_cast<std::size_t>(std::bit_width(reductions[r].sources.size()));
      EXPECT_EQ(static_cast<std::size_t>(folds[r]), children * segments_of(reductions[r].bytes))
          << "reduction " << r;
    }
  });
  ASSERT_TRUE(result.completed) << result.abort_reason;
  EXPECT_EQ(result.wire_bytes, bytes);
  EXPECT_EQ(result.wire_messages, messages);
}

TEST(SparseReduce, RejectsBadRootsAndRepeatedSources) {
  MiniCluster mc(3, 0);
  const auto result = mc.run(3, [](Comm& world) {
    const auto run = [&](const Reductions& reductions) {
      world.reduce_sparse<std::uint64_t>(
          reductions, BXor{}, [](std::size_t, std::size_t, std::span<std::byte>) {},
          [](std::size_t, std::size_t, std::span<const std::byte>) {});
    };
    EXPECT_THROW(run({{.root = 3, .sources = {0}, .bytes = 64}}), std::invalid_argument);
    EXPECT_THROW(run({{.root = 0, .sources = {0}, .bytes = 64}}), std::invalid_argument);
    EXPECT_THROW(run({{.root = 0, .sources = {1, 1}, .bytes = 64}}), std::invalid_argument);
    // An extent must be a whole number of elements.
    EXPECT_THROW(run({{.root = 0, .sources = {1}, .bytes = 60}}), std::invalid_argument);
  });
  ASSERT_TRUE(result.completed) << result.abort_reason;
}

TEST(SparseReduce, DoesNotCrossUserTrafficOrADupdCommunicator) {
  // Overlapping trees run at once on the rank thread and on a second
  // thread over a dup()'d communicator (the async commit worker's setup),
  // with user point-to-point messages between the same pair queued first.
  constexpr int kN = 4;
  constexpr std::size_t kLanes = 517;
  const Reductions reductions{{.root = 0, .sources = {1, 2, 3}, .bytes = kLanes * 8},
                              {.root = 3, .sources = {0, 1}, .bytes = kLanes * 8}};
  const Reductions twin_reductions{{.root = 1, .sources = {2, 3, 0}, .bytes = kLanes * 8},
                                   {.root = 0, .sources = {3, 2, 1}, .bytes = kLanes * 8}};
  MiniCluster mc(kN, 0);
  const auto result = mc.run(kN, [&](Comm& world) {
    Comm twin = world.dup();
    if (world.rank() == 1) world.send_value<int>(0, 0, 41);
    std::vector<std::vector<std::uint64_t>> twin_got;
    std::thread worker([&] { twin_got = run_sparse(twin, twin_reductions); });
    const auto got = run_sparse(world, reductions);
    worker.join();
    EXPECT_EQ(got, expected_roots(reductions, world.rank()));
    EXPECT_EQ(twin_got, expected_roots(twin_reductions, world.rank()));
    if (world.rank() == 0) {
      EXPECT_EQ(world.recv_value<int>(1, 0), 41);
    }
  });
  ASSERT_TRUE(result.completed) << result.abort_reason;
}

TEST(SparseReduce, NodeFailureMidReduceUnwindsWaitingMembers) {
  // Rank 2 dies while filling its second block, after sending the first
  // segment of the first: rank 0 (waiting on the rest of that block) and
  // rank 3 (waiting on rank 2's other block) must unwind with JobAborted
  // instead of hanging.
  constexpr int kN = 4;
  constexpr std::size_t kBlock = 10 * kSmallChunk;
  const Reductions reductions{{.root = 0, .sources = {1, 2}, .bytes = kBlock},
                              {.root = 3, .sources = {2}, .bytes = kBlock}};
  MiniCluster mc(kN, 0);
  sim::FailureInjector injector;
  injector.add_rule({.point = "mid.reduce", .world_rank = 2, .hit = 2, .repeat = false});
  std::array<std::atomic<bool>, kN> unwound{};
  const auto result = mc.run(
      kN,
      [&](Comm& world) {
        try {
          world.reduce_sparse<std::uint64_t>(
              reductions, BXor{},
              [&](std::size_t, std::size_t, std::span<std::byte>) {
                world.failpoint("mid.reduce");
              },
              [](std::size_t, std::size_t, std::span<const std::byte>) {}, kSmallChunk);
        } catch (const JobAborted&) {
          unwound[static_cast<std::size_t>(world.rank())] = true;
          throw;
        }
      },
      &injector);
  EXPECT_FALSE(result.completed);
  EXPECT_NE(result.abort_reason.find("mid.reduce"), std::string::npos);
  EXPECT_TRUE(unwound[0]);
  EXPECT_TRUE(unwound[2]);
  EXPECT_TRUE(unwound[3]);
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

TEST(ZeroCopy, TypedRvalueSendMovesByteVectors) {
  MiniCluster mc(2, 0);
  const auto result = mc.run(2, [](Comm& world) {
    if (world.rank() == 0) {
      std::vector<std::byte> buf(512, std::byte{0x7});
      world.send<std::byte>(1, 3, std::move(buf));
    } else {
      std::vector<std::byte> out(512);
      world.recv<std::byte>(0, 3, out);
      EXPECT_EQ(out[0], std::byte{0x7});
    }
  });
  ASSERT_TRUE(result.completed) << result.abort_reason;
  EXPECT_EQ(result.copied_bytes, 512u);  // receive copies; the send did not
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
