// Fault-free behaviour of every checkpoint strategy, memory accounting and
// epoch bookkeeping, plus self-checkpoint's dirty-block commits: sparse
// updates through Session::mark_dirty restore bit-exact after a node loss.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <map>
#include <mutex>
#include <string>

#include "ckpt_harness.hpp"
#include "ckpt/blcr_checkpoint.hpp"
#include "ckpt/factory.hpp"
#include "ckpt/session.hpp"
#include "ckpt/self_checkpoint.hpp"
#include "encoding/group_codec.hpp"
#include "mpi/launcher.hpp"
#include "storage/device.hpp"
#include "storage/vault.hpp"
#include "testing.hpp"
#include "util/rng.hpp"

namespace skt::ckpt {
namespace {

using skt::testing::CkptAppConfig;
using skt::testing::checkpointed_app;
using skt::testing::MiniCluster;

class AllStrategies : public ::testing::TestWithParam<Strategy> {};

TEST_P(AllStrategies, FaultFreeRunCompletes) {
  const Strategy strategy = GetParam();
  MiniCluster mc(4, 0);
  storage::Vault vault;
  CkptAppConfig config;
  config.strategy = strategy;
  config.group_size = 4;
  config.iterations = 3;
  config.vault = &vault;
  const auto result = mc.run(4, [&](mpi::Comm& w) { checkpointed_app(w, config); });
  EXPECT_TRUE(result.completed) << result.abort_reason;
}

TEST_P(AllStrategies, AsyncFaultFreeRunCompletes) {
  const Strategy strategy = GetParam();
  MiniCluster mc(4, 0);
  storage::Vault vault;
  CkptAppConfig config;
  config.strategy = strategy;
  config.group_size = 4;
  config.iterations = 4;
  config.vault = &vault;
  config.mode = CommitMode::kAsync;
  const auto result = mc.run(4, [&](mpi::Comm& w) { checkpointed_app(w, config); });
  EXPECT_TRUE(result.completed) << result.abort_reason;
}

TEST_P(AllStrategies, SumCodecFaultFreeRun) {
  const Strategy strategy = GetParam();
  if (strategy == Strategy::kBlcr) GTEST_SKIP() << "BLCR does not encode";
  MiniCluster mc(4, 0);
  CkptAppConfig config;
  config.strategy = strategy;
  config.codec = enc::CodecKind::kSum;
  config.iterations = 2;
  const auto result = mc.run(4, [&](mpi::Comm& w) { checkpointed_app(w, config); });
  EXPECT_TRUE(result.completed) << result.abort_reason;
}

INSTANTIATE_TEST_SUITE_P(Strategies, AllStrategies,
                         ::testing::Values(Strategy::kSingle, Strategy::kDouble,
                                           Strategy::kSelf, Strategy::kBlcr),
                         [](const auto& info) {
                           return std::string(to_string(info.param)).substr(0, 4) == "blcr"
                                      ? "blcr"
                                      : std::string(to_string(info.param))
                                            .substr(0, std::string(to_string(info.param))
                                                           .find('-'));
                         });

// Every strategy fills the same CommitStats fields: the encoding ones
// report the wire bytes of their encode (the full ring moves the group's
// n(n-1) stripes; a delta with one dirty stripe per member moves n), BLCR,
// which encodes nothing, reports none. The dirty accounting is the
// tracker's for everyone: for the same marks, the three encoding
// strategies (one stripe geometry) report the same dirty_bytes and
// dirty_fraction, and BLCR reports its own single-block stripes.
TEST(CommitStats, EveryStrategyReportsEncodeWireBytes) {
  constexpr int kN = 4;
  constexpr std::size_t kDataBytes = 6000;
  struct Dirty {
    std::size_t full_bytes = 0;
    double full_fraction = 0.0;
    std::size_t sparse_bytes = 0;
    double sparse_fraction = 0.0;
  };
  std::map<Strategy, Dirty> dirty;
  std::mutex dirty_mutex;
  for (const Strategy strategy :
       {Strategy::kSingle, Strategy::kDouble, Strategy::kSelf, Strategy::kBlcr}) {
    MiniCluster mc(kN, 0);
    storage::Vault vault;
    const auto result = mc.run(kN, [&](mpi::Comm& world) {
      Session session = SessionBuilder{}
                            .strategy(strategy)
                            .group_size(kN)
                            .data_bytes(kDataBytes)
                            .user_bytes(8)
                            .key_prefix("wire")
                            .vault(&vault)
                            .build(world);
      session.open();
      session.mark_all_dirty();
      const CommitStats full = session.commit();
      // The last byte of data shares the last stripe with the user state,
      // which every commit rewrites: one dirty stripe per member. Three
      // such commits, so double's target pair is clean since its last one.
      CommitStats sparse;
      for (int i = 0; i < 3; ++i) {
        session.data()[kDataBytes - 1] ^= std::byte{1};
        session.mark_dirty(kDataBytes - 1, 1);
        sparse = session.commit();
      }
      if (world.rank() == 1) {
        const std::lock_guard<std::mutex> lock(dirty_mutex);
        dirty[strategy] = {full.dirty_bytes, full.dirty_fraction, sparse.dirty_bytes,
                           sparse.dirty_fraction};
      }
      if (strategy == Strategy::kBlcr) {
        EXPECT_EQ(full.encode_wire_bytes, 0u);
        EXPECT_EQ(sparse.encode_wire_bytes, 0u);
        return;
      }
      // The full encode, on every rank alike: one 8-byte run record per
      // stripe gathered to rank 0 and broadcast as the n * k table, then
      // each of the n * k stripes lent once to its checksum owner.
      const std::uint64_t stripe = full.checksum_bytes;
      const std::uint64_t k = kN - 1;
      const std::uint64_t exchange = (kN - 1) * k * sizeof(enc::StripeRuns) +
                                     (kN - 1) * kN * k * sizeof(enc::StripeRuns);
      EXPECT_EQ(full.encode_wire_bytes, kN * k * stripe + exchange) << to_string(strategy);
      EXPECT_GE(sparse.encode_wire_bytes, kN * stripe) << to_string(strategy);
      EXPECT_LT(sparse.encode_wire_bytes, kN * (kN - 1) * stripe / 2) << to_string(strategy);
    });
    EXPECT_TRUE(result.completed) << to_string(strategy) << ": " << result.abort_reason;
  }
  // Three stripes of 2008 bytes: a full commit covers all of them; the
  // sparse one dirties stripe 2's first block (the last data byte and the
  // user state share it), which is also its whole 2008 bytes.
  const Dirty& self = dirty[Strategy::kSelf];
  EXPECT_EQ(self.full_bytes, 3u * 2008u);
  EXPECT_DOUBLE_EQ(self.full_fraction, 1.0);
  EXPECT_EQ(self.sparse_bytes, 2008u);
  EXPECT_DOUBLE_EQ(self.sparse_fraction, 1.0 / 3.0);
  for (const Strategy s : {Strategy::kSingle, Strategy::kDouble}) {
    EXPECT_EQ(dirty[s].full_bytes, self.full_bytes) << to_string(s);
    EXPECT_DOUBLE_EQ(dirty[s].full_fraction, self.full_fraction) << to_string(s);
    EXPECT_EQ(dirty[s].sparse_bytes, self.sparse_bytes) << to_string(s);
    EXPECT_DOUBLE_EQ(dirty[s].sparse_fraction, self.sparse_fraction) << to_string(s);
  }
  // BLCR tracks [data | user] = 6008 bytes in two single-block stripes;
  // the sparse commit dirties the second.
  const Dirty& blcr = dirty[Strategy::kBlcr];
  EXPECT_EQ(blcr.full_bytes, 2 * enc::kBlockBytes);
  EXPECT_DOUBLE_EQ(blcr.full_fraction, 1.0);
  EXPECT_EQ(blcr.sparse_bytes, enc::kBlockBytes);
  EXPECT_DOUBLE_EQ(blcr.sparse_fraction, 0.5);

  // One critical-path rule for the encoding strategies: a synchronous
  // commit charges its measured encode + flush as "checkpoint" time. With
  // the network model on, the encode also accrues modeled time, which
  // stays out of it; nothing charges a device.
  for (const Strategy strategy : {Strategy::kSingle, Strategy::kDouble, Strategy::kSelf}) {
    MiniCluster mc(kN, 0);
    mpi::Runtime runtime(mc.cluster, {0, 1, 2, 3}, nullptr, {.model_network = true});
    double measured = 0.0;
    double modeled = 0.0;
    std::mutex mutex;
    const auto result = runtime.run([&](mpi::Comm& world) {
      Session session = SessionBuilder{}
                            .strategy(strategy)
                            .group_size(kN)
                            .data_bytes(kDataBytes)
                            .user_bytes(8)
                            .key_prefix("critical")
                            .build(world);
      session.open();
      for (int i = 0; i < 3; ++i) {
        const CommitStats stats = session.commit();
        EXPECT_EQ(stats.device_s, 0.0) << to_string(strategy);
        const std::lock_guard<std::mutex> lock(mutex);
        measured = std::max(measured, stats.encode_s + stats.flush_s);
        modeled = std::max(modeled, stats.encode_virtual_s);
      }
    });
    ASSERT_TRUE(result.completed) << to_string(strategy) << ": " << result.abort_reason;
    EXPECT_GT(modeled, 0.0) << to_string(strategy);
    ASSERT_EQ(result.times.count("checkpoint"), 1u) << to_string(strategy);
    EXPECT_EQ(result.times.at("checkpoint"), measured) << to_string(strategy);
  }

  // BLCR's commit writes its image through a vault on a device whose every
  // write costs a modeled second: device_s carries that, and the
  // "checkpoint" time is the measured flush alone.
  storage::DeviceProfile slow = storage::ssd_profile();
  slow.latency_s = 1.0;
  MiniCluster mc(kN, 0);
  storage::Vault vault({.device = slow});
  double flush = 0.0;
  std::mutex mutex;
  const auto result = mc.run(kN, [&](mpi::Comm& world) {
    Session session = SessionBuilder{}
                          .strategy(Strategy::kBlcr)
                          .group_size(kN)
                          .data_bytes(kDataBytes)
                          .user_bytes(8)
                          .key_prefix("critical")
                          .vault(&vault)
                          .build(world);
    session.open();
    for (int i = 0; i < 3; ++i) {
      const CommitStats stats = session.commit();
      EXPECT_GE(stats.device_s, 1.0);
      const std::lock_guard<std::mutex> lock(mutex);
      flush = std::max(flush, stats.flush_s);
    }
  });
  ASSERT_TRUE(result.completed) << result.abort_reason;
  ASSERT_EQ(result.times.count("checkpoint"), 1u);
  EXPECT_EQ(result.times.at("checkpoint"), flush);
  EXPECT_LT(flush, 1.0);
}

// Every strategy fills the same RestoreStats fields. After m members of
// the group die together, each rebuilds its n blocks (k data stripes, m
// parity slots) from one lent term per survivor and block: every rank
// reports the world's lost * n * k stripes exactly, and its own modeled
// network time apart from the measured rebuild_s. BLCR reads its image
// from disk and reports neither; it and single (the paper's single-parity
// layout at any degree) run at m = 1 only. Every read of the device costs
// a modeled second, which BLCR reports as device_s and no strategy adds to
// its measured rebuild_s.
TEST(RestoreStats, EveryStrategyReportsRebuildWireBytes) {
  constexpr int kN = 4;
  constexpr std::size_t kDataBytes = 6000;
  storage::DeviceProfile slow = storage::ssd_profile();
  slow.latency_s = 1.0;
  for (const Strategy strategy :
       {Strategy::kSingle, Strategy::kDouble, Strategy::kSelf, Strategy::kBlcr}) {
    for (const int m : {1, 2}) {
      if ((strategy == Strategy::kBlcr || strategy == Strategy::kSingle) && m == 2) continue;
      const std::string what = std::string(to_string(strategy)) + " m=" + std::to_string(m);
      MiniCluster mc(kN, m);
      storage::Vault vault({.device = slow});
      sim::FailureInjector injector;
      injector.add_rule({.point = "app.kill",
                         .world_rank = 1,
                         .hit = 1,
                         .repeat = false,
                         .victim_world_rank = 1,
                         .extra_victims = m == 2 ? std::vector<int>{2} : std::vector<int>{}});
      mpi::JobLauncher launcher(mc.cluster, &injector,
                                {.max_restarts = 1, .runtime = {.model_network = true}});
      std::atomic<int> restored{0};
      const auto result = launcher.run(kN, [&](mpi::Comm& world) {
        Session session = SessionBuilder{}
                              .strategy(strategy)
                              .group_size(kN)
                              .parity_degree(m)
                              .data_bytes(kDataBytes)
                              .user_bytes(8)
                              .key_prefix("rebuild")
                              .vault(&vault)
                              .build(world);
        if (session.open() == OpenOutcome::kFresh) {
          session.commit();
          world.failpoint("app.kill");
          return;
        }
        const RestoreStats& stats = session.last_restore().value();
        EXPECT_LT(stats.rebuild_s, 1.0) << what << " rank " << world.rank();
        if (strategy == Strategy::kBlcr) {
          EXPECT_EQ(stats.rebuild_wire_bytes, 0u) << what;
          EXPECT_EQ(stats.rebuild_virtual_s, 0.0) << what;
          EXPECT_GE(stats.device_s, 1.0) << what;
        } else {
          EXPECT_EQ(stats.device_s, 0.0) << what;
          const std::uint64_t k = kN - m;
          const std::uint64_t stripe =
              enc::GroupCodec(enc::CodecKind::kXor, kDataBytes + 8, kN, m).stripe_bytes();
          EXPECT_EQ(stats.rebuild_wire_bytes, static_cast<std::uint64_t>(m) * kN * k * stripe)
              << what << " rank " << world.rank();
          EXPECT_GT(stats.rebuild_virtual_s, 0.0) << what << " rank " << world.rank();
        }
        ++restored;
      });
      EXPECT_TRUE(result.success) << what << ": " << result.failure;
      EXPECT_EQ(result.restarts, 1) << what;
      EXPECT_EQ(restored.load(), kN) << what;
    }
  }
}

// A 4 KiB mark that is not block-aligned covers exactly two blocks, and a
// commit stages, flushes and accounts exactly those: here the last 4 KiB
// of data, whose second block also holds the user state.
class UnalignedMark : public ::testing::TestWithParam<CommitMode> {};

TEST_P(UnalignedMark, FlushesExactlyTwoBlocks) {
  constexpr int kN = 4;
  constexpr std::size_t kDataBytes = 96 << 10;
  const CommitMode mode = GetParam();
  MiniCluster mc(kN, 0);
  const auto result = mc.run(kN, [&](mpi::Comm& world) {
    Session session = SessionBuilder{}
                          .strategy(Strategy::kSelf)
                          .group_size(kN)
                          .data_bytes(kDataBytes)
                          .user_bytes(8)
                          .key_prefix("two")
                          .mode(mode)
                          .build(world);
    session.open();
    session.mark_all_dirty();
    const auto commit = [&] {
      return mode == CommitMode::kAsync ? session.commit_async().wait() : session.commit();
    };
    (void)commit();
    const DirtyTracker& tracker = *session.unsafe_protocol().dirty_tracker();
    const std::size_t offset = kDataBytes - enc::kBlockBytes;
    ASSERT_NE((offset % tracker.stripe_bytes()) % enc::kBlockBytes, 0u);
    session.data()[offset] ^= std::byte{1};
    session.mark_dirty(offset, enc::kBlockBytes);
    const CommitStats stats = commit();
    EXPECT_EQ(stats.checkpoint_bytes, 2 * enc::kBlockBytes);
    EXPECT_EQ(stats.dirty_bytes, 2 * enc::kBlockBytes);
    EXPECT_DOUBLE_EQ(stats.dirty_fraction, 1.0 / 3.0);
  });
  ASSERT_TRUE(result.completed) << result.abort_reason;
}

INSTANTIATE_TEST_SUITE_P(Modes, UnalignedMark,
                         ::testing::Values(CommitMode::kSync, CommitMode::kAsync),
                         [](const auto& info) {
                           return info.param == CommitMode::kSync ? "sync" : "async";
                         });

// The in-place delta fold rests on C == D between commits, and the flush
// refreshes C only where the checksum changed: after every sparse commit
// each member's C must still equal its D, and D the full encode of B.
TEST(SelfCheckpoint, ChecksumTwinsStayEqualAcrossSparseCommits) {
  constexpr int kN = 4;
  constexpr std::size_t kDataBytes = 6000;
  MiniCluster mc(kN, 0);
  const auto result = mc.run(kN, [&](mpi::Comm& world) {
    Session session = SessionBuilder{}
                          .strategy(Strategy::kSelf)
                          .group_size(kN)
                          .data_bytes(kDataBytes)
                          .user_bytes(8)
                          .key_prefix("twins")
                          .build(world);
    session.open();
    session.mark_all_dirty();
    session.commit();
    const enc::GroupCodec codec(enc::CodecKind::kXor, kDataBytes + 8, kN);
    for (int i = 0; i < 4; ++i) {
      // Every member's last stripe holds the user state and is dirty on
      // every commit, so only families 2 and 3 receive diffs: members 0
      // and 1 keep their checksum and skip the C refresh.
      if (world.rank() == 1) session.data()[kDataBytes - 1] ^= std::byte{0x5a};
      session.mark_dirty(kDataBytes - 1, 1);
      session.commit();
      std::span<std::byte> b;
      std::span<std::byte> c;
      std::span<std::byte> d;
      for (const ScrubRegion& region : session.unsafe_protocol().scrub_view()) {
        if (region.name == "B") b = region.bytes;
        if (region.name == "C") c = region.bytes;
        if (region.name == "D") d = region.bytes;
      }
      ASSERT_EQ(c.size(), d.size());
      EXPECT_EQ(std::memcmp(c.data(), d.data(), c.size()), 0)
          << "rank " << world.rank() << " commit " << i;
      std::vector<std::byte> full(codec.redundancy_bytes());
      codec.encode(world, b, full);
      EXPECT_EQ(std::memcmp(full.data(), d.data(), full.size()), 0)
          << "rank " << world.rank() << " commit " << i;
    }
  });
  EXPECT_TRUE(result.completed) << result.abort_reason;
}

/// Random bytes that are a pure function of (rank, tag), so a run can
/// replay its own update schedule. Byte-wise, so windows need no alignment.
void fill_region(std::span<std::byte> data, int rank, std::uint64_t tag) {
  util::Xoshiro256 rng(3 ^ (static_cast<std::uint64_t>(rank) << 32) ^ tag);
  for (std::size_t i = 0; i + 8 <= data.size(); i += 8) {
    const std::uint64_t v = rng.next();
    std::memcpy(data.data() + i, &v, 8);
  }
}

struct SparseCase {
  const char* name;
  CommitMode mode;
  const char* failpoint;  ///< rank 2 dies on its 4th visit
};

class SparseUpdates : public ::testing::TestWithParam<SparseCase> {};

// Sparse updates through Session::mark_dirty: each epoch rewrites one
// 512-byte window whose position moves, so the dirty set changes stripes
// between epochs, and the delta fold D = C (+) diff must stay equal to a
// full re-encode. A node lost mid-run must restore bit-exact data, checked
// against a replay of the update schedule.
TEST_P(SparseUpdates, RecoverBitExact) {
  const SparseCase& c = GetParam();
  constexpr std::size_t kDataBytes = 8192;
  constexpr std::size_t kWindow = 512;
  constexpr std::uint64_t kEpochs = 6;
  const auto window_offset = [](std::uint64_t epoch) {
    return static_cast<std::size_t>(epoch * 1337 % (kDataBytes - kWindow));
  };
  MiniCluster mc(4, 2);
  sim::FailureInjector injector;
  injector.add_rule({.point = c.failpoint, .world_rank = 2, .hit = 4, .repeat = false});

  mpi::JobLauncher launcher(mc.cluster, &injector, {.max_restarts = 2});
  const auto result = launcher.run(4, [&](mpi::Comm& world) {
    Session session = SessionBuilder{}
                          .strategy(Strategy::kSelf)
                          .key_prefix("sparse")
                          .data_bytes(kDataBytes)
                          .mode(c.mode)
                          .build(world);
    auto* epoch = reinterpret_cast<std::uint64_t*>(session.user_state().data());
    if (session.open() == OpenOutcome::kFresh) {
      *epoch = 0;
      fill_region(session.data(), world.rank(), 0);
      // This epoch annotates, so the initial fill must be declared too.
      session.mark_all_dirty();
    }
    while (*epoch < kEpochs) {
      world.failpoint("app.work");
      const std::uint64_t next = *epoch + 1;
      const std::size_t offset = window_offset(next);
      fill_region(session.data().subspan(offset, kWindow), world.rank(), next);
      session.mark_dirty(offset, kWindow);
      *epoch = next;
      if (c.mode == CommitMode::kAsync) {
        session.commit_async();
      } else {
        session.commit();
      }
    }
    session.drain();
    std::vector<std::byte> expect(kDataBytes);
    fill_region(expect, world.rank(), 0);
    for (std::uint64_t e = 1; e <= kEpochs; ++e) {
      fill_region(std::span<std::byte>(expect).subspan(window_offset(e), kWindow), world.rank(),
                  e);
    }
    if (std::memcmp(expect.data(), session.data().data(), expect.size()) != 0) {
      throw std::runtime_error("sparse-update state diverged");
    }
  });
  ASSERT_TRUE(result.success) << result.failure;
  EXPECT_EQ(result.restarts, 1);
}

INSTANTIATE_TEST_SUITE_P(
    Modes, SparseUpdates,
    ::testing::Values(SparseCase{"sync", CommitMode::kSync, "app.work"},
                      SparseCase{"async", CommitMode::kAsync, "ckpt.async_encode_begin"}),
    [](const auto& info) { return std::string(info.param.name); });

// The dirty contract is per epoch: after an annotated commit, an epoch
// with no annotation commits in full, so a write nobody marked still
// reaches the checkpoint B. (Group size 4 gives three stripes per member,
// so byte 0 sits in a different stripe than the always-dirty user state.)
TEST(SelfCheckpoint, UnannotatedEpochCommitsUnmarkedWrites) {
  MiniCluster mc(4, 0);
  const auto result = mc.run(4, [](mpi::Comm& world) {
    Session session =
        SessionBuilder{}.strategy(Strategy::kSelf).key_prefix("u4").data_bytes(3000).build(world);
    session.open();
    std::memset(session.data().data(), 0x11, session.data().size());
    session.mark_all_dirty();
    session.commit();

    session.data()[0] = std::byte{0x99};  // NOT marked
    EXPECT_DOUBLE_EQ(session.commit().dirty_fraction, 1.0);
    const auto b = world.store().attach("u4.r" + std::to_string(world.world_rank()) +
                                        ".self.B");
    ASSERT_NE(b, nullptr);
    EXPECT_EQ(b->bytes()[0], std::byte{0x99});
  });
  ASSERT_TRUE(result.completed) << result.abort_reason;
}

TEST(SelfCheckpoint, EpochAdvancesPerCommit) {
  MiniCluster mc(3, 0);
  const auto result = mc.run(3, [](mpi::Comm& world) {
    SelfCheckpoint proto({.key_prefix = "e", .data_bytes = 512, .user_bytes = 16,
                          .codec = enc::CodecKind::kXor});
    CommCtx ctx{world, world};
    EXPECT_FALSE(proto.open(ctx));
    EXPECT_EQ(proto.committed_epoch(), 0u);
    proto.commit(ctx);
    EXPECT_EQ(proto.committed_epoch(), 1u);
    const CommitStats stats = proto.commit(ctx);
    EXPECT_EQ(stats.epoch, 2u);
    EXPECT_EQ(proto.committed_epoch(), 2u);
    EXPECT_GT(stats.checkpoint_bytes, 512u);
    EXPECT_GT(stats.checksum_bytes, 0u);
  });
  EXPECT_TRUE(result.completed) << result.abort_reason;
}

TEST(SelfCheckpoint, MemoryFootprintMatchesTable1) {
  MiniCluster mc(4, 0);
  const auto result = mc.run(4, [](mpi::Comm& world) {
    const std::size_t m = 3000;
    SelfCheckpoint proto({.key_prefix = "m", .data_bytes = m, .user_bytes = 8,
                          .codec = enc::CodecKind::kXor});
    CommCtx ctx{world, world};
    proto.open(ctx);
    // Total ~= 2 M N / (N-1): work + B (each ~M) + C + D (each ~M/(N-1)).
    const double expect = 2.0 * static_cast<double>(m) * 4.0 / 3.0;
    EXPECT_NEAR(static_cast<double>(proto.memory_bytes()), expect, 200.0);
  });
  EXPECT_TRUE(result.completed) << result.abort_reason;
}

TEST(SelfCheckpoint, DataLivesInSharedMemory) {
  MiniCluster mc(2, 0);
  const auto result = mc.run(2, [](mpi::Comm& world) {
    SelfCheckpoint proto({.key_prefix = "shm", .data_bytes = 256, .user_bytes = 8,
                          .codec = enc::CodecKind::kXor});
    CommCtx ctx{world, world};
    const std::size_t before = world.store().bytes_in_use();
    proto.open(ctx);
    // work + B + C + D + header all live in the node store.
    EXPECT_GT(world.store().bytes_in_use(), before + 2 * 256);
    // data() points into a store segment (writes are visible through it).
    proto.data()[0] = std::byte{0x5A};
    const auto seg = world.store().attach("shm.r" + std::to_string(world.world_rank()) +
                                          ".self.work");
    ASSERT_NE(seg, nullptr);
    EXPECT_EQ(seg->bytes()[0], std::byte{0x5A});
  });
  EXPECT_TRUE(result.completed) << result.abort_reason;
}

TEST(SelfCheckpoint, RestoreWithoutCommitIsUnrecoverable) {
  MiniCluster mc(2, 0);
  const auto result = mc.run(2, [](mpi::Comm& world) {
    SelfCheckpoint proto({.key_prefix = "u", .data_bytes = 128, .user_bytes = 8,
                          .codec = enc::CodecKind::kXor});
    CommCtx ctx{world, world};
    EXPECT_FALSE(proto.open(ctx));
    EXPECT_THROW(proto.restore(ctx), Unrecoverable);
  });
  EXPECT_TRUE(result.completed) << result.abort_reason;
}

TEST(SelfCheckpoint, RejectsUnopenedUse) {
  SelfCheckpoint proto({.key_prefix = "x", .data_bytes = 64, .user_bytes = 8,
                        .codec = enc::CodecKind::kXor});
  EXPECT_THROW((void)proto.data(), std::logic_error);
  EXPECT_THROW((void)SelfCheckpoint({.key_prefix = "x", .data_bytes = 0, .user_bytes = 8,
                                     .codec = enc::CodecKind::kXor}),
               std::invalid_argument);
}

TEST(DoubleCheckpoint, AlternatesPairs) {
  MiniCluster mc(2, 0);
  const auto result = mc.run(2, [](mpi::Comm& world) {
    const auto proto = make_protocol(Strategy::kDouble, {.key_prefix = "alt", .data_bytes = 256,
                                                         .user_bytes = 8,
                                                         .codec = enc::CodecKind::kXor});
    CommCtx ctx{world, world};
    proto->open(ctx);
    proto->data()[0] = std::byte{1};
    proto->commit(ctx);  // epoch 1 -> pair 1
    proto->data()[0] = std::byte{2};
    proto->commit(ctx);  // epoch 2 -> pair 0
    const std::string base = "alt.r" + std::to_string(world.world_rank()) + ".double.";
    const auto pair0 = world.store().attach(base + "B0");
    const auto pair1 = world.store().attach(base + "B1");
    ASSERT_NE(pair0, nullptr);
    ASSERT_NE(pair1, nullptr);
    EXPECT_EQ(pair1->bytes()[0], std::byte{1});  // epoch 1
    EXPECT_EQ(pair0->bytes()[0], std::byte{2});  // epoch 2
    EXPECT_EQ(proto->committed_epoch(), 2u);
  });
  EXPECT_TRUE(result.completed) << result.abort_reason;
}

TEST(DoubleCheckpoint, FootprintHasTwoFullCopies) {
  MiniCluster mc(4, 0);
  const auto result = mc.run(4, [](mpi::Comm& world) {
    const std::size_t m = 3000;
    const auto proto = make_protocol(Strategy::kDouble, {.key_prefix = "f2", .data_bytes = m,
                                                         .user_bytes = 8,
                                                         .codec = enc::CodecKind::kXor});
    CommCtx ctx{world, world};
    proto->open(ctx);
    // M (app) + 2M (pairs) + 2M/(N-1) (checksums)
    const double expect = static_cast<double>(m) * (3.0 + 2.0 / 3.0);
    EXPECT_NEAR(static_cast<double>(proto->memory_bytes()), expect, 300.0);
  });
  EXPECT_TRUE(result.completed) << result.abort_reason;
}

TEST(BlcrCheckpoint, WritesChargeDeviceTime) {
  MiniCluster mc(2, 0);
  storage::Vault vault({.device = storage::hdd_profile()});
  const auto result = mc.run(2, [&](mpi::Comm& world) {
    BlcrCheckpoint proto(
        {.key_prefix = "b", .data_bytes = 1 << 20, .user_bytes = 8, .vault = &vault});
    CommCtx ctx{world, world};
    EXPECT_FALSE(proto.open(ctx));
    const CommitStats stats = proto.commit(ctx);
    // 1 MiB + 8 at 160 MB/s ~= 6.5 ms of virtual device time.
    EXPECT_EQ(stats.device_s,
              storage::Device(storage::hdd_profile()).write_seconds((1 << 20) + 8));
    EXPECT_GT(world.virtual_seconds(), 1e-3);
  });
  ASSERT_TRUE(result.completed) << result.abort_reason;
  EXPECT_GT(vault.bytes_in_use(), (1u << 20));
}

TEST(BlcrCheckpoint, KeepsTwoGenerations) {
  MiniCluster mc(1, 0);
  storage::Vault vault;
  const FactoryParams params{
      .key_prefix = "gen", .data_bytes = 64, .user_bytes = 8, .vault = &vault};
  const auto result = mc.run(1, [&](mpi::Comm& world) {
    BlcrCheckpoint proto(params);
    CommCtx ctx{world, world};
    proto.open(ctx);
    for (int i = 0; i < 3; ++i) proto.commit(ctx);
    EXPECT_FALSE(vault.exists("gen.r0.blcr.img.e1"));  // GC'd
    EXPECT_TRUE(vault.exists("gen.r0.blcr.img.e2"));
    EXPECT_TRUE(vault.exists("gen.r0.blcr.img.e3"));
  });
  EXPECT_TRUE(result.completed) << result.abort_reason;
  // A relaunch finds the newest image although the first one is gone.
  const auto relaunch = mc.run(1, [&](mpi::Comm& world) {
    BlcrCheckpoint proto(params);
    CommCtx ctx{world, world};
    ASSERT_TRUE(proto.open(ctx));
    EXPECT_EQ(proto.restore(ctx).epoch, 3u);
  });
  EXPECT_TRUE(relaunch.completed) << relaunch.abort_reason;
}

// A rank that lost its newest image falls back one generation, and every
// rank restores that generation with it.
TEST(BlcrCheckpoint, RankMissingItsNewestImageFallsBackOneGeneration) {
  MiniCluster mc(2, 0);
  storage::Vault vault;
  const FactoryParams params{
      .key_prefix = "fallback", .data_bytes = 64, .user_bytes = 8, .vault = &vault};
  const auto result = mc.run(2, [&](mpi::Comm& world) {
    BlcrCheckpoint proto(params);
    CommCtx ctx{world, world};
    proto.open(ctx);
    for (std::uint64_t e = 1; e <= 3; ++e) {
      skt::testing::fill_pattern(proto.data(), 9, world.rank(), e);
      proto.commit(ctx);
    }
  });
  ASSERT_TRUE(result.completed) << result.abort_reason;
  vault.remove("fallback.r1.blcr.img.e3");
  const auto relaunch = mc.run(2, [&](mpi::Comm& world) {
    BlcrCheckpoint proto(params);
    CommCtx ctx{world, world};
    ASSERT_TRUE(proto.open(ctx));
    EXPECT_EQ(proto.restore(ctx).epoch, 2u);
    EXPECT_TRUE(skt::testing::matches_pattern(proto.data(), 9, world.rank(), 2, 0.0));
  });
  EXPECT_TRUE(relaunch.completed) << relaunch.abort_reason;
}

// A BLCR image on a 4-shard vault with no other device setting: the
// vault's own device prices every write and read, ⌈bytes/4⌉ each.
TEST(BlcrCheckpoint, ShardedVaultPricesItsOwnImages) {
  constexpr std::size_t kData = 3000;
  constexpr std::size_t kUser = 8;
  MiniCluster mc(2, 0);
  storage::Vault vault({.nodes = {0, 1, 2, 3}, .extent_bytes = 512});
  const FactoryParams params{
      .key_prefix = "shards", .data_bytes = kData, .user_bytes = kUser, .vault = &vault};
  const auto result = mc.run(2, [&](mpi::Comm& world) {
    BlcrCheckpoint proto(params);
    CommCtx ctx{world, world};
    EXPECT_FALSE(proto.open(ctx));
    skt::testing::fill_pattern(proto.data(), 9, world.rank(), 1);
    EXPECT_EQ(proto.commit(ctx).device_s, vault.write_seconds(kData + kUser));
  });
  ASSERT_TRUE(result.completed) << result.abort_reason;
  const auto relaunch = mc.run(2, [&](mpi::Comm& world) {
    BlcrCheckpoint proto(params);
    CommCtx ctx{world, world};
    ASSERT_TRUE(proto.open(ctx));
    const RestoreStats stats = proto.restore(ctx);
    EXPECT_EQ(stats.epoch, 1u);
    EXPECT_EQ(stats.device_s, vault.read_seconds(kData + kUser));
    EXPECT_TRUE(skt::testing::matches_pattern(proto.data(), 9, world.rank(), 1, 0.0));
  });
  ASSERT_TRUE(relaunch.completed) << relaunch.abort_reason;
}

// A survivor re-opening its store must find the layout it committed with.
// XOR and SUM segments have equal sizes, so only the header's codec field
// tells them apart; a rebuild under the other code would combine XOR
// checksums with SUM arithmetic. Re-opening with the same parameters
// still restores.
class ReopenLayout : public ::testing::TestWithParam<Strategy> {};

TEST_P(ReopenLayout, RefusesAnotherCodecAndRestoresWithTheSame) {
  const Strategy strategy = GetParam();
  MiniCluster mc(4, 0);
  const auto result = mc.run(4, [&](mpi::Comm& world) {
    FactoryParams params{.key_prefix = "layout", .data_bytes = 2048, .user_bytes = 8};
    CommCtx ctx{world, world};
    {
      const auto proto = make_protocol(strategy, params);
      EXPECT_FALSE(proto->open(ctx));
      skt::testing::fill_pattern(proto->data(), 7, world.rank(), 1);
      proto->commit(ctx);
    }
    params.codec = enc::CodecKind::kSum;
    EXPECT_THROW(make_protocol(strategy, params)->open(ctx), std::logic_error);
    params.codec = enc::CodecKind::kXor;
    const auto again = make_protocol(strategy, params);
    ASSERT_TRUE(again->open(ctx));
    EXPECT_EQ(again->restore(ctx).epoch, 1u);
    EXPECT_TRUE(skt::testing::matches_pattern(again->data(), 7, world.rank(), 1, 0.0));
  });
  ASSERT_TRUE(result.completed) << result.abort_reason;
}

INSTANTIATE_TEST_SUITE_P(Coded, ReopenLayout,
                         ::testing::Values(Strategy::kSingle, Strategy::kDouble, Strategy::kSelf),
                         [](const auto& info) {
                           const std::string name(to_string(info.param));
                           return name.substr(0, name.find('-'));
                         });

TEST(Factory, BuildsEveryStrategyAndRejectsNone) {
  storage::Vault vault;
  FactoryParams params;
  params.data_bytes = 64;
  params.vault = &vault;
  for (auto s : {Strategy::kSingle, Strategy::kDouble, Strategy::kSelf, Strategy::kBlcr}) {
    const auto proto = make_protocol(s, params);
    EXPECT_EQ(proto->strategy(), s);
  }
  EXPECT_THROW(make_protocol(Strategy::kNone, params), std::invalid_argument);
}

TEST(Device, ProfilesOrderSensibly) {
  const storage::Device hdd(storage::hdd_profile());
  const storage::Device ssd(storage::ssd_profile());
  const storage::Device ram(storage::ramfs_profile());
  const std::size_t gb = 1u << 30;
  EXPECT_GT(hdd.write_seconds(gb), ssd.write_seconds(gb));
  EXPECT_GT(ssd.write_seconds(gb), ram.write_seconds(gb));
  // Sharing divides bandwidth.
  const storage::Device shared(storage::hdd_profile(4));
  EXPECT_NEAR(shared.write_seconds(gb), 4 * hdd.write_seconds(gb), 0.1);
}

}  // namespace
}  // namespace skt::ckpt
