// Tests for the multi-level checkpoint framework, the paper's extension
// point that backs the in-memory level with a disk level. (Multi-erasure
// group encoding is covered by the RS(k, m) tests in test_encoding.cpp.)
#include <gtest/gtest.h>

#include <atomic>
#include <string>

#include "ckpt/multilevel.hpp"
#include "mpi/launcher.hpp"
#include "storage/device.hpp"
#include "storage/vault.hpp"
#include "ckpt_harness.hpp"
#include "testing.hpp"

namespace skt {
namespace {

using skt::testing::MiniCluster;

// -------------------------------------------------------- multi-level ---

ckpt::MultiLevelCheckpoint::Params ml_params(storage::Vault* vault,
                                             std::size_t data_bytes = 2048) {
  ckpt::MultiLevelCheckpoint::Params params;
  params.key_prefix = "ml";
  params.data_bytes = data_bytes;
  params.user_bytes = 16;
  params.flush_every = 2;
  params.vault = vault;
  return params;
}

TEST(MultiLevel, FlushesEveryKCommitsAndKeepsTwoGenerations) {
  MiniCluster mc(4, 0);
  storage::Vault vault({.device = storage::pfs_profile()});
  const auto result = mc.run(4, [&](mpi::Comm& world) {
    ckpt::MultiLevelCheckpoint protocol(ml_params(&vault));
    ckpt::CommCtx ctx{world, world};
    EXPECT_FALSE(protocol.open(ctx));
    for (int i = 0; i < 6; ++i) protocol.commit(ctx);
    EXPECT_EQ(protocol.flushes(), 3);        // commits 2, 4, 6
    EXPECT_EQ(protocol.disk_epoch(), 6u);
    EXPECT_EQ(protocol.committed_epoch(), 6u);
  });
  ASSERT_TRUE(result.completed) << result.abort_reason;
  // Two generations retained per rank (epochs 4 and 6) plus manifests.
  EXPECT_TRUE(vault.exists("ml.r0.L2.img.e6"));
  EXPECT_TRUE(vault.exists("ml.r0.L2.img.e4"));
  EXPECT_FALSE(vault.exists("ml.r0.L2.img.e2"));  // GC'd
}

TEST(MultiLevel, SingleFailureUsesFastInMemoryLevel) {
  MiniCluster mc(4, 2);
  storage::Vault vault({.device = storage::pfs_profile()});
  sim::FailureInjector injector;
  injector.add_rule({.point = "app.work", .world_rank = 1, .hit = 3, .repeat = false});

  mpi::JobLauncher launcher(mc.cluster, &injector, {.max_restarts = 2});
  bool used_disk = true;
  const auto result = launcher.run(4, [&](mpi::Comm& world) {
    ckpt::MultiLevelCheckpoint protocol(ml_params(&vault));
    ckpt::CommCtx ctx{world, world};
    const bool restored = protocol.open(ctx);
    auto* iter = reinterpret_cast<std::uint64_t*>(protocol.user_state().data());
    if (restored) {
      protocol.restore(ctx);
      if (world.rank() == 0) used_disk = protocol.last_restore_used_disk();
    } else {
      *iter = 0;
      skt::testing::fill_pattern(protocol.data(), 5, world.rank(), 0);
    }
    while (*iter < 4) {
      world.failpoint("app.work");
      const std::uint64_t next = *iter + 1;
      skt::testing::fill_pattern(protocol.data(), 5, world.rank(), next);
      *iter = next;
      protocol.commit(ctx);
    }
    if (!skt::testing::matches_pattern(protocol.data(), 5, world.rank(), 4, 0.0)) {
      throw std::runtime_error("final data mismatch");
    }
  });
  ASSERT_TRUE(result.success) << result.failure;
  EXPECT_FALSE(used_disk);  // level 1 was sufficient for a single loss
}

TEST(MultiLevel, DoubleFailureFallsBackToDiskLevel) {
  // Two members of the SAME group die: the single-erasure in-memory level
  // cannot recover, the disk level can — the composition the paper points
  // at for "a higher degree of fault tolerance". Every device read costs a
  // modeled second, which the disk restore reports as device_s, apart
  // from its measured rebuild_s.
  MiniCluster mc(4, 4);
  storage::DeviceProfile slow = storage::pfs_profile();
  slow.latency_s = 1.0;
  storage::Vault vault({.device = slow});
  const ckpt::MultiLevelCheckpoint::Params params = ml_params(&vault);
  sim::FailureInjector injector;
  // First failure mid-compute; second failure during the restore of the
  // first restart, before the group is re-encoded.
  injector.add_rule({.point = "app.work", .world_rank = 1, .hit = 3, .repeat = false});
  injector.add_rule({.point = "ckpt.restore", .world_rank = 2, .hit = 1, .repeat = false});

  mpi::JobLauncher launcher(mc.cluster, &injector, {.max_restarts = 4});
  bool used_disk = false;
  std::uint64_t restored_epoch = 0;
  ckpt::RestoreStats disk_restore;
  const auto result = launcher.run(4, [&](mpi::Comm& world) {
    ckpt::MultiLevelCheckpoint protocol(params);
    ckpt::CommCtx ctx{world, world};
    const bool restored = protocol.open(ctx);
    auto* iter = reinterpret_cast<std::uint64_t*>(protocol.user_state().data());
    if (restored) {
      const ckpt::RestoreStats rs = protocol.restore(ctx);
      if (world.rank() == 0 && protocol.last_restore_used_disk()) {
        used_disk = true;
        restored_epoch = rs.epoch;
        disk_restore = rs;
      }
      if (!skt::testing::matches_pattern(protocol.data(), 5, world.rank(), *iter, 0.0)) {
        throw std::runtime_error("restored data mismatch at iteration " +
                                 std::to_string(*iter));
      }
    } else {
      *iter = 0;
      skt::testing::fill_pattern(protocol.data(), 5, world.rank(), 0);
    }
    while (*iter < 5) {
      world.failpoint("app.work");
      const std::uint64_t next = *iter + 1;
      skt::testing::fill_pattern(protocol.data(), 5, world.rank(), next);
      *iter = next;
      protocol.commit(ctx);
    }
  });
  ASSERT_TRUE(result.success) << result.failure;
  EXPECT_TRUE(used_disk);
  EXPECT_GE(restored_epoch, 2u);  // a flushed generation, not a fresh start
  EXPECT_EQ(disk_restore.device_s, storage::Device(slow).read_seconds(2048 + 16));
  EXPECT_LT(disk_restore.rebuild_s, 1.0);
}

// Two groups of four, and group 0 loses two members: rank 1 mid-compute,
// then rank 2 during the first restart's restore. Group 0 cannot rebuild
// at level 1 while group 1 could, and every level-1 strategy must send
// BOTH groups to the disk generation together: a group restoring at
// level 1 beside one falling back would split the world collectives.
class MultiLevelTwoGroups : public ::testing::TestWithParam<ckpt::Strategy> {};

TEST_P(MultiLevelTwoGroups, GroupBeyondItsCodeSendsEveryGroupToDisk) {
  constexpr int kWorld = 8;
  const ckpt::Strategy level1 = GetParam();
  MiniCluster mc(kWorld, 4);
  storage::Vault vault({.device = storage::pfs_profile()});
  sim::FailureInjector injector;
  injector.add_rule({.point = "app.work", .world_rank = 1, .hit = 3, .repeat = false});
  injector.add_rule({.point = "ckpt.restore", .world_rank = 2, .hit = 1, .repeat = false});

  mpi::JobLauncher launcher(mc.cluster, &injector, {.max_restarts = 4});
  std::atomic<int> disk_restores{0};
  const auto result = launcher.run(kWorld, [&](mpi::Comm& world) {
    mpi::Comm group = world.split(world.rank() / 4, world.rank());
    auto params = ml_params(&vault);
    params.level1 = level1;
    ckpt::MultiLevelCheckpoint protocol(params);
    ckpt::CommCtx ctx{world, group};
    const bool restored = protocol.open(ctx);
    auto* iter = reinterpret_cast<std::uint64_t*>(protocol.user_state().data());
    if (restored) {
      protocol.restore(ctx);
      if (protocol.last_restore_used_disk()) disk_restores.fetch_add(1);
      if (!skt::testing::matches_pattern(protocol.data(), 5, world.rank(), *iter, 0.0)) {
        throw std::runtime_error("restored data mismatch at iteration " +
                                 std::to_string(*iter));
      }
    } else {
      *iter = 0;
      skt::testing::fill_pattern(protocol.data(), 5, world.rank(), 0);
    }
    while (*iter < 5) {
      world.failpoint("app.work");
      const std::uint64_t next = *iter + 1;
      skt::testing::fill_pattern(protocol.data(), 5, world.rank(), next);
      *iter = next;
      protocol.commit(ctx);
    }
  });
  ASSERT_TRUE(result.success) << result.failure;
  EXPECT_EQ(result.restarts, 2);
  EXPECT_EQ(disk_restores.load(), kWorld);  // the last restore, on every rank
}

INSTANTIATE_TEST_SUITE_P(Level1, MultiLevelTwoGroups,
                         ::testing::Values(ckpt::Strategy::kSelf, ckpt::Strategy::kSingle,
                                           ckpt::Strategy::kDouble),
                         [](const auto& info) {
                           const std::string name(ckpt::to_string(info.param));
                           return name.substr(0, name.find('-'));
                         });

// A level-2 session over a 4-shard vault with no other device setting:
// the vault's own device prices the flush and the disk restore, ⌈bytes/4⌉
// each. The restore runs on a fresh cluster, so level 1 holds nothing.
TEST(MultiLevel, ShardedVaultPricesItsOwnFlushAndRestore) {
  constexpr std::size_t kData = 4096;
  constexpr std::size_t kUser = 16;
  storage::Vault vault({.nodes = {0, 1, 2, 3}, .extent_bytes = 1024});
  const auto session_on = [&](mpi::Comm& world) {
    return ckpt::SessionBuilder{}
        .group_size(4)
        .data_bytes(kData)
        .user_bytes(kUser)
        .key_prefix("l2shards")
        .vault(&vault)
        .level2_flush_every(1)
        .build(world);
  };
  MiniCluster first(4, 0);
  const auto result = first.run(4, [&](mpi::Comm& world) {
    ckpt::Session session = session_on(world);
    EXPECT_EQ(session.open(), ckpt::OpenOutcome::kFresh);
    skt::testing::fill_pattern(session.data(), 3, world.rank(), 1);
    EXPECT_EQ(session.commit().device_s, vault.write_seconds(kData + kUser));
  });
  ASSERT_TRUE(result.completed) << result.abort_reason;
  MiniCluster second(4, 0);
  const auto relaunch = second.run(4, [&](mpi::Comm& world) {
    ckpt::Session session = session_on(world);
    ASSERT_EQ(session.open(), ckpt::OpenOutcome::kRestored);
    const ckpt::RestoreStats& stats = session.last_restore().value();
    EXPECT_EQ(stats.epoch, 1u);
    EXPECT_EQ(stats.device_s, vault.read_seconds(kData + kUser));
    EXPECT_TRUE(skt::testing::matches_pattern(session.data(), 3, world.rank(), 1, 0.0));
  });
  ASSERT_TRUE(relaunch.completed) << relaunch.abort_reason;
}

TEST(MultiLevel, RejectsBadConfigs) {
  storage::Vault vault({.device = storage::pfs_profile()});
  auto params = ml_params(&vault);
  params.vault = nullptr;
  EXPECT_THROW(ckpt::MultiLevelCheckpoint{params}, std::invalid_argument);
  params = ml_params(&vault);
  params.level1 = ckpt::Strategy::kBlcr;
  EXPECT_THROW(ckpt::MultiLevelCheckpoint{params}, std::invalid_argument);
}

}  // namespace
}  // namespace skt
