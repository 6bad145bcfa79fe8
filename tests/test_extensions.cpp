// Tests for level 2, the paper's extension point that backs the in-memory
// level with a disk level: a step of the group commit frame
// (FactoryParams::level2_flush_every). A disk restore is the one with
// device_s > 0. (Multi-erasure group encoding is covered by the RS(k, m)
// tests in test_encoding.cpp.)
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <vector>

#include "ckpt/factory.hpp"
#include "mpi/launcher.hpp"
#include "storage/device.hpp"
#include "storage/vault.hpp"
#include "ckpt_harness.hpp"
#include "testing.hpp"

namespace skt {
namespace {

using skt::testing::MiniCluster;

// -------------------------------------------------------- multi-level ---

ckpt::FactoryParams ml_params(storage::Vault* vault) {
  return {.key_prefix = "ml",
          .data_bytes = 2048,
          .user_bytes = 16,
          .vault = vault,
          .level2_flush_every = 2};
}

TEST(MultiLevel, FlushesEveryKCommitsAndKeepsTwoGenerations) {
  MiniCluster mc(4, 0);
  storage::Vault vault({.device = storage::pfs_profile()});
  const auto result = mc.run(4, [&](mpi::Comm& world) {
    const auto protocol = ckpt::make_protocol(ckpt::Strategy::kSelf, ml_params(&vault));
    ckpt::CommCtx ctx{world, world};
    EXPECT_FALSE(protocol->open(ctx));
    int flushes = 0;
    for (int i = 0; i < 6; ++i) flushes += protocol->commit(ctx).device_s > 0.0 ? 1 : 0;
    EXPECT_EQ(flushes, 3);  // commits 2, 4, 6
    EXPECT_EQ(protocol->committed_epoch(), 6u);
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
    const auto protocol = ckpt::make_protocol(ckpt::Strategy::kSelf, ml_params(&vault));
    ckpt::CommCtx ctx{world, world};
    const bool restored = protocol->open(ctx);
    auto* iter = reinterpret_cast<std::uint64_t*>(protocol->user_state().data());
    if (restored) {
      const double device_s = protocol->restore(ctx).device_s;
      if (world.rank() == 0) used_disk = device_s > 0.0;
    } else {
      *iter = 0;
      skt::testing::fill_pattern(protocol->data(), 5, world.rank(), 0);
    }
    while (*iter < 4) {
      world.failpoint("app.work");
      const std::uint64_t next = *iter + 1;
      skt::testing::fill_pattern(protocol->data(), 5, world.rank(), next);
      *iter = next;
      protocol->commit(ctx);
    }
    if (!skt::testing::matches_pattern(protocol->data(), 5, world.rank(), 4, 0.0)) {
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
  const ckpt::FactoryParams params = ml_params(&vault);
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
    const auto protocol = ckpt::make_protocol(ckpt::Strategy::kSelf, params);
    ckpt::CommCtx ctx{world, world};
    const bool restored = protocol->open(ctx);
    auto* iter = reinterpret_cast<std::uint64_t*>(protocol->user_state().data());
    if (restored) {
      const ckpt::RestoreStats rs = protocol->restore(ctx);
      if (world.rank() == 0 && rs.device_s > 0.0) {
        used_disk = true;
        restored_epoch = rs.epoch;
        disk_restore = rs;
      }
      if (!skt::testing::matches_pattern(protocol->data(), 5, world.rank(), *iter, 0.0)) {
        throw std::runtime_error("restored data mismatch at iteration " +
                                 std::to_string(*iter));
      }
    } else {
      *iter = 0;
      skt::testing::fill_pattern(protocol->data(), 5, world.rank(), 0);
    }
    while (*iter < 5) {
      world.failpoint("app.work");
      const std::uint64_t next = *iter + 1;
      skt::testing::fill_pattern(protocol->data(), 5, world.rank(), next);
      *iter = next;
      protocol->commit(ctx);
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
    const auto protocol = ckpt::make_protocol(level1, ml_params(&vault));
    ckpt::CommCtx ctx{world, group};
    const bool restored = protocol->open(ctx);
    auto* iter = reinterpret_cast<std::uint64_t*>(protocol->user_state().data());
    if (restored) {
      if (protocol->restore(ctx).device_s > 0.0) disk_restores.fetch_add(1);
      if (!skt::testing::matches_pattern(protocol->data(), 5, world.rank(), *iter, 0.0)) {
        throw std::runtime_error("restored data mismatch at iteration " +
                                 std::to_string(*iter));
      }
    } else {
      *iter = 0;
      skt::testing::fill_pattern(protocol->data(), 5, world.rank(), 0);
    }
    while (*iter < 5) {
      world.failpoint("app.work");
      const std::uint64_t next = *iter + 1;
      skt::testing::fill_pattern(protocol->data(), 5, world.rank(), next);
      *iter = next;
      protocol->commit(ctx);
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

// ---------------------------------------------- disk generation agreement ---

// Self with level 2 every 2 commits on 4 ranks, driven by the test harness,
// which checks every restore's data and epoch against its iteration.
skt::testing::CkptAppConfig agree_config(storage::Vault& vault, int iterations) {
  skt::testing::CkptAppConfig config;
  config.vault = &vault;
  config.level2_every = 2;
  config.iterations = iterations;
  return config;
}

/// Run the harness on `mc` until its iteration counter reaches `iterations`.
void run_to(MiniCluster& mc, storage::Vault& vault, int iterations) {
  const auto result = mc.run(4, [&](mpi::Comm& world) {
    skt::testing::checkpointed_app(world, agree_config(vault, iterations));
  });
  ASSERT_TRUE(result.completed) << result.abort_reason;
}

const std::string kRank1Manifest = "test.r1.L2.manifest";

/// Leave rank 1 one flush behind: put back the manifest it held before the
/// flush of `epoch` and drop that flush's image, the vault state a kill
/// before its put leaves.
void miss_flush(storage::Vault& vault, const std::vector<std::byte>& manifest,
                std::uint64_t epoch) {
  vault.put(kRank1Manifest, manifest);
  vault.remove("test.r1.L2.img.e" + std::to_string(epoch));
}

// Rank 1 misses the flush of 4, the job rolls back to 2 from disk and
// flushes 4 and 6, and rank 1 misses the flush of 6 as well. Every rank
// must still hold generation 4 for the next disk restore.
TEST(MultiLevelAgreement, RanksAgreeOnTheGenerationAfterADiskRollback) {
  storage::Vault vault;
  {
    MiniCluster mc(4, 0);
    run_to(mc, vault, 2);
    const std::vector<std::byte> before_4 = vault.get(kRank1Manifest).value();
    run_to(mc, vault, 4);
    miss_flush(vault, before_4, 4);
  }
  {
    // A fresh cluster holds no level-1 state: the restore reads disk.
    MiniCluster mc(4, 0);
    run_to(mc, vault, 4);
    const std::vector<std::byte> before_6 = vault.get(kRank1Manifest).value();
    run_to(mc, vault, 6);
    miss_flush(vault, before_6, 6);
  }
  MiniCluster mc(4, 0);
  run_to(mc, vault, 6);
}

// Rank 1 misses the flush of 4, the job restores 4 from level 1 and
// flushes 6, and rank 1 misses that flush too. Every rank must still hold
// generation 2 for the next disk restore.
TEST(MultiLevelAgreement, RanksAgreeOnTheGenerationAfterALevel1Restore) {
  storage::Vault vault;
  {
    MiniCluster mc(4, 0);
    run_to(mc, vault, 2);
    const std::vector<std::byte> before_4 = vault.get(kRank1Manifest).value();
    run_to(mc, vault, 4);
    miss_flush(vault, before_4, 4);
    run_to(mc, vault, 6);
    miss_flush(vault, before_4, 6);
  }
  MiniCluster mc(4, 0);
  run_to(mc, vault, 6);
}

// -------------------------------------------------- level-2 sessions ---

// Level 2 rides on the group commit frame, so a level-2 session scrubs the
// same sealed segments as a level-1 one: self's B, C and D.
TEST(MultiLevel, SessionScrubsTheSealedSegments) {
  MiniCluster mc(4, 0);
  storage::Vault vault;
  const auto result = mc.run(4, [&](mpi::Comm& world) {
    ckpt::Session session = ckpt::SessionBuilder{}
                                .key_prefix("scrub")
                                .data_bytes(64 * 1024)
                                .vault(&vault)
                                .level2_flush_every(2)
                                .scrub_interval(60.0)
                                .build(world);
    ASSERT_EQ(session.open(), ckpt::OpenOutcome::kFresh);
    for (int i = 0; i < 2; ++i) session.commit();
    EXPECT_EQ(session.unsafe_protocol().scrub_view().size(), 3u);
    session.scrubber()->scrub_now();  // baselines this epoch
    const std::uint64_t before = session.scrubber()->stats().chunks_verified;
    session.scrubber()->scrub_now();
    EXPECT_GT(session.scrubber()->stats().chunks_verified, before);
  });
  ASSERT_TRUE(result.completed) << result.abort_reason;
}

// A level-2 session's postmortem names the parity of its group code.
TEST(MultiLevel, PostmortemNamesTheCodesParity) {
  MiniCluster mc(4, 1);
  storage::Vault vault;
  sim::FailureInjector injector;
  injector.add_rule({.point = "app.work", .world_rank = 1, .hit = 3, .repeat = false});
  mpi::JobLauncher launcher(mc.cluster, &injector, {.max_restarts = 1});
  const auto result = launcher.run(
      4, [&](mpi::Comm& world) { skt::testing::checkpointed_app(world, agree_config(vault, 4)); });
  ASSERT_TRUE(result.success) << result.failure;
  ASSERT_EQ(result.postmortems.size(), 1u);
  EXPECT_EQ(result.postmortems.front().geometry.parity_count, 1);
}

// BLCR with level 2 is a Session ConfigError (test_session.cpp).
TEST(MultiLevel, RejectsBadConfigs) {
  EXPECT_THROW((void)ckpt::make_protocol(ckpt::Strategy::kSelf, ml_params(nullptr)),
               std::invalid_argument);
}

}  // namespace
}  // namespace skt
