// SKT-HPL end-to-end: fault-free runs under every strategy, power-off
// recovery through the launcher, and checkpoint bookkeeping.
#include <gtest/gtest.h>

#include "hpl/skt_hpl.hpp"
#include "mpi/launcher.hpp"
#include "storage/vault.hpp"
#include "testing.hpp"

namespace skt::hpl {
namespace {

using skt::testing::MiniCluster;

SktHplConfig small_config() {
  SktHplConfig config;
  config.hpl.n = 96;
  config.hpl.nb = 16;
  config.hpl.grid_p = 2;
  config.hpl.grid_q = 2;
  config.group_size = 4;
  config.ckpt_every_panels = 2;
  return config;
}

TEST(SktHpl, FaultFreeSelfCheckpointRun) {
  MiniCluster mc(4, 0);
  SktHplResult out;
  const auto result = mc.run(4, [&](mpi::Comm& world) {
    const SktHplResult r = run_skt_hpl(world, small_config());
    if (world.rank() == 0) out = r;
  });
  ASSERT_TRUE(result.completed) << result.abort_reason;
  EXPECT_TRUE(out.hpl.residual.pass) << out.hpl.residual.scaled;
  EXPECT_FALSE(out.restored);
  EXPECT_EQ(out.checkpoints, 3);  // after panels 2, 4 and 6 (of 6)
  EXPECT_GT(out.ckpt_bytes, 0u);
  EXPECT_GT(out.checksum_bytes, 0u);
  EXPECT_LT(out.checksum_bytes, out.ckpt_bytes);
}

TEST(SktHpl, StrategyNoneMatchesPlainHpl) {
  MiniCluster mc(4, 0);
  const auto result = mc.run(4, [&](mpi::Comm& world) {
    SktHplConfig config = small_config();
    config.strategy = ckpt::Strategy::kNone;
    const SktHplResult r = run_skt_hpl(world, config);
    EXPECT_TRUE(r.hpl.residual.pass);
    EXPECT_EQ(r.checkpoints, 0);
    EXPECT_EQ(r.memory_bytes, 0u);
  });
  ASSERT_TRUE(result.completed) << result.abort_reason;
}

class SktHplStrategies : public ::testing::TestWithParam<ckpt::Strategy> {};

TEST_P(SktHplStrategies, PowerOffDuringEliminationRecovers) {
  MiniCluster mc(4, 2);
  storage::Vault vault;
  SktHplConfig config = small_config();
  config.strategy = GetParam();
  config.vault = &vault;

  sim::FailureInjector injector;
  // Kill rank 2 partway through elimination, after at least one commit
  // ("hpl.panel" fires once per panel; panel 3 follows the panel-2 commit).
  injector.add_rule({.point = "hpl.panel", .world_rank = 2, .hit = 4, .repeat = false});

  mpi::JobLauncher launcher(mc.cluster, &injector, {.max_restarts = 2});
  bool restored_seen = false;
  bool verified = false;
  const auto result = launcher.run(4, [&](mpi::Comm& world) {
    const SktHplResult r = run_skt_hpl(world, config);
    if (world.rank() == 0) {
      restored_seen = r.restored;
      verified = r.hpl.residual.pass;
    }
  });
  ASSERT_TRUE(result.success) << result.failure;
  EXPECT_EQ(result.restarts, 1);
  EXPECT_TRUE(restored_seen);
  EXPECT_TRUE(verified);
  // The dead node's ranks moved to a spare.
  EXPECT_GE(result.final_ranklist[2], 4);
}

INSTANTIATE_TEST_SUITE_P(Strategies, SktHplStrategies,
                         ::testing::Values(ckpt::Strategy::kSelf, ckpt::Strategy::kDouble,
                                           ckpt::Strategy::kBlcr),
                         [](const auto& info) {
                           std::string s(ckpt::to_string(info.param));
                           const auto dash = s.find('-');
                           return dash == std::string::npos ? s : s.substr(0, dash);
                         });

TEST(SktHpl, PowerOffDuringCheckpointFlushRecovers) {
  // CASE 2 of Fig. 4 end-to-end: node dies mid-flush; the A-side
  // (work + D) recovers and HPL still verifies.
  MiniCluster mc(4, 2);
  SktHplConfig config = small_config();

  sim::FailureInjector injector;
  injector.add_rule({.point = "ckpt.mid_flush", .world_rank = 1, .hit = 2, .repeat = false});

  mpi::JobLauncher launcher(mc.cluster, &injector, {.max_restarts = 2});
  bool verified = false;
  const auto result = launcher.run(4, [&](mpi::Comm& world) {
    const SktHplResult r = run_skt_hpl(world, config);
    if (world.rank() == 0) verified = r.hpl.residual.pass;
  });
  ASSERT_TRUE(result.success) << result.failure;
  EXPECT_TRUE(verified);
  EXPECT_GT(result.times.count("recover"), 0u);
}

TEST(SktHpl, TwoRanksPerNodeGroupsStayOnDistinctNodes) {
  // 8 ranks on 4 nodes, groups of 4: the planner must not co-locate two
  // group members on one node, and the run must survive a node loss that
  // kills TWO ranks (each in a different group).
  MiniCluster mc(4, 2);
  SktHplConfig config;
  config.hpl.n = 96;
  config.hpl.nb = 16;
  config.hpl.grid_p = 2;
  config.hpl.grid_q = 4;
  config.group_size = 4;
  config.ckpt_every_panels = 2;

  sim::FailureInjector injector;
  injector.add_rule({.point = "hpl.panel", .world_rank = 3, .hit = 4, .repeat = false});

  mpi::JobLauncher launcher(mc.cluster, &injector,
                            {.max_restarts = 2, .ranks_per_node = 2});
  bool verified = false;
  const auto result = launcher.run(8, [&](mpi::Comm& world) {
    const SktHplResult r = run_skt_hpl(world, config);
    if (world.rank() == 0) verified = r.hpl.residual.pass;
  });
  ASSERT_TRUE(result.success) << result.failure;
  EXPECT_TRUE(verified);
}

TEST(SktHpl, RejectsBadGroupSize) {
  MiniCluster mc(4, 0);
  const auto result = mc.run(4, [&](mpi::Comm& world) {
    SktHplConfig config = small_config();
    config.group_size = 3;  // does not divide 4
    EXPECT_THROW(run_skt_hpl(world, config), std::invalid_argument);
  });
  ASSERT_TRUE(result.completed) << result.abort_reason;
}

}  // namespace
}  // namespace skt::hpl
