// Randomized failure-schedule fuzzing: derive kill schedules (which rank,
// which failpoint, which visit) from a seed and assert the self-checkpoint
// stack either completes with bit-correct data or fails for a legitimate
// reason (spares exhausted / more simultaneous losses than the code
// tolerates). Deterministic per seed, so any failing seed replays exactly.
#include <gtest/gtest.h>

#include <array>

#include "ckpt_harness.hpp"
#include "mpi/launcher.hpp"
#include "storage/vault.hpp"
#include "testing.hpp"
#include "util/rng.hpp"

namespace skt::ckpt {
namespace {

using skt::testing::CkptAppConfig;
using skt::testing::checkpointed_app;

constexpr std::array<const char*, 8> kPoints{
    "app.work",     "ckpt.begin",   "ckpt.copy_a2", "ckpt.encode_begin",
    "ckpt.encode_done", "ckpt.sealed", "ckpt.mid_flush", "ckpt.flushed"};

class FailureFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FailureFuzz, RandomScheduleSelfCheckpoint) {
  const std::uint64_t seed = GetParam();
  util::Xoshiro256 rng(seed);

  const int world = 8;
  const int group_size = rng.next_below(2) == 0 ? 4 : 8;
  const int spares = 3;
  const int kills = 1 + static_cast<int>(rng.next_below(3));  // 1..3 failures

  skt::testing::MiniCluster mc(world, spares);
  CkptAppConfig config;
  config.strategy = Strategy::kSelf;
  config.group_size = group_size;
  config.iterations = 6;
  config.data_bytes = 1024 + rng.next_below(4096) / 8 * 8;
  config.seed = seed;

  sim::FailureInjector injector;
  for (int k = 0; k < kills; ++k) {
    injector.add_rule({
        .point = kPoints[rng.next_below(kPoints.size())],
        .world_rank = static_cast<int>(rng.next_below(world)),
        .hit = 2 + static_cast<int>(rng.next_below(4)),
        .repeat = false,
    });
  }

  mpi::JobLauncher launcher(mc.cluster, &injector, {.max_restarts = kills + 2});
  const auto result = launcher.run(world, [&](mpi::Comm& w) { checkpointed_app(w, config); });

  if (result.success) {
    // checkpointed_app verified the final pattern internally; nothing
    // survives a wrong restore silently.
    SUCCEED();
  } else {
    // Only two legitimate failure modes exist for this configuration.
    const bool spares_out = result.failure.find("spare pool exhausted") != std::string::npos;
    const bool too_many = result.failure.find("max restarts") != std::string::npos ||
                          result.failure.find("members lost in one group") != std::string::npos;
    EXPECT_TRUE(spares_out || too_many)
        << "seed " << seed << " failed unexpectedly: " << result.failure;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FailureFuzz,
                         ::testing::Range<std::uint64_t>(1000, 1040),
                         [](const auto& info) { return "seed" + std::to_string(info.param); });

class FailureFuzzDual : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FailureFuzzDual, RandomScheduleDualParity) {
  const std::uint64_t seed = GetParam();
  util::Xoshiro256 rng(seed * 2654435761ull);

  const int world = 8;
  skt::testing::MiniCluster mc(world, 4);
  CkptAppConfig config;
  config.strategy = Strategy::kSelf;
  config.parity_degree = 2;
  config.group_size = 8;
  config.iterations = 6;
  config.data_bytes = 2048;
  config.seed = seed;

  sim::FailureInjector injector;
  const int kills = 2 + static_cast<int>(rng.next_below(2));  // 2..3 failures
  for (int k = 0; k < kills; ++k) {
    injector.add_rule({
        .point = kPoints[rng.next_below(kPoints.size())],
        .world_rank = static_cast<int>(rng.next_below(world)),
        .hit = 2 + static_cast<int>(rng.next_below(3)),
        .repeat = false,
    });
  }

  mpi::JobLauncher launcher(mc.cluster, &injector, {.max_restarts = kills + 2});
  const auto result = launcher.run(world, [&](mpi::Comm& w) { checkpointed_app(w, config); });
  if (!result.success) {
    const bool legitimate =
        result.failure.find("spare pool exhausted") != std::string::npos ||
        result.failure.find("max restarts") != std::string::npos ||
        result.failure.find("members lost in one group") != std::string::npos;
    EXPECT_TRUE(legitimate) << "seed " << seed << ": " << result.failure;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FailureFuzzDual,
                         ::testing::Range<std::uint64_t>(2000, 2020),
                         [](const auto& info) { return "seed" + std::to_string(info.param); });

// Correlated-kill fuzzing against RS(k, m) groups: one rule takes out a
// random SET of ranks (sometimes a whole rack) in a single instant. Sets
// of size <= m must be absorbed in one recovery cycle; anything else must
// fail for a diagnosed reason — never restore corrupt data (the harness
// verifies the final pattern bit-for-bit on success).
class FailureFuzzCorrelated : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FailureFuzzCorrelated, RandomCorrelatedKillSetsAgainstRSGroups) {
  const std::uint64_t seed = GetParam();
  util::Xoshiro256 rng(seed ^ 0x5bf0'3635'dead'beefull);

  const int world = 8;
  const int parity = 2 + static_cast<int>(rng.next_below(2));       // RS(8,2) or RS(8,3)
  const int nodes_per_rack = 2 + static_cast<int>(rng.next_below(3));  // 2..4
  skt::testing::MiniCluster mc(world, 6, {}, nodes_per_rack);

  CkptAppConfig config;
  config.strategy = Strategy::kSelf;
  config.parity_degree = parity;
  config.group_size = 8;
  config.iterations = 6;
  config.data_bytes = 1024 + rng.next_below(4096) / 8 * 8;
  config.seed = seed;

  // One correlated rule: a victim set of 1..m+1 distinct ranks, or the
  // trigger's whole rack, dying at a random protocol step.
  sim::FailureInjector injector;
  sim::FailureRule rule;
  rule.point = kPoints[rng.next_below(kPoints.size())];
  rule.hit = 2 + static_cast<int>(rng.next_below(3));
  const int trigger = static_cast<int>(rng.next_below(world));
  rule.world_rank = trigger;
  rule.victim_world_rank = trigger;
  if (rng.next_below(4) == 0) {
    rule.kill_rack = true;
  } else {
    const int extras = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(parity) + 1));
    for (int k = 0; k < extras; ++k) {
      rule.extra_victims.push_back(static_cast<int>(rng.next_below(world)));
    }
  }
  injector.add_rule(rule);

  mpi::JobLauncher launcher(mc.cluster, &injector, {.max_restarts = 3});
  const auto result = launcher.run(world, [&](mpi::Comm& w) { checkpointed_app(w, config); });

  if (!result.success) {
    bool legitimate = result.failure.find("spare pool exhausted") != std::string::npos ||
                      result.failure.find("max restarts") != std::string::npos;
    for (const telemetry::Postmortem& pm : result.postmortems) {
      if (pm.reason.find("members lost in one group") != std::string::npos) legitimate = true;
    }
    EXPECT_TRUE(legitimate) << "seed " << seed << ": " << result.failure;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FailureFuzzCorrelated,
                         ::testing::Range<std::uint64_t>(3000, 3024),
                         [](const auto& info) { return "seed" + std::to_string(info.param); });

// Random kill schedules against a MULTI-LEVEL session whose level-2 tier
// is a storage::Vault sharded over the job's own nodes: every node loss also takes
// a vault shard with it, the launcher wipes the dead shards and re-homes
// their extents onto the spares, and the restarted job may have to restore
// straight out of the resharded tier (two losses in one group defeat the
// degree-1 code, so level 1 is no help). Success means the harness proved
// the restored state bit-identical; failure must name a diagnosed limit —
// including the two honest disk-tier verdicts for schedules that strike
// before the first flush or take both copies of an extent in one instant.
class FailureFuzzShardedVault : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FailureFuzzShardedVault, RandomScheduleMultiLevelOverShardedVault) {
  const std::uint64_t seed = GetParam();
  util::Xoshiro256 rng(seed ^ 0x9e37'79b9'7f4a'7c15ull);

  const int world = 8;
  skt::testing::MiniCluster mc(world, 4);
  storage::Vault vault({.nodes = {0, 1, 2, 3, 4, 5, 6, 7},
                        .extent_bytes = 128 + rng.next_below(8) * 64});

  CkptAppConfig config;
  config.strategy = Strategy::kSelf;
  config.group_size = 4;
  config.iterations = 6;
  config.data_bytes = 1024 + rng.next_below(4096) / 8 * 8;
  config.seed = seed;
  config.vault = &vault;
  config.level2_every = 2;
  config.mode = rng.next_below(2) == 0 ? CommitMode::kSync : CommitMode::kAsync;

  constexpr std::array<const char*, 4> kSyncPoints{"app.work", "ckpt.begin",
                                                   "ckpt.mid_flush", "ckpt.l2_flush"};
  constexpr std::array<const char*, 4> kAsyncPoints{"app.work", "ckpt.async_stage",
                                                    "ckpt.async_mid_flush",
                                                    "ckpt.async_l2_flush"};
  const bool async = config.mode == CommitMode::kAsync;

  sim::FailureInjector injector;
  const int kills = 1 + static_cast<int>(rng.next_below(2));  // 1..2 rules
  for (int k = 0; k < kills; ++k) {
    sim::FailureRule rule;
    rule.point = async ? kAsyncPoints[rng.next_below(kAsyncPoints.size())]
                       : kSyncPoints[rng.next_below(kSyncPoints.size())];
    rule.world_rank = static_cast<int>(rng.next_below(world));
    rule.hit = 2 + static_cast<int>(rng.next_below(3));
    rule.victim_world_rank = rule.world_rank;
    // A third of the rules take out a second shard host in the same
    // instant — sometimes an adjacent placement slot, which legitimately
    // loses both copies of some extents.
    if (rng.next_below(3) == 0) {
      rule.extra_victims.push_back(static_cast<int>(rng.next_below(world)));
    }
    injector.add_rule(rule);
  }

  mpi::JobLauncher launcher(mc.cluster, &injector,
                            {.max_restarts = kills + 2,
                             .ranks_per_node = 1,
                             .vault = &vault});
  const auto result = launcher.run(world, [&](mpi::Comm& w) { checkpointed_app(w, config); });

  if (result.success) {
    SUCCEED();  // bit-identical final pattern verified inside the harness
  } else {
    bool legitimate = result.failure.find("spare pool exhausted") != std::string::npos ||
                      result.failure.find("max restarts") != std::string::npos ||
                      result.failure.find("members lost in one group") != std::string::npos ||
                      result.failure.find("no complete disk generation") != std::string::npos ||
                      result.failure.find("disk image corrupt") != std::string::npos;
    for (const telemetry::Postmortem& pm : result.postmortems) {
      if (pm.reason.find("members lost in one group") != std::string::npos ||
          pm.reason.find("no complete disk generation") != std::string::npos ||
          pm.reason.find("disk image corrupt") != std::string::npos) {
        legitimate = true;
      }
    }
    EXPECT_TRUE(legitimate) << "seed " << seed << ": " << result.failure;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FailureFuzzShardedVault,
                         ::testing::Range<std::uint64_t>(4000, 4016),
                         [](const auto& info) { return "seed" + std::to_string(info.param); });

}  // namespace
}  // namespace skt::ckpt
