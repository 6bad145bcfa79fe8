// The recovery matrix: kill a node at EVERY stage of every strategy's
// commit state machine (and mid-compute, and during restore) and assert
// the outcome the paper's Figures 2-4 predict:
//
//   self-checkpoint  — recovers from every single-node failure
//   double           — recovers from every single-node failure
//   single           — recovers outside the update window, is
//                      *unrecoverable* inside it (CASE 2 of Fig. 2)
//   blcr             — recovers everywhere (disk survives power-off)
//
// Verification is end-to-end: the relaunched application must finish with
// bit-correct data (see ckpt_harness.hpp).
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>

#include "ckpt_harness.hpp"
#include "mpi/launcher.hpp"
#include "storage/vault.hpp"
#include "testing.hpp"

namespace skt::ckpt {
namespace {

using skt::testing::CkptAppConfig;
using skt::testing::checkpointed_app;

/// Every recoverable kill must leave a complete forensic record: one
/// postmortem naming the lost rank and the newest committed epoch, and —
/// for the in-memory strategies, where the replacement decodes its image
/// from the group — the rebuilt stripe set and the surviving peers it was
/// rebuilt from. (BLCR restores from disk: no peer rebuild to report.)
void expect_postmortem(const mpi::LaunchResult& result, Strategy strategy, int group_size) {
  ASSERT_EQ(result.postmortems.size(), 1u);
  const telemetry::Postmortem& pm = result.postmortems.front();
  EXPECT_EQ(pm.lost_ranks, std::vector<int>{1});
  EXPECT_GE(pm.lost_epoch, 1u);
  EXPECT_TRUE(pm.recovered);
  EXPECT_GE(pm.restored_epoch, 1u);
  EXPECT_FALSE(pm.committed_epochs.empty());
  EXPECT_EQ(pm.geometry.group_size, group_size);
  if (strategy == Strategy::kBlcr) return;
  ASSERT_FALSE(pm.rebuilds.empty());
  const telemetry::RebuildInfo& rb = pm.rebuilds.front();
  EXPECT_EQ(rb.rank, 1);
  EXPECT_GT(rb.stripe_count, 0u);
  EXPECT_EQ(rb.peers.size(), static_cast<std::size_t>(group_size - 1));
}

struct Case {
  Strategy strategy;
  const char* failpoint;
  bool recoverable;
  /// Rank whose failpoint visit triggers the kill. -1 = the victim itself.
  /// At exact step boundaries recoverability can depend on how far the
  /// SURVIVORS got, so the unrecoverable single-checkpoint cases use a
  /// survivor (rank 0) as the trigger: when rank 0 stands at
  /// ckpt.mid_update, rank 0 itself has provably entered the update
  /// window, which pins the outcome.
  int trigger = -1;
  /// > 0: partial-dirty mode (see CkptAppConfig::hot_bytes).
  std::size_t hot_bytes = 0;
  /// > 0: level 2 flushes to disk every N commits.
  int level2_every = 0;
};

std::string case_name(const ::testing::TestParamInfo<std::tuple<Case, int, enc::CodecKind>>& i) {
  const auto& [c, group, codec] = i.param;
  std::string point = c.failpoint;
  for (char& ch : point) {
    if (ch == '.') ch = '_';
  }
  std::string strategy(to_string(c.strategy));
  if (const auto dash = strategy.find('-'); dash != std::string::npos) {
    strategy = strategy.substr(0, dash);
  }
  if (c.level2_every > 0) strategy += "_l2";
  if (c.hot_bytes > 0) strategy += "_pd";
  return strategy + "_" + point + "_g" + std::to_string(group) + "_" +
         std::string(enc::to_string(codec));
}

class FailureMatrix
    : public ::testing::TestWithParam<std::tuple<Case, int /*group*/, enc::CodecKind>> {};

TEST_P(FailureMatrix, KillDuringProtocolStep) {
  const auto& [c, group_size, codec] = GetParam();
  const int world = 2 * group_size;  // two groups: cross-group epoch agreement is exercised
  skt::testing::MiniCluster mc(world, 2);

  storage::Vault vault;
  CkptAppConfig config;
  config.strategy = c.strategy;
  config.group_size = group_size;
  config.codec = codec;
  config.iterations = 4;
  config.data_bytes = 2048;
  config.vault = &vault;
  config.hot_bytes = c.hot_bytes;
  config.level2_every = c.level2_every;

  sim::FailureInjector injector;
  // Kill rank 1 (a member of group 0) on the SECOND visit to the failpoint
  // so at least one full checkpoint exists before the failure. "app.done"
  // is visited once per run, so it fires on the first visit.
  const int hit = std::string(c.failpoint) == "app.done" ? 1 : 2;
  const int trigger = c.trigger < 0 ? 1 : c.trigger;
  injector.add_rule({.point = c.failpoint,
                     .world_rank = trigger,
                     .hit = hit,
                     .repeat = false,
                     .victim_world_rank = 1});

  mpi::JobLauncher launcher(mc.cluster, &injector,
                            {.max_restarts = 3, .ranks_per_node = 1});
  const auto result = launcher.run(world, [&](mpi::Comm& w) { checkpointed_app(w, config); });

  EXPECT_EQ(injector.triggered_count(), 1u) << "failpoint never fired: " << c.failpoint;
  if (c.recoverable) {
    EXPECT_TRUE(result.success) << result.failure;
    EXPECT_EQ(result.restarts, 1);
    // The dead node was replaced by a spare.
    EXPECT_GE(result.final_ranklist[1], world);
    EXPECT_GT(result.times.count("recover"), 0u);
    expect_postmortem(result, c.strategy, group_size);
  } else {
    EXPECT_FALSE(result.success);
    EXPECT_FALSE(result.postmortems.empty());
  }
}

INSTANTIATE_TEST_SUITE_P(
    SelfCheckpoint, FailureMatrix,
    ::testing::Combine(
        ::testing::Values(Case{Strategy::kSelf, "app.work", true},
                          Case{Strategy::kSelf, "ckpt.begin", true},
                          Case{Strategy::kSelf, "ckpt.copy_a2", true},
                          Case{Strategy::kSelf, "ckpt.encode_begin", true},
                          Case{Strategy::kSelf, "enc.fold", true},
                          Case{Strategy::kSelf, "ckpt.encode_done", true},
                          Case{Strategy::kSelf, "ckpt.sealed", true},
                          Case{Strategy::kSelf, "ckpt.mid_flush", true},
                          Case{Strategy::kSelf, "ckpt.flushed", true},
                          Case{Strategy::kSelf, "app.done", true}),
        ::testing::Values(2, 4), ::testing::Values(enc::CodecKind::kXor)),
    case_name);

INSTANTIATE_TEST_SUITE_P(
    SelfCheckpointSumCodec, FailureMatrix,
    ::testing::Combine(::testing::Values(Case{Strategy::kSelf, "ckpt.mid_flush", true},
                                         Case{Strategy::kSelf, "ckpt.encode_done", true}),
                       ::testing::Values(4), ::testing::Values(enc::CodecKind::kSum)),
    case_name);

// Partially-dirty synchronous commits: the app annotates a 512-byte hot
// suffix (of 2048) that lies in each member's last stripe, so 4 of the
// group's 12 (member, stripe) pairs are dirty and the encode is the sparse
// delta, whose lent diffs the owners fold into D in place (the harness
// fails any such commit that moves as many wire bytes as a full encode).
// Kills land after that fold, after the seal, and mid-flush — where C is
// refreshed only over the runs of D that changed. Each 688-byte stripe here is a single block; the
// SubStripeMatrix rows below cover runs shorter than a stripe.
INSTANTIATE_TEST_SUITE_P(
    PartialDirtySync, FailureMatrix,
    ::testing::Combine(
        ::testing::Values(Case{Strategy::kSelf, "ckpt.encode_done", true, -1, 512},
                          Case{Strategy::kSelf, "ckpt.sealed", true, -1, 512},
                          Case{Strategy::kSelf, "ckpt.mid_flush", true, -1, 512}),
        ::testing::Values(4), ::testing::Values(enc::CodecKind::kXor)),
    case_name);

INSTANTIATE_TEST_SUITE_P(
    DoubleCheckpoint, FailureMatrix,
    ::testing::Combine(
        ::testing::Values(Case{Strategy::kDouble, "app.work", true},
                          Case{Strategy::kDouble, "ckpt.begin", true},
                          Case{Strategy::kDouble, "ckpt.mid_update", true},
                          Case{Strategy::kDouble, "enc.fold", true},
                          Case{Strategy::kDouble, "ckpt.encode_done", true},
                          Case{Strategy::kDouble, "ckpt.flushed", true}),
        ::testing::Values(2, 4), ::testing::Values(enc::CodecKind::kXor)),
    case_name);

// Level 2 is a step of the commit frame every group strategy shares: a
// kill inside double's second flush recovers like self's.
INSTANTIATE_TEST_SUITE_P(
    MultiLevelSync, FailureMatrix,
    ::testing::Combine(::testing::Values(Case{Strategy::kDouble, "ckpt.l2_flush", true, -1, 0, 2}),
                       ::testing::Values(4), ::testing::Values(enc::CodecKind::kXor)),
    case_name);

INSTANTIATE_TEST_SUITE_P(
    SingleCheckpoint, FailureMatrix,
    ::testing::Combine(
        ::testing::Values(
            // Outside the update window: recoverable (CASE 1 of Fig. 2).
            Case{Strategy::kSingle, "app.work", true},
            Case{Strategy::kSingle, "ckpt.begin", true},
            // Inside the update window: (B, C) inconsistent (CASE 2).
            // Survivor-triggered (rank 0 is provably mid-update when the
            // victim dies) to pin the interleaving.
            Case{Strategy::kSingle, "ckpt.mid_update", false, 0},
            Case{Strategy::kSingle, "ckpt.encode_done", false, 0}),
        ::testing::Values(4), ::testing::Values(enc::CodecKind::kXor)),
    case_name);

INSTANTIATE_TEST_SUITE_P(
    Blcr, FailureMatrix,
    ::testing::Combine(::testing::Values(Case{Strategy::kBlcr, "app.work", true},
                                         Case{Strategy::kBlcr, "ckpt.mid_update", true},
                                         Case{Strategy::kBlcr, "ckpt.flushed", true}),
                       ::testing::Values(2), ::testing::Values(enc::CodecKind::kXor)),
    case_name);

// The same sweep through the ASYNCHRONOUS pipeline: the kill lands inside
// the background worker's ckpt.async_* window (or the rank thread's
// ckpt.async_stage), while the application loop is already mutating the
// next iteration's data. Recovery must still converge on a globally
// consistent epoch — the staged copy S is what the group encoded, so a
// CASE-2 rebuild reads (S, D), never the torn live buffer.
struct AsyncCase {
  Strategy strategy;
  const char* failpoint;
  bool recoverable = true;
  /// See Case::trigger; -1 = the victim itself.
  int trigger = -1;
  /// > 0: wrap in a multi-level session flushing to disk every N commits.
  int level2_every = 0;
  /// > 0: partial-dirty mode — the app rewrites/annotates only this many
  /// bytes per iteration, so the kill lands inside a commit_staged whose
  /// staging and parity delta covered a strict subset of the stripes.
  std::size_t hot_bytes = 0;
};

std::string async_case_name(
    const ::testing::TestParamInfo<std::tuple<AsyncCase, int>>& i) {
  const auto& [c, group] = i.param;
  std::string point = c.failpoint;
  for (char& ch : point) {
    if (ch == '.') ch = '_';
  }
  std::string strategy(to_string(c.strategy));
  if (const auto dash = strategy.find('-'); dash != std::string::npos) {
    strategy = strategy.substr(0, dash);
  }
  if (c.level2_every > 0) strategy += "_l2";
  if (c.hot_bytes > 0) strategy += "_pd";
  return strategy + "_" + point + "_g" + std::to_string(group);
}

class AsyncFailureMatrix
    : public ::testing::TestWithParam<std::tuple<AsyncCase, int /*group*/>> {};

TEST_P(AsyncFailureMatrix, KillDuringAsyncPipelineStep) {
  const auto& [c, group_size] = GetParam();
  const int world = 2 * group_size;
  skt::testing::MiniCluster mc(world, 2);

  storage::Vault vault;
  CkptAppConfig config;
  config.strategy = c.strategy;
  config.group_size = group_size;
  config.iterations = 4;
  config.data_bytes = 2048;
  config.vault = &vault;
  config.mode = CommitMode::kAsync;
  config.level2_every = c.level2_every;
  config.hot_bytes = c.hot_bytes;

  sim::FailureInjector injector;
  const int trigger = c.trigger < 0 ? 1 : c.trigger;
  injector.add_rule({.point = c.failpoint,
                     .world_rank = trigger,
                     .hit = 2,
                     .repeat = false,
                     .victim_world_rank = 1});

  mpi::JobLauncher launcher(mc.cluster, &injector,
                            {.max_restarts = 3, .ranks_per_node = 1});
  const auto result = launcher.run(world, [&](mpi::Comm& w) { checkpointed_app(w, config); });

  EXPECT_EQ(injector.triggered_count(), 1u) << "failpoint never fired: " << c.failpoint;
  if (c.recoverable) {
    EXPECT_TRUE(result.success) << result.failure;
    EXPECT_EQ(result.restarts, 1);
    EXPECT_GE(result.final_ranklist[1], world);
    EXPECT_GT(result.times.count("recover"), 0u);
    expect_postmortem(result, c.strategy, group_size);
  } else {
    EXPECT_FALSE(result.success);
    EXPECT_FALSE(result.postmortems.empty());
  }
}

INSTANTIATE_TEST_SUITE_P(
    SelfAsync, AsyncFailureMatrix,
    ::testing::Combine(
        ::testing::Values(AsyncCase{Strategy::kSelf, "ckpt.async_stage", true},
                          AsyncCase{Strategy::kSelf, "ckpt.async_begin", true},
                          AsyncCase{Strategy::kSelf, "ckpt.async_encode_begin", true},
                          AsyncCase{Strategy::kSelf, "enc.fold", true},
                          AsyncCase{Strategy::kSelf, "ckpt.async_encode_done", true},
                          AsyncCase{Strategy::kSelf, "ckpt.async_sealed", true},
                          AsyncCase{Strategy::kSelf, "ckpt.async_mid_flush", true},
                          AsyncCase{Strategy::kSelf, "ckpt.async_flushed", true}),
        ::testing::Values(2, 4)),
    async_case_name);

INSTANTIATE_TEST_SUITE_P(
    DoubleAsync, AsyncFailureMatrix,
    ::testing::Combine(
        ::testing::Values(AsyncCase{Strategy::kDouble, "ckpt.async_begin", true},
                          AsyncCase{Strategy::kDouble, "ckpt.async_mid_update", true},
                          AsyncCase{Strategy::kDouble, "ckpt.async_encode_done", true},
                          AsyncCase{Strategy::kDouble, "ckpt.async_flushed", true}),
        ::testing::Values(4)),
    async_case_name);

INSTANTIATE_TEST_SUITE_P(
    SingleAsync, AsyncFailureMatrix,
    ::testing::Combine(
        ::testing::Values(
            // The update-window semantics survive the move to the worker:
            // outside the window recoverable, inside it unrecoverable
            // (survivor-triggered, as in the sync matrix).
            AsyncCase{Strategy::kSingle, "ckpt.async_begin", true},
            AsyncCase{Strategy::kSingle, "ckpt.async_mid_update", false, 0},
            AsyncCase{Strategy::kSingle, "ckpt.async_encode_done", false, 0}),
        ::testing::Values(4)),
    async_case_name);

INSTANTIATE_TEST_SUITE_P(
    BlcrAsync, AsyncFailureMatrix,
    ::testing::Combine(
        ::testing::Values(AsyncCase{Strategy::kBlcr, "ckpt.async_begin", true},
                          AsyncCase{Strategy::kBlcr, "ckpt.async_mid_update", true},
                          AsyncCase{Strategy::kBlcr, "ckpt.async_flushed", true}),
        ::testing::Values(2)),
    async_case_name);

// Partially-dirty staging under failure: the app annotates a 512-byte hot
// suffix (of 2048) inside each member's last stripe, so the staged copy S
// refreshed only that stripe and the worker's encode was the sparse
// delta (4 of 12 pairs dirty; the harness checks its wire bytes) when the
// victim died mid commit_staged. Recovery reads (S, D) — the cold
// stripes of S (carried, not recopied) and the delta-updated parity must
// still agree bit-for-bit, and the rebuilt rank's cold region must
// reproduce the iteration-0 pattern end-to-end.
INSTANTIATE_TEST_SUITE_P(
    PartialDirtyAsync, AsyncFailureMatrix,
    ::testing::Combine(
        ::testing::Values(
            AsyncCase{Strategy::kSelf, "ckpt.async_stage", true, -1, 0, 512},
            AsyncCase{Strategy::kSelf, "ckpt.async_encode_done", true, -1, 0, 512},
            AsyncCase{Strategy::kSelf, "ckpt.async_mid_flush", true, -1, 0, 512},
            AsyncCase{Strategy::kDouble, "ckpt.async_mid_update", true, -1, 0, 512},
            AsyncCase{Strategy::kDouble, "ckpt.async_encode_done", true, -1, 0, 512}),
        ::testing::Values(4)),
    async_case_name);

// Sub-stripe dirty runs under failure. The rows above use 2 KiB buffers,
// where one block covers a whole stripe. Here each stripe is many blocks
// long (96 KiB of data per member: 8 blocks per XOR stripe, 12 per
// RS(4, 2) stripe) and the app rewrites an unaligned 9000-byte window at
// byte 5000, so every commit stages, encodes and flushes two runs per
// member — blocks 1-3 of stripe 0 and the user tail's block — and leaves
// the rest of each stripe alone. Kills land inside the delta's fold, after
// the encode folded those runs into D, after the seal, and mid-flush, in
// both commit modes; the relaunched job must restore the window and the
// cold blocks around it bit for bit. The fold rows kill an owner while it
// holds a lender's diff view: the first, full commit passes enc.fold once
// per parity slot, so visit m + 1 is the delta's first fold.
struct SubStripeCase {
  const char* name;
  const char* failpoint;
  CommitMode mode;
  int parity;
  int hit = 2;  ///< the visit of `failpoint` on rank 1 that kills it
};

class SubStripeMatrix : public ::testing::TestWithParam<SubStripeCase> {};

TEST_P(SubStripeMatrix, KillDuringSubStripeCommitRestoresBitExact) {
  const SubStripeCase& c = GetParam();
  constexpr int kGroup = 4;
  const int world = 2 * kGroup;
  skt::testing::MiniCluster mc(world, 2);

  CkptAppConfig config;
  config.strategy = Strategy::kSelf;
  config.group_size = kGroup;
  config.parity_degree = c.parity;
  config.iterations = 4;
  config.data_bytes = 96 << 10;
  config.mode = c.mode;
  config.hot_bytes = 9000;
  config.hot_begin = 5000;

  sim::FailureInjector injector;
  injector.add_rule({.point = c.failpoint,
                     .world_rank = 1,
                     .hit = c.hit,
                     .repeat = false,
                     .victim_world_rank = 1});

  mpi::JobLauncher launcher(mc.cluster, &injector,
                            {.max_restarts = 3, .ranks_per_node = 1});
  const auto result = launcher.run(world, [&](mpi::Comm& w) { checkpointed_app(w, config); });

  EXPECT_EQ(injector.triggered_count(), 1u) << "failpoint never fired: " << c.failpoint;
  EXPECT_TRUE(result.success) << result.failure;
  EXPECT_EQ(result.restarts, 1);
  EXPECT_GE(result.final_ranklist[1], world);
  expect_postmortem(result, Strategy::kSelf, kGroup);
}

INSTANTIATE_TEST_SUITE_P(
    Points, SubStripeMatrix,
    ::testing::Values(
        SubStripeCase{"xor_delta_fold", "enc.fold", CommitMode::kSync, 1, 2},
        SubStripeCase{"xor_async_delta_fold", "enc.fold", CommitMode::kAsync, 1, 2},
        SubStripeCase{"rs4p2_delta_fold", "enc.fold", CommitMode::kSync, 2, 3},
        SubStripeCase{"rs4p2_async_delta_fold", "enc.fold", CommitMode::kAsync, 2, 3},
        SubStripeCase{"xor_encode_done", "ckpt.encode_done", CommitMode::kSync, 1},
        SubStripeCase{"xor_sealed", "ckpt.sealed", CommitMode::kSync, 1},
        SubStripeCase{"xor_mid_flush", "ckpt.mid_flush", CommitMode::kSync, 1},
        SubStripeCase{"xor_async_encode_done", "ckpt.async_encode_done", CommitMode::kAsync, 1},
        SubStripeCase{"xor_async_sealed", "ckpt.async_sealed", CommitMode::kAsync, 1},
        SubStripeCase{"xor_async_mid_flush", "ckpt.async_mid_flush", CommitMode::kAsync, 1},
        SubStripeCase{"rs4p2_encode_done", "ckpt.encode_done", CommitMode::kSync, 2},
        SubStripeCase{"rs4p2_sealed", "ckpt.sealed", CommitMode::kSync, 2},
        SubStripeCase{"rs4p2_mid_flush", "ckpt.mid_flush", CommitMode::kSync, 2},
        SubStripeCase{"rs4p2_async_encode_done", "ckpt.async_encode_done", CommitMode::kAsync,
                      2},
        SubStripeCase{"rs4p2_async_sealed", "ckpt.async_sealed", CommitMode::kAsync, 2},
        SubStripeCase{"rs4p2_async_mid_flush", "ckpt.async_mid_flush", CommitMode::kAsync, 2}),
    [](const auto& info) { return std::string(info.param.name); });

INSTANTIATE_TEST_SUITE_P(
    MultiLevelAsync, AsyncFailureMatrix,
    ::testing::Combine(
        ::testing::Values(
            AsyncCase{Strategy::kSelf, "ckpt.async_sealed", true, -1, 2},
            AsyncCase{Strategy::kSelf, "ckpt.async_l2_flush", true, -1, 2},
            AsyncCase{Strategy::kDouble, "ckpt.async_l2_flush", true, -1, 2}),
        ::testing::Values(4)),
    async_case_name);

// Self-checkpoint over RS(k, 2), the RAID-6 case: TWO nodes of the SAME
// group die in the same instant, at every protocol step, and the degree-2
// code still recovers end-to-end.
class DualParityMatrix : public ::testing::TestWithParam<const char*> {};

TEST_P(DualParityMatrix, SimultaneousDoubleKillRecovers) {
  const char* point = GetParam();
  skt::testing::MiniCluster mc(5, 3);
  CkptAppConfig config;
  config.strategy = Strategy::kSelf;
  config.parity_degree = 2;
  config.group_size = 5;
  config.iterations = 4;
  config.data_bytes = 2000;

  sim::FailureInjector injector;
  // Both rules fire at the same failpoint visit; whichever rank arrives
  // first kills its node, the other dies at the same point of the same
  // commit — two blank members of one group on restart.
  injector.add_rule({.point = point, .world_rank = 1, .hit = 2, .repeat = false});
  injector.add_rule({.point = point, .world_rank = 3, .hit = 2, .repeat = false});

  mpi::JobLauncher launcher(mc.cluster, &injector, {.max_restarts = 4});
  const auto result = launcher.run(5, [&](mpi::Comm& w) { checkpointed_app(w, config); });
  EXPECT_TRUE(result.success) << result.failure;
  EXPECT_GE(injector.triggered_count(), 1u);
  // Both victims may die in one cycle or across two (the second rank can
  // be pre-empted before reaching the failpoint); either way <= 2 cycles.
  EXPECT_LE(result.restarts, 2);
  // One postmortem per incident, every one naming its victims.
  ASSERT_EQ(result.postmortems.size(), static_cast<std::size_t>(result.restarts));
  for (const telemetry::Postmortem& pm : result.postmortems) {
    EXPECT_FALSE(pm.lost_ranks.empty());
    EXPECT_TRUE(pm.recovered);
  }
}

INSTANTIATE_TEST_SUITE_P(Points, DualParityMatrix,
                         ::testing::Values("app.work", "ckpt.copy_a2", "ckpt.encode_done",
                                           "ckpt.sealed", "ckpt.mid_flush", "ckpt.flushed"),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (c == '.') c = '_';
                           }
                           return name;
                         });

// Correlated failures: SEVERAL members of one group die in the SAME
// instant (shared PDU, blown breaker — one FailureRule with
// extra_victims), at a protocol step of choice. RS(k, m) groups must
// absorb up to m such deaths in a single recovery cycle; m + 1 must abort
// cleanly with the group-loss diagnosis, never restore corrupt data.
struct CorrelatedCase {
  const char* name;
  Strategy strategy;
  const char* failpoint;
  int group_size;
  int parity;
  std::vector<int> victims;  ///< world ranks, ascending, all in group 0
  bool recoverable;
  CommitMode mode = CommitMode::kSync;
};

class CorrelatedKillMatrix : public ::testing::TestWithParam<CorrelatedCase> {};

TEST_P(CorrelatedKillMatrix, ConcurrentGroupDeathsInOneInstant) {
  const CorrelatedCase& c = GetParam();
  const int world = 2 * c.group_size;  // a second group keeps cross-group epoch agreement honest
  skt::testing::MiniCluster mc(world, c.group_size);

  CkptAppConfig config;
  config.strategy = c.strategy;
  config.group_size = c.group_size;
  config.parity_degree = c.parity;
  config.iterations = 4;
  config.data_bytes = 2048;
  config.mode = c.mode;

  sim::FailureInjector injector;
  injector.add_rule(
      {.point = c.failpoint,
       .world_rank = c.victims.front(),
       .hit = 2,
       .repeat = false,
       .victim_world_rank = c.victims.front(),
       .extra_victims = {c.victims.begin() + 1, c.victims.end()}});

  mpi::JobLauncher launcher(mc.cluster, &injector,
                            {.max_restarts = 3, .ranks_per_node = 1});
  const auto result = launcher.run(world, [&](mpi::Comm& w) { checkpointed_app(w, config); });

  EXPECT_EQ(injector.triggered_count(), 1u) << "failpoint never fired: " << c.failpoint;
  if (c.recoverable) {
    EXPECT_TRUE(result.success) << result.failure;
    // ONE recovery cycle absorbs the whole correlated loss.
    EXPECT_EQ(result.restarts, 1);
    ASSERT_EQ(result.postmortems.size(), 1u);
    const telemetry::Postmortem& pm = result.postmortems.front();
    EXPECT_EQ(pm.lost_ranks, c.victims);
    EXPECT_TRUE(pm.recovered);
    EXPECT_EQ(pm.geometry.parity_count, c.parity);
    // One rebuild record per lost member, each naming the full
    // concurrently-lost set it was decoded around.
    ASSERT_EQ(pm.rebuilds.size(), c.victims.size());
    for (const telemetry::RebuildInfo& rb : pm.rebuilds) {
      EXPECT_EQ(rb.concurrent_lost, c.victims);
      EXPECT_GT(rb.stripe_count, 0u);
    }
  } else {
    EXPECT_FALSE(result.success);
    // The m+1 overload is DIAGNOSED — a clean abort naming the group
    // overload in the incident record — never a silent mis-restore.
    bool diagnosed = false;
    for (const telemetry::Postmortem& pm : result.postmortems) {
      if (pm.reason.find("members lost in one group") != std::string::npos) diagnosed = true;
    }
    EXPECT_TRUE(diagnosed) << result.failure;
    EXPECT_FALSE(result.postmortems.empty());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, CorrelatedKillMatrix,
    ::testing::Values(
        // RS(4, 2): two concurrent deaths in one group, swept over the
        // commit state machine.
        CorrelatedCase{"rs4p2_work", Strategy::kSelf, "app.work", 4, 2, {1, 2}, true},
        CorrelatedCase{"rs4p2_sealed", Strategy::kSelf, "ckpt.sealed", 4, 2, {1, 2}, true},
        CorrelatedCase{"rs4p2_mid_flush", Strategy::kSelf, "ckpt.mid_flush", 4, 2, {1, 2},
                       true},
        CorrelatedCase{
            "rs4p2_encode_done", Strategy::kSelf, "ckpt.encode_done", 4, 2, {0, 3}, true},
        // RS(8, 3): three concurrent deaths, adjacent and spread picks.
        CorrelatedCase{
            "rs8p3_sealed", Strategy::kSelf, "ckpt.sealed", 8, 3, {1, 2, 3}, true},
        CorrelatedCase{
            "rs8p3_mid_flush", Strategy::kSelf, "ckpt.mid_flush", 8, 3, {1, 4, 6}, true},
        // The asynchronous pipeline: both deaths inside the worker's
        // encode window, recovered from (S, D).
        CorrelatedCase{"rs4p2_async_encode_done", Strategy::kSelf, "ckpt.async_encode_done", 4,
                       2, {1, 2}, true, CommitMode::kAsync},
        // The other group-coded strategy rides the same substrate.
        CorrelatedCase{
            "double_rs4p2", Strategy::kDouble, "ckpt.flushed", 4, 2, {1, 2}, true},
        // Negative rows: m + 1 concurrent deaths exceed the code.
        CorrelatedCase{
            "rs4p2_three_dead", Strategy::kSelf, "ckpt.sealed", 4, 2, {1, 2, 3}, false},
        CorrelatedCase{"rs8p3_four_dead", Strategy::kSelf, "ckpt.mid_flush", 8, 3,
                       {1, 2, 5, 7}, false}),
    [](const auto& info) { return std::string(info.param.name); });

// Whole-rack power loss: with two nodes per rack, rank 1's rack failure
// takes nodes {0, 1} — two members of group 0 — in one instant. RS(4, 2)
// absorbs the rack.
TEST(CorrelatedKillExtra, WholeRackFailureRecovered) {
  skt::testing::MiniCluster mc(8, 4, {}, /*nodes_per_rack=*/2);
  CkptAppConfig config;
  config.strategy = Strategy::kSelf;
  config.group_size = 4;
  config.parity_degree = 2;
  config.iterations = 4;
  config.data_bytes = 2048;

  sim::FailureInjector injector;
  injector.add_rule(
      {.point = "ckpt.sealed", .world_rank = 1, .hit = 2, .repeat = false, .kill_rack = true});

  mpi::JobLauncher launcher(mc.cluster, &injector, {.max_restarts = 3});
  const auto result = launcher.run(8, [&](mpi::Comm& w) { checkpointed_app(w, config); });
  EXPECT_TRUE(result.success) << result.failure;
  EXPECT_EQ(result.restarts, 1);
  ASSERT_EQ(result.postmortems.size(), 1u);
  EXPECT_EQ(result.postmortems.front().lost_ranks, (std::vector<int>{0, 1}));
}

// ...and a rack loss of m + 1 members is diagnosed, not mis-restored:
// three nodes per rack puts {0, 1, 2} of a 4-member RS(4, 2) group on one
// PDU.
TEST(CorrelatedKillExtra, WholeRackBeyondParityAbortsCleanly) {
  skt::testing::MiniCluster mc(8, 4, {}, /*nodes_per_rack=*/3);
  CkptAppConfig config;
  config.strategy = Strategy::kSelf;
  config.group_size = 4;
  config.parity_degree = 2;
  config.iterations = 4;

  sim::FailureInjector injector;
  injector.add_rule(
      {.point = "ckpt.sealed", .world_rank = 1, .hit = 2, .repeat = false, .kill_rack = true});

  mpi::JobLauncher launcher(mc.cluster, &injector, {.max_restarts = 3});
  const auto result = launcher.run(8, [&](mpi::Comm& w) { checkpointed_app(w, config); });
  EXPECT_FALSE(result.success);
  bool diagnosed = false;
  for (const telemetry::Postmortem& pm : result.postmortems) {
    if (pm.reason.find("members lost in one group") != std::string::npos) diagnosed = true;
  }
  EXPECT_TRUE(diagnosed) << result.failure;
}

// Scrub-under-fire: the background scrubber is live (and mid-run repairs
// an injected silent bit flip — the harness fails the job if it doesn't)
// while a correlated two-death kill lands. The repair must neither mask
// nor corrupt the recovery, and the scrub.* counters must surface in the
// incident's postmortem.
class ScrubUnderFire : public ::testing::TestWithParam<const char*> {};

TEST_P(ScrubUnderFire, RepairsBitFlipThenSurvivesCorrelatedKill) {
  skt::testing::MiniCluster mc(8, 4);
  CkptAppConfig config;
  config.strategy = Strategy::kSelf;
  config.group_size = 4;
  config.parity_degree = 2;
  config.iterations = 5;
  config.data_bytes = 2048;
  config.scrub_interval = 0.0005;
  config.scrub_bitflip = true;

  sim::FailureInjector injector;
  // Fires on the FOURTH visit, after the iteration-2 bit-flip drill.
  injector.add_rule({.point = GetParam(),
                     .world_rank = 1,
                     .hit = 4,
                     .repeat = false,
                     .victim_world_rank = 1,
                     .extra_victims = {2}});

  mpi::JobLauncher launcher(mc.cluster, &injector, {.max_restarts = 3});
  const auto result = launcher.run(8, [&](mpi::Comm& w) { checkpointed_app(w, config); });
  EXPECT_TRUE(result.success) << result.failure;
  EXPECT_EQ(result.restarts, 1);
  ASSERT_EQ(result.postmortems.size(), 1u);
  const telemetry::Postmortem& pm = result.postmortems.front();
  EXPECT_EQ(pm.lost_ranks, (std::vector<int>{1, 2}));
  EXPECT_TRUE(pm.recovered);
  // The incident record carries the scrub evidence: passes ran, the flip
  // was caught, and every detection was repaired (mirror-backed region).
  EXPECT_GE(pm.scrub_passes, 1u);
  EXPECT_GE(pm.scrub_corruption_detected, 1u);
  EXPECT_GE(pm.scrub_repaired, 1u);
}

INSTANTIATE_TEST_SUITE_P(Points, ScrubUnderFire,
                         ::testing::Values("ckpt.sealed", "ckpt.mid_flush", "app.work"),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (c == '.') c = '_';
                           }
                           return name;
                         });

// The kill matrix through a NAMESPACED session: the same mid-commit node
// loss, but the job runs as a StoreService tenant, so every segment key
// the recovery walks is "ns/<tenant>/"-prefixed and owner-tagged, and the
// replacement rank's rebuild must re-create its stripes under the SAME
// namespace (a collision or a bare key would fail loudly).
class TenantFailureMatrix : public ::testing::TestWithParam<const char*> {};

TEST_P(TenantFailureMatrix, KillDuringCommitOfTenantSession) {
  skt::testing::MiniCluster mc(4, 2);
  StoreService service({.capacity_bytes = 64u << 20});
  service.register_tenant({.name = "matrix", .quota_bytes = 32u << 20});

  CkptAppConfig config;
  config.strategy = Strategy::kSelf;
  config.group_size = 4;
  config.iterations = 4;
  config.data_bytes = 2048;
  config.service = &service;
  config.tenant = "matrix";
  if (std::string(GetParam()).find("async") != std::string::npos) {
    config.mode = CommitMode::kAsync;
  }

  sim::FailureInjector injector;
  injector.add_rule({.point = GetParam(), .world_rank = 1, .hit = 2, .repeat = false});

  mpi::JobLauncher launcher(mc.cluster, &injector, {.max_restarts = 3});
  const auto result = launcher.run(4, [&](mpi::Comm& w) { checkpointed_app(w, config); });
  EXPECT_TRUE(result.success) << result.failure;
  EXPECT_EQ(result.restarts, 1);
  // Every surviving stripe belongs to the tenant's namespace, and the
  // whole-job lease was handed back on teardown.
  const std::string ns = StoreService::namespace_prefix("matrix");
  std::size_t tenant_segments = 0;
  for (int n = 0; n < mc.cluster.total_nodes(); ++n) {
    tenant_segments += mc.cluster.node(n).store().segments_of(ns).size();
    EXPECT_EQ(mc.cluster.node(n).store().segments_of(ns).size() == 0
                  ? 0u
                  : mc.cluster.node(n).store().segment_count(),
              mc.cluster.node(n).store().segments_of(ns).size())
        << "node " << n << " holds segments outside the tenant namespace";
  }
  EXPECT_GT(tenant_segments, 0u);
  EXPECT_EQ(service.bytes_in_use(), 0u);
  EXPECT_GE(service.tenant_stats("matrix").commits, 4u);
}

INSTANTIATE_TEST_SUITE_P(Points, TenantFailureMatrix,
                         ::testing::Values("ckpt.mid_flush", "ckpt.sealed",
                                           "ckpt.async_mid_flush"),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (c == '.') c = '_';
                           }
                           return name;
                         });

// Two failures in ONE group exceed the single-erasure code: unrecoverable
// for self-checkpoint...
TEST(FailureMatrixExtra, TwoFailuresInOneGroupUnrecoverable) {
  skt::testing::MiniCluster mc(4, 4);
  CkptAppConfig config;
  config.strategy = Strategy::kSelf;
  config.group_size = 4;
  config.iterations = 4;

  sim::FailureInjector injector;
  // Both failures hit before the next commit completes, so the rebuilt
  // checkpoint never exists: rank 1 dies at iteration 2's commit, and the
  // restarted run kills rank 2 immediately during restore.
  injector.add_rule({.point = "ckpt.begin", .world_rank = 1, .hit = 2, .repeat = false});
  injector.add_rule({.point = "ckpt.restore", .world_rank = 2, .hit = 1, .repeat = false});

  mpi::JobLauncher launcher(mc.cluster, &injector, {.max_restarts = 4});
  const auto result = launcher.run(4, [&](mpi::Comm& w) { checkpointed_app(w, config); });
  EXPECT_FALSE(result.success);
}

// A second kill inside the lent rebuild (failpoint enc.rebuild) of the
// first relaunch's restore. Rank 1 dies at its second commit; on the
// relaunch its replacement folds its blocks from the survivors' lent
// terms. The replacement passes the failpoint holding each block's views,
// so a kill it triggers lands while the rebuild is provably unfinished:
//  - killing survivor rank 2, which has lent or is lending its terms:
//    under RS(4, 2) the next relaunch rebuilds both the unrestored
//    replacement and rank 2 bit-exact; under XOR the group has lost two
//    members, and the job ends with that diagnosis, without a hang or a
//    restore;
//  - killing the folding replacement itself: the survivors are intact,
//    so the next relaunch rebuilds rank 1 again.
// A survivor passes the failpoint once, after lending and before its
// loans settle. Killed there under RS(4, 2), it dies with bytes on loan;
// the replacement may or may not have folded every block by then, and
// either way the next relaunch recovers.
struct RebuildKillCase {
  const char* name;
  int parity;
  int trigger;  ///< world rank whose first enc.rebuild visit fires the kill
  int victim;   ///< world rank whose node dies
  bool recoverable;
};

class RebuildKillMatrix : public ::testing::TestWithParam<RebuildKillCase> {};

TEST_P(RebuildKillMatrix, KillInsideTheLentRebuild) {
  const RebuildKillCase& c = GetParam();
  constexpr int kGroup = 4;
  constexpr int kWorld = 2 * kGroup;  // group 1 rebuilds nothing but agrees on epochs
  skt::testing::MiniCluster mc(kWorld, 4);
  CkptAppConfig config;
  config.strategy = Strategy::kSelf;
  config.group_size = kGroup;
  config.parity_degree = c.parity;
  config.iterations = 4;
  config.data_bytes = 2048;

  sim::FailureInjector injector;
  injector.add_rule({.point = "ckpt.begin", .world_rank = 1, .hit = 2, .repeat = false});
  injector.add_rule({.point = "enc.rebuild",
                     .world_rank = c.trigger,
                     .hit = 1,
                     .repeat = false,
                     .victim_world_rank = c.victim});

  mpi::JobLauncher launcher(mc.cluster, &injector, {.max_restarts = 2});
  const auto result = launcher.run(kWorld, [&](mpi::Comm& w) { checkpointed_app(w, config); });
  EXPECT_EQ(injector.triggered_count(), 2u);
  ASSERT_GE(result.postmortems.size(), 2u);
  EXPECT_EQ(result.postmortems[1].lost_ranks, std::vector<int>{c.victim});
  if (c.recoverable) {
    EXPECT_TRUE(result.success) << result.failure;
    EXPECT_EQ(result.restarts, 2);
    ASSERT_EQ(result.postmortems.size(), 2u);
    const telemetry::Postmortem& pm = result.postmortems[1];
    EXPECT_TRUE(pm.recovered);
    std::vector<int> rebuilt;
    for (const telemetry::RebuildInfo& rb : pm.rebuilds) rebuilt.push_back(rb.rank);
    std::sort(rebuilt.begin(), rebuilt.end());
    std::vector<int> both{1};
    if (c.victim != 1) both.push_back(c.victim);
    if (c.trigger == 1) {
      // The replacement never finished its restore: it is rebuilt again.
      EXPECT_EQ(rebuilt, both);
    } else {
      EXPECT_TRUE(rebuilt == both || rebuilt == std::vector<int>{c.victim})
          << "rebuilt " << ::testing::PrintToString(rebuilt);
    }
  } else {
    EXPECT_FALSE(result.success);
    bool diagnosed = false;
    for (const telemetry::Postmortem& pm : result.postmortems) {
      if (pm.reason.find("members lost in one group") != std::string::npos) diagnosed = true;
      EXPECT_FALSE(pm.recovered) << "incident " << pm.incident;
      EXPECT_TRUE(pm.rebuilds.empty()) << "incident " << pm.incident;
    }
    EXPECT_TRUE(diagnosed) << result.failure;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, RebuildKillMatrix,
    ::testing::Values(RebuildKillCase{"rs4p2_survivor", 2, 1, 2, true},
                      RebuildKillCase{"xor_survivor", 1, 1, 2, false},
                      RebuildKillCase{"xor_replacement", 1, 1, 1, true},
                      RebuildKillCase{"rs4p2_lender", 2, 2, 2, true}),
    [](const auto& info) { return std::string(info.param.name); });

// ...but two failures in DIFFERENT groups are fine (each group rebuilds
// its own member).
TEST(FailureMatrixExtra, TwoFailuresInDifferentGroupsRecover) {
  skt::testing::MiniCluster mc(8, 4);
  CkptAppConfig config;
  config.strategy = Strategy::kSelf;
  config.group_size = 4;  // groups {0..3} and {4..7}
  config.iterations = 4;

  sim::FailureInjector injector;
  injector.add_rule({.point = "ckpt.begin", .world_rank = 1, .hit = 2, .repeat = false});
  injector.add_rule({.point = "ckpt.restore", .world_rank = 6, .hit = 1, .repeat = false});

  mpi::JobLauncher launcher(mc.cluster, &injector, {.max_restarts = 4});
  const auto result = launcher.run(8, [&](mpi::Comm& w) { checkpointed_app(w, config); });
  EXPECT_TRUE(result.success) << result.failure;
  EXPECT_EQ(result.restarts, 2);
}

// The SHARDED durable tier under fire: the level-2 vault is spread across
// the job's own nodes (one shard each), so a node loss takes a shard of
// everyone's disk images with it. Two members of group 0 — both shard
// hosts, on non-adjacent placement slots so every extent keeps a replica
// on a surviving shard — die together mid-L2-flush. Parity 1 cannot
// absorb two losses, so the restart MUST restore out of the vault, and
// the dead shards' extents are only reachable because the launcher wiped
// the dead shards, swapped in spares, and re-homed every extent from the
// surviving replica copies before relaunch. A second correlated kill at
// the end of the relaunched run then forces ANOTHER vault restore, this
// time served entirely by the resharded tier — the harness's final
// verification proves the restored state is bit-identical.
struct ShardedVaultCase {
  const char* failpoint;  // "ckpt.l2_flush" (sync) / "ckpt.async_l2_flush" (async)
  CommitMode mode;
};

class ShardedVaultFailureMatrix : public ::testing::TestWithParam<ShardedVaultCase> {};

TEST_P(ShardedVaultFailureMatrix, ShardNodeDiesDuringL2FlushThenReshardServesRestore) {
  const ShardedVaultCase c = GetParam();
  const int world = 8;
  skt::testing::MiniCluster mc(world, 4);

  storage::Vault vault({.nodes = {0, 1, 2, 3, 4, 5, 6, 7}, .extent_bytes = 256});
  CkptAppConfig config;
  config.strategy = Strategy::kSelf;
  config.group_size = 4;  // groups {0..3} and {4..7}
  config.parity_degree = 1;
  config.iterations = 6;
  config.data_bytes = 2048;
  config.vault = &vault;
  config.mode = c.mode;
  config.level2_every = 2;  // L2 flushes after commits 2, 4, 6

  sim::FailureInjector injector;
  // Incident 1: ranks 1 and 3 (nodes 1 and 3 — shard slots 1 and 3, whose
  // replica successors 2 and 4 both survive) die on the SECOND L2 flush,
  // so epoch 2 is safely on the vault and the kill lands mid-epoch-4.
  injector.add_rule({.point = c.failpoint,
                     .world_rank = 1,
                     .hit = 2,
                     .repeat = false,
                     .victim_world_rank = 1,
                     .extra_victims = {3}});
  // Incident 2: "app.done" is reached only by a COMPLETED run, so this
  // fires exactly once the resharded job finished its loop. Two losses in
  // group 1 again exceed parity 1, forcing the final restart to restore
  // epoch 6 from the vault — every extent it reads lives where the
  // post-reshard placement map says.
  injector.add_rule({.point = "app.done",
                     .world_rank = 5,
                     .hit = 1,
                     .repeat = false,
                     .victim_world_rank = 5,
                     .extra_victims = {7}});

  mpi::JobLauncher launcher(
      mc.cluster, &injector,
      {.max_restarts = 3, .ranks_per_node = 1, .vault = &vault});
  const auto result = launcher.run(world, [&](mpi::Comm& w) { checkpointed_app(w, config); });

  EXPECT_EQ(injector.triggered_count(), 2u);
  EXPECT_TRUE(result.success) << result.failure;
  EXPECT_EQ(result.restarts, 2);
  ASSERT_EQ(result.postmortems.size(), 2u);
  EXPECT_EQ(result.postmortems[0].lost_ranks, (std::vector<int>{1, 3}));
  EXPECT_EQ(result.postmortems[1].lost_ranks, (std::vector<int>{5, 7}));
  EXPECT_TRUE(result.postmortems[0].recovered);
  EXPECT_TRUE(result.postmortems[1].recovered);
  // Every dead shard host was swapped for a spare that took its slot.
  for (const int dead : {1, 3, 5, 7}) {
    EXPECT_FALSE(vault.has_shard(dead)) << "node " << dead;
    EXPECT_GE(result.final_ranklist[static_cast<std::size_t>(dead)], world);
  }
  EXPECT_EQ(vault.shard_count(), 8u);
  const storage::VaultStats vs = vault.stats();
  EXPECT_GE(vs.rebalances, 4u);  // one replace_node per dead shard host
  EXPECT_GT(vs.extents_rehomed, 0u);
  EXPECT_EQ(vs.extents_lost, 0u) << "replica invariant violated during reshard";
}

INSTANTIATE_TEST_SUITE_P(
    Points, ShardedVaultFailureMatrix,
    ::testing::Values(ShardedVaultCase{"ckpt.l2_flush", CommitMode::kSync},
                      ShardedVaultCase{"ckpt.async_l2_flush", CommitMode::kAsync}),
    [](const auto& info) {
      std::string name = info.param.failpoint;
      for (char& ch : name) {
        if (ch == '.') ch = '_';
      }
      return name;
    });

// Repeated failures across different epochs: the system survives as many
// sequential single failures as there are spares.
TEST(FailureMatrixExtra, ThreeSequentialFailures) {
  skt::testing::MiniCluster mc(4, 3);
  CkptAppConfig config;
  config.strategy = Strategy::kSelf;
  config.group_size = 4;
  config.iterations = 6;

  sim::FailureInjector injector;
  injector.add_rule({.point = "ckpt.mid_flush", .world_rank = 0, .hit = 2, .repeat = false});
  injector.add_rule({.point = "ckpt.encode_done", .world_rank = 2, .hit = 4, .repeat = false});
  injector.add_rule({.point = "app.work", .world_rank = 3, .hit = 6, .repeat = false});

  mpi::JobLauncher launcher(mc.cluster, &injector, {.max_restarts = 5});
  const auto result = launcher.run(4, [&](mpi::Comm& w) { checkpointed_app(w, config); });
  EXPECT_TRUE(result.success) << result.failure;
  EXPECT_EQ(result.restarts, 3);
  // Three incidents, three postmortems, each naming its own victim.
  ASSERT_EQ(result.postmortems.size(), 3u);
  EXPECT_EQ(result.postmortems[0].lost_ranks, std::vector<int>{0});
  EXPECT_EQ(result.postmortems[1].lost_ranks, std::vector<int>{2});
  EXPECT_EQ(result.postmortems[2].lost_ranks, std::vector<int>{3});
  for (const telemetry::Postmortem& pm : result.postmortems) {
    EXPECT_TRUE(pm.recovered);
    EXPECT_FALSE(pm.rebuilds.empty());
  }
}

}  // namespace
}  // namespace skt::ckpt
