// ckpt::Session API contract: open semantics (fresh vs restored), the
// async pipeline's bounded staleness and snapshot isolation, destructor
// drain, a failed epoch's rethrow, a move with an epoch in flight, and
// misuse errors.
//
// The async stress test at the bottom doubles as the TSan workload (see
// scripts/check.sh): the rank thread mutates data() while the worker
// encodes the staged copy, which is exactly the overlap the staging
// design must make race-free.
#include <gtest/gtest.h>

#include <atomic>
#include <optional>
#include <stdexcept>
#include <vector>

#include "ckpt_harness.hpp"
#include "encoding/block_runs.hpp"
#include "sim/failure.hpp"
#include "storage/vault.hpp"
#include "testing.hpp"

namespace skt::ckpt {
namespace {

using skt::testing::MiniCluster;
using skt::testing::fill_pattern;
using skt::testing::matches_pattern;

constexpr std::size_t kBytes = 2048;
constexpr std::uint64_t kSeed = 42;

Session make_session(mpi::Comm& world, CommitMode mode, const char* key = "s") {
  return SessionBuilder{}
      .strategy(Strategy::kSelf)
      .key_prefix(key)
      .data_bytes(kBytes)
      .user_bytes(16)
      .mode(mode)
      .build(world);
}

TEST(Session, FreshOpenThenCommitAdvancesEpoch) {
  MiniCluster mc(4, 0);
  const auto result = mc.run(4, [](mpi::Comm& world) {
    Session session = make_session(world, CommitMode::kSync);
    EXPECT_EQ(session.open(), OpenOutcome::kFresh);
    EXPECT_FALSE(session.last_restore().has_value());
    EXPECT_EQ(session.committed_epoch(), 0u);
    EXPECT_EQ(session.strategy(), Strategy::kSelf);
    EXPECT_EQ(session.mode(), CommitMode::kSync);
    fill_pattern(session.data(), kSeed, world.rank(), 1);
    const CommitStats stats = session.commit();
    EXPECT_EQ(stats.epoch, 1u);
    EXPECT_EQ(session.committed_epoch(), 1u);
  });
  EXPECT_TRUE(result.completed) << result.abort_reason;
}

// A second Session over the same keys (same job, protocol state lives in
// the node-local store) opens as kRestored and performs the restore
// itself — the caller never sequences open/restore by hand.
TEST(Session, ReopenRestoresNewestEpoch) {
  MiniCluster mc(4, 0);
  const auto result = mc.run(4, [](mpi::Comm& world) {
    {
      Session first = make_session(world, CommitMode::kSync);
      ASSERT_EQ(first.open(), OpenOutcome::kFresh);
      for (std::uint64_t e = 1; e <= 2; ++e) {
        fill_pattern(first.data(), kSeed, world.rank(), e);
        first.commit();
      }
    }
    Session second = make_session(world, CommitMode::kSync);
    EXPECT_EQ(second.open(), OpenOutcome::kRestored);
    ASSERT_TRUE(second.last_restore().has_value());
    EXPECT_EQ(second.last_restore()->epoch, 2u);
    EXPECT_TRUE(matches_pattern(second.data(), kSeed, world.rank(), 2, 0.0));
  });
  EXPECT_TRUE(result.completed) << result.abort_reason;
}

// Snapshot isolation: once commit_async() returns, later mutations of
// data() must not leak into the committed epoch — the worker encodes the
// sealed staging copy, not the live buffer.
TEST(Session, AsyncCommitIsIsolatedFromLaterMutations) {
  MiniCluster mc(4, 0);
  const auto result = mc.run(4, [](mpi::Comm& world) {
    {
      Session session = make_session(world, CommitMode::kAsync, "iso");
      ASSERT_EQ(session.open(), OpenOutcome::kFresh);
      fill_pattern(session.data(), kSeed, world.rank(), 1);
      CommitTicket ticket = session.commit_async();
      // Scribble over the live buffer while the worker may still encode.
      std::memset(session.data().data(), 0xEE, session.data().size());
      const CommitStats stats = ticket.wait();
      EXPECT_EQ(stats.epoch, 1u);
      EXPECT_GE(ticket.stage_seconds(), 0.0);
    }
    Session reopened = make_session(world, CommitMode::kAsync, "iso");
    EXPECT_EQ(reopened.open(), OpenOutcome::kRestored);
    EXPECT_EQ(reopened.last_restore()->epoch, 1u);
    EXPECT_TRUE(matches_pattern(reopened.data(), kSeed, world.rank(), 1, 0.0));
  });
  EXPECT_TRUE(result.completed) << result.abort_reason;
}

// Bounded staleness: a second commit_async() blocks until the previous
// epoch has fully landed, so the first ticket polls done the moment the
// second call returns.
TEST(Session, SecondCommitAsyncAppliesBackpressure) {
  MiniCluster mc(4, 0);
  const auto result = mc.run(4, [](mpi::Comm& world) {
    Session session = make_session(world, CommitMode::kAsync, "bp");
    ASSERT_EQ(session.open(), OpenOutcome::kFresh);
    fill_pattern(session.data(), kSeed, world.rank(), 1);
    CommitTicket first = session.commit_async();
    fill_pattern(session.data(), kSeed, world.rank(), 2);
    CommitTicket second = session.commit_async();
    EXPECT_TRUE(first.poll());
    EXPECT_EQ(first.wait().epoch, 1u);
    EXPECT_EQ(second.wait().epoch, 2u);
    // wait() is idempotent.
    EXPECT_EQ(second.wait().epoch, 2u);
    session.drain();
    EXPECT_EQ(session.committed_epoch(), 2u);
  });
  EXPECT_TRUE(result.completed) << result.abort_reason;
}

// A mixed commit() in async mode drains the in-flight epoch first.
TEST(Session, SyncCommitDrainsInFlightEpoch) {
  MiniCluster mc(4, 0);
  const auto result = mc.run(4, [](mpi::Comm& world) {
    Session session = make_session(world, CommitMode::kAsync, "mix");
    ASSERT_EQ(session.open(), OpenOutcome::kFresh);
    fill_pattern(session.data(), kSeed, world.rank(), 1);
    session.commit_async();
    fill_pattern(session.data(), kSeed, world.rank(), 2);
    const CommitStats stats = session.commit();
    EXPECT_EQ(stats.epoch, 2u);
    EXPECT_EQ(session.committed_epoch(), 2u);
  });
  EXPECT_TRUE(result.completed) << result.abort_reason;
}

// The destructor drains: the epoch in flight when the Session goes out of
// scope is durably committed, as a reopen proves.
TEST(Session, DestructorDrainsInFlightCommit) {
  MiniCluster mc(4, 0);
  const auto result = mc.run(4, [](mpi::Comm& world) {
    {
      Session session = make_session(world, CommitMode::kAsync, "dtor");
      ASSERT_EQ(session.open(), OpenOutcome::kFresh);
      fill_pattern(session.data(), kSeed, world.rank(), 1);
      session.commit_async();  // ticket dropped; destructor must drain
    }
    Session reopened = make_session(world, CommitMode::kAsync, "dtor");
    EXPECT_EQ(reopened.open(), OpenOutcome::kRestored);
    EXPECT_EQ(reopened.last_restore()->epoch, 1u);
    EXPECT_TRUE(matches_pattern(reopened.data(), kSeed, world.rank(), 1, 0.0));
  });
  EXPECT_TRUE(result.completed) << result.abort_reason;
}

// A node death inside the worker's pipeline lands in the epoch's ticket:
// every rank's wait() rethrows it on every call, drain() and any later
// commit_async() rethrow it too, and the Session still tears down.
TEST(Session, FailedAsyncEpochRethrowsOnEveryWaitAndTearsDown) {
  MiniCluster mc(4, 0);
  sim::FailureInjector injector;
  injector.add_rule({.point = "ckpt.async_mid_flush", .world_rank = 1, .hit = 1});
  std::atomic<int> torn_down{0};
  const auto result = mc.run(
      4,
      [&](mpi::Comm& world) {
        {
          Session session = make_session(world, CommitMode::kAsync, "fail");
          ASSERT_EQ(session.open(), OpenOutcome::kFresh);
          fill_pattern(session.data(), kSeed, world.rank(), 1);
          const CommitTicket ticket = session.commit_async();
          EXPECT_THROW((void)ticket.wait(), mpi::JobAborted);
          EXPECT_TRUE(ticket.poll());
          EXPECT_THROW((void)ticket.wait(), mpi::JobAborted);
          EXPECT_THROW(session.drain(), mpi::JobAborted);
          EXPECT_THROW((void)session.commit_async(), mpi::JobAborted);
        }
        torn_down.fetch_add(1);
      },
      &injector);
  EXPECT_FALSE(result.completed);
  EXPECT_EQ(injector.triggered_count(), 1u);
  EXPECT_EQ(torn_down.load(), 4);
}

// The in-flight job holds nothing of the Session object itself, so a
// Session moved while its epoch is in the pipe still completes it.
TEST(Session, MovedSessionCompletesItsInFlightEpoch) {
  MiniCluster mc(4, 0);
  const auto result = mc.run(4, [](mpi::Comm& world) {
    Session session = make_session(world, CommitMode::kAsync, "moved");
    ASSERT_EQ(session.open(), OpenOutcome::kFresh);
    fill_pattern(session.data(), kSeed, world.rank(), 1);
    session.commit_async();
    std::optional<Session> moved(std::move(session));
    moved->drain();
    EXPECT_EQ(moved->committed_epoch(), 1u);
    fill_pattern(moved->data(), kSeed, world.rank(), 2);
    EXPECT_EQ(moved->commit_async().wait().epoch, 2u);
  });
  EXPECT_TRUE(result.completed) << result.abort_reason;
}

// An async commit's encode stats count the encode alone. The rank threads
// keep the world busy during every commit (eight 1 MiB broadcasts), yet
// every rank reports the exact bytes the encode moved, and the modeled
// encode time equals that of a run without the extra traffic.
TEST(Session, AsyncEncodeStatsCountTheEncodeAloneWhileTheAppCommunicates) {
  constexpr int kN = 4;
  constexpr std::size_t kData = 1 << 20;
  constexpr int kEpochs = 3;
  const auto run = [&](bool chatter) {
    MiniCluster mc(kN, 0);
    mpi::Runtime rt(mc.cluster, {0, 1, 2, 3}, nullptr, {.model_network = true});
    std::vector<std::vector<CommitStats>> stats(kN);
    const auto result = rt.run([&](mpi::Comm& world) {
      Session session = SessionBuilder{}
                            .strategy(Strategy::kSelf)
                            .key_prefix("chatter")
                            .data_bytes(kData)
                            .user_bytes(16)
                            .mode(CommitMode::kAsync)
                            .build(world);
      ASSERT_EQ(session.open(), OpenOutcome::kFresh);
      std::vector<std::byte> noise(1 << 20);
      for (int e = 1; e <= kEpochs; ++e) {
        fill_pattern(session.data(), kSeed, world.rank(), static_cast<std::uint64_t>(e));
        const CommitTicket ticket = session.commit_async();
        if (chatter) {
          for (int i = 0; i < 8; ++i) world.bcast_bytes(i % kN, noise);
        }
        stats[static_cast<std::size_t>(world.rank())].push_back(ticket.wait());
      }
    });
    EXPECT_TRUE(result.completed) << result.abort_reason;
    return stats;
  };
  const auto quiet = run(false);
  const auto busy = run(true);
  ASSERT_EQ(busy[0].size(), static_cast<std::size_t>(kEpochs));
  // Un-annotated commits encode in full: the members exchange one 8-byte
  // run record per stripe (a gather of k records to rank 0, then a
  // binomial broadcast of the n * k table), and each of the n * k data
  // stripes is lent once to its checksum owner.
  const std::uint64_t k = kN - 1;
  const std::uint64_t stripe = busy[0][0].checksum_bytes;
  const std::uint64_t exchange = (kN - 1) * k * sizeof(enc::StripeRuns) +
                                 (kN - 1) * kN * k * sizeof(enc::StripeRuns);
  for (std::size_t r = 0; r < kN; ++r) {
    for (std::size_t e = 0; e < kEpochs; ++e) {
      EXPECT_EQ(busy[r][e].encode_wire_bytes, kN * k * stripe + exchange)
          << "rank " << r << " epoch " << e;
      EXPECT_EQ(quiet[r][e].encode_wire_bytes, busy[r][e].encode_wire_bytes);
      EXPECT_GT(busy[r][e].encode_virtual_s, 0.0);
      EXPECT_DOUBLE_EQ(busy[r][e].encode_virtual_s, quiet[r][e].encode_virtual_s)
          << "rank " << r << " epoch " << e;
    }
  }
}

TEST(Session, MisuseThrows) {
  MiniCluster mc(2, 0);
  const auto result = mc.run(2, [](mpi::Comm& world) {
    Session session = make_session(world, CommitMode::kSync);
    EXPECT_THROW((void)session.commit(), std::logic_error);  // before open()
    EXPECT_EQ(session.open(), OpenOutcome::kFresh);
    EXPECT_THROW((void)session.open(), std::logic_error);          // twice
    EXPECT_THROW((void)session.commit_async(), std::logic_error);  // sync mode
  });
  EXPECT_TRUE(result.completed) << result.abort_reason;
}

// Builder misconfiguration surfaces as typed ConfigError carrying the
// offending field name (still an invalid_argument for legacy catchers).
TEST(Session, GroupSizeMustDivideWorld) {
  MiniCluster mc(4, 0);
  const auto result = mc.run(4, [](mpi::Comm& world) {
    try {
      (void)SessionBuilder{}
          .strategy(Strategy::kSelf)
          .key_prefix("bad")
          .data_bytes(kBytes)
          .group_size(3)
          .build(world);
      FAIL() << "expected ConfigError";
    } catch (const ConfigError& e) {
      EXPECT_EQ(e.field(), "group_size");
    }
  });
  EXPECT_TRUE(result.completed) << result.abort_reason;
}

TEST(Session, ConfigErrorsNameTheOffendingField) {
  MiniCluster mc(4, 0);
  const auto result = mc.run(4, [](mpi::Comm& world) {
    const auto field_of = [&](SessionBuilder builder) -> std::string {
      try {
        (void)builder.build(world);
      } catch (const ConfigError& e) {
        return e.field();
      }
      return "<no error>";
    };
    EXPECT_EQ(field_of(SessionBuilder{}.strategy(Strategy::kSelf).key_prefix("z")),
              "data_bytes");
    EXPECT_EQ(field_of(SessionBuilder{}
                           .strategy(Strategy::kSelf)
                           .key_prefix("z")
                           .data_bytes(kBytes)
                           .group_size(-2)),
              "group_size");
    EXPECT_EQ(field_of(SessionBuilder{}
                           .strategy(Strategy::kSelf)
                           .key_prefix("z")
                           .data_bytes(kBytes)
                           .group(world.split(0, world.rank()))
                           .group_size(2)),
              "group_size");
    EXPECT_EQ(field_of(SessionBuilder{}
                           .strategy(Strategy::kSelf)
                           .key_prefix("z")
                           .data_bytes(kBytes)
                           .parity_degree(0)),
              "parity_degree");
    // RS(k, 2) needs a group of at least 4.
    EXPECT_EQ(field_of(SessionBuilder{}
                           .strategy(Strategy::kSelf)
                           .key_prefix("z")
                           .data_bytes(kBytes)
                           .group_size(2)
                           .parity_degree(2)),
              "parity_degree");
    EXPECT_EQ(field_of(SessionBuilder{}
                           .strategy(Strategy::kBlcr)
                           .key_prefix("z")
                           .data_bytes(kBytes)),
              "vault");
    EXPECT_EQ(field_of(SessionBuilder{}
                           .strategy(Strategy::kSelf)
                           .key_prefix("z")
                           .data_bytes(kBytes)
                           .level2_flush_every(2)),
              "vault");
    EXPECT_EQ(field_of(SessionBuilder{}.strategy(Strategy::kNone).key_prefix("z").data_bytes(
                  kBytes)),
              "strategy");
    // BLCR writes every commit to the vault already; level 2 is for the
    // in-memory strategies.
    storage::Vault vault;
    EXPECT_EQ(field_of(SessionBuilder{}
                           .strategy(Strategy::kBlcr)
                           .key_prefix("z")
                           .data_bytes(kBytes)
                           .vault(&vault)
                           .level2_flush_every(2)),
              "level2_flush_every");
    // Tenancy knobs come in pairs: a tenant without a service (and vice
    // versa) is a configuration bug, not a silent single-tenant fallback.
    EXPECT_EQ(field_of(SessionBuilder{}
                           .strategy(Strategy::kSelf)
                           .key_prefix("z")
                           .data_bytes(kBytes)
                           .tenant("hpl-a")),
              "service");
    StoreService service;
    EXPECT_EQ(field_of(SessionBuilder{}
                           .strategy(Strategy::kSelf)
                           .key_prefix("z")
                           .data_bytes(kBytes)
                           .service(&service)),
              "tenant");
    EXPECT_EQ(field_of(SessionBuilder{}
                           .strategy(Strategy::kSelf)
                           .key_prefix("z")
                           .data_bytes(kBytes)
                           .service(&service)
                           .tenant("never-registered")),
              "tenant");
  });
  EXPECT_TRUE(result.completed) << result.abort_reason;
}

// TSan workload: sustained overlap between the rank thread (mutating
// data(), staging) and the worker (encoding the staged copy, flushing,
// running collectives on its dup()'d comms). Any missing synchronization
// between the two threads shows up here under -fsanitize=thread.
TEST(SessionAsyncStress, OverlappedCommitLoop) {
  MiniCluster mc(8, 0);
  const auto result = mc.run(8, [](mpi::Comm& world) {
    Session session = SessionBuilder{}
                          .strategy(Strategy::kSelf)
                          .key_prefix("stress")
                          .data_bytes(8192)
                          .user_bytes(16)
                          .group_size(4)
                          .mode(CommitMode::kAsync)
                          .build(world);
    ASSERT_EQ(session.open(), OpenOutcome::kFresh);
    constexpr std::uint64_t kEpochs = 16;
    for (std::uint64_t e = 1; e <= kEpochs; ++e) {
      fill_pattern(session.data(), kSeed, world.rank(), e);
      session.commit_async();
    }
    session.drain();
    EXPECT_EQ(session.committed_epoch(), kEpochs);
    EXPECT_TRUE(matches_pattern(session.data(), kSeed, world.rank(), kEpochs, 0.0));
  });
  EXPECT_TRUE(result.completed) << result.abort_reason;
}

}  // namespace
}  // namespace skt::ckpt
