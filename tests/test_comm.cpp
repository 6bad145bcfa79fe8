#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "mpi/grid.hpp"
#include "testing.hpp"

namespace skt::mpi {
namespace {

using skt::testing::MiniCluster;

TEST(Comm, PointToPointRoundTrip) {
  MiniCluster mc(2);
  const auto result = mc.run(2, [](Comm& world) {
    if (world.rank() == 0) {
      const std::vector<double> payload{1.5, 2.5, 3.5};
      world.send<double>(1, 7, payload);
      const auto back = world.recv_value<int>(1, 8);
      EXPECT_EQ(back, 99);
    } else {
      std::vector<double> in(3);
      world.recv<double>(0, 7, in);
      EXPECT_EQ(in[2], 3.5);
      world.send_value<int>(0, 8, 99);
    }
  });
  EXPECT_TRUE(result.completed);
}

TEST(Comm, MessagesWithSameTagArriveInOrder) {
  MiniCluster mc(2);
  const auto result = mc.run(2, [](Comm& world) {
    if (world.rank() == 0) {
      for (int i = 0; i < 50; ++i) world.send_value<int>(1, 3, i);
    } else {
      for (int i = 0; i < 50; ++i) EXPECT_EQ(world.recv_value<int>(0, 3), i);
    }
  });
  EXPECT_TRUE(result.completed);
}

TEST(Comm, RecvSizeMismatchAborts) {
  MiniCluster mc(2);
  const auto result = mc.run(2, [](Comm& world) {
    if (world.rank() == 0) {
      world.send_value<int>(1, 1, 5);
    } else {
      std::vector<double> wrong(4);
      world.recv<double>(0, 1, wrong);  // throws logic_error -> job abort
    }
  });
  EXPECT_FALSE(result.completed);
  EXPECT_NE(result.abort_reason.find("mismatch"), std::string::npos);
}

TEST(Comm, BarrierSynchronizesAllRanks) {
  MiniCluster mc(4, 0);
  std::atomic<int> before{0};
  std::atomic<bool> violated{false};
  const auto result = mc.run(4, [&](Comm& world) {
    before.fetch_add(1);
    world.barrier();
    if (before.load() != 4) violated = true;
  });
  EXPECT_TRUE(result.completed);
  EXPECT_FALSE(violated.load());
}

TEST(Comm, BcastFromEveryRoot) {
  MiniCluster mc(5, 0);
  const auto result = mc.run(5, [](Comm& world) {
    for (int root = 0; root < world.size(); ++root) {
      std::vector<std::uint64_t> data(17, 0);
      if (world.rank() == root) {
        for (std::size_t i = 0; i < data.size(); ++i) data[i] = 100u * root + i;
      }
      world.bcast<std::uint64_t>(root, data);
      for (std::size_t i = 0; i < data.size(); ++i) {
        ASSERT_EQ(data[i], 100u * static_cast<unsigned>(root) + i);
      }
    }
  });
  EXPECT_TRUE(result.completed);
}

TEST(Comm, ReduceSumAndXorAllRoots) {
  MiniCluster mc(6, 0);
  const auto result = mc.run(6, [](Comm& world) {
    const int n = world.size();
    for (int root = 0; root < n; ++root) {
      // SUM over doubles
      std::vector<double> in(8, static_cast<double>(world.rank() + 1));
      std::vector<double> out(8, -1.0);
      world.reduce<double>(root, in, out, Sum{});
      if (world.rank() == root) {
        const double expect = n * (n + 1) / 2.0;
        for (double v : out) ASSERT_DOUBLE_EQ(v, expect);
      }
      // XOR over uint64
      std::vector<std::uint64_t> xin(4, 1ull << world.rank());
      std::vector<std::uint64_t> xout(4, 0);
      world.reduce<std::uint64_t>(root, xin, xout, BXor{});
      if (world.rank() == root) {
        for (auto v : xout) ASSERT_EQ(v, (1ull << n) - 1);
      }
    }
  });
  EXPECT_TRUE(result.completed);
}

TEST(Comm, AllreduceMaxLocAgreesEverywhere) {
  MiniCluster mc(4, 0);
  const auto result = mc.run(4, [](Comm& world) {
    // Values 3, 1, 7, 7: max is 7, tie between indices 2 and 3 -> 2 wins.
    const double values[] = {3, 1, 7, 7};
    const ValueLoc mine{values[world.rank()], world.rank()};
    const ValueLoc best = world.allreduce_value<ValueLoc>(mine, MaxLoc{});
    EXPECT_DOUBLE_EQ(best.value, 7.0);
    EXPECT_EQ(best.index, 2);
  });
  EXPECT_TRUE(result.completed);
}

TEST(Comm, GatherAllgather) {
  MiniCluster mc(4, 0);
  const auto result = mc.run(4, [](Comm& world) {
    const int me = world.rank();
    const int n = world.size();

    const std::vector<int> mine{me * 10, me * 10 + 1};
    const std::vector<int> gathered = world.gather<int>(1, mine);
    if (me == 1) {
      ASSERT_EQ(gathered.size(), 8u);
      for (int r = 0; r < n; ++r) {
        EXPECT_EQ(gathered[static_cast<std::size_t>(2 * r)], r * 10);
        EXPECT_EQ(gathered[static_cast<std::size_t>(2 * r + 1)], r * 10 + 1);
      }
    } else {
      EXPECT_TRUE(gathered.empty());
    }

    const std::vector<int> all = world.allgather<int>(mine);
    ASSERT_EQ(all.size(), 8u);
    EXPECT_EQ(all[6], 30);
  });
  EXPECT_TRUE(result.completed);
}

TEST(Comm, SplitByParity) {
  MiniCluster mc(6, 0);
  const auto result = mc.run(6, [](Comm& world) {
    Comm sub = world.split(world.rank() % 2, world.rank());
    EXPECT_EQ(sub.size(), 3);
    EXPECT_EQ(sub.rank(), world.rank() / 2);
    // Collectives work inside the split comm and don't cross parities.
    const int sum = sub.allreduce_value<int>(world.rank(), Sum{});
    if (world.rank() % 2 == 0) {
      EXPECT_EQ(sum, 0 + 2 + 4);
    } else {
      EXPECT_EQ(sum, 1 + 3 + 5);
    }
    // World rank translation survives the split.
    EXPECT_EQ(sub.translate(0), world.rank() % 2);
  });
  EXPECT_TRUE(result.completed);
}

TEST(Grid, RowColCommunicators) {
  MiniCluster mc(6, 0);
  const auto result = mc.run(6, [](Comm& world) {
    Grid grid(world, 2, 3);
    EXPECT_EQ(grid.prow(), world.rank() / 3);
    EXPECT_EQ(grid.pcol(), world.rank() % 3);
    EXPECT_EQ(grid.row().size(), 3);
    EXPECT_EQ(grid.col().size(), 2);
    EXPECT_EQ(grid.row().rank(), grid.pcol());
    EXPECT_EQ(grid.col().rank(), grid.prow());
    // Row reduce: sum of pcol values within my process row.
    const int sum = grid.row().allreduce_value<int>(grid.pcol(), Sum{});
    EXPECT_EQ(sum, 0 + 1 + 2);
  });
  EXPECT_TRUE(result.completed);
}

TEST(Grid, RejectsBadShape) {
  MiniCluster mc(6, 0);
  const auto result = mc.run(6, [](Comm& world) {
    EXPECT_THROW(Grid(world, 2, 2), std::invalid_argument);
  });
  EXPECT_TRUE(result.completed);
}

// --- loans -------------------------------------------------------------------

// The borrower reads the lender's own bytes: nothing is copied, the loan
// counts once on the wire, and a dup()'d handle keeps its own count.
TEST(Loan, BorrowerReadsTheLendersBytesInPlace) {
  MiniCluster mc(2, 0);
  constexpr std::size_t kBytes = 3000;
  std::atomic<const std::byte*> lent{nullptr};
  const auto result = mc.run(2, [&](Comm& world) {
    Comm quiet = world.dup();
    if (world.rank() == 0) {
      std::vector<std::byte> bytes(kBytes);
      for (std::size_t i = 0; i < kBytes; ++i) bytes[i] = static_cast<std::byte>(i * 7);
      lent = bytes.data();
      Comm::Loan loan = world.lend(1, 4, bytes);
      loan.wait();
      EXPECT_EQ(world.sent_bytes(), kBytes);
    } else {
      const Comm::Borrowed view = world.borrow(0, 4, kBytes);
      ASSERT_EQ(view.size(), kBytes);
      const std::span<const std::byte> tail = view.read(1000, 2000);
      EXPECT_EQ(tail.data(), lent.load() + 1000);
      EXPECT_EQ(tail[5], static_cast<std::byte>(1005 * 7));
      EXPECT_THROW((void)view.read(2000, 1001), std::out_of_range);
      EXPECT_EQ(world.sent_bytes(), 0u);
    }
    EXPECT_EQ(quiet.sent_bytes(), 0u);
  });
  ASSERT_TRUE(result.completed) << result.abort_reason;
  EXPECT_EQ(result.wire_bytes, kBytes);
  EXPECT_EQ(result.wire_messages, 1u);
  EXPECT_EQ(result.copied_bytes, 0u);
}

// A loan costs both ends' modeled clocks what a send/recv pair of the same
// size does, and the cost lands on the handle that moved it.
TEST(Loan, ChargesBothEndsLikeASendRecvPair) {
  sim::NodeProfile profile;
  profile.nic_bandwidth_Bps = 1.0e6;
  profile.nic_latency_s = 1.0e-3;
  profile.ranks_per_port = 1;
  const auto clocks = [&](bool lend) {
    sim::Cluster cluster({.num_nodes = 2, .spare_nodes = 0, .nodes_per_rack = 4,
                          .profile = profile});
    Runtime rt(cluster, {0, 1}, nullptr, {.model_network = true});
    std::vector<double> out(4);
    const auto result = rt.run([&](Comm& world) {
      std::vector<std::byte> bytes(1 << 16);
      if (world.rank() == 0) {
        if (lend) {
          world.lend(1, 2, bytes).wait();
        } else {
          world.send_bytes(1, 2, bytes);
        }
      } else if (lend) {
        (void)world.borrow(0, 2, bytes.size());
      } else {
        world.recv_bytes(0, 2, bytes);
      }
      out[static_cast<std::size_t>(world.rank())] = world.virtual_seconds();
      out[static_cast<std::size_t>(world.rank()) + 2] = world.network_seconds();
    });
    EXPECT_TRUE(result.completed) << result.abort_reason;
    return out;
  };
  const std::vector<double> lent = clocks(true);
  const std::vector<double> sent = clocks(false);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_GT(lent[i], 0.0) << i;
    EXPECT_DOUBLE_EQ(lent[i], sent[i]) << i;
  }
}

// Loans and sends share the FIFO match class of their (source, tag), and
// taking one for the other is a loud error, not a silent misread.
TEST(Loan, MatchesInOrderWithSendsAndRefusesTheWrongKind) {
  MiniCluster mc(2, 0);
  const auto result = mc.run(2, [](Comm& world) {
    const std::vector<std::byte> a(16, std::byte{1});
    const std::vector<std::byte> b(16, std::byte{2});
    if (world.rank() == 0) {
      Comm::Loan first = world.lend(1, 9, a);
      Comm::Loan second = world.lend(1, 9, b);
      world.send_bytes(1, 9, a);
      first.wait();
      second.wait();
    } else {
      EXPECT_EQ(world.borrow(0, 9, 16).read(0, 1)[0], std::byte{1});
      EXPECT_EQ(world.borrow(0, 9, 16).read(0, 1)[0], std::byte{2});
      EXPECT_THROW((void)world.borrow(0, 9, 16), std::logic_error);
    }
  });
  EXPECT_TRUE(result.completed) << result.abort_reason;
}

// A lender whose node dies while a peer holds its view must not free the
// bytes under the reader: its unwinding waits until the view is gone. The
// borrower keeps reading through a span it took before the abort — a
// use-after-free for AddressSanitizer if the lender did not wait — then
// stops at its next read, and the job aborts without hanging.
TEST(Loan, LenderKilledWhileAPeerHoldsItsViewWaitsForTheView) {
  MiniCluster mc(2, 0);
  sim::FailureInjector injector;
  injector.add_rule({.point = "lender.die", .world_rank = 0, .hit = 1, .repeat = false});
  std::atomic<bool> holding{false};
  std::atomic<bool> view_dropped{false};
  std::atomic<bool> lender_waited{false};
  const auto result = mc.run(
      2,
      [&](Comm& world) {
        constexpr std::size_t kBytes = 1 << 16;
        if (world.rank() == 0) {
          try {
            const auto bytes = std::make_unique<std::vector<std::byte>>(kBytes, std::byte{3});
            Comm::Loan loan = world.lend(1, 1, *bytes);
            while (!holding.load()) std::this_thread::yield();
            world.failpoint("lender.die");
          } catch (const JobAborted&) {
            lender_waited = view_dropped.load();
            throw;
          }
          FAIL() << "the failpoint must kill the lender";
        }
        const Comm::Borrowed view = world.borrow(0, 1, kBytes);
        const std::span<const std::byte> bytes = view.read(0, kBytes);
        holding = true;
        while (!world.runtime().aborted_flag().load()) std::this_thread::yield();
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        std::size_t sum = 0;
        for (const std::byte b : bytes) sum += static_cast<std::size_t>(b);
        EXPECT_EQ(sum, 3 * kBytes);
        EXPECT_THROW((void)view.read(0, 1), JobAborted);
        view_dropped = true;
      },
      &injector);
  EXPECT_FALSE(result.completed);
  EXPECT_FALSE(mc.cluster.node(0).alive());
  EXPECT_TRUE(lender_waited.load());
}

// A lender that unwinds before anyone borrowed aborts the job and revokes
// the loan: the late borrow throws instead of reading freed bytes. The
// job's abort reason is the lender's own failure, not the loan.
TEST(Loan, UnwindingLenderAbortsTheJobAndRevokesAnUnborrowedLoan) {
  MiniCluster mc(2, 0);
  std::atomic<bool> revoked{false};
  const auto result = mc.run(2, [&](Comm& world) {
    if (world.rank() == 0) {
      const std::vector<std::byte> bytes(64, std::byte{5});
      Comm::Loan loan = world.lend(1, 3, bytes);
      throw std::runtime_error("lender failed before the borrow");
    }
    while (!world.runtime().aborted_flag().load()) std::this_thread::yield();
    try {
      (void)world.borrow(0, 3, 64);
    } catch (const JobAborted&) {
      revoked = true;
    }
  });
  EXPECT_FALSE(result.completed);
  EXPECT_NE(result.abort_reason.find("lender failed before the borrow"), std::string::npos)
      << result.abort_reason;
  EXPECT_TRUE(revoked.load());
}

// A borrower that throws while holding a view releases it as it unwinds,
// so the lender's wait returns; the job then aborts on the error.
TEST(Loan, BorrowerThrowingWithAViewReleasesIt) {
  MiniCluster mc(2, 0);
  const auto result = mc.run(2, [](Comm& world) {
    const std::vector<std::byte> bytes(64, std::byte{5});
    if (world.rank() == 0) {
      world.lend(1, 3, bytes).wait();
      return;
    }
    const Comm::Borrowed view = world.borrow(0, 3, bytes.size());
    throw std::runtime_error("fold failed");
  });
  EXPECT_FALSE(result.completed);
  EXPECT_NE(result.abort_reason.find("fold failed"), std::string::npos) << result.abort_reason;
}

TEST(Runtime, NodeFailureAbortsBlockedReceivers) {
  MiniCluster mc(3, 0);
  sim::FailureInjector injector;
  injector.add_rule({.point = "die", .world_rank = 2, .hit = 1, .repeat = false});
  const auto result = mc.run(
      3,
      [](Comm& world) {
        if (world.rank() == 2) {
          world.failpoint("die");  // powers off node 2, throws
          FAIL() << "must not reach";
        } else {
          // Blocks forever waiting on rank 2 -> must be woken by the abort.
          (void)world.recv_value<int>(2, 1);
          FAIL() << "must not receive";
        }
      },
      &injector);
  EXPECT_FALSE(result.completed);
  EXPECT_NE(result.abort_reason.find("node 2"), std::string::npos);
  EXPECT_FALSE(mc.cluster.node(2).alive());
  EXPECT_TRUE(mc.cluster.node(0).alive());
}

TEST(Runtime, RefusesLaunchOntoDeadNode) {
  MiniCluster mc(2, 0);
  mc.cluster.power_off(1, "pre-broken");
  const auto result = mc.run(2, [](Comm&) {});
  EXPECT_FALSE(result.completed);
  EXPECT_NE(result.abort_reason.find("launch failed"), std::string::npos);
}

TEST(Runtime, AppExceptionAbortsJobWithReason) {
  MiniCluster mc(2, 0);
  const auto result = mc.run(2, [](Comm& world) {
    if (world.rank() == 1) throw std::runtime_error("boom");
    world.barrier();  // must be interrupted
  });
  EXPECT_FALSE(result.completed);
  EXPECT_NE(result.abort_reason.find("boom"), std::string::npos);
}

TEST(Runtime, RecordTimeKeepsMaxAcrossRanks) {
  MiniCluster mc(2, 0);
  const auto result = mc.run(2, [](Comm& world) {
    world.record_time("phase", world.rank() == 0 ? 1.0 : 3.0);
  });
  ASSERT_TRUE(result.completed);
  EXPECT_DOUBLE_EQ(result.times.at("phase"), 3.0);
}

TEST(Runtime, VirtualChargeAggregatesAsMax) {
  MiniCluster mc(2, 0);
  const auto result = mc.run(2, [](Comm& world) {
    world.charge_virtual(world.rank() == 0 ? 2.0 : 5.0);
    EXPECT_GT(world.virtual_seconds(), 0.0);
  });
  ASSERT_TRUE(result.completed);
  EXPECT_NEAR(result.virtual_s, 5.0, 1e-9);
}

TEST(Runtime, NetworkModelChargesMessageCosts) {
  sim::NodeProfile profile;
  profile.nic_bandwidth_Bps = 1.0e6;  // 1 MB/s so costs are visible
  profile.nic_latency_s = 1.0e-3;
  profile.ranks_per_port = 1;
  sim::Cluster cluster({.num_nodes = 2, .spare_nodes = 0, .nodes_per_rack = 4,
                        .profile = profile});
  mpi::Runtime rt(cluster, {0, 1}, nullptr, {.model_network = true});
  const auto result = rt.run([](Comm& world) {
    std::vector<std::byte> megabyte(1 << 20);
    if (world.rank() == 0) {
      world.send_bytes(1, 1, megabyte);
    } else {
      world.recv_bytes(0, 1, megabyte);
    }
  });
  ASSERT_TRUE(result.completed);
  // ~1 s transfer charged on both ends; max across ranks ~= 1.05 s.
  EXPECT_GT(result.virtual_s, 0.9);
  EXPECT_LT(result.virtual_s, 1.5);
}

TEST(Launcher, RestartsAfterFailureUsingSpare) {
  MiniCluster mc(3, 2);
  sim::FailureInjector injector;
  injector.add_rule({.point = "work", .world_rank = 1, .hit = 1, .repeat = false});
  mpi::JobLauncher launcher(mc.cluster, &injector, {.max_restarts = 2, .ranks_per_node = 1,
                                                    .detect_delay_s = 1.5});
  std::atomic<int> attempts{0};
  const auto result = launcher.run(3, [&](Comm& world) {
    if (world.rank() == 0) attempts.fetch_add(1);
    world.failpoint("work");
    world.barrier();
  });
  EXPECT_TRUE(result.success);
  EXPECT_EQ(result.restarts, 1);
  EXPECT_EQ(attempts.load(), 2);
  ASSERT_EQ(result.cycles.size(), 1u);
  EXPECT_DOUBLE_EQ(result.cycles[0].detect_s, 1.5);
  // Rank 1 moved off the dead node onto a spare (>= 3).
  EXPECT_GE(result.final_ranklist[1], 3);
  EXPECT_EQ(result.final_ranklist[0], 0);
  EXPECT_GE(result.total_virtual_s, 1.5);
}

TEST(Launcher, FailsWhenSparesExhausted) {
  MiniCluster mc(2, 0);
  sim::FailureInjector injector;
  injector.add_rule({.point = "work", .world_rank = 0, .hit = 1, .repeat = false});
  mpi::JobLauncher launcher(mc.cluster, &injector, {.max_restarts = 3});
  const auto result = launcher.run(2, [](Comm& world) {
    world.failpoint("work");
    world.barrier();
  });
  EXPECT_FALSE(result.success);
  EXPECT_NE(result.failure.find("spare pool exhausted"), std::string::npos);
}

TEST(Launcher, MaxRestartsBoundsDeterministicCrashLoop) {
  MiniCluster mc(2, 8);
  sim::FailureInjector injector;
  injector.add_rule({.point = "work", .world_rank = -1, .hit = 1, .repeat = true});
  mpi::JobLauncher launcher(mc.cluster, &injector, {.max_restarts = 2});
  const auto result = launcher.run(2, [](Comm& world) {
    world.failpoint("work");
    world.barrier();
  });
  EXPECT_FALSE(result.success);
  EXPECT_NE(result.failure.find("max restarts"), std::string::npos);
}

TEST(Launcher, RanksPerNodePacking) {
  MiniCluster mc(2, 0);
  mpi::JobLauncher launcher(mc.cluster, nullptr, {.max_restarts = 0, .ranks_per_node = 2});
  const auto result = launcher.run(4, [](Comm& world) {
    EXPECT_EQ(world.node_id_of(0), world.node_id_of(1));
    EXPECT_NE(world.node_id_of(0), world.node_id_of(2));
    world.barrier();
  });
  EXPECT_TRUE(result.success);
}

}  // namespace
}  // namespace skt::mpi
