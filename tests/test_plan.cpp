#include <gtest/gtest.h>

#include "ckpt/grouping.hpp"
#include "ckpt/plan.hpp"
#include "ckpt/session.hpp"
#include "testing.hpp"

namespace skt::ckpt {
namespace {

TEST(Plan, AvailableFractionMatchesPaperEquations) {
  // Eq. 2: self = (N-1)/2N
  EXPECT_DOUBLE_EQ(available_fraction(Strategy::kSelf, 2), 1.0 / 4.0);
  EXPECT_DOUBLE_EQ(available_fraction(Strategy::kSelf, 16), 15.0 / 32.0);
  // Eq. 3: double = (N-1)/(3N-1)
  EXPECT_DOUBLE_EQ(available_fraction(Strategy::kDouble, 16), 15.0 / 47.0);
  // Eq. 4: single = (N-1)/(2N-1)
  EXPECT_DOUBLE_EQ(available_fraction(Strategy::kSingle, 16), 15.0 / 31.0);
  // Disk/none strategies keep all memory.
  EXPECT_DOUBLE_EQ(available_fraction(Strategy::kNone, 1), 1.0);
  EXPECT_DOUBLE_EQ(available_fraction(Strategy::kBlcr, 1), 1.0);
}

TEST(Plan, PaperHeadlineNumbers) {
  // Section 3.3: "The available memory of a group with 16 processes is 47%".
  EXPECT_NEAR(available_fraction(Strategy::kSelf, 16), 0.47, 0.005);
  // Upper bound of 50% as N grows.
  EXPECT_LT(available_fraction(Strategy::kSelf, 1024), 0.5);
  EXPECT_GT(available_fraction(Strategy::kSelf, 1024), 0.499);
  // Double checkpoint stays below 1/3.
  EXPECT_LT(available_fraction(Strategy::kDouble, 1024), 1.0 / 3.0);
}

TEST(Plan, OrderingSelfBetweenSingleAndDouble) {
  for (int n : {2, 3, 4, 8, 16, 32}) {
    const double single = available_fraction(Strategy::kSingle, n);
    const double self = available_fraction(Strategy::kSelf, n);
    const double dbl = available_fraction(Strategy::kDouble, n);
    EXPECT_GT(single, self) << n;
    EXPECT_GT(self, dbl) << n;
  }
}

TEST(Plan, PlanMemoryFitsCapacity) {
  const std::size_t capacity = 1ull << 30;
  for (auto strategy : {Strategy::kSingle, Strategy::kDouble, Strategy::kSelf}) {
    for (int n : {2, 4, 8, 16}) {
      const MemoryPlan plan = plan_memory(strategy, capacity, n);
      EXPECT_LE(plan.total_bytes(), capacity + 64) << to_string(strategy) << " N=" << n;
      EXPECT_NEAR(plan.fraction(), available_fraction(strategy, n), 1e-6);
      EXPECT_EQ(plan.app_bytes % 8, 0u);
    }
  }
}

TEST(Plan, Table1SelfTotalsIsTwoMNOverNMinus1) {
  const MemoryPlan plan = plan_memory(Strategy::kSelf, 1ull << 30, 8);
  const double m = static_cast<double>(plan.app_bytes);
  EXPECT_NEAR(static_cast<double>(plan.total_bytes()), 2.0 * m * 8 / 7.0, 16.0);
}

TEST(Plan, ParityDegreeFractions) {
  // RS(k, m) self: U = (N-m)/2N, m parity stripes per side instead of one.
  EXPECT_DOUBLE_EQ(available_fraction(Strategy::kSelf, 4, 2), 0.25);
  EXPECT_DOUBLE_EQ(available_fraction(Strategy::kSelf, 16, 2), 14.0 / 32.0);
  // RS(k, m) double: U = (N-m)/(3N-m), m parity stripes in each pair.
  EXPECT_DOUBLE_EQ(available_fraction(Strategy::kDouble, 4, 2), 2.0 / 10.0);
  EXPECT_DOUBLE_EQ(available_fraction(Strategy::kDouble, 16, 3), 13.0 / 45.0);
  for (int n : {4, 8, 16, 32}) {
    // Single is always single-parity: Eq. 4 at any degree.
    EXPECT_DOUBLE_EQ(available_fraction(Strategy::kSingle, n, 2),
                     available_fraction(Strategy::kSingle, n));
    // A second parity row costs a little memory, buys a second failure...
    EXPECT_LT(available_fraction(Strategy::kSelf, n, 2), available_fraction(Strategy::kSelf, n))
        << n;
    EXPECT_LT(available_fraction(Strategy::kDouble, n, 2),
              available_fraction(Strategy::kDouble, n))
        << n;
    // ...but self still beats the double-checkpoint baseline from N >= 5.
    if (n >= 5) {
      EXPECT_GT(available_fraction(Strategy::kSelf, n, 2),
                available_fraction(Strategy::kDouble, n));
    }
  }
  EXPECT_THROW((void)available_fraction(Strategy::kSelf, 3, 2), std::invalid_argument);
  EXPECT_THROW((void)available_fraction(Strategy::kDouble, 3, 2), std::invalid_argument);
  EXPECT_THROW((void)available_fraction(Strategy::kSelf, 8, 0), std::invalid_argument);
}

/// The StoreService admits a session against estimate_session_bytes, so the
/// estimate must cover what open() really allocates in the persistent
/// store, on every rank, for every group-coded strategy and degree.
TEST(Plan, SessionEstimateCoversTheStoreFootprint) {
  constexpr std::size_t kData = 1 << 20;
  constexpr std::size_t kUser = 64;
  for (auto strategy : {Strategy::kSingle, Strategy::kDouble, Strategy::kSelf}) {
    for (int m : {1, 2}) {
      for (int n : {4, 6, 8}) {
        const std::size_t estimate =
            estimate_session_bytes(strategy, kData, kUser, n, m, false, false);
        skt::testing::MiniCluster mc(n, 0);
        const auto result = mc.run(n, [&](mpi::Comm& world) {
          Session session = SessionBuilder{}
                                .strategy(strategy)
                                .key_prefix("lease")
                                .data_bytes(kData)
                                .user_bytes(kUser)
                                .group_size(n)
                                .parity_degree(m)
                                .build(world);
          session.open();
          EXPECT_GE(estimate, world.store().bytes_in_use())
              << to_string(strategy) << " m " << m << " N " << n << " rank " << world.rank();
        });
        ASSERT_TRUE(result.completed) << result.abort_reason;
      }
    }
  }
}

TEST(Plan, RejectsDegenerateGroups) {
  EXPECT_THROW((void)available_fraction(Strategy::kSelf, 1), std::invalid_argument);
  EXPECT_THROW((void)plan_memory(Strategy::kDouble, 1024, 0), std::invalid_argument);
}

TEST(Grouping, NeighborSatisfiesDistinctNodes) {
  // 8 ranks, 2 per node (4 nodes), group size 2.
  const std::vector<int> nodes{0, 0, 1, 1, 2, 2, 3, 3};
  const std::vector<int> racks{0, 0, 0, 0, 1, 1, 1, 1};
  const GroupAssignment a = plan_groups(8, 2, nodes, racks, Mapping::kNeighbor);
  EXPECT_EQ(a.num_groups, 4);
  EXPECT_TRUE(distinct_nodes(a, nodes));
}

TEST(Grouping, SpreadSpansMoreRacks) {
  // 8 ranks on 8 nodes across 2 racks; groups of 4.
  const std::vector<int> nodes{0, 1, 2, 3, 4, 5, 6, 7};
  const std::vector<int> racks{0, 0, 0, 0, 1, 1, 1, 1};
  const GroupAssignment neighbor = plan_groups(8, 4, nodes, racks, Mapping::kNeighbor);
  const GroupAssignment spread = plan_groups(8, 4, nodes, racks, Mapping::kSpread);
  EXPECT_TRUE(distinct_nodes(neighbor, nodes));
  EXPECT_TRUE(distinct_nodes(spread, nodes));
  // Neighbor keeps each group in one rack; spread spans both.
  EXPECT_EQ(racks_spanned(neighbor, 0, racks), 1);
  EXPECT_EQ(racks_spanned(spread, 0, racks), 2);
}

TEST(Grouping, ImpossibleConstraintThrows) {
  // Group of 4 but only 2 distinct nodes.
  const std::vector<int> nodes{0, 0, 1, 1};
  const std::vector<int> racks{0, 0, 0, 0};
  EXPECT_THROW(plan_groups(4, 4, nodes, racks, Mapping::kNeighbor), std::invalid_argument);
}

TEST(Grouping, SizeValidation) {
  const std::vector<int> nodes{0, 1, 2};
  const std::vector<int> racks{0, 0, 0};
  EXPECT_THROW(plan_groups(3, 2, nodes, racks, Mapping::kNeighbor), std::invalid_argument);
  EXPECT_THROW(plan_groups(4, 2, nodes, racks, Mapping::kNeighbor), std::invalid_argument);
}

TEST(Grouping, MakeGroupCommSplitsByColor) {
  skt::testing::MiniCluster mc(4, 0);
  const auto result = mc.run(4, [](mpi::Comm& world) {
    std::vector<int> nodes(4);
    std::vector<int> racks(4);
    for (int r = 0; r < 4; ++r) {
      nodes[static_cast<std::size_t>(r)] = world.node_id_of(r);
      racks[static_cast<std::size_t>(r)] = 0;
    }
    const GroupAssignment a = plan_groups(4, 2, nodes, racks, Mapping::kNeighbor);
    mpi::Comm group = make_group_comm(world, a);
    EXPECT_EQ(group.size(), 2);
    const int sum = group.allreduce_value<int>(1, mpi::Sum{});
    EXPECT_EQ(sum, 2);
  });
  ASSERT_TRUE(result.completed) << result.abort_reason;
}

}  // namespace
}  // namespace skt::ckpt
