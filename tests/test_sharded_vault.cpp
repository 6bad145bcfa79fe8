#include <gtest/gtest.h>

#include <cstddef>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "storage/placement.hpp"
#include "storage/vault.hpp"

namespace skt::storage {
namespace {

std::vector<std::byte> pattern_blob(std::size_t n, unsigned seed = 1) {
  std::vector<std::byte> blob(n);
  for (std::size_t i = 0; i < n; ++i) {
    blob[i] = static_cast<std::byte>((i * 131 + seed * 17) & 0xff);
  }
  return blob;
}

VaultConfig small_config(std::vector<int> nodes, std::size_t extent = 64) {
  return {.nodes = std::move(nodes), .extent_bytes = extent};
}

TEST(PlacementMap, AnchorIsDeterministicArgmax) {
  const PlacementMap map({0, 1, 2, 3});
  for (const std::string key : {"a", "skt.r0.L2.img.e7", "ns/t/skt.manifest"}) {
    const std::size_t anchor = map.anchor_slot(key);
    std::uint64_t best = 0;
    std::size_t best_slot = 0;
    for (std::size_t slot = 0; slot < map.size(); ++slot) {
      const std::uint64_t s = PlacementMap::score(key, map.nodes()[slot]);
      if (s > best) {
        best = s;
        best_slot = slot;
      }
    }
    EXPECT_EQ(anchor, best_slot) << key;
    // Same inputs, same answer — placement must be a pure function.
    EXPECT_EQ(map.anchor_slot(key), anchor) << key;
  }
}

TEST(PlacementMap, ExtentsStripeRoundRobinWithDistinctSuccessor) {
  const PlacementMap map({10, 20, 30, 40});
  const std::size_t anchor = map.anchor_slot("blob");
  for (std::size_t e = 0; e < 8; ++e) {
    const Placement p = map.place("blob", e);
    EXPECT_EQ(p.primary, map.nodes()[(anchor + e) % 4]);
    EXPECT_EQ(p.successor, map.nodes()[(anchor + e + 1) % 4]);
    EXPECT_NE(p.primary, p.successor);
  }
}

TEST(PlacementMap, SingleShardSuccessorCollapsesToPrimary) {
  const PlacementMap map({5});
  const Placement p = map.place("k", 3);
  EXPECT_EQ(p.primary, 5);
  EXPECT_EQ(p.successor, 5);
}

TEST(PlacementMap, ReplaceKeepsSurvivorSlotsStable) {
  PlacementMap map({0, 1, 2, 3});
  const std::vector<int> before = map.nodes();
  const std::uint64_t v0 = map.version();
  map.replace(2, 9);
  EXPECT_EQ(map.version(), v0 + 1);
  ASSERT_EQ(map.size(), 4u);
  // Only slot 2 changed; the others keep their occupants AND their order,
  // so (anchor + e) % N striping stays valid for every surviving extent.
  for (std::size_t slot = 0; slot < 4; ++slot) {
    EXPECT_EQ(map.nodes()[slot], slot == 2 ? 9 : before[slot]);
  }
  // HRW scores of survivors are untouched: a key anchored at a surviving
  // node either keeps its anchor or is captured by the NEW node (slot 2);
  // it never migrates between two surviving slots.
  const PlacementMap old({0, 1, 2, 3});
  int captured = 0;
  for (int i = 0; i < 200; ++i) {
    const std::string key = "k" + std::to_string(i);
    if (old.nodes()[old.anchor_slot(key)] == 2) continue;
    const std::size_t now = map.anchor_slot(key);
    EXPECT_TRUE(now == old.anchor_slot(key) || now == 2) << key;
    if (now == 2) ++captured;
  }
  // The joining node must capture some keys (~1/N for balance) but far
  // from all of them.
  EXPECT_GT(captured, 0);
  EXPECT_LT(captured, 100);
}

TEST(PlacementMap, ReplaceValidates) {
  PlacementMap map({0, 1});
  EXPECT_THROW(map.replace(7, 9), std::invalid_argument);   // 7 holds no slot
  EXPECT_THROW(map.replace(0, 1), std::invalid_argument);   // 1 already placed
  EXPECT_THROW(PlacementMap({}), std::invalid_argument);    // empty
  EXPECT_THROW(PlacementMap({3, 3}), std::invalid_argument);  // duplicate
}

TEST(Vault, RoundTripsOddSizesAcrossExtentBoundaries) {
  Vault vault(small_config({0, 1, 2, 3}, 64));
  // 0, 1, just-below/at/above one extent, several extents + ragged tail.
  for (const std::size_t n : {0u, 1u, 63u, 64u, 65u, 256u, 1000u}) {
    const auto blob = pattern_blob(n, static_cast<unsigned>(n));
    const std::string key = "blob" + std::to_string(n);
    vault.put(key, blob);
    EXPECT_TRUE(vault.exists(key));
    const auto back = vault.get(key);
    ASSERT_TRUE(back.has_value()) << n;
    EXPECT_EQ(*back, blob) << n;
  }
  EXPECT_EQ(vault.bytes_in_use(), 0u + 1 + 63 + 64 + 65 + 256 + 1000);
}

TEST(Vault, LargeBlobEngagesEveryShard) {
  Vault vault(small_config({0, 1, 2, 3}, 64));
  vault.put("big", pattern_blob(64 * 16));  // 16 extents over 4 shards
  for (const int node : {0, 1, 2, 3}) {
    EXPECT_GT(vault.shard_bytes(node), 0u) << "shard " << node << " idle";
  }
}

TEST(Vault, ReplicationDoublesPhysicalNotLogicalBytes) {
  Vault vault(small_config({0, 1, 2}, 64));
  vault.put("k", pattern_blob(640));
  EXPECT_EQ(vault.bytes_in_use(), 640u);
  std::size_t physical = 0;
  for (const int node : {0, 1, 2}) physical += vault.shard_bytes(node);
  EXPECT_EQ(physical, 2 * 640u);  // primary + successor copy of every extent
}

TEST(Vault, PutReplacesAtomicallyWithoutOrphanExtents) {
  Vault vault(small_config({0, 1}, 64));
  vault.put("k", pattern_blob(640, 1));
  vault.put("k", pattern_blob(100, 2));  // shrink: old tail extents must go
  const auto back = vault.get("k");
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, pattern_blob(100, 2));
  std::size_t physical = 0;
  for (const int node : {0, 1}) physical += vault.shard_bytes(node);
  EXPECT_EQ(physical, 2 * 100u);
}

TEST(Vault, ReplaceNodeRehomesFromSurvivingReplicas) {
  Vault vault(small_config({0, 1, 2, 3}, 64));
  std::vector<std::pair<std::string, std::vector<std::byte>>> blobs;
  for (int i = 0; i < 12; ++i) {
    blobs.emplace_back("blob" + std::to_string(i),
                       pattern_blob(64 * 5 + static_cast<std::size_t>(i), i + 1u));
    vault.put(blobs.back().first, blobs.back().second);
  }
  const std::uint64_t v0 = vault.placement_version();

  // Node 2 dies; spare node 9 takes its slot. The dead shard's contents
  // are gone — everything must be recovered from replicas.
  vault.replace_node(2, 9);

  EXPECT_FALSE(vault.has_shard(2));
  EXPECT_TRUE(vault.has_shard(9));
  EXPECT_GT(vault.placement_version(), v0);
  const VaultStats stats = vault.stats();
  EXPECT_EQ(stats.rebalances, 1u);
  EXPECT_GT(stats.extents_rehomed, 0u);
  EXPECT_EQ(stats.extents_lost, 0u);  // single loss: replica invariant holds
  EXPECT_GT(vault.shard_bytes(9), 0u);  // the spare now carries its share

  for (const auto& [key, blob] : blobs) {
    EXPECT_TRUE(vault.exists(key)) << key;
    const auto back = vault.get(key);
    ASSERT_TRUE(back.has_value()) << key;
    EXPECT_EQ(*back, blob) << key;
  }
  // Post-reshard reads are served from placement again, and the replica
  // invariant is re-established: physical is back to 2x logical.
  std::size_t physical = 0;
  for (const int node : vault.shard_nodes()) physical += vault.shard_bytes(node);
  EXPECT_EQ(physical, 2 * vault.bytes_in_use());
}

TEST(Vault, SurvivesSequentialLossOfEveryOriginalShard) {
  Vault vault(small_config({0, 1, 2, 3}, 64));
  const auto blob = pattern_blob(64 * 9 + 17);
  vault.put("k", blob);
  // One loss at a time with a reshard in between — the replica invariant
  // is restored after each, so data survives losing all original nodes.
  vault.replace_node(0, 10);
  vault.replace_node(1, 11);
  vault.replace_node(2, 12);
  vault.replace_node(3, 13);
  EXPECT_EQ(vault.stats().extents_lost, 0u);
  const auto back = vault.get("k");
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, blob);
}

TEST(Vault, ExistsCountsNoDegradedRead) {
  Vault vault(small_config({0, 1, 2, 3}, 64));
  const auto blob = pattern_blob(64 * 8);  // 8 extents: two primaries per shard
  vault.put("k", blob);
  vault.wipe_shard(0);
  // Every extent keeps its successor copy, so the blob still exists, and
  // asking is not a read.
  EXPECT_TRUE(vault.exists("k"));
  EXPECT_EQ(vault.stats().gets, 0u);
  EXPECT_EQ(vault.stats().degraded_reads, 0u);
  // A read of the extents whose primary was on node 0 is degraded.
  const auto back = vault.get("k");
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, blob);
  EXPECT_EQ(vault.stats().gets, 1u);
  EXPECT_EQ(vault.stats().degraded_reads, 2u);
}

TEST(Vault, ReplaceNodeWithoutShardIsNoOp) {
  Vault vault(small_config({0, 1}, 64));
  vault.put("k", pattern_blob(100));
  const std::uint64_t v0 = vault.placement_version();
  vault.replace_node(7, 8);  // node 7 never hosted a shard
  EXPECT_EQ(vault.placement_version(), v0);
  EXPECT_EQ(vault.stats().rebalances, 0u);
  EXPECT_TRUE(vault.exists("k"));
}

TEST(Vault, ReplaceOntoAnotherShardHostThrowsAndChangesNothing) {
  Vault vault(small_config({0, 1}, 64));
  const auto blob = pattern_blob(300);
  vault.put("k", blob);
  EXPECT_THROW(vault.replace_node(0, 1), std::invalid_argument);  // 1 holds a slot
  EXPECT_EQ(vault.shard_nodes(), (std::vector<int>{0, 1}));
  EXPECT_TRUE(vault.has_shard(0));
  EXPECT_EQ(vault.stats().rebalances, 0u);
  const auto back = vault.get("k");
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, blob);
}

TEST(Vault, WriteSecondsScalesWithShardCount) {
  const std::size_t bytes = 256u << 20;  // large enough to swamp latency
  const Vault one(small_config({0}, 256 * 1024));
  const Vault four(small_config({0, 1, 2, 3}, 256 * 1024));
  const double t1 = one.write_seconds(bytes);
  const double t4 = four.write_seconds(bytes);
  // The bench gate requires >= 2x aggregate bandwidth at 4 shards; the
  // model gives ~4x for latency-dominated-free transfers.
  EXPECT_GE(t1 / t4, 2.0);
  EXPECT_LT(t1 / t4, 4.5);
  // Exactly ceil(bytes / N) through the one device.
  const Device ssd(ssd_profile());
  EXPECT_EQ(four.write_seconds(bytes + 1), ssd.write_seconds(bytes / 4 + 1));
  EXPECT_EQ(four.read_seconds(bytes + 1), ssd.read_seconds(bytes / 4 + 1));
}

TEST(Vault, ExtentKeysCannotCollideAcrossBlobNames) {
  // "k" extent 12 vs "k1" extent 2: a naive "k" + index scheme would
  // collide ("k12"); the separator keeps them distinct.
  EXPECT_NE(Vault::extent_key("k", 12), Vault::extent_key("k1", 2));
}

TEST(Vault, ConcurrentPutGetRemoveAreLinearizable) {
  Vault vault(small_config({0, 1, 2, 3}, 64));
  constexpr int kThreads = 8;
  constexpr int kOps = 100;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&vault, t] {
      for (int i = 0; i < kOps; ++i) {
        const std::string key = "k" + std::to_string(t % 4);
        const auto blob = pattern_blob(64 * 3 + 7, static_cast<unsigned>(t));
        vault.put(key, blob);
        const auto back = vault.get(key);
        // Another thread may have replaced it, but never torn it: the
        // extents of one get() all come from the same put().
        if (back.has_value()) {
          ASSERT_EQ(back->size(), blob.size());
          const auto first = (*back)[0];
          bool consistent = false;
          for (int w = 0; w < kThreads; ++w) {
            if (first == pattern_blob(1, static_cast<unsigned>(w))[0] &&
                *back == pattern_blob(64 * 3 + 7, static_cast<unsigned>(w))) {
              consistent = true;
              break;
            }
          }
          ASSERT_TRUE(consistent) << "torn read";
        }
        if (i % 10 == 9) vault.remove(key);
      }
    });
  }
  for (auto& th : threads) th.join();
  for (int k = 0; k < 4; ++k) vault.remove("k" + std::to_string(k));
  EXPECT_EQ(vault.bytes_in_use(), 0u);
  for (const int node : vault.shard_nodes()) EXPECT_EQ(vault.shard_bytes(node), 0u) << node;
}

}  // namespace
}  // namespace skt::storage
