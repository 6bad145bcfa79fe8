#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "storage/device.hpp"
#include "storage/vault.hpp"

namespace skt::storage {
namespace {

TEST(Device, TransferTimesScaleLinearly) {
  const Device ssd(ssd_profile());
  const double t1 = ssd.write_seconds(100 << 20);
  const double t2 = ssd.write_seconds(200 << 20);
  // Latency is tiny against 100 MiB transfers; the ratio is ~2.
  EXPECT_NEAR(t2 / t1, 2.0, 0.01);
  EXPECT_LT(ssd.read_seconds(100 << 20), t1);  // reads faster than writes
}

TEST(Device, LatencyDominatesSmallTransfers) {
  const Device hdd(hdd_profile());
  const double tiny = hdd.write_seconds(16);
  EXPECT_GT(tiny, hdd.profile().latency_s * 0.99);
  EXPECT_LT(tiny, hdd.profile().latency_s * 1.5);
}

TEST(Device, SharersDivideBandwidth) {
  const Device solo(ssd_profile(1));
  const Device shared(ssd_profile(8));
  const std::size_t size = 1u << 30;
  EXPECT_NEAR(shared.write_seconds(size) / solo.write_seconds(size), 8.0, 0.1);
}

TEST(Device, ZeroBandwidthProfileRejectsIO) {
  const Device null_device(DeviceProfile{});
  EXPECT_THROW((void)null_device.write_seconds(1), std::logic_error);
}

TEST(Device, ProfilePresetsAreOrdered) {
  // ramfs > pfs > ssd > hdd on sequential writes.
  EXPECT_GT(ramfs_profile().write_bandwidth_Bps, pfs_profile().write_bandwidth_Bps);
  EXPECT_GT(pfs_profile().write_bandwidth_Bps, ssd_profile().write_bandwidth_Bps);
  EXPECT_GT(ssd_profile().write_bandwidth_Bps, hdd_profile().write_bandwidth_Bps);
}

TEST(Vault, PutGetRemove) {
  Vault vault;
  const std::vector<std::byte> blob{std::byte{1}, std::byte{2}, std::byte{3}};
  vault.put("a", blob);
  EXPECT_TRUE(vault.exists("a"));
  const auto back = vault.get("a");
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, blob);
  EXPECT_EQ(vault.bytes_in_use(), 3u);

  vault.remove("a");
  EXPECT_FALSE(vault.exists("a"));
  EXPECT_FALSE(vault.get("a").has_value());
}

TEST(Vault, PutReplacesAtomically) {
  Vault vault;
  vault.put("k", std::vector<std::byte>(10, std::byte{1}));
  vault.put("k", std::vector<std::byte>(4, std::byte{2}));
  const auto back = vault.get("k");
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->size(), 4u);
  EXPECT_EQ((*back)[0], std::byte{2});
  EXPECT_EQ(vault.bytes_in_use(), 4u);
}

TEST(Vault, GetReturnsCopyNotView) {
  Vault vault;
  vault.put("k", std::vector<std::byte>(4, std::byte{7}));
  auto copy = vault.get("k");
  ASSERT_TRUE(copy.has_value());
  (*copy)[0] = std::byte{9};
  EXPECT_EQ((*vault.get("k"))[0], std::byte{7});
}

TEST(Vault, ConcurrentWritersAndReaders) {
  Vault vault;
  constexpr int kThreads = 8;
  constexpr int kOps = 200;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&vault, t] {
      for (int i = 0; i < kOps; ++i) {
        const std::string key = "k" + std::to_string(t % 4);
        vault.put(key, std::vector<std::byte>(64, static_cast<std::byte>(t)));
        const auto blob = vault.get(key);
        // Another thread may have replaced it, but it is never torn.
        if (blob.has_value()) {
          ASSERT_EQ(blob->size(), 64u);
          for (std::size_t j = 1; j < blob->size(); ++j) {
            ASSERT_EQ((*blob)[j], (*blob)[0]);
          }
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  for (int k = 0; k < 4; ++k) vault.remove("k" + std::to_string(k));
  EXPECT_EQ(vault.bytes_in_use(), 0u);
  EXPECT_EQ(vault.shard_bytes(kOffClusterNode), 0u);
}

TEST(Vault, DefaultIsOneOffClusterShardOnSsd) {
  const Vault vault;
  EXPECT_EQ(vault.shard_nodes(), std::vector<int>{kOffClusterNode});
  // One shard prices a transfer exactly as its device does.
  const Device ssd(ssd_profile());
  for (const std::size_t bytes : {std::size_t{0}, std::size_t{4097}, std::size_t{6} << 20}) {
    EXPECT_EQ(vault.write_seconds(bytes), ssd.write_seconds(bytes)) << bytes;
    EXPECT_EQ(vault.read_seconds(bytes), ssd.read_seconds(bytes)) << bytes;
  }
}

TEST(Vault, RejectsDeviceWithoutBandwidth) {
  // Caught when the vault is built, not at the first transfer inside a
  // collective commit.
  EXPECT_THROW(Vault({.device = DeviceProfile{}}), std::invalid_argument);
  DeviceProfile write_only = hdd_profile();
  write_only.read_bandwidth_Bps = 0.0;
  EXPECT_THROW(Vault({.device = write_only}), std::invalid_argument);
  EXPECT_THROW(Vault({.extent_bytes = 0}), std::invalid_argument);
}

}  // namespace
}  // namespace skt::storage
