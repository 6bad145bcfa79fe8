// Sharded-vault bandwidth gate: the whole point of spreading the durable
// tier across N node-local shards is that one large L2 flush engages every
// shard's device concurrently instead of funnelling through a single
// mount point. The gated quantity is the MODELED aggregate flush
// bandwidth — bytes / Vault::write_seconds(), the same number a
// level-2 flush or a BLCR image charges its virtual clock. Ideal
// scaling is Nx (extents stripe round-robin from the anchor, so an image
// much larger than one extent puts ceil(bytes/N) on every shard); the
// gate requires >= 2x at 4 shards vs 1, leaving honest headroom for
// anchor skew on small images. Wall-clock put/get throughput (real memcpy
// work through the striping, replication, and index paths) is reported
// for trending only — it measures this host's memory system, not the
// modeled devices.
// Results land in BENCH_vault.json; exit status enforces the gate.
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <numeric>
#include <string>
#include <vector>

#include "storage/vault.hpp"
#include "util/json_writer.hpp"

namespace {

using namespace skt;

constexpr std::size_t kImageBytes = 8u << 20;  ///< one rank's L2 image
constexpr int kImages = 8;                     ///< ranks flushing per epoch

double wall_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

struct Sample {
  int shards = 0;
  double modeled_flush_Bps = 0.0;  ///< bytes / write_seconds (the gated number)
  double modeled_read_Bps = 0.0;
  double wall_put_Bps = 0.0;       ///< real memcpy throughput, trending only
  double wall_get_Bps = 0.0;
  std::uint64_t physical_bytes = 0;
  std::uint64_t logical_bytes = 0;
};

Sample run_at(int shards) {
  std::vector<int> nodes(static_cast<std::size_t>(shards));
  std::iota(nodes.begin(), nodes.end(), 0);
  storage::Vault vault({.nodes = std::move(nodes), .device = storage::ssd_profile()});

  std::vector<std::byte> image(kImageBytes);
  for (std::size_t i = 0; i < image.size(); ++i) {
    image[i] = static_cast<std::byte>((i * 131) & 0xff);
  }

  Sample s;
  s.shards = shards;

  // Modeled time: what a level-2 flush would charge its virtual clock.
  double modeled_write_s = 0.0;
  double modeled_read_s = 0.0;
  const double put0 = wall_seconds();
  for (int r = 0; r < kImages; ++r) {
    const std::string key = "bench.r" + std::to_string(r) + ".L2.img";
    modeled_write_s += vault.write_seconds(image.size());
    vault.put(key, image);
  }
  const double put_wall = wall_seconds() - put0;

  const double get0 = wall_seconds();
  for (int r = 0; r < kImages; ++r) {
    const std::string key = "bench.r" + std::to_string(r) + ".L2.img";
    modeled_read_s += vault.read_seconds(image.size());
    const auto blob = vault.get(key);
    if (!blob.has_value() || blob->size() != image.size() ||
        std::memcmp(blob->data(), image.data(), image.size()) != 0) {
      std::fprintf(stderr, "vault_bandwidth: round-trip mismatch at %d shards\n", shards);
      std::exit(1);
    }
  }
  const double get_wall = wall_seconds() - get0;

  const double total = static_cast<double>(kImageBytes) * kImages;
  s.modeled_flush_Bps = total / modeled_write_s;
  s.modeled_read_Bps = total / modeled_read_s;
  s.wall_put_Bps = total / put_wall;
  s.wall_get_Bps = total / get_wall;
  s.logical_bytes = vault.bytes_in_use();
  for (int n = 0; n < shards; ++n) s.physical_bytes += vault.shard_bytes(n);
  return s;
}

}  // namespace

int main() {
  const int shard_counts[] = {1, 2, 4, 8};
  std::vector<Sample> samples;
  for (const int n : shard_counts) samples.push_back(run_at(n));

  double bw1 = 0.0;
  double bw4 = 0.0;
  util::JsonWriter report;
  report.begin_object();
  report.field("bench", "vault_bandwidth");
  report.field("image_bytes", static_cast<std::uint64_t>(kImageBytes));
  report.field("images", static_cast<std::int64_t>(kImages));
  report.key("samples");
  report.begin_array();
  for (const Sample& s : samples) {
    report.begin_object();
    report.field("shards", static_cast<std::int64_t>(s.shards));
    report.field("modeled_flush_Bps", s.modeled_flush_Bps);
    report.field("modeled_read_Bps", s.modeled_read_Bps);
    report.field("wall_put_Bps", s.wall_put_Bps);
    report.field("wall_get_Bps", s.wall_get_Bps);
    report.field("logical_bytes", s.logical_bytes);
    report.field("physical_bytes", s.physical_bytes);
    report.end_object();
    if (s.shards == 1) bw1 = s.modeled_flush_Bps;
    if (s.shards == 4) bw4 = s.modeled_flush_Bps;
  }
  report.end_array();
  const double speedup = bw1 > 0.0 ? bw4 / bw1 : 0.0;
  report.field("flush_speedup_4v1", speedup);
  report.field("gate_min_speedup", 2.0);
  const bool gate_ok = speedup >= 2.0;
  report.field("gate_ok", gate_ok);
  report.end_object();
  util::write_json_file(util::report_path("BENCH_vault.json"), report.str());

  std::printf("vault_bandwidth: modeled flush %.1f MB/s @1 shard, %.1f MB/s @4 shards "
              "(%.2fx, gate >= 2x): %s\n",
              bw1 / 1e6, bw4 / 1e6, speedup, gate_ok ? "PASS" : "FAIL");
  return gate_ok ? 0 : 1;
}
