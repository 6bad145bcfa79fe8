// Fault-tolerant 2-D Jacobi heat diffusion — shows that self-checkpoint is
// application-agnostic (Section 4: "more available memory has different
// meanings to different programs"). The field is decomposed by row blocks;
// each sweep exchanges halo rows with grid neighbours, then relaxes.
//
// The demo runs the solver twice: once fault-free, once with a node
// powered off mid-commit (inside the ckpt.mid_flush window — CASE 2 of the
// paper's Fig. 4), and asserts the recovered run converges to the
// *identical* field (bitwise, XOR codec).
//
// With --telemetry <prefix> the run records spans and metrics and writes
//   <prefix>_trace.json   Chrome trace_event timeline (failpoint hit,
//                         launcher recovery cycle, rebuild — Perfetto-ready)
//   <prefix>_report.json  RunReport with phase histograms + wire counters
// and self-validates that both artifacts contain the expected evidence.
//
// With --monitor <prefix> the faulty run additionally exercises the live
// monitoring stack: heartbeat-driven failure detection (the launcher's
// detect phase polls the HealthBoard and records the measured latency into
// the launcher.detect_latency_s histogram), a POSTMORTEM_ft_jacobi.json
// forensic record of the kill (lost rank, lost epoch, rebuilt stripes,
// Fig. 10 timeline), and a JSON-lines monitor feed at <prefix>_feed.jsonl
// (watch it live with scripts/monitor_demo.sh). --monitor implies
// --telemetry artifacts at the same prefix unless --telemetry is given.
//
// With --scrub <seconds> every Session also runs the background scrubber
// at that cadence (optionally with --parity m for an RS(k, m) group), and
// --bitflip injects a silent bit flip into a sealed checksum buffer after
// the first commit — the scrubber must catch and repair it from the
// mirror while the sweep loop keeps running, which the run validates via
// the scrub.* counters (visible in the RunReport).
//
// With --shards N the faulty run's session becomes multi-level: every
// other commit flushes to a storage::Vault sharded over the job's first N
// nodes, the injected kill takes a shard host with it, and the launcher
// reshards (wipe dead shard, spare takes the slot, extents re-homed from
// replicas) before relaunch — validated via the vault.* gauges and
// VaultStats (visible in the RunReport).
//
//   ./ft_jacobi [--grid 128] [--ranks 4] [--iters 60] [--ckpt-every 10]
//               [--telemetry out/jacobi] [--monitor out/jacobi]
//               [--scrub 0.001] [--parity 2] [--bitflip] [--shards 4]
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <numeric>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "ckpt/session.hpp"
#include "mpi/launcher.hpp"
#include "storage/vault.hpp"
#include "telemetry/aggregator.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/report.hpp"
#include "telemetry/trace.hpp"
#include "util/log.hpp"
#include "util/options.hpp"
#include "util/table.hpp"

using namespace skt;

namespace {

struct JacobiState {
  std::int64_t iteration = 0;
};

constexpr mpi::Tag kTagHaloUp = 11;
constexpr mpi::Tag kTagHaloDown = 12;

/// Scrub-and-repair configuration for the demo (off by default).
struct ScrubDemo {
  double interval_s = 0.0;  ///< > 0 starts the background scrubber
  int parity = 1;           ///< erasure degree of the encoding group
  bool bitflip = false;     ///< inject a silent flip after the first commit
};

/// Flip one bit of a sealed, mirror-backed checkpoint region, then wait
/// for the BACKGROUND scrub pass to notice and repair it — the loop keeps
/// this rank alive but idle-spinning only inside this drill; the rest of
/// the solve runs at full speed. Throws when the repair never lands.
void bitflip_drill(ckpt::Session& session) {
  ckpt::Scrubber* scrubber = session.scrubber();
  if (scrubber == nullptr) throw std::invalid_argument("--bitflip requires --scrub");
  scrubber->scrub_now();  // make sure this epoch's baselines exist
  const ckpt::ScrubStats before = scrubber->stats();
  {
    std::lock_guard<std::mutex> lock(scrubber->commit_exclusion());
    for (ckpt::ScrubRegion& region : session.unsafe_protocol().scrub_view()) {
      if (region.mirror.empty()) continue;
      region.bytes[region.bytes.size() / 3] ^= std::byte{0x04};
      break;
    }
  }
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (scrubber->stats().repaired <= before.repaired) {
    if (std::chrono::steady_clock::now() >= deadline) {
      throw std::runtime_error("scrubber did not repair the injected bit flip");
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  const ckpt::ScrubStats after = scrubber->stats();
  if (after.corruption_detected <= before.corruption_detected ||
      after.unrepaired > before.unrepaired) {
    throw std::runtime_error("scrubber mis-handled the injected bit flip");
  }
}

/// One fault-tolerant Jacobi solve; returns the L2 norm of the final local
/// block (for cross-run comparison) via out-param on rank 0.
void jacobi(mpi::Comm& world, std::int64_t grid_n, std::int64_t iterations,
            std::int64_t ckpt_every, const ScrubDemo& scrub, storage::Vault* vault,
            double* final_norm) {
  const int ranks = world.size();
  const int me = world.rank();
  if (grid_n % ranks != 0) throw std::invalid_argument("grid must divide ranks");
  const std::int64_t rows = grid_n / ranks;  // interior rows per rank

  ckpt::SessionBuilder builder;
  builder.strategy(ckpt::Strategy::kSelf)
      .key_prefix("jacobi")
      .data_bytes(static_cast<std::size_t>(rows * grid_n) * sizeof(double))
      .user_bytes(sizeof(JacobiState))
      .parity_degree(scrub.parity)
      .scrub_interval(scrub.interval_s);
  if (vault != nullptr) {
    // --shards: add level 2, flushing every other commit to the sharded
    // durable tier.
    builder.vault(vault).level2_flush_every(2);
  }
  // group_size 0: one encoding group spanning the job
  ckpt::Session session = builder.build(world);

  const ckpt::OpenOutcome outcome = session.open();
  auto* state = reinterpret_cast<JacobiState*>(session.user_state().data());
  const std::span<double> field{reinterpret_cast<double*>(session.data().data()),
                                static_cast<std::size_t>(rows * grid_n)};

  if (outcome == ckpt::OpenOutcome::kRestored) {
    SKT_LOG_INFO("jacobi: resumed at iteration {}", state->iteration);
  } else {
    state->iteration = 0;
    // Hot square in the middle of the global field, zero elsewhere.
    for (std::int64_t r = 0; r < rows; ++r) {
      const std::int64_t gr = me * rows + r;
      for (std::int64_t c = 0; c < grid_n; ++c) {
        const bool hot = gr > grid_n / 3 && gr < 2 * grid_n / 3 && c > grid_n / 3 &&
                         c < 2 * grid_n / 3;
        field[static_cast<std::size_t>(r * grid_n + c)] = hot ? 100.0 : 0.0;
      }
    }
  }

  std::vector<double> halo_above(static_cast<std::size_t>(grid_n), 0.0);
  std::vector<double> halo_below(static_cast<std::size_t>(grid_n), 0.0);
  std::vector<double> next(field.size());

  while (state->iteration < iterations) {
    world.failpoint("jacobi.sweep");
    // Halo exchange with neighbouring row blocks (domain boundary = 0).
    if (me > 0) {
      world.send<double>(me - 1, kTagHaloUp, field.subspan(0, static_cast<std::size_t>(grid_n)));
    }
    if (me < ranks - 1) {
      world.send<double>(me + 1, kTagHaloDown,
                         field.subspan(static_cast<std::size_t>((rows - 1) * grid_n)));
    }
    if (me > 0) {
      world.recv<double>(me - 1, kTagHaloDown, halo_above);
    } else {
      std::fill(halo_above.begin(), halo_above.end(), 0.0);
    }
    if (me < ranks - 1) {
      world.recv<double>(me + 1, kTagHaloUp, halo_below);
    } else {
      std::fill(halo_below.begin(), halo_below.end(), 0.0);
    }

    for (std::int64_t r = 0; r < rows; ++r) {
      const double* up = r == 0 ? halo_above.data() : &field[static_cast<std::size_t>((r - 1) * grid_n)];
      const double* down =
          r == rows - 1 ? halo_below.data() : &field[static_cast<std::size_t>((r + 1) * grid_n)];
      const double* cur = &field[static_cast<std::size_t>(r * grid_n)];
      double* out = &next[static_cast<std::size_t>(r * grid_n)];
      for (std::int64_t c = 0; c < grid_n; ++c) {
        const double left = c == 0 ? 0.0 : cur[c - 1];
        const double right = c == grid_n - 1 ? 0.0 : cur[c + 1];
        out[c] = 0.25 * (up[c] + down[c] + left + right);
      }
    }
    std::memcpy(field.data(), next.data(), next.size() * sizeof(double));
    state->iteration += 1;
    if (ckpt_every > 0 && state->iteration % ckpt_every == 0) {
      session.commit();
      // The silent-corruption drill rides on the FIRST commit, well before
      // the mid-run kill of the faulty pass.
      if (scrub.bitflip && state->iteration == ckpt_every) bitflip_drill(session);
    }
  }

  double local = 0.0;
  for (double v : field) local += v * v;
  const double norm = std::sqrt(world.allreduce_value<double>(local, mpi::Sum{}));
  if (me == 0 && final_norm != nullptr) *final_norm = norm;
}

/// Check the recorded telemetry for the evidence the faulty run must leave:
/// the failpoint instant, a launcher recovery cycle, and the restore span.
/// Returns true when everything is present; prints what is missing.
bool validate_telemetry(std::uint64_t restores_before) {
  bool saw_fail = false;
  bool saw_replace = false;
  bool saw_restore = false;
  for (const auto& rec : telemetry::Tracer::instance().collect()) {
    if (std::strcmp(rec.name, "fail:ckpt.mid_flush") == 0 && rec.instant()) saw_fail = true;
    if (std::strcmp(rec.name, "launcher.replace") == 0) saw_replace = true;
    if (std::strcmp(rec.name, "ckpt.restore") == 0) saw_restore = true;
  }
  const auto snap = telemetry::metrics().snapshot();
  const auto counter = [&snap](const char* name) -> std::uint64_t {
    const auto it = snap.counters.find(name);
    return it == snap.counters.end() ? 0 : it->second;
  };
  bool ok = true;
  if (!saw_fail) {
    std::printf("telemetry: missing fail:ckpt.mid_flush instant event\n");
    ok = false;
  }
  if (!saw_replace) {
    std::printf("telemetry: missing launcher.replace span\n");
    ok = false;
  }
  if (!saw_restore) {
    std::printf("telemetry: missing ckpt.restore span\n");
    ok = false;
  }
  if (counter("ckpt.commits") == 0) {
    std::printf("telemetry: ckpt.commits counter is zero\n");
    ok = false;
  }
  if (counter("ckpt.restores") <= restores_before) {
    std::printf("telemetry: no restore recorded by the faulty run\n");
    ok = false;
  }
  if (counter("mpi.wire_bytes") == 0) {
    std::printf("telemetry: mpi.wire_bytes counter is zero\n");
    ok = false;
  }
  const auto hist = snap.histograms.find("ckpt.commit_s");
  if (hist == snap.histograms.end() || hist->second.count == 0) {
    std::printf("telemetry: ckpt.commit_s histogram is empty\n");
    ok = false;
  }
  return ok;
}

/// Check the evidence the monitored faulty run must leave: a postmortem
/// naming the lost rank/epoch and its rebuilt stripes, a measured
/// detection latency, live aggregator ticks, and the JSONL feed on disk.
bool validate_monitor(const mpi::LaunchResult& result, std::uint64_t ticks,
                      const std::string& feed_path) {
  bool ok = true;
  if (result.postmortems.empty()) {
    std::printf("monitor: no postmortem produced for the injected failure\n");
    return false;
  }
  const telemetry::Postmortem& pm = result.postmortems.front();
  if (pm.lost_ranks.empty()) {
    std::printf("monitor: postmortem names no lost rank\n");
    ok = false;
  }
  if (pm.lost_epoch == 0) {
    std::printf("monitor: postmortem has no committed epoch at the kill\n");
    ok = false;
  }
  if (!pm.recovered || pm.rebuilds.empty() ||
      pm.rebuilds.front().stripe_count == 0 || pm.rebuilds.front().peers.empty()) {
    std::printf("monitor: postmortem lacks the rebuilt stripe set / peers\n");
    ok = false;
  }
  if (result.cycles.empty() || result.cycles.front().detect_latency_s < 0.0) {
    std::printf("monitor: detection latency was not measured\n");
    ok = false;
  }
  const auto snap = telemetry::metrics().snapshot();
  const auto hist = snap.histograms.find("launcher.detect_latency_s");
  if (hist == snap.histograms.end() || hist->second.count == 0) {
    std::printf("monitor: launcher.detect_latency_s histogram is empty\n");
    ok = false;
  }
  if (ticks == 0) {
    std::printf("monitor: aggregator never ticked\n");
    ok = false;
  }
  if (std::FILE* f = std::fopen(feed_path.c_str(), "r")) {
    std::fclose(f);
  } else {
    std::printf("monitor: feed file %s missing\n", feed_path.c_str());
    ok = false;
  }
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  util::Options opts(argc, argv);
  util::set_log_level(opts.get("log", "info"));
  const std::int64_t grid_n = opts.get_int("grid", 128);
  const int ranks = static_cast<int>(opts.get_int("ranks", 4));
  const std::int64_t iterations = opts.get_int("iters", 60);
  const std::int64_t ckpt_every = opts.get_int("ckpt-every", 10);
  const std::string monitor_prefix = opts.get("monitor", "");
  std::string telemetry_prefix = opts.get("telemetry", "");
  if (telemetry_prefix.empty()) telemetry_prefix = monitor_prefix;
  if (!telemetry_prefix.empty()) telemetry::set_enabled(true);

  ScrubDemo scrub;
  scrub.interval_s = opts.get_double("scrub", 0.0);
  scrub.parity = static_cast<int>(opts.get_int("parity", 1));
  scrub.bitflip = opts.has("bitflip");
  // --shards N: back the faulty run's level-2 tier with a storage::Vault
  // sharded over the job's first N nodes; the launcher reshards it when the
  // injected kill takes a shard host down.
  const int shards = static_cast<int>(opts.get_int("shards", 0));
  if (shards > ranks) {
    std::printf("--shards %d exceeds the %d job nodes\n", shards, ranks);
    return 1;
  }

  // Reference: fault-free run.
  double clean_norm = 0.0;
  {
    sim::Cluster cluster({.num_nodes = ranks, .spare_nodes = 0, .nodes_per_rack = 4});
    mpi::JobLauncher launcher(cluster, nullptr, {.max_restarts = 0});
    const auto result = launcher.run(ranks, [&](mpi::Comm& w) {
      jacobi(w, grid_n, iterations, ckpt_every, scrub, nullptr, &clean_norm);
    });
    if (!result.success) {
      std::printf("clean run failed: %s\n", result.failure.c_str());
      return 1;
    }
  }

  // Faulty run: power off a node mid-commit, inside the flush window between
  // the two checkpoint halves (CASE 2 — the sealed epoch must still recover).
  std::uint64_t restores_before = 0;
  {
    const auto snap = telemetry::metrics().snapshot();
    const auto it = snap.counters.find("ckpt.restores");
    if (it != snap.counters.end()) restores_before = it->second;
  }
  double faulty_norm = -1.0;
  int restarts = 0;
  bool monitor_ok = true;
  std::uint64_t monitor_ticks = 0;
  std::size_t postmortems = 0;
  double detect_latency_s = -1.0;
  std::optional<storage::Vault> vault;
  {
    sim::Cluster cluster({.num_nodes = ranks, .spare_nodes = 2, .nodes_per_rack = 4});
    sim::FailureInjector injector;
    const int kill_commit =
        ckpt_every > 0 ? std::max<int>(1, static_cast<int>(iterations / (2 * ckpt_every))) : 1;
    injector.add_rule({.point = "ckpt.mid_flush",
                       .world_rank = ranks / 2,
                       .hit = kill_commit,
                       .repeat = false});
    mpi::LauncherConfig launch_config{.max_restarts = 2};
    if (shards > 0) {
      std::vector<int> nodes(static_cast<std::size_t>(shards));
      std::iota(nodes.begin(), nodes.end(), 0);
      vault.emplace(storage::VaultConfig{.nodes = std::move(nodes)});
      launch_config.vault = &*vault;
    }
    std::optional<telemetry::Aggregator> monitor;
    if (!monitor_prefix.empty()) {
      launch_config.health.enabled = true;
      launch_config.postmortem_name = "ft_jacobi";
      telemetry::AggregatorConfig mc;
      mc.interval_s = 0.02;
      mc.feed_path = monitor_prefix + "_feed.jsonl";
      monitor.emplace(mc);
      monitor->start();
    }
    mpi::JobLauncher launcher(cluster, &injector, launch_config);
    const auto result = launcher.run(ranks, [&](mpi::Comm& w) {
      jacobi(w, grid_n, iterations, ckpt_every, scrub,
             vault.has_value() ? &*vault : nullptr, &faulty_norm);
    });
    if (monitor) monitor->stop();
    if (!result.success) {
      std::printf("faulty run failed: %s\n", result.failure.c_str());
      return 1;
    }
    restarts = result.restarts;
    if (monitor) {
      monitor_ticks = monitor->ticks();
      postmortems = result.postmortems.size();
      if (!result.cycles.empty()) detect_latency_s = result.cycles.front().detect_latency_s;
      monitor_ok = validate_monitor(result, monitor_ticks, monitor_prefix + "_feed.jsonl");
    }
  }

  const bool identical = clean_norm == faulty_norm;

  // Sharded-vault evidence: the injected kill took a shard host down, so
  // the launcher must have resharded (unless the killed node hosted no
  // shard), and no extent may have been lost — a single shard death always
  // leaves the replica copy.
  bool vault_ok = true;
  storage::VaultStats vault_stats;
  if (vault.has_value()) {
    vault_stats = vault->stats();
    if (restarts > 0 && ranks / 2 < shards && vault_stats.rebalances == 0) {
      std::printf("vault: shard host %d died but no reshard ran\n", ranks / 2);
      vault_ok = false;
    }
    if (vault_stats.extents_lost != 0) {
      std::printf("vault: %llu extents lost during reshard\n",
                  static_cast<unsigned long long>(vault_stats.extents_lost));
      vault_ok = false;
    }
  }

  // Scrub evidence: every rank of both runs ran the scrubber; with
  // --bitflip each injected flip must have been detected AND repaired,
  // and nothing may remain unrepaired (every demo region is mirror-backed
  // or untouched).
  std::uint64_t scrub_passes = 0;
  std::uint64_t scrub_detected = 0;
  std::uint64_t scrub_repaired = 0;
  std::uint64_t scrub_unrepaired = 0;
  bool scrub_ok = true;
  if (scrub.interval_s > 0.0) {
    scrub_passes = telemetry::metrics().counter("scrub.passes").value();
    scrub_detected = telemetry::metrics().counter("scrub.corruption_detected").value();
    scrub_repaired = telemetry::metrics().counter("scrub.repaired").value();
    scrub_unrepaired = telemetry::metrics().counter("scrub.unrepaired").value();
    if (scrub_passes == 0) {
      std::printf("scrub: the background scrubber never completed a pass\n");
      scrub_ok = false;
    }
    if (scrub.bitflip && (scrub_detected == 0 || scrub_repaired == 0)) {
      std::printf("scrub: injected bit flip was not detected/repaired\n");
      scrub_ok = false;
    }
    if (scrub_unrepaired != 0) {
      std::printf("scrub: %llu chunks were detected but NOT repaired\n",
                  static_cast<unsigned long long>(scrub_unrepaired));
      scrub_ok = false;
    }
  }

  bool telemetry_ok = true;
  if (!telemetry_prefix.empty()) {
    telemetry_ok = validate_telemetry(restores_before);

    const std::string trace_path = telemetry_prefix + "_trace.json";
    if (!telemetry::Tracer::instance().export_chrome_trace(trace_path)) {
      std::printf("telemetry: could not write %s\n", trace_path.c_str());
      telemetry_ok = false;
    }

    telemetry::RunReport report("ft_jacobi");
    report.set("grid_n", grid_n);
    report.set("ranks", static_cast<std::int64_t>(ranks));
    report.set("iterations", iterations);
    report.set("ckpt_every", ckpt_every);
    report.set("clean_norm", clean_norm);
    report.set("faulty_norm", faulty_norm);
    report.set("restarts", static_cast<std::int64_t>(restarts));
    report.set("identical", identical);
    if (!monitor_prefix.empty()) {
      report.set("monitor_ticks", monitor_ticks);
      report.set("postmortems", static_cast<std::uint64_t>(postmortems));
      report.set("detect_latency_s", detect_latency_s);
    }
    if (vault.has_value()) {
      report.set("vault_shards", static_cast<std::int64_t>(shards));
      report.set("vault_rebalances", vault_stats.rebalances);
      report.set("vault_extents_rehomed", vault_stats.extents_rehomed);
      report.set("vault_extents_lost", vault_stats.extents_lost);
      report.set("vault_degraded_reads", vault_stats.degraded_reads);
    }
    if (scrub.interval_s > 0.0) {
      report.set("scrub_interval_s", scrub.interval_s);
      report.set("scrub_parity", static_cast<std::int64_t>(scrub.parity));
      report.set("scrub_passes", scrub_passes);
      report.set("scrub_corruption_detected", scrub_detected);
      report.set("scrub_repaired", scrub_repaired);
      report.set("scrub_unrepaired", scrub_unrepaired);
    }
    const std::string report_path = telemetry_prefix + "_report.json";
    if (!report.write(report_path)) {
      std::printf("telemetry: could not write %s\n", report_path.c_str());
      telemetry_ok = false;
    }
  }

  std::printf("\n=== fault-tolerant Jacobi ===\n");
  util::Table table({"metric", "value"});
  table.add_row({"grid", std::to_string(grid_n) + " x " + std::to_string(grid_n)});
  table.add_row({"iterations", std::to_string(iterations)});
  table.add_row({"fault-free field norm", util::format("{:.9e}", clean_norm)});
  table.add_row({"recovered field norm", util::format("{:.9e}", faulty_norm)});
  table.add_row({"node losses survived", std::to_string(restarts)});
  table.add_row({"bitwise identical result", identical ? "yes" : "NO"});
  if (!telemetry_prefix.empty()) {
    table.add_row({"telemetry artifacts", telemetry_ok ? "written + validated" : "INCOMPLETE"});
  }
  if (vault.has_value()) {
    table.add_row({"vault shards", std::to_string(shards)});
    table.add_row({"vault reshards / extents re-homed",
                   std::to_string(vault_stats.rebalances) + " / " +
                       std::to_string(vault_stats.extents_rehomed)});
    table.add_row({"vault evidence", vault_ok ? "validated" : "INCOMPLETE"});
  }
  if (scrub.interval_s > 0.0) {
    table.add_row({"scrub passes", std::to_string(scrub_passes)});
    table.add_row({"scrub detected/repaired", std::to_string(scrub_detected) + "/" +
                                                  std::to_string(scrub_repaired)});
    table.add_row({"scrub evidence", scrub_ok ? "validated" : "INCOMPLETE"});
  }
  if (!monitor_prefix.empty()) {
    table.add_row({"monitor ticks", std::to_string(monitor_ticks)});
    table.add_row({"postmortems written", std::to_string(postmortems)});
    if (detect_latency_s >= 0.0) {
      table.add_row({"measured detect latency", util::format_seconds(detect_latency_s)});
    }
    table.add_row({"monitor evidence", monitor_ok ? "validated" : "INCOMPLETE"});
  }
  table.print();
  return identical && telemetry_ok && monitor_ok && scrub_ok && vault_ok ? 0 : 1;
}
