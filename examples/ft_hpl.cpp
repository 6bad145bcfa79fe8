// Fault-tolerant HPL (SKT-HPL) demo: run a distributed Linpack solve with
// self-checkpointing and power off a compute node in the middle — the run
// recovers from in-memory checkpoints and still passes HPL verification.
//
// With --telemetry <prefix> the run records spans and metrics and writes
// <prefix>_trace.json (Chrome trace_event timeline) plus a RunReport at
// <prefix>_report.json with the per-phase histograms and wire counters.
//
//   ./ft_hpl [--n 384] [--nb 32] [--p 2] [--q 2] [--group 4]
//            [--strategy self|double|single|blcr] [--ckpt-every 2]
//            [--async] [--kill-panel 4] [--no-kill] [--telemetry out/hpl]
//            [--monitor out/hpl]
//
// --async switches commits to the background pipeline: the elimination
// loop pays only the stage copy and the encode/flush overlaps the next
// panels (the summary then reports the overlapped time and fraction).
//
// --monitor <prefix> arms the live health monitor: heartbeat-driven
// failure detection (the detect phase measures real latency into the
// launcher.detect_latency_s histogram), a POSTMORTEM_ft_hpl.json record of
// the kill, and a JSON-lines feed at <prefix>_feed.jsonl for
// scripts/monitor_demo.sh. Implies --telemetry artifacts at the same
// prefix unless --telemetry is given too.
#include <cstdio>
#include <optional>
#include <string>

#include "hpl/skt_hpl.hpp"
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

ckpt::Strategy parse_strategy(const std::string& name) {
  if (name == "self") return ckpt::Strategy::kSelf;
  if (name == "double") return ckpt::Strategy::kDouble;
  if (name == "single") return ckpt::Strategy::kSingle;
  if (name == "blcr") return ckpt::Strategy::kBlcr;
  throw std::invalid_argument("unknown strategy: " + name);
}

}  // namespace

int main(int argc, char** argv) {
  util::Options opts(argc, argv);
  util::set_log_level(opts.get("log", "info"));

  hpl::SktHplConfig config;
  config.hpl.n = opts.get_int("n", 384);
  config.hpl.nb = opts.get_int("nb", 32);
  config.hpl.grid_p = static_cast<int>(opts.get_int("p", 2));
  config.hpl.grid_q = static_cast<int>(opts.get_int("q", 2));
  config.group_size = static_cast<int>(opts.get_int("group", 4));
  config.ckpt_every_panels = opts.get_int("ckpt-every", 2);
  config.strategy = parse_strategy(opts.get("strategy", "self"));
  config.async = opts.get_bool("async", false);
  const std::string monitor_prefix = opts.get("monitor", "");
  std::string telemetry_prefix = opts.get("telemetry", "");
  if (telemetry_prefix.empty()) telemetry_prefix = monitor_prefix;
  if (!telemetry_prefix.empty()) telemetry::set_enabled(true);

  storage::Vault vault;
  config.vault = &vault;

  const int ranks = config.hpl.grid_p * config.hpl.grid_q;
  sim::Cluster cluster({.num_nodes = ranks, .spare_nodes = 2, .nodes_per_rack = 4});
  sim::FailureInjector injector;
  if (!opts.get_bool("no-kill", false)) {
    const int kill_panel = static_cast<int>(opts.get_int("kill-panel", 4));
    injector.add_rule(
        {.point = "hpl.panel", .world_rank = 1, .hit = kill_panel, .repeat = false});
    std::printf("will power off rank 1's node at elimination panel %d\n", kill_panel);
  }

  mpi::LauncherConfig launch_config{.max_restarts = 3, .detect_delay_s = 3.0};
  std::optional<telemetry::Aggregator> monitor;
  if (!monitor_prefix.empty()) {
    launch_config.health.enabled = true;
    launch_config.postmortem_name = "ft_hpl";
    telemetry::AggregatorConfig mc;
    mc.interval_s = 0.02;
    mc.feed_path = monitor_prefix + "_feed.jsonl";
    monitor.emplace(mc);
    monitor->start();
  }
  mpi::JobLauncher launcher(cluster, &injector, launch_config);
  hpl::SktHplResult last{};
  const mpi::LaunchResult result = launcher.run(ranks, [&](mpi::Comm& world) {
    const hpl::SktHplResult r = hpl::run_skt_hpl(world, config);
    if (world.rank() == 0) last = r;
  });
  if (monitor) monitor->stop();

  std::printf("\n=== SKT-HPL (%s) ===\n", std::string(ckpt::to_string(config.strategy)).c_str());
  util::Table table({"metric", "value"});
  table.add_row({"problem size N", std::to_string(config.hpl.n)});
  table.add_row({"grid", std::to_string(config.hpl.grid_p) + " x " +
                             std::to_string(config.hpl.grid_q)});
  table.add_row({"completed", result.success ? "yes" : "NO"});
  table.add_row({"restarts (node losses survived)", std::to_string(result.restarts)});
  table.add_row({"resumed from checkpoint", last.restored ? "yes" : "no"});
  table.add_row({"checkpoints in final attempt", std::to_string(last.checkpoints)});
  table.add_row({"commit mode", config.async ? "async (pipelined)" : "sync"});
  if (config.async) {
    table.add_row({"critical-path commit time", util::format_seconds(last.ckpt_total_s)});
    table.add_row({"overlapped worker time", util::format_seconds(last.ckpt_worker_total_s)});
    table.add_row({"overlap fraction", util::format("{:.1%}", last.overlap_fraction)});
  }
  table.add_row({"checkpoint size/process", util::format_bytes(last.ckpt_bytes)});
  table.add_row({"checksum size/process", util::format_bytes(last.checksum_bytes)});
  table.add_row({"dirty bytes (last commit)", util::format_bytes(last.dirty_bytes_last)});
  table.add_row({"dirty fraction (last / mean)",
                 util::format("{:.1%} / {:.1%}", last.dirty_fraction_last,
                              last.dirty_fraction_mean)});
  table.add_row({"GFLOP/s (final attempt)",
                 util::format("{:.2f}", last.hpl.gflops)});
  table.add_row({"residual (scaled)", util::format("{:.3e}", last.hpl.residual.scaled)});
  table.add_row({"HPL verification", last.hpl.residual.pass ? "PASSED" : "FAILED"});
  table.add_row({"total wall time", util::format_seconds(result.total_real_s)});
  if (monitor) {
    table.add_row({"monitor ticks", std::to_string(monitor->ticks())});
    table.add_row({"postmortems written", std::to_string(result.postmortems.size())});
    if (!result.cycles.empty() && result.cycles.front().detect_latency_s >= 0.0) {
      table.add_row({"measured detect latency",
                     util::format_seconds(result.cycles.front().detect_latency_s)});
    }
  }
  table.print();

  if (!telemetry_prefix.empty()) {
    telemetry::Tracer::instance().export_chrome_trace(telemetry_prefix + "_trace.json");
    telemetry::RunReport report("ft_hpl");
    report.set("n", config.hpl.n);
    report.set("nb", config.hpl.nb);
    report.set("grid_p", static_cast<std::int64_t>(config.hpl.grid_p));
    report.set("grid_q", static_cast<std::int64_t>(config.hpl.grid_q));
    report.set("strategy", ckpt::to_string(config.strategy));
    report.set("completed", result.success);
    report.set("restarts", static_cast<std::int64_t>(result.restarts));
    report.set("resumed_from_checkpoint", last.restored);
    report.set("checkpoints_final_attempt", static_cast<std::int64_t>(last.checkpoints));
    report.set("async_commit", config.async);
    if (config.async) {
      report.set("ckpt_stage_total_s", last.ckpt_stage_total_s);
      report.set("ckpt_worker_total_s", last.ckpt_worker_total_s);
      report.set("overlap_fraction", last.overlap_fraction);
    }
    report.set("ckpt_bytes_per_process", static_cast<std::uint64_t>(last.ckpt_bytes));
    report.set("checksum_bytes_per_process", static_cast<std::uint64_t>(last.checksum_bytes));
    report.set("dirty_bytes_last_commit", static_cast<std::uint64_t>(last.dirty_bytes_last));
    report.set("dirty_bytes_total", static_cast<std::uint64_t>(last.dirty_bytes_total));
    report.set("dirty_fraction_last", last.dirty_fraction_last);
    report.set("dirty_fraction_mean", last.dirty_fraction_mean);
    if (monitor) {
      report.set("monitor_ticks", monitor->ticks());
      report.set("postmortems", static_cast<std::int64_t>(result.postmortems.size()));
      if (!result.cycles.empty()) {
        report.set("detect_latency_s", result.cycles.front().detect_latency_s);
        report.set("detect_phi", result.cycles.front().detect_phi);
      }
    }
    report.set("gflops_final_attempt", last.hpl.gflops);
    report.set("residual_scaled", last.hpl.residual.scaled);
    report.set("verification_passed", last.hpl.residual.pass);
    report.set("total_real_s", result.total_real_s);
    report.write(telemetry_prefix + "_report.json");
  }

  if (!result.success) std::printf("failure: %s\n", result.failure.c_str());
  return result.success && last.hpl.residual.pass ? 0 : 1;
}
