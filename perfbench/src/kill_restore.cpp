// kill_restore — the work-fail-detect-restart cycle of Fig. 10, measured.
//
// Each incident builds a fresh Cluster (4 nodes + 1 spare) and a
// JobLauncher with heartbeat detection on and every modeled delay at 0.
// The job (4 ranks, self-checkpoint, XOR, one group of 4, 4 MiB per rank)
// rewrites its whole buffer each iteration and commits synchronously. One
// node dies per incident: the seed picks the victim rank, the failpoint
// (iteration boundary, ckpt.begin, ckpt.encode_done, ckpt.sealed,
// ckpt.mid_flush) and the hit. The launcher detects the loss, swaps in the
// spare and relaunches; the relaunched job's open() must restore every
// rank's full buffer and iteration counter. This is the only workload on
// the read side of ckpt and encoding (restore, rebuild in both Fig. 4
// cases), the launcher, the spare swap and telemetry detection. An op is
// one recovery: node power-off (T0) until the last rank's open() returns
// kRestored with verified bytes (T3).
#include <algorithm>
#include <array>
#include <atomic>
#include <cstring>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "ckpt/session.hpp"
#include "mpi/launcher.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

constexpr int kRanks = 4;
constexpr std::size_t kDataBytes = std::size_t{4} << 20;
/// Iterations the first attempt would run. Kills land in iterations 2..4,
/// after at least one completed commit past the setup commit.
constexpr int kFirstKillIteration = 2;
constexpr int kKillIterations = 3;
constexpr int kMaxIterations = kFirstKillIteration + kKillIterations;
constexpr std::array<const char*, 5> kFailpoints{
    "bench.iteration", "ckpt.begin", "ckpt.encode_done", "ckpt.sealed", "ckpt.mid_flush"};
constexpr std::uint64_t kIncidentStream = 5;
constexpr std::uint64_t kScheduleStream = 6;
constexpr std::uint64_t kPatternMagic = 0x6b696c6c;

struct IterState {
  std::uint64_t iteration = 0;
  std::uint64_t magic = 0;
};

/// The buffer contents of (incident, rank) after `iteration`.
void fill_pattern(std::span<std::byte> data, std::uint64_t incident_seed, int rank,
                  std::uint64_t iteration) {
  skt::util::Xoshiro256 rng(derive_seed(incident_seed, static_cast<std::uint64_t>(rank) + 1,
                                        iteration));
  const std::size_t words = data.size() / sizeof(std::uint64_t);
  for (std::size_t i = 0; i < words; ++i) {
    const std::uint64_t v = rng.next();
    std::memcpy(data.data() + i * sizeof(v), &v, sizeof(v));
  }
}

skt::ckpt::Session build_session(skt::mpi::Comm& world) {
  return skt::ckpt::SessionBuilder{}
      .strategy(skt::ckpt::Strategy::kSelf)
      .codec(skt::enc::CodecKind::kXor)
      .group_size(kRanks)
      .key_prefix("bench.kill")
      .data_bytes(kDataBytes)
      .user_bytes(sizeof(IterState))
      .mode(skt::ckpt::CommitMode::kSync)
      .build(world);
}

struct RankLog {
  // First attempt.
  double open_s = 0.0;
  bool fresh = false;
  std::uint64_t iteration_at_abort = 0;
  Clock::time_point left{};
  std::vector<double> commit_s, commit_cpu, flush_s, encode_s, encode_wire, dirty_fraction,
      barrier_us;
  std::vector<double> commit_wire, commit_msgs, commit_copied;  // rank 0, traced
  // Relaunch.
  Clock::time_point entered{}, opened{};
  double opened_cpu = 0.0;  ///< process CPU seconds when open() returned
  bool restored = false;
  bool bytes_match = false;
  std::uint64_t restored_iteration = 0;
  std::uint64_t restored_epoch = 0;
  bool rebuilt = false;
  double rebuild_s = 0.0;
};

struct Incident {
  std::uint64_t seed = 0;
  int victim = 0;
  const char* failpoint = "";
  int iteration = 0;  ///< iteration whose boundary or commit the kill hits
  bool traced = false;
  double mem_frac = 0.0;

  std::atomic<bool> powered_off{false};
  Clock::time_point start{}, ready{}, power_off{};
  double start_cpu = 0.0, ready_cpu = 0.0, power_off_cpu = 0.0;  ///< process CPU seconds
  std::array<RankLog, kRanks> ranks{};
};

void first_attempt(skt::mpi::Comm& world, Incident& inc, RankLog& log) {
  const int me = world.rank();
  skt::ckpt::Session session = build_session(world);
  Clock::time_point t = Clock::now();
  log.fresh = session.open() == skt::ckpt::OpenOutcome::kFresh;
  log.open_s = seconds_between(t, Clock::now());
  if (me == 0) {
    inc.mem_frac = static_cast<double>(kDataBytes) / static_cast<double>(session.memory_bytes());
  }
  auto* state = reinterpret_cast<IterState*>(session.user_state().data());
  fill_pattern(session.data(), inc.seed, me, 0);
  *state = {0, kPatternMagic};
  session.commit();  // epoch 1 = iteration 0; part of setup
  world.barrier();
  if (me == 0) {
    inc.ready = Clock::now();
    inc.ready_cpu = process_cpu_s();
  }

  Traffic empty;
  if (inc.traced) empty = empty_bracket(world);
  for (int it = 1; it <= kMaxIterations; ++it) {
    log.iteration_at_abort = static_cast<std::uint64_t>(it);
    world.failpoint("bench.iteration");
    fill_pattern(session.data(), inc.seed, me, static_cast<std::uint64_t>(it));
    state->iteration = static_cast<std::uint64_t>(it);
    skt::ckpt::CommitStats stats;
    double commit_s = 0.0;
    double commit_cpu = 0.0;
    const auto commit = [&] {
      SKT_SPAN("bench.commit");
      const Clock::time_point c0 = Clock::now();
      const double u0 = thread_cpu_s();
      stats = session.commit();
      commit_cpu = thread_cpu_s() - u0;
      commit_s = seconds_between(c0, Clock::now());
    };
    if (inc.traced) {
      const Traffic d = bracket(world, commit) - empty;
      if (me == 0) {
        log.commit_wire.push_back(d.wire_bytes);
        log.commit_msgs.push_back(d.messages);
        log.commit_copied.push_back(d.copied_bytes);
      }
      log.barrier_us.push_back(probe_barrier_us(world));
    } else {
      commit();
    }
    log.commit_s.push_back(commit_s);
    log.commit_cpu.push_back(commit_cpu);
    log.flush_s.push_back(stats.flush_s);
    log.encode_s.push_back(stats.encode_s);
    log.encode_wire.push_back(static_cast<double>(stats.encode_wire_bytes));
    log.dirty_fraction.push_back(stats.dirty_fraction);
  }
}

void relaunch(skt::mpi::Comm& world, Incident& inc, RankLog& log) {
  const int me = world.rank();
  log.entered = Clock::now();
  skt::ckpt::Session session = build_session(world);
  log.restored = session.open() == skt::ckpt::OpenOutcome::kRestored;
  log.opened = Clock::now();
  log.opened_cpu = process_cpu_s();
  if (!log.restored) return;
  const skt::ckpt::RestoreStats& rs = *session.last_restore();
  log.restored_epoch = rs.epoch;
  log.rebuilt = rs.rebuilt_member;
  log.rebuild_s = rs.rebuild_s;
  IterState state;
  std::memcpy(&state, session.user_state().data(), sizeof(state));
  log.restored_iteration = state.iteration;
  std::vector<std::byte> expected(kDataBytes);
  fill_pattern(expected, inc.seed, me, state.iteration);
  log.bytes_match = state.magic == kPatternMagic &&
                    std::memcmp(expected.data(), session.data().data(), kDataBytes) == 0;
}

void incident_job(skt::mpi::Comm& world, Incident& inc) {
  RankLog& log = inc.ranks[static_cast<std::size_t>(world.rank())];
  if (inc.powered_off.load()) {
    relaunch(world, inc, log);
    return;
  }
  try {
    first_attempt(world, inc, log);
  } catch (const skt::mpi::JobAborted&) {
    log.left = Clock::now();
    throw;
  }
}

/// Measured results of one incident.
struct Sample {
  bool ok = false;
  double setup_s = 0.0, setup_cpu = 0.0, open_s = 0.0;
  double recovery_s = 0.0, recovery_cpu = 0.0, abort_s = 0.0, relaunch_s = 0.0, restore_s = 0.0;
  double rebuild_s = 0.0, detect_s = 0.0, replace_s = 0.0;
  std::vector<double> commit_s, commit_cpu, flush_s, encode_s, encode_wire, dirty_fraction,
      barrier_us;
  std::vector<double> commit_wire, commit_msgs, commit_copied;
};

Sample run_incident(Incident& inc, SpanSink& sink, Outcome& outcome) {
  Sample out;
  inc.start = Clock::now();
  inc.start_cpu = process_cpu_s();
  skt::sim::Cluster cluster({.num_nodes = kRanks, .spare_nodes = 1, .nodes_per_rack = kRanks});
  const int observer = cluster.add_power_off_observer([&inc](int, const std::string&) {
    inc.power_off = Clock::now();
    inc.power_off_cpu = process_cpu_s();
    inc.powered_off.store(true);
  });
  skt::sim::FailureInjector injector;
  const bool in_commit = inc.failpoint != kFailpoints[0];
  // The setup commit passes every ckpt.* failpoint once before iteration 1.
  injector.add_rule(
      {.point = inc.failpoint, .world_rank = inc.victim, .hit = inc.iteration + (in_commit ? 1 : 0)});
  skt::mpi::LauncherConfig config{.max_restarts = 1,
                                  .health = {.enabled = true},
                                  .runtime = {.model_network = false}};
  skt::mpi::JobLauncher launcher(cluster, &injector, config);
  skt::mpi::LaunchResult result;
  {
    SKT_SPAN("bench.incident");
    result = launcher.run(kRanks, [&](skt::mpi::Comm& world) { incident_job(world, inc); });
  }
  cluster.remove_power_off_observer(observer);

  const std::string what = std::string("kill_restore: incident at ") + inc.failpoint + " hit " +
                           std::to_string(inc.iteration) + " on rank " +
                           std::to_string(inc.victim);
  if (!result.success || result.restarts != 1 || result.cycles.size() != 1 ||
      result.cycles[0].lost_ranks != std::vector<int>{inc.victim}) {
    outcome.count_op(false, what + ": no single relaunch (" + result.failure + ")");
    return out;
  }
  Clock::time_point left = inc.power_off;
  Clock::time_point entered = Clock::time_point::max();
  Clock::time_point opened = inc.power_off;
  double opened_cpu = inc.power_off_cpu;
  const std::uint64_t cut = inc.ranks[static_cast<std::size_t>(inc.victim)].iteration_at_abort;
  bool ok = true;
  for (const RankLog& log : inc.ranks) {
    left = std::max(left, log.left);
    entered = std::min(entered, log.entered);
    opened = std::max(opened, log.opened);
    opened_cpu = std::max(opened_cpu, log.opened_cpu);
    ok = ok && log.fresh && log.restored && log.bytes_match &&
         log.restored_iteration == inc.ranks[0].restored_iteration &&
         log.restored_epoch == log.restored_iteration + 1 &&
         (log.restored_iteration == cut || log.restored_iteration + 1 == cut);
    if (log.rebuilt) out.rebuild_s = log.rebuild_s;
  }
  outcome.count_op(ok, what + ": restored state is wrong");
  if (!ok) return out;

  out.ok = true;
  out.setup_s = seconds_between(inc.start, inc.ready);
  out.setup_cpu = inc.ready_cpu - inc.start_cpu;
  out.recovery_cpu = opened_cpu - inc.power_off_cpu;
  for (const RankLog& log : inc.ranks) out.open_s = std::max(out.open_s, log.open_s);
  out.recovery_s = seconds_between(inc.power_off, opened);
  out.abort_s = seconds_between(inc.power_off, left);
  out.relaunch_s = seconds_between(left, entered);
  out.restore_s = seconds_between(entered, opened);
  out.detect_s = result.cycles[0].detect_latency_s;
  out.replace_s = result.cycles[0].replace_s;
  // Commits every rank completed before the kill.
  std::vector<std::vector<double>> commit, commit_cpu, flush, encode, wire, dirty, barrier;
  for (const RankLog& log : inc.ranks) {
    commit.push_back(log.commit_s);
    commit_cpu.push_back(log.commit_cpu);
    flush.push_back(log.flush_s);
    encode.push_back(log.encode_s);
    wire.push_back(log.encode_wire);
    dirty.push_back(log.dirty_fraction);
    barrier.push_back(log.barrier_us);
  }
  out.commit_s = slowest(commit);
  out.commit_cpu = summed(commit_cpu);
  out.flush_s = slowest(flush);
  out.encode_s = slowest(encode);
  out.encode_wire = slowest(wire);
  out.dirty_fraction = slowest(dirty);
  out.barrier_us = slowest(barrier);
  const RankLog& r0 = inc.ranks[0];
  const std::size_t done = out.commit_s.size();
  out.commit_wire.assign(r0.commit_wire.begin(),
                         r0.commit_wire.begin() + std::min(done, r0.commit_wire.size()));
  out.commit_msgs.assign(r0.commit_msgs.begin(),
                         r0.commit_msgs.begin() + std::min(done, r0.commit_msgs.size()));
  out.commit_copied.assign(r0.commit_copied.begin(),
                           r0.commit_copied.begin() + std::min(done, r0.commit_copied.size()));
  if (inc.traced) {
    sink.add_phase("bench.abort", inc.power_off, left);
    sink.add_phase("bench.relaunch", left, entered);
    sink.add_phase("bench.open", entered, opened);
  }
  return out;
}

}  // namespace

void run_kill_restore(const RunOptions& options, Outcome& outcome) {
  SpanSink sink;
  std::vector<Sample> samples;
  double mem_frac = 0.0;
  constexpr std::size_t kCombos = kFailpoints.size() * kKillIterations;
  std::array<std::size_t, kCombos> order{};
  for (std::size_t k = 0; k < kCombos; ++k) order[k] = k;
  const Clock::time_point loop_start = Clock::now();
  for (std::uint64_t i = 0;
       i == 0 || seconds_between(loop_start, Clock::now()) < options.seconds; ++i) {
    if (i % kCombos == 0) {
      // A fresh seeded order of every (failpoint, hit) combination.
      skt::util::Xoshiro256 shuffle(derive_seed(options.seed, kScheduleStream, i / kCombos));
      for (std::size_t k = kCombos - 1; k > 0; --k) {
        std::swap(order[k], order[shuffle.next_below(k + 1)]);
      }
    }
    release_free_memory();
    auto inc = std::make_unique<Incident>();
    inc->seed = derive_seed(options.seed, kIncidentStream, i);
    const std::size_t combo = order[i % kCombos];
    inc->victim = static_cast<int>(skt::util::Xoshiro256(inc->seed).next_below(kRanks));
    inc->failpoint = kFailpoints[combo % kFailpoints.size()];
    inc->iteration = kFirstKillIteration + static_cast<int>(combo / kFailpoints.size());
    // Untraced and traced incidents alternate in the traced run.
    inc->traced = options.trace && i % 2 == 1;
    set_tracing(inc->traced);
    samples.push_back(run_incident(*inc, sink, outcome));
    set_tracing(false);
    if (inc->traced) sink.harvest();
    if (mem_frac == 0.0) mem_frac = inc->mem_frac;
  }
  const double loop_s = seconds_between(loop_start, Clock::now());

  // Per-layer metrics use the traced half of the incidents (the overhead
  // also the untraced half).
  enum class Pick { kAll, kTraced, kUntraced };
  const auto series = [&](auto member, Pick pick) {
    std::vector<double> out;
    for (std::size_t i = 0; i < samples.size(); ++i) {
      const bool traced = options.trace && i % 2 == 1;
      const bool keep = pick == Pick::kAll || (pick == Pick::kTraced) == traced;
      if (!samples[i].ok || !keep) continue;
      const auto& v = samples[i].*member;
      if constexpr (std::is_same_v<std::decay_t<decltype(v)>, double>) {
        out.push_back(v);
      } else {
        out.insert(out.end(), v.begin(), v.end());
      }
    }
    return out;
  };
  for (const double f : series(&Sample::dirty_fraction, Pick::kAll)) {
    if (f != 1.0) {
      outcome.fail("kill_restore: a full-buffer commit reported dirty_fraction != 1");
      break;
    }
  }

  if (!options.trace) {
    const std::vector<double> cpu = series(&Sample::commit_cpu, Pick::kAll);
    outcome.set("setup_s", median(series(&Sample::setup_cpu, Pick::kAll)));
    outcome.set("op_cpu_ms", median(series(&Sample::recovery_cpu, Pick::kAll)) * 1e3);
    outcome.set("commit_cpu_p50_ms", quantile(cpu, 0.5) * 1e3);
    outcome.set("commit_cpu_p90_ms", quantile(cpu, 0.9) * 1e3);
    outcome.set("app_mem_frac", mem_frac);
    return;
  }

  const auto ms = [&](auto member) { return median(series(member, Pick::kTraced)) * 1e3; };
  const std::vector<double> plain_commits = series(&Sample::commit_s, Pick::kUntraced);
  outcome.set("wall.setup_s", median(series(&Sample::setup_s, Pick::kAll)));
  outcome.set("wall.op_p50_ms", median(series(&Sample::recovery_s, Pick::kUntraced)) * 1e3);
  outcome.set("wall.commit_p50_ms", quantile(plain_commits, 0.5) * 1e3);
  outcome.set("wall.commit_p90_ms", quantile(plain_commits, 0.9) * 1e3);
  outcome.set("wall.commits_per_s",
              static_cast<double>(series(&Sample::commit_s, Pick::kAll).size()) / loop_s);
  const std::vector<double> recovery = series(&Sample::recovery_s, Pick::kTraced);
  const std::vector<double> barrier = series(&Sample::barrier_us, Pick::kTraced);
  outcome.set("ckpt.open_ms", ms(&Sample::open_s));
  outcome.set("ckpt.commit_ms", ms(&Sample::commit_s));
  outcome.set("ckpt.flush_ms", ms(&Sample::flush_s));
  outcome.set("ckpt.dirty_fraction", median(series(&Sample::dirty_fraction, Pick::kTraced)));
  outcome.set("ckpt.restore_ms", ms(&Sample::restore_s));
  outcome.set("encoding.encode_ms", ms(&Sample::encode_s));
  outcome.set("encoding.encode_wire_mib", median(series(&Sample::encode_wire, Pick::kTraced)) / (1 << 20));
  outcome.set("encoding.rebuild_ms", ms(&Sample::rebuild_s));
  outcome.set("mpi.barrier_p50_us", quantile(barrier, 0.5));
  outcome.set("mpi.barrier_p90_us", quantile(barrier, 0.9));
  outcome.set("mpi.wire_mib_per_commit", median(series(&Sample::commit_wire, Pick::kTraced)) / (1 << 20));
  outcome.set("mpi.messages_per_commit", median(series(&Sample::commit_msgs, Pick::kTraced)));
  outcome.set("mpi.copied_mib_per_commit",
              median(series(&Sample::commit_copied, Pick::kTraced)) / (1 << 20));
  outcome.set("mpi.abort_unwind_ms", ms(&Sample::abort_s));
  outcome.set("mpi.relaunch_ms", ms(&Sample::relaunch_s));
  outcome.set("mpi.replace_ms", ms(&Sample::replace_s));
  outcome.set("telemetry.detect_ms", ms(&Sample::detect_s));
  outcome.set("telemetry.trace_overhead_frac",
              median(recovery) / median(series(&Sample::recovery_s, Pick::kUntraced)) - 1.0);
  outcome.set("telemetry.spans_dropped", static_cast<double>(sink.dropped()));
  if (sink.dropped() > 0) outcome.fail("kill_restore: trace rings overflowed");
  outcome.set("bench.ops", static_cast<double>(samples.size()));
  outcome.set("bench.commits", static_cast<double>(series(&Sample::commit_s, Pick::kAll).size()));
  outcome.set("bench.recovery_p90_ms",
              quantile(series(&Sample::recovery_s, Pick::kAll), 0.9) * 1e3);
  sink.write(options.out_dir + "/trace_kill_restore_" + std::to_string(options.seed) + ".json");
}

}  // namespace perfbench
