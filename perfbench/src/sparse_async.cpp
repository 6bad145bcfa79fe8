// sparse_async — a closed-loop commit stream through the library's front
// door.
//
// Four ranks of 8 MiB each, self-checkpoint with XOR over one group of 4,
// CommitMode::kAsync and a 50 ms scrubber cadence. Each epoch every rank
// runs a fixed number of 3-point stencil sweeps over a seeded window that
// lies wholly inside its last stripe (the one holding the user state),
// marks the window dirty and calls commit_async. One client: the 4-rank
// job waits for each epoch before issuing the next. Nearly all the time
// goes to ckpt (stage, backpressure, the worker's encode/seal/flush,
// scrubber exclusion) and to the encode collectives; none to hpl. An op
// is one epoch: the sweeps, mark_dirty and the commit_async call.
//
// After the timed loop and a final drain(), the seeded victim rank is
// killed at a benchmark-owned failpoint; the relaunched job must restore
// every rank's buffer and user state bit for bit from the last epoch.
#include <atomic>
#include <cstring>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <vector>

#include "ckpt/session.hpp"
#include "mpi/launcher.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

constexpr int kRanks = 4;
constexpr std::size_t kDataBytes = std::size_t{8} << 20;
constexpr std::size_t kWindowDoubles = 8192;  // 64 KiB
constexpr int kSweeps = 16;
constexpr double kScrubIntervalS = 0.05;
/// Epochs per batch of the traced run: batches alternate untraced/traced,
/// and spans are harvested between batches so no ring wraps.
constexpr std::uint64_t kBatch = 32;
constexpr int kSetupTrials = 8;
constexpr std::uint64_t kFillStream = 2;
constexpr std::uint64_t kWindowStream = 3;
constexpr std::uint64_t kVictimStream = 4;
constexpr const char* kKillPoint = "bench.sparse_kill";

struct EpochState {
  std::uint64_t epoch = 0;
  std::uint64_t seed = 0;
};

struct RankLog {
  double open_s = 0.0;
  double mem_frac = 0.0;
  bool fresh = false;
  double expected_dirty = 0.0;
  // Per epoch.
  std::vector<double> op_s, commit_s, commit_cpu, stage_s, backpressure_s;
  std::vector<double> pipeline_s, flush_s, encode_s, encode_wire, dirty_fraction;
  std::vector<double> barrier_us, exclusion_us;
  std::uint64_t scrub_passes = 0;
  std::uint64_t scrub_chunks = 0;
  // The last epoch's image, and what the relaunched job restored.
  std::vector<std::byte> shadow_data, shadow_user;
  bool restored = false;
  bool restored_match = false;
};

struct Job {
  const RunOptions& options;
  bool timed = false;
  std::vector<RankLog> ranks = std::vector<RankLog>(kRanks);
  std::atomic<bool> shadow_ready{false};
  // Written by rank 0 only.
  Clock::time_point ready{};
  double ready_cpu = 0.0;
  double loop_s = 0.0;
  std::vector<double> epoch_cpu;  // process CPU seconds per epoch
  double spans_dropped = 0.0;
  std::vector<std::uint8_t> epoch_traced;
  std::vector<double> commit_wire, commit_msgs, commit_copied;  // per traced batch

  explicit Job(const RunOptions& o) : options(o) {}
};

skt::ckpt::Session build_session(skt::mpi::Comm& world) {
  return skt::ckpt::SessionBuilder{}
      .strategy(skt::ckpt::Strategy::kSelf)
      .codec(skt::enc::CodecKind::kXor)
      .group_size(kRanks)
      .key_prefix("bench.sparse")
      .data_bytes(kDataBytes)
      .user_bytes(sizeof(EpochState))
      .mode(skt::ckpt::CommitMode::kAsync)
      .scrub_interval(kScrubIntervalS)
      .build(world);
}

/// In-place 3-point smoothing of x[0..n), ends held fixed.
void stencil(double* x, std::size_t n) {
  for (int sweep = 0; sweep < kSweeps; ++sweep) {
    double prev = x[0];
    for (std::size_t i = 1; i + 1 < n; ++i) {
      const double cur = x[i];
      x[i] = 0.25 * prev + 0.5 * cur + 0.25 * x[i + 1];
      prev = cur;
    }
  }
}

void restore_and_compare(skt::mpi::Comm& world, Job& job) {
  RankLog& log = job.ranks[static_cast<std::size_t>(world.rank())];
  skt::ckpt::Session session = build_session(world);
  log.restored = session.open() == skt::ckpt::OpenOutcome::kRestored;
  const std::span<std::byte> data = session.data();
  const std::span<std::byte> user = session.user_state();
  log.restored_match =
      log.restored && data.size() == log.shadow_data.size() &&
      user.size() == log.shadow_user.size() &&
      std::memcmp(data.data(), log.shadow_data.data(), data.size()) == 0 &&
      std::memcmp(user.data(), log.shadow_user.data(), user.size()) == 0;
}

void epoch_loop(skt::mpi::Comm& world, Job& job) {
  if (job.shadow_ready.load()) {
    restore_and_compare(world, job);
    return;
  }
  const int me = world.rank();
  RankLog& log = job.ranks[static_cast<std::size_t>(me)];

  skt::ckpt::Session session = build_session(world);
  Clock::time_point t = Clock::now();
  log.fresh = session.open() == skt::ckpt::OpenOutcome::kFresh;
  log.open_s = seconds_between(t, Clock::now());
  log.mem_frac = static_cast<double>(kDataBytes) / static_cast<double>(session.memory_bytes());

  auto* state = reinterpret_cast<EpochState*>(session.user_state().data());
  auto* x = reinterpret_cast<double*>(session.data().data());
  const std::size_t doubles = kDataBytes / sizeof(double);
  skt::util::Xoshiro256 fill(derive_seed(job.options.seed, kFillStream, me));
  for (std::size_t i = 0; i < doubles; ++i) x[i] = fill.next_centered();
  state->epoch = 0;
  state->seed = job.options.seed;
  // First (full) commit: part of setup.
  session.commit_async().wait();
  world.barrier();
  if (me == 0) {
    job.ready = Clock::now();
    job.ready_cpu = process_cpu_s();
  }
  if (!job.timed) return;

  // The window lies inside the last stripe: [last_begin, kDataBytes).
  const skt::ckpt::DirtyTracker& tracker = *session.unsafe_protocol().dirty_tracker();
  const std::size_t last_begin = (tracker.stripe_count() - 1) * tracker.stripe_bytes();
  const std::size_t first_double = (last_begin + sizeof(double) - 1) / sizeof(double);
  if (first_double + kWindowDoubles > doubles) {
    throw std::logic_error("sparse_async: window does not fit the last stripe");
  }
  const std::size_t window_slots = doubles - kWindowDoubles - first_double + 1;
  log.expected_dirty = 1.0 / static_cast<double>(tracker.stripe_count());

  std::mutex& exclusion = session.scrubber()->commit_exclusion();
  const skt::ckpt::ScrubStats scrub_before = session.scrubber()->stats();
  const bool trace = job.options.trace;
  Traffic empty;
  Traffic control;  // per-epoch traffic of agree() and the barrier probe
  if (trace) {
    empty = empty_bracket(world);
    const Traffic d = bracket(world, [&] {
      for (int i = 0; i < 16; ++i) {
        (void)probe_barrier_us(world);
        (void)agree(world, true);
      }
    }) - empty;
    control = {d.wire_bytes / 16, d.messages / 16, d.copied_bytes / 16};
  }

  skt::ckpt::CommitTicket pending;
  const auto reap = [&] {
    if (!pending.valid()) return;
    const skt::ckpt::CommitStats stats = pending.wait();
    log.pipeline_s.push_back(stats.encode_s + stats.flush_s);
    log.flush_s.push_back(stats.flush_s);
    log.encode_s.push_back(stats.encode_s);
    log.encode_wire.push_back(static_cast<double>(stats.encode_wire_bytes));
    log.dirty_fraction.push_back(stats.dirty_fraction);
    pending = {};
  };

  SpanSink sink;
  Traffic batch_start;
  std::uint64_t batch_epochs = 0;
  bool batch_traced = false;
  const auto end_batch = [&] {
    // Quiescent point: no epoch in flight, every rank between barriers.
    reap();
    world.barrier();
    if (me == 0 && batch_traced) {
      sink.harvest();
      const Traffic d = traffic_now() - batch_start - empty;
      const double n = static_cast<double>(batch_epochs);
      job.commit_wire.push_back((d.wire_bytes - n * control.wire_bytes) / n);
      job.commit_msgs.push_back((d.messages - n * control.messages) / n);
      job.commit_copied.push_back((d.copied_bytes - n * control.copied_bytes) / n);
    }
  };

  const Clock::time_point loop_start = Clock::now();
  double epoch_cpu0 = process_cpu_s();
  for (std::uint64_t e = 0;; ++e) {
    if (trace && e % kBatch == 0) {
      if (e > 0) end_batch();
      batch_traced = (e / kBatch) % 2 == 1;
      batch_epochs = 0;
      world.barrier();
      if (me == 0) {
        set_tracing(batch_traced);
        batch_start = traffic_now();
      }
      world.barrier();
    }
    const bool traced = trace && batch_traced;
    ++batch_epochs;
    if (me == 0) job.epoch_traced.push_back(traced ? 1 : 0);

    skt::util::Xoshiro256 rng(
        derive_seed(job.options.seed, kWindowStream, e * kRanks + static_cast<std::uint64_t>(me)));
    const std::size_t begin = first_double + rng.next_below(window_slots);
    double commit_s = 0.0;
    double commit_cpu = 0.0;
    skt::ckpt::CommitTicket ticket;
    const Clock::time_point op0 = Clock::now();
    {
      SKT_SPAN("bench.epoch");
      stencil(x + begin, kWindowDoubles);
      session.mark_dirty(begin * sizeof(double), kWindowDoubles * sizeof(double));
      state->epoch = e + 1;
      if (traced && pending.valid()) {
        // Wait out the previous epoch here (commit_async would), then time
        // how long the scrubber keeps the commit exclusion from us.
        const Clock::time_point w0 = Clock::now();
        const double u0 = thread_cpu_s();
        {
          SKT_SPAN("bench.wait_previous_epoch");
          pending.wait();
        }
        commit_cpu += thread_cpu_s() - u0;
        commit_s += seconds_between(w0, Clock::now());
        const Clock::time_point x0 = Clock::now();
        { const std::lock_guard<std::mutex> lock(exclusion); }
        log.exclusion_us.push_back(seconds_between(x0, Clock::now()) * 1e6);
      }
      SKT_SPAN("bench.commit_async");
      const Clock::time_point c0 = Clock::now();
      const double u0 = thread_cpu_s();
      ticket = session.commit_async();
      commit_cpu += thread_cpu_s() - u0;
      commit_s += seconds_between(c0, Clock::now());
    }
    log.op_s.push_back(seconds_between(op0, Clock::now()));
    log.commit_s.push_back(commit_s);
    log.commit_cpu.push_back(commit_cpu);
    log.stage_s.push_back(ticket.stage_seconds());
    log.backpressure_s.push_back(commit_s - ticket.stage_seconds());
    reap();  // the previous epoch: already resolved by commit_async
    pending = ticket;

    if (traced) log.barrier_us.push_back(probe_barrier_us(world));
    const bool more = agree(world, seconds_between(loop_start, Clock::now()) < job.options.seconds);
    if (me == 0) {
      // Epoch e's window also holds the worker's pipeline of epoch e - 1.
      const double cpu = process_cpu_s();
      job.epoch_cpu.push_back(cpu - epoch_cpu0);
      epoch_cpu0 = cpu;
    }
    if (!more) break;
  }
  if (trace) {
    end_batch();
  } else {
    reap();
  }
  const skt::ckpt::ScrubStats scrub_after = session.scrubber()->stats();
  log.scrub_passes = scrub_after.passes - scrub_before.passes;
  log.scrub_chunks = scrub_after.chunks_verified - scrub_before.chunks_verified;
  world.barrier();
  if (me == 0) {
    job.loop_s = seconds_between(loop_start, Clock::now());
    set_tracing(false);
    if (trace) {
      job.spans_dropped = static_cast<double>(sink.dropped());
      sink.write(job.options.out_dir + "/trace_sparse_async_" +
                 std::to_string(job.options.seed) + ".json");
    }
  }

  // Untimed correctness check: kill the seeded victim after the drain and
  // expect the relaunch to restore exactly this image.
  log.shadow_data.assign(session.data().begin(), session.data().end());
  log.shadow_user.assign(session.user_state().begin(), session.user_state().end());
  // Set before the barrier: once a rank leaves it the victim may die, and
  // the abort can interrupt rank 0 while it is still inside.
  if (me == 0) job.shadow_ready.store(true);
  world.barrier();
  world.failpoint(kKillPoint);
  world.barrier();  // survivors observe the abort here
  throw std::logic_error("sparse_async: the victim rank was not killed");
}

}  // namespace

void run_sparse_async(const RunOptions& options, Outcome& outcome) {
  std::vector<double> setup_s;
  std::vector<double> setup_cpu;
  std::vector<double> open_s;
  std::unique_ptr<Job> timed;
  for (int trial = 0; trial <= kSetupTrials; ++trial) {
    release_free_memory();
    auto job = std::make_unique<Job>(options);
    job->timed = trial == kSetupTrials;
    const Clock::time_point start = Clock::now();
    const double start_cpu = process_cpu_s();
    skt::sim::Cluster cluster({.num_nodes = kRanks, .spare_nodes = 1, .nodes_per_rack = kRanks});
    skt::sim::FailureInjector injector;
    const int victim = static_cast<int>(derive_seed(options.seed, kVictimStream, 0) % kRanks);
    injector.add_rule({.point = kKillPoint, .world_rank = victim, .hit = 1});
    skt::mpi::JobLauncher launcher(cluster, &injector,
                                   {.max_restarts = job->timed ? 1 : 0,
                                    .runtime = {.model_network = false}});
    const auto result =
        launcher.run(kRanks, [&](skt::mpi::Comm& world) { epoch_loop(world, *job); });
    if (!result.success) {
      std::string reasons;
      for (const auto& cycle : result.cycles) reasons += " [" + cycle.reason + "]";
      outcome.fail("sparse_async launch failed: " + result.failure + reasons);
      outcome.count_op(false, "epoch aborted");
      return;
    }
    setup_s.push_back(seconds_between(start, job->ready));
    setup_cpu.push_back(job->ready_cpu - start_cpu);
    double open = 0.0;
    for (const RankLog& log : job->ranks) {
      open = std::max(open, log.open_s);
      if (!log.fresh) outcome.fail("sparse_async: open() of a new job did not return kFresh");
    }
    open_s.push_back(open);
    if (job->timed) {
      if (result.restarts != 1 || result.cycles.size() != 1 ||
          result.cycles[0].lost_ranks != std::vector<int>{victim}) {
        outcome.fail("sparse_async: expected one relaunch after losing rank " +
                     std::to_string(victim));
      }
      timed = std::move(job);
    }
  }

  const Job& job = *timed;
  std::vector<std::vector<double>> op, commit, commit_cpu, stage, backpressure, pipeline, flush, encode,
      wire, dirty, barrier;
  std::vector<double> exclusion;
  std::uint64_t scrub_passes = 0;
  std::uint64_t scrub_chunks = 0;
  for (const RankLog& log : job.ranks) {
    op.push_back(log.op_s);
    commit.push_back(log.commit_s);
    commit_cpu.push_back(log.commit_cpu);
    stage.push_back(log.stage_s);
    backpressure.push_back(log.backpressure_s);
    pipeline.push_back(log.pipeline_s);
    flush.push_back(log.flush_s);
    encode.push_back(log.encode_s);
    wire.push_back(log.encode_wire);
    dirty.push_back(log.dirty_fraction);
    barrier.push_back(log.barrier_us);
    exclusion.insert(exclusion.end(), log.exclusion_us.begin(), log.exclusion_us.end());
    scrub_passes += log.scrub_passes;
    scrub_chunks += log.scrub_chunks;
    if (!log.restored) outcome.fail("sparse_async: relaunched open() did not restore");
    if (!log.restored_match) {
      outcome.fail("sparse_async: restored image differs from the last epoch's shadow copy");
    }
    for (const double f : log.dirty_fraction) {
      if (f != log.expected_dirty) {
        outcome.fail("sparse_async: dirty_fraction " + std::to_string(f) + " != " +
                     std::to_string(log.expected_dirty));
        break;
      }
    }
  }
  const std::vector<double> op_s = slowest(op);
  const std::vector<double> commit_s = slowest(commit);
  const std::vector<double> resolved = slowest(pipeline);  // epochs whose ticket resolved
  for (std::size_t e = 0; e < op_s.size(); ++e) {
    outcome.count_op(e < resolved.size(), "sparse_async: epoch " + std::to_string(e) +
                                              " ticket did not resolve");
  }

  if (!options.trace) {
    const std::vector<double> cpu = summed(commit_cpu);
    outcome.set("setup_s", median(setup_cpu));
    outcome.set("op_cpu_ms", median(job.epoch_cpu) * 1e3);
    outcome.set("commit_cpu_p50_ms", quantile(cpu, 0.5) * 1e3);
    outcome.set("commit_cpu_p90_ms", quantile(cpu, 0.9) * 1e3);
    outcome.set("app_mem_frac", job.ranks[0].mem_frac);
    return;
  }

  const auto traced_only = [&](const std::vector<double>& v, bool want = true) {
    std::vector<double> out;
    for (std::size_t e = 0; e < v.size() && e < job.epoch_traced.size(); ++e) {
      if ((job.epoch_traced[e] != 0) == want) out.push_back(v[e]);
    }
    return out;
  };
  const std::vector<double> bp = traced_only(slowest(backpressure));
  const std::vector<double> plain_commits = traced_only(commit_s, false);
  outcome.set("wall.setup_s", median(setup_s));
  outcome.set("wall.op_p50_ms", median(traced_only(op_s, false)) * 1e3);
  outcome.set("wall.commit_p50_ms", quantile(plain_commits, 0.5) * 1e3);
  outcome.set("wall.commit_p90_ms", quantile(plain_commits, 0.9) * 1e3);
  outcome.set("wall.commits_per_s", static_cast<double>(resolved.size()) / job.loop_s);
  outcome.set("ckpt.open_ms", median(open_s) * 1e3);
  outcome.set("ckpt.stage_ms", median(traced_only(slowest(stage))) * 1e3);
  outcome.set("ckpt.backpressure_p50_ms", quantile(bp, 0.5) * 1e3);
  outcome.set("ckpt.backpressure_p90_ms", quantile(bp, 0.9) * 1e3);
  outcome.set("ckpt.pipeline_ms", median(traced_only(resolved)) * 1e3);
  outcome.set("ckpt.flush_ms", median(traced_only(slowest(flush))) * 1e3);
  outcome.set("ckpt.dirty_fraction", median(traced_only(slowest(dirty))));
  outcome.set("ckpt.scrub_passes", static_cast<double>(scrub_passes));
  outcome.set("ckpt.scrub_mib_per_s",
              static_cast<double>(scrub_chunks) *
                  static_cast<double>(skt::ckpt::Scrubber::Options{}.chunk_bytes) /
                  (1 << 20) / job.loop_s);
  outcome.set("ckpt.exclusion_wait_p99_us", quantile(exclusion, 0.99));
  outcome.set("ckpt.exclusion_wait_max_us", max_of(exclusion));
  outcome.set("encoding.encode_ms", median(traced_only(slowest(encode))) * 1e3);
  outcome.set("encoding.encode_wire_mib", median(traced_only(slowest(wire))) / (1 << 20));
  const std::vector<double> probes = slowest(barrier);
  outcome.set("mpi.barrier_p50_us", quantile(probes, 0.5));
  outcome.set("mpi.barrier_p90_us", quantile(probes, 0.9));
  outcome.set("mpi.wire_mib_per_commit", median(job.commit_wire) / (1 << 20));
  outcome.set("mpi.messages_per_commit", median(job.commit_msgs));
  outcome.set("mpi.copied_mib_per_commit", median(job.commit_copied) / (1 << 20));
  outcome.set("telemetry.trace_overhead_frac",
              median(traced_only(op_s)) / median(traced_only(op_s, false)) - 1.0);
  outcome.set("telemetry.spans_dropped", job.spans_dropped);
  if (job.spans_dropped > 0) outcome.fail("sparse_async: trace rings overflowed");
  outcome.set("bench.ops", static_cast<double>(op_s.size()));
  outcome.set("bench.commits", static_cast<double>(resolved.size()));
}

}  // namespace perfbench
