// hpl_ckpt — fault-free SKT-HPL, the paper's headline (Fig. 11, Table 3).
//
// A 2x2 world solves seeded n=1536, nb=32 systems (about 4.5 MiB of matrix
// per rank) back to back in ONE job and ONE self-checkpoint Session (XOR,
// one group of 4). The panel hook commits synchronously every 4 panels, 12
// commits per solve. HPL never calls mark_dirty, so every commit is full
// footprint; the workload bypasses dirty tracking, the async engine, the
// scrubber and restore. An op is one solve: lu_factorize with its in-loop
// commits plus back_substitute, the region HPL's own timer covers.
#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "ckpt/session.hpp"
#include "hpl/driver.hpp"
#include "hpl/lu.hpp"
#include "mpi/grid.hpp"
#include "mpi/launcher.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

constexpr std::int64_t kN = 1536;
constexpr std::int64_t kNb = 32;
constexpr int kP = 2;
constexpr int kQ = 2;
constexpr int kRanks = kP * kQ;
constexpr std::int64_t kCommitEveryPanels = 4;
constexpr int kCommitsPerSolve = static_cast<int>(kN / kNb / kCommitEveryPanels);
/// Setup-only launches before the timed one; setup_s is the median of all.
constexpr int kSetupTrials = 8;
constexpr std::uint64_t kMatrixStream = 1;

/// A2: the loop position checkpointed with the matrix.
struct SolveState {
  std::int64_t next_panel = 0;
  std::uint64_t matrix_seed = 0;
};

struct RankLog {
  double open_s = 0.0;
  double mem_frac = 0.0;
  bool fresh = false;
  // Per solve.
  std::vector<double> solve_s, factor_s, backsolve_s, generate_s;
  std::vector<double> barrier_us;
  // Per commit; commit_cpu is this rank thread's CPU time in the call.
  std::vector<double> commit_s, commit_cpu, flush_s, encode_s, encode_wire, dirty_fraction;
};

struct Job {
  const RunOptions& options;
  bool timed = false;
  std::vector<RankLog> ranks = std::vector<RankLog>(kRanks);
  // Written by rank 0 only.
  Clock::time_point ready{};
  double ready_cpu = 0.0;
  double loop_s = 0.0;
  std::vector<double> solve_cpu;  // process CPU seconds per solve
  double spans_dropped = 0.0;
  std::vector<std::uint8_t> solve_traced;
  std::vector<std::uint8_t> residual_ok;
  std::vector<double> commit_wire, commit_msgs, commit_copied;  // traced commits
  std::vector<double> solve_wire, solve_msgs;                   // traced solves

  explicit Job(const RunOptions& o) : options(o) {}
};

skt::sim::ClusterConfig cluster_config() {
  return {.num_nodes = kRanks, .spare_nodes = 0, .nodes_per_rack = kRanks};
}

skt::mpi::LauncherConfig launcher_config() {
  return {.max_restarts = 0, .runtime = {.model_network = false}};
}

void solve_loop(skt::mpi::Comm& world, Job& job) {
  const int me = world.rank();
  RankLog& log = job.ranks[static_cast<std::size_t>(me)];
  skt::mpi::Grid grid(world, kP, kQ);
  const std::int64_t elems =
      skt::hpl::DistMatrix::max_local_elements(kN, kN + 1, kNb, kP, kQ);
  const std::size_t data_bytes = static_cast<std::size_t>(elems) * sizeof(double);

  skt::ckpt::Session session = skt::ckpt::SessionBuilder{}
                                   .strategy(skt::ckpt::Strategy::kSelf)
                                   .codec(skt::enc::CodecKind::kXor)
                                   .group_size(kRanks)
                                   .key_prefix("bench.hpl")
                                   .data_bytes(data_bytes)
                                   .user_bytes(sizeof(SolveState))
                                   .mode(skt::ckpt::CommitMode::kSync)
                                   .build(world);
  Clock::time_point t = Clock::now();
  log.fresh = session.open() == skt::ckpt::OpenOutcome::kFresh;
  log.open_s = seconds_between(t, Clock::now());
  log.mem_frac = static_cast<double>(data_bytes) / static_cast<double>(session.memory_bytes());

  auto* state = reinterpret_cast<SolveState*>(session.user_state().data());
  const std::span<double> storage{reinterpret_cast<double*>(session.data().data()),
                                  static_cast<std::size_t>(elems)};
  skt::hpl::DistMatrix a(grid, kN, kN + 1, kNb, storage);

  std::uint64_t matrix_seed = derive_seed(job.options.seed, kMatrixStream, 0);
  t = Clock::now();
  skt::hpl::generate(a, matrix_seed);
  double generate_s = seconds_between(t, Clock::now());
  world.barrier();
  if (me == 0) {
    job.ready = Clock::now();
    job.ready_cpu = process_cpu_s();
  }
  if (!job.timed) return;

  const bool trace = job.options.trace;
  // Traffic of an empty bracket: the barriers' own messages.
  Traffic empty;
  if (trace) empty = empty_bracket(world);
  Traffic barrier4;  // four bare barriers, as a commit bracket adds
  if (trace) {
    barrier4 = bracket(world, [&] {
                 for (int i = 0; i < 4 * 16; ++i) world.barrier();
               }) - empty;
    barrier4 = {barrier4.wire_bytes / 16, barrier4.messages / 16, barrier4.copied_bytes / 16};
  }

  SpanSink sink;
  const Clock::time_point loop_start = Clock::now();
  for (std::uint64_t s = 0;; ++s) {
    // Untraced and traced solves alternate in the traced run, so the
    // tracing overhead is measured under the same host conditions.
    const bool traced = trace && (s % 2 == 1);
    world.barrier();
    if (me == 0) {
      set_tracing(traced);
      job.solve_traced.push_back(traced ? 1 : 0);
    }
    world.barrier();

    if (s > 0) {
      matrix_seed = derive_seed(job.options.seed, kMatrixStream, s);
      t = Clock::now();
      skt::hpl::generate(a, matrix_seed);
      generate_s = seconds_between(t, Clock::now());
    }
    log.generate_s.push_back(generate_s);
    state->next_panel = 0;
    state->matrix_seed = matrix_seed;
    if (traced) log.barrier_us.push_back(probe_barrier_us(world));
    world.barrier();

    double hook_s = 0.0;
    Traffic commits_traffic;
    const skt::hpl::PanelHook hook = [&](std::int64_t next_panel) {
      if (next_panel % kCommitEveryPanels != 0) return true;
      const Clock::time_point h0 = Clock::now();
      state->next_panel = next_panel;
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
      if (traced) {
        const Traffic d = bracket(world, commit) - empty;
        if (me == 0) {
          job.commit_wire.push_back(d.wire_bytes);
          job.commit_msgs.push_back(d.messages);
          job.commit_copied.push_back(d.copied_bytes);
          commits_traffic.wire_bytes += d.wire_bytes + barrier4.wire_bytes;
          commits_traffic.messages += d.messages + barrier4.messages;
        }
      } else {
        commit();
      }
      log.commit_s.push_back(commit_s);
      log.commit_cpu.push_back(commit_cpu);
      log.flush_s.push_back(stats.flush_s);
      log.encode_s.push_back(stats.encode_s);
      log.encode_wire.push_back(static_cast<double>(stats.encode_wire_bytes));
      log.dirty_fraction.push_back(stats.dirty_fraction);
      hook_s += seconds_between(h0, Clock::now());
      return true;
    };

    std::vector<double> x;
    double factor_wall = 0.0;
    double backsolve_wall = 0.0;
    const auto solve = [&] {
      SKT_SPAN("bench.solve");
      const double cpu0 = me == 0 ? process_cpu_s() : 0.0;
      const Clock::time_point f0 = Clock::now();
      {
        SKT_SPAN("bench.lu_factorize");
        skt::hpl::lu_factorize(grid, a, kN, 0, hook);
      }
      const Clock::time_point f1 = Clock::now();
      x = skt::hpl::back_substitute(world, grid, a, kN);
      const Clock::time_point f2 = Clock::now();
      if (me == 0) job.solve_cpu.push_back(process_cpu_s() - cpu0);
      factor_wall = seconds_between(f0, f1);
      backsolve_wall = seconds_between(f1, f2);
    };
    if (traced) {
      const Traffic all = bracket(world, solve);  // fills commits_traffic
      const Traffic d = all - empty - commits_traffic;
      if (me == 0) {
        job.solve_wire.push_back(d.wire_bytes);
        job.solve_msgs.push_back(d.messages);
      }
    } else {
      solve();
    }
    log.solve_s.push_back(factor_wall + backsolve_wall);
    log.factor_s.push_back(factor_wall - hook_s);
    log.backsolve_s.push_back(backsolve_wall);

    const skt::hpl::Residual residual = skt::hpl::verify(world, a, kN, matrix_seed, x);
    if (me == 0) job.residual_ok.push_back(residual.pass ? 1 : 0);

    if (traced) {
      // Quiescent point: every rank is between the two barriers.
      world.barrier();
      if (me == 0) sink.harvest();
      world.barrier();
    }
    if (!agree(world, seconds_between(loop_start, Clock::now()) < job.options.seconds)) break;
  }
  if (me == 0) {
    job.loop_s = seconds_between(loop_start, Clock::now());
    set_tracing(false);
    if (trace) {
      sink.harvest();
      sink.write(job.options.out_dir + "/trace_hpl_ckpt_" +
                 std::to_string(job.options.seed) + ".json");
      job.spans_dropped = static_cast<double>(sink.dropped());
    }
  }
}

/// Rank-0 view of one launch: per-solve and per-commit slowest-rank series.
struct Series {
  std::vector<double> solve_s, factor_s, backsolve_s, generate_s, commit_s, flush_s,
      encode_s, encode_wire, dirty_fraction, barrier_us, commit_cpu;
};

std::vector<double> summed_over_ranks(const Job& job, std::vector<double> RankLog::*member) {
  std::vector<std::vector<double>> by_rank;
  for (const RankLog& log : job.ranks) by_rank.push_back(log.*member);
  return summed(by_rank);
}

Series slowest_series(const Job& job) {
  const auto gather = [&](auto member) {
    std::vector<std::vector<double>> by_rank;
    for (const RankLog& log : job.ranks) by_rank.push_back(log.*member);
    return slowest(by_rank);
  };
  return {gather(&RankLog::solve_s),     gather(&RankLog::factor_s),
          gather(&RankLog::backsolve_s), gather(&RankLog::generate_s),
          gather(&RankLog::commit_s),    gather(&RankLog::flush_s),
          gather(&RankLog::encode_s),    gather(&RankLog::encode_wire),
          gather(&RankLog::dirty_fraction), gather(&RankLog::barrier_us),
          summed_over_ranks(job, &RankLog::commit_cpu)};
}

/// Keep the entries whose solve (index / per) was traced (`want` true) or
/// untraced.
std::vector<double> pick(const std::vector<double>& v, const std::vector<std::uint8_t>& traced,
                         bool want, std::size_t per = 1) {
  std::vector<double> out;
  for (std::size_t i = 0; i < v.size(); ++i) {
    const std::size_t solve = i / per;
    if (solve < traced.size() && (traced[solve] != 0) == want) out.push_back(v[i]);
  }
  return out;
}

double plain_hpl_gflops(const RunOptions& options, Outcome& outcome) {
  skt::sim::Cluster cluster(cluster_config());
  skt::mpi::JobLauncher launcher(cluster, nullptr, launcher_config());
  double gflops = 0.0;
  bool pass = false;
  const auto result = launcher.run(kRanks, [&](skt::mpi::Comm& world) {
    const skt::hpl::HplResult r = skt::hpl::run_hpl(
        world, {.n = kN, .nb = kNb, .grid_p = kP, .grid_q = kQ,
                .seed = derive_seed(options.seed, kMatrixStream, 1u << 20)});
    if (world.rank() == 0) {
      gflops = r.gflops;
      pass = r.residual.pass;
    }
  });
  if (!result.success) outcome.fail("plain HPL launch failed: " + result.failure);
  if (!pass) outcome.fail("plain HPL residual check failed");
  return gflops;
}

}  // namespace

void run_hpl_ckpt(const RunOptions& options, Outcome& outcome) {
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
    skt::sim::Cluster cluster(cluster_config());
    skt::mpi::JobLauncher launcher(cluster, nullptr, launcher_config());
    const auto result =
        launcher.run(kRanks, [&](skt::mpi::Comm& world) { solve_loop(world, *job); });
    if (!result.success) {
      outcome.fail("hpl_ckpt launch failed: " + result.failure);
      outcome.count_op(false, "solve aborted");
      return;
    }
    setup_s.push_back(seconds_between(start, job->ready));
    setup_cpu.push_back(job->ready_cpu - start_cpu);
    double open = 0.0;
    for (const RankLog& log : job->ranks) {
      open = std::max(open, log.open_s);
      if (!log.fresh) outcome.fail("hpl_ckpt: open() of a new job did not return kFresh");
    }
    open_s.push_back(open);
    if (job->timed) timed = std::move(job);
  }

  const Job& job = *timed;
  const Series s = slowest_series(job);
  for (std::size_t i = 0; i < s.solve_s.size(); ++i) {
    const bool ok = i < job.residual_ok.size() && job.residual_ok[i] != 0;
    outcome.count_op(ok, "hpl_ckpt: solve " + std::to_string(i) + " failed the residual check");
  }
  if (s.commit_s.size() != s.solve_s.size() * kCommitsPerSolve) {
    outcome.fail("hpl_ckpt: expected " + std::to_string(kCommitsPerSolve) + " commits per solve");
  }
  if (std::any_of(s.dirty_fraction.begin(), s.dirty_fraction.end(),
                  [](double f) { return f != 1.0; })) {
    outcome.fail("hpl_ckpt: a commit was not full-footprint (dirty_fraction != 1)");
  }

  const auto gflops = [](std::vector<double> solve_s) {
    for (double& x : solve_s) x = skt::hpl::hpl_flops(kN) / x * 1e-9;
    return solve_s;
  };
  if (!options.trace) {
    outcome.set("setup_s", median(setup_cpu));
    outcome.set("op_cpu_ms", median(job.solve_cpu) * 1e3);
    outcome.set("commit_cpu_p50_ms", quantile(s.commit_cpu, 0.5) * 1e3);
    outcome.set("commit_cpu_p90_ms", quantile(s.commit_cpu, 0.9) * 1e3);
    outcome.set("app_mem_frac", job.ranks[0].mem_frac);
    return;
  }

  const auto& traced = job.solve_traced;
  const std::vector<double> op_traced = pick(s.solve_s, traced, true);
  const std::vector<double> op_plain = pick(s.solve_s, traced, false);
  const auto per_commit = [&](const std::vector<double>& v) {
    return pick(v, traced, true, kCommitsPerSolve);
  };
  outcome.set("wall.setup_s", median(setup_s));
  outcome.set("wall.op_p50_ms", median(op_plain) * 1e3);
  outcome.set("wall.commit_p50_ms", quantile(pick(s.commit_s, traced, false, kCommitsPerSolve), 0.5) * 1e3);
  outcome.set("wall.commit_p90_ms", quantile(pick(s.commit_s, traced, false, kCommitsPerSolve), 0.9) * 1e3);
  outcome.set("wall.commits_per_s", static_cast<double>(s.commit_s.size()) / job.loop_s);
  outcome.set("hpl.gflops", median(gflops(op_traced)));
  outcome.set("hpl.plain_gflops", plain_hpl_gflops(options, outcome));
  outcome.set("hpl.factor_s", median(pick(s.factor_s, traced, true)));
  outcome.set("hpl.backsolve_s", median(pick(s.backsolve_s, traced, true)));
  outcome.set("hpl.generate_s", median(pick(s.generate_s, traced, true)));
  outcome.set("ckpt.open_ms", median(open_s) * 1e3);
  outcome.set("ckpt.commit_ms", median(per_commit(s.commit_s)) * 1e3);
  outcome.set("ckpt.flush_ms", median(per_commit(s.flush_s)) * 1e3);
  outcome.set("ckpt.dirty_fraction", median(per_commit(s.dirty_fraction)));
  outcome.set("encoding.encode_ms", median(per_commit(s.encode_s)) * 1e3);
  outcome.set("encoding.encode_wire_mib", median(per_commit(s.encode_wire)) / (1 << 20));
  outcome.set("mpi.barrier_p50_us", quantile(s.barrier_us, 0.5));
  outcome.set("mpi.barrier_p90_us", quantile(s.barrier_us, 0.9));
  outcome.set("mpi.wire_mib_per_commit", median(job.commit_wire) / (1 << 20));
  outcome.set("mpi.messages_per_commit", median(job.commit_msgs));
  outcome.set("mpi.copied_mib_per_commit", median(job.commit_copied) / (1 << 20));
  outcome.set("mpi.wire_mib_per_solve", median(job.solve_wire) / (1 << 20));
  outcome.set("mpi.messages_per_solve", median(job.solve_msgs));
  outcome.set("telemetry.trace_overhead_frac", median(op_traced) / median(op_plain) - 1.0);
  outcome.set("telemetry.spans_dropped", job.spans_dropped);
  if (job.spans_dropped > 0) outcome.fail("hpl_ckpt: trace rings overflowed");
  outcome.set("bench.ops", static_cast<double>(s.solve_s.size()));
  outcome.set("bench.commits", static_cast<double>(s.commit_s.size()));
}

}  // namespace perfbench
