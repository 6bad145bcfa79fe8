#include "mpi/runtime.hpp"

#include <algorithm>
#include <thread>

#include "mpi/comm.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"
#include "util/clock.hpp"
#include "util/log.hpp"

namespace skt::mpi {

Runtime::Runtime(sim::Cluster& cluster, std::vector<int> ranklist,
                 sim::FailureInjector* injector, RuntimeConfig config)
    : cluster_(cluster), ranklist_(std::move(ranklist)), injector_(injector), config_(config) {
  if (ranklist_.empty()) throw std::invalid_argument("Runtime: empty ranklist");
  for (int node_id : ranklist_) {
    if (node_id < 0 || node_id >= cluster_.total_nodes()) {
      throw std::invalid_argument("Runtime: ranklist references unknown node");
    }
  }
  mailboxes_.reserve(ranklist_.size());
  for (std::size_t i = 0; i < ranklist_.size(); ++i) {
    mailboxes_.push_back(std::make_unique<Mailbox>());
  }
  rank_virtual_s_ = std::make_unique<std::atomic<double>[]>(ranklist_.size());
  for (std::size_t i = 0; i < ranklist_.size(); ++i) rank_virtual_s_[i].store(0.0);
}

JobResult Runtime::run(const std::function<void(Comm&)>& fn) {
  if (ran_) throw std::logic_error("Runtime::run: a Runtime is single-use");
  ran_ = true;

  // Refuse to launch onto dead nodes, like a job manager would.
  for (std::size_t r = 0; r < ranklist_.size(); ++r) {
    if (!cluster_.node(ranklist_[r]).alive()) {
      JobResult result;
      result.completed = false;
      result.abort_reason = "launch failed: node " + std::to_string(ranklist_[r]) + " is down";
      return result;
    }
  }

  // Node-aware abort: with several jobs sharing the cluster, only a death
  // inside THIS job's ranklist may abort it — another tenant's node loss
  // is not our failure.
  const int job_token = cluster_.attach_job([this](int node_id, const std::string& reason) {
    if (uses_node(node_id)) abort(reason);
  });

  util::WallTimer timer;
  std::vector<std::thread> threads;
  threads.reserve(ranklist_.size());
  for (int r = 0; r < world_size(); ++r) {
    threads.emplace_back([this, r, &fn] {
      util::set_thread_context(r, world_size());
      telemetry::set_thread_rank(r);
      try {
        Comm world = Comm::world(*this, r);
        fn(world);
      } catch (const JobAborted&) {
        // Expected unwinding path after a node failure; the launcher
        // decides whether to restart.
      } catch (const std::exception& e) {
        abort(std::string("rank ") + std::to_string(r) + " failed: " + e.what());
      }
      util::set_thread_context(-1, 0);
      telemetry::set_thread_rank(-1);
    });
  }
  for (auto& t : threads) t.join();
  cluster_.detach_job(job_token);

  JobResult result;
  result.completed = !aborted_.load(std::memory_order_acquire);
  {
    std::lock_guard<std::mutex> lock(abort_mutex_);
    result.abort_reason = abort_reason_;
  }
  result.elapsed_real_s = timer.seconds();
  double max_rank_virtual = 0.0;
  for (std::size_t i = 0; i < ranklist_.size(); ++i) {
    max_rank_virtual = std::max(max_rank_virtual, rank_virtual_s_[i].load());
  }
  result.virtual_s =
      max_rank_virtual + static_cast<double>(job_virtual_ns_.load(std::memory_order_relaxed)) * 1e-9;
  {
    std::lock_guard<std::mutex> lock(times_mutex_);
    result.times = times_;
  }
  result.wire_bytes = wire_bytes();
  result.wire_messages = wire_messages();
  result.copied_bytes = copied_bytes();
  return result;
}

bool Runtime::uses_node(int node_id) const {
  for (const int id : ranklist_) {
    if (id == node_id) return true;
  }
  return false;
}

void Runtime::abort(const std::string& reason, bool provisional) {
  bool named = false;
  {
    std::lock_guard<std::mutex> lock(abort_mutex_);
    if (!aborted_.load(std::memory_order_relaxed) || (reason_provisional_ && !provisional)) {
      abort_reason_ = reason;
      reason_provisional_ = provisional;
      named = true;
    }
    aborted_.store(true, std::memory_order_release);
  }
  if (named) SKT_LOG_WARN("job aborted: {}", reason);
  for (auto& mb : mailboxes_) mb->interrupt();
}

Mailbox& Runtime::mailbox(int world_rank) {
  return *mailboxes_.at(static_cast<std::size_t>(world_rank));
}

sim::Node& Runtime::node_of(int world_rank) {
  return cluster_.node(ranklist_.at(static_cast<std::size_t>(world_rank)));
}

int Runtime::node_id_of(int world_rank) const {
  return ranklist_.at(static_cast<std::size_t>(world_rank));
}

void Runtime::check_alive(int world_rank) const {
  if (aborted_.load(std::memory_order_acquire)) {
    throw JobAborted("job aborted");
  }
  if (!cluster_.node(ranklist_.at(static_cast<std::size_t>(world_rank))).alive()) {
    throw JobAborted("local node powered off");
  }
}

double Runtime::message_cost(int src_world, int dst_world, std::size_t bytes) const {
  if (!config_.model_network) return 0.0;
  const int src_node = ranklist_.at(static_cast<std::size_t>(src_world));
  const int dst_node = ranklist_.at(static_cast<std::size_t>(dst_world));
  if (src_node == dst_node) return 0.0;  // intra-node copies are ~free at this fidelity
  const sim::NodeProfile& src_prof = cluster_.node(src_node).profile();
  const sim::NodeProfile& dst_prof = cluster_.node(dst_node).profile();
  // Each node's NIC is shared by `ranks_per_port` ranks (the Tianhe-2
  // effect in Fig. 13); the slower end bounds the transfer. Crossing a
  // rack boundary pays the higher switch-hop latency — what makes the
  // Section 3.3 neighbor mapping faster than the spread mapping.
  const double src_bw = src_prof.nic_bandwidth_Bps / std::max(1, src_prof.ranks_per_port);
  const double dst_bw = dst_prof.nic_bandwidth_Bps / std::max(1, dst_prof.ranks_per_port);
  const double bw = std::min(src_bw, dst_bw);
  const bool same_rack = cluster_.node(src_node).rack() == cluster_.node(dst_node).rack();
  const double latency = same_rack
                             ? std::max(src_prof.nic_latency_s, dst_prof.nic_latency_s)
                             : std::max(src_prof.inter_rack_latency_s,
                                        dst_prof.inter_rack_latency_s);
  return latency + static_cast<double>(bytes) / bw;
}

void Runtime::charge_rank_virtual(int world_rank, double seconds) {
  if (world_rank < 0 || world_rank >= world_size()) {
    throw std::out_of_range("charge_rank_virtual: bad rank");
  }
  rank_virtual_s_[static_cast<std::size_t>(world_rank)].fetch_add(seconds,
                                                                  std::memory_order_relaxed);
}

double Runtime::rank_virtual(int world_rank) const {
  if (world_rank < 0 || world_rank >= world_size()) {
    throw std::out_of_range("rank_virtual: bad rank");
  }
  return rank_virtual_s_[static_cast<std::size_t>(world_rank)].load(std::memory_order_relaxed);
}

void Runtime::charge_job_virtual(double seconds) {
  job_virtual_ns_.fetch_add(static_cast<std::int64_t>(seconds * 1e9), std::memory_order_relaxed);
}

void Runtime::record_time(const std::string& name, double seconds) {
  std::lock_guard<std::mutex> lock(times_mutex_);
  double& slot = times_[name];
  slot = std::max(slot, seconds);
}

}  // namespace skt::mpi
