#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <iostream>
#include <malloc.h>
#include <span>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>

#include "encoding/kernels.hpp"
#include "metrics.hpp"
#include "telemetry/metrics.hpp"
#include "util/json_writer.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace perfbench {
namespace {

std::span<const MetricSpec> specs(bool trace) {
  if (trace) return kPerLayer;
  return kEndToEnd;
}

const MetricSpec* find_spec(bool trace, const std::string& name) {
  for (const MetricSpec& spec : specs(trace)) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

std::string number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

double cpu_clock(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

}  // namespace

double process_cpu_s() { return cpu_clock(CLOCK_PROCESS_CPUTIME_ID); }
double thread_cpu_s() { return cpu_clock(CLOCK_THREAD_CPUTIME_ID); }

void Outcome::set(const std::string& name, double value) {
  if (find_spec(trace_, name) == nullptr) {
    throw std::logic_error("perfbench: unknown metric '" + name + "'");
  }
  values_[name] = value;
}

void Outcome::fail(const std::string& why) {
  correct_ = false;
  std::cerr << "perfbench: CHECK FAILED: " << why << "\n";
}

void Outcome::count_op(bool ok, const std::string& what) {
  ++attempted_;
  if (ok) return;
  ++failed_;
  fail(what);
}

std::string Outcome::json() {
  std::string metrics;
  for (const MetricSpec& spec : specs(trace_)) {
    double v = 0.0;
    if (const auto it = values_.find(spec.name); it != values_.end()) {
      v = it->second;
    } else if (!trace_) {
      fail(std::string("metric ") + spec.name + " was not measured");
    }
    if (!std::isfinite(v)) {
      fail(std::string("metric ") + spec.name + " is not finite");
      v = 0.0;
    }
    if (!metrics.empty()) metrics += ", ";
    metrics += "\"" + std::string(spec.name) + "\": {\"value\": " + number(v) +
               ", \"unit\": \"" + spec.unit + "\"}";
  }
  const std::uint64_t attempted = std::max<std::uint64_t>(attempted_, 1);
  return "{\"correct\": " + std::string(correct_ ? "true" : "false") +
         ", \"attempted\": " + std::to_string(attempted) +
         ", \"failed\": " + std::to_string(attempted_ == 0 ? 1 : failed_) +
         ", \"metrics\": {" + metrics + "}}";
}

double quantile(std::vector<double> samples, double q) {
  std::sort(samples.begin(), samples.end());
  return skt::util::quantile(samples, q);
}

double max_of(const std::vector<double>& samples) {
  return samples.empty() ? 0.0 : *std::max_element(samples.begin(), samples.end());
}

namespace {

template <typename Combine>
std::vector<double> across_ranks(const std::vector<std::vector<double>>& by_rank,
                                 Combine combine) {
  if (by_rank.empty()) return {};
  std::size_t n = by_rank.front().size();
  for (const auto& v : by_rank) n = std::min(n, v.size());
  std::vector<double> out(by_rank.front().begin(), by_rank.front().begin() + n);
  for (std::size_t r = 1; r < by_rank.size(); ++r) {
    for (std::size_t i = 0; i < n; ++i) out[i] = combine(out[i], by_rank[r][i]);
  }
  return out;
}

}  // namespace

std::vector<double> slowest(const std::vector<std::vector<double>>& by_rank) {
  return across_ranks(by_rank, [](double a, double b) { return std::max(a, b); });
}

std::vector<double> summed(const std::vector<std::vector<double>>& by_rank) {
  return across_ranks(by_rank, [](double a, double b) { return a + b; });
}

CpuTimes read_cpu_times() {
  std::ifstream in("/proc/stat");
  std::string label;
  in >> label;
  CpuTimes t;
  if (label != "cpu") return t;
  // user nice system idle iowait irq softirq steal (guest time is already
  // inside user/nice).
  for (int field = 0; field < 8; ++field) {
    std::uint64_t v = 0;
    if (!(in >> v)) return CpuTimes{};
    t.total += v;
    if (field == 7) t.steal = v;
  }
  return t;
}

void release_free_memory() { malloc_trim(0); }

double peak_rss_mib() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kib = 0.0;
      fields >> kib;
      return kib / 1024.0;
    }
  }
  return 0.0;
}

void stamp_environment(const RunOptions& options, const CpuTimes& before,
                       const CpuTimes& after) {
  const double total = static_cast<double>(after.total - before.total);
  const double steal =
      total > 0.0 ? static_cast<double>(after.steal - before.steal) / total : 0.0;
  std::cerr << "perfbench env: {\"workload\": \"" << options.workload
            << "\", \"seed\": " << options.seed << ", \"trace\": " << (options.trace ? 1 : 0)
            << ", \"nproc\": " << std::thread::hardware_concurrency()
            << ", \"kernel_tier\": \""
            << skt::enc::kernels::to_string(skt::enc::kernels::active_tier())
            << "\", \"build_type\": \"" << PERFBENCH_BUILD_TYPE
            << "\", \"cpu_steal_frac\": " << number(steal) << "}\n";
}

bool agree(skt::mpi::Comm& world, bool keep_going) {
  world.bcast_value(0, keep_going);
  return keep_going;
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream, std::uint64_t index) {
  return skt::util::splitmix64(skt::util::splitmix64(seed ^ (stream * 0x9e3779b97f4a7c15ULL)) +
                               index);
}

Traffic traffic_now() {
  auto& m = skt::telemetry::metrics();
  return {static_cast<double>(m.counter("mpi.wire_bytes").value()),
          static_cast<double>(m.counter("mpi.wire_messages").value()),
          static_cast<double>(m.counter("mpi.copied_bytes").value())};
}

Traffic operator-(const Traffic& a, const Traffic& b) {
  return {a.wire_bytes - b.wire_bytes, a.messages - b.messages,
          a.copied_bytes - b.copied_bytes};
}

Traffic empty_bracket(skt::mpi::Comm& world, int reps) {
  std::vector<double> wire, msgs, copied;
  for (int i = 0; i < reps; ++i) {
    const Traffic d = bracket(world, [] {});
    wire.push_back(d.wire_bytes);
    msgs.push_back(d.messages);
    copied.push_back(d.copied_bytes);
  }
  return {median(wire), median(msgs), median(copied)};
}

double probe_barrier_us(skt::mpi::Comm& world) {
  world.barrier();
  SKT_SPAN("bench.barrier_probe");
  const Clock::time_point t0 = Clock::now();
  world.barrier();
  return seconds_between(t0, Clock::now()) * 1e6;
}

void set_tracing(bool on) { skt::telemetry::set_enabled(on); }

// --- SpanSink -------------------------------------------------------------

namespace {

/// Row of the cross-thread recovery phases in the written trace.
constexpr int kPhaseRow = -2;

struct SelfTime {
  std::uint64_t count = 0;
  double total_us = 0.0;
  double self_us = 0.0;
};

std::map<std::string, SelfTime> self_times(const std::vector<skt::telemetry::SpanRecord>& spans) {
  std::map<int, std::vector<const skt::telemetry::SpanRecord*>> rows;
  for (const auto& s : spans) {
    if (!s.instant()) rows[s.rank].push_back(&s);
  }
  std::map<std::string, SelfTime> out;
  for (auto& [row, list] : rows) {
    // Parents start no later and end no earlier than their children.
    std::sort(list.begin(), list.end(), [](const auto* a, const auto* b) {
      return a->t0_us != b->t0_us ? a->t0_us < b->t0_us : a->dur_us > b->dur_us;
    });
    std::vector<std::pair<const skt::telemetry::SpanRecord*, double>> open;  // span, end
    for (const auto* s : list) {
      while (!open.empty() && open.back().second <= s->t0_us) open.pop_back();
      SelfTime& mine = out[s->name];
      ++mine.count;
      mine.total_us += s->dur_us;
      mine.self_us += s->dur_us;
      if (!open.empty()) out[open.back().first->name].self_us -= s->dur_us;
      open.emplace_back(s, s->t0_us + s->dur_us);
    }
  }
  return out;
}

}  // namespace

void SpanSink::harvest() {
  auto& tracer = skt::telemetry::Tracer::instance();
  dropped_ += tracer.total_dropped();
  const std::vector<skt::telemetry::SpanRecord> spans = tracer.collect();
  spans_.insert(spans_.end(), spans.begin(), spans.end());
  tracer.clear();
}

void SpanSink::add_phase(const char* name, Clock::time_point t0, Clock::time_point t1) {
  auto& tracer = skt::telemetry::Tracer::instance();
  const double now_us = tracer.now_us();
  const Clock::time_point now = Clock::now();
  skt::telemetry::SpanRecord rec;
  const std::string_view n(name);
  std::copy_n(n.data(), std::min(n.size(), sizeof(rec.name) - 1), rec.name);
  std::copy_n("bench.incident", 14, rec.parent);
  rec.t0_us = now_us - seconds_between(t0, now) * 1e6;
  rec.dur_us = seconds_between(t0, t1) * 1e6;
  rec.rank = kPhaseRow;
  rec.depth = 1;
  spans_.push_back(rec);
}

bool SpanSink::write(const std::string& path) const {
  skt::util::JsonWriter w;
  w.begin_object();
  w.key("traceEvents");
  w.begin_array();
  for (const auto& s : spans_) {
    w.begin_object();
    w.field("name", s.name);
    w.field("ph", s.instant() ? "i" : "X");
    w.field("ts", s.t0_us);
    if (!s.instant()) w.field("dur", s.dur_us);
    w.field("pid", std::int64_t{0});
    w.field("tid", static_cast<std::int64_t>(s.rank));
    w.end_object();
  }
  w.end_array();
  w.key("selfTime");
  w.begin_object();
  for (const auto& [name, t] : self_times(spans_)) {
    w.key(name);
    w.begin_object();
    w.field("count", t.count);
    w.field("total_ms", t.total_us * 1e-3);
    w.field("self_ms", t.self_us * 1e-3);
    w.end_object();
  }
  w.end_object();
  w.field("spansDropped", dropped_);
  w.end_object();
  return skt::util::write_json_file(path, w);
}

}  // namespace perfbench
