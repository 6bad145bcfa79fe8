#include "telemetry/trace.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <map>
#include <memory>
#include <mutex>

#include "telemetry/metrics.hpp"
#include "util/json_writer.hpp"
#include "util/log.hpp"

namespace skt::telemetry {
namespace {

thread_local int t_rank = -1;
thread_local std::uint64_t t_epoch = 0;
thread_local std::uint16_t t_depth = 0;
// Names of the open spans on this thread, innermost last; parent attribution
// only, so raw pointers to the string literals are enough.
thread_local const char* t_stack[64] = {};

/// CPU time consumed by the calling thread, in microseconds.
double thread_cpu_us() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e6 + static_cast<double>(ts.tv_nsec) * 1e-3;
}

void copy_name(char (&dst)[SpanRecord::kNameBytes], std::string_view src) {
  const std::size_t n = std::min(src.size(), sizeof(dst) - 1);
  std::memcpy(dst, src.data(), n);
  dst[n] = '\0';
}

/// Fixed-capacity overwrite-on-wrap buffer for one rank row. Rank threads of
/// successive launcher attempts reuse the same row, and the Tracer keeps the
/// ring after the thread dies, so spans recorded before a node kill survive.
class SpanRing {
 public:
  void push(const SpanRecord& rec) {
    std::lock_guard<std::mutex> lock(mutex_);
    records_[next_ % Tracer::kRingCapacity] = rec;
    ++next_;
  }

  void append_to(std::vector<SpanRecord>& out) const {
    std::lock_guard<std::mutex> lock(mutex_);
    const std::uint64_t held = std::min<std::uint64_t>(next_, Tracer::kRingCapacity);
    const std::uint64_t first = next_ - held;
    for (std::uint64_t i = first; i < next_; ++i) {
      out.push_back(records_[i % Tracer::kRingCapacity]);
    }
  }

  [[nodiscard]] std::uint64_t dropped() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return next_ > Tracer::kRingCapacity ? next_ - Tracer::kRingCapacity : 0;
  }

  void clear() {
    std::lock_guard<std::mutex> lock(mutex_);
    next_ = 0;
  }

 private:
  mutable std::mutex mutex_;
  std::uint64_t next_ = 0;
  std::vector<SpanRecord> records_{Tracer::kRingCapacity};
};

}  // namespace

struct Tracer::Impl {
  std::chrono::steady_clock::time_point start = std::chrono::steady_clock::now();
  mutable std::mutex registry_mutex;
  // Keyed by rank (-1 = shared non-rank row). Attempts run sequentially, so
  // reusing one ring per rank bounds memory across restarts.
  std::map<int, std::unique_ptr<SpanRing>> rings;

  SpanRing& ring_for(int rank) {
    std::lock_guard<std::mutex> lock(registry_mutex);
    auto& slot = rings[rank];
    if (!slot) slot = std::make_unique<SpanRing>();
    return *slot;
  }
};

Tracer::Tracer() : impl_(new Impl) {}

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

double Tracer::now_us() const {
  return std::chrono::duration<double, std::micro>(std::chrono::steady_clock::now() -
                                                   impl_->start)
      .count();
}

void Tracer::push(const SpanRecord& rec) { impl_->ring_for(rec.rank).push(rec); }

std::vector<SpanRecord> Tracer::collect() const {
  std::vector<const SpanRing*> rings;
  {
    std::lock_guard<std::mutex> lock(impl_->registry_mutex);
    rings.reserve(impl_->rings.size());
    for (const auto& [rank, ring] : impl_->rings) rings.push_back(ring.get());
  }
  std::vector<SpanRecord> out;
  for (const SpanRing* ring : rings) ring->append_to(out);
  std::stable_sort(out.begin(), out.end(),
                   [](const SpanRecord& a, const SpanRecord& b) { return a.t0_us < b.t0_us; });
  return out;
}

std::map<int, std::uint64_t> Tracer::dropped_by_rank() const {
  std::vector<std::pair<int, const SpanRing*>> rings;
  {
    std::lock_guard<std::mutex> lock(impl_->registry_mutex);
    for (const auto& [rank, ring] : impl_->rings) rings.emplace_back(rank, ring.get());
  }
  std::map<int, std::uint64_t> out;
  for (const auto& [rank, ring] : rings) {
    const std::uint64_t d = ring->dropped();
    if (d > 0) out[rank] = d;
  }
  return out;
}

std::uint64_t Tracer::total_dropped() const {
  std::vector<const SpanRing*> rings;
  {
    std::lock_guard<std::mutex> lock(impl_->registry_mutex);
    for (const auto& [rank, ring] : impl_->rings) rings.push_back(ring.get());
  }
  std::uint64_t dropped = 0;
  for (const SpanRing* ring : rings) dropped += ring->dropped();
  return dropped;
}

void Tracer::clear() {
  std::lock_guard<std::mutex> lock(impl_->registry_mutex);
  for (const auto& [rank, ring] : impl_->rings) ring->clear();
}

namespace {

/// Async checkpoint workers get rows of their own: worker of rank r is
/// registered under kWorkerRowBase + r (see set_thread_async_worker).
constexpr int kWorkerRowBase = 1'000'000;

/// Trace rows: rank r maps to tid r, the shared non-rank row to a high tid so
/// it sorts below the ranks in the viewer; worker rows sort below that.
int row_tid(int rank) { return rank >= 0 ? rank : 999; }

/// Event category from the dotted name prefix ("ckpt.encode" -> "ckpt").
std::string_view category_of(std::string_view name) {
  const std::size_t dot = name.find('.');
  if (dot != std::string_view::npos) return name.substr(0, dot);
  const std::size_t colon = name.find(':');
  if (colon != std::string_view::npos) return name.substr(0, colon);
  return name;
}

}  // namespace

std::string Tracer::chrome_trace_json() const {
  const std::vector<SpanRecord> records = collect();

  util::JsonWriter w;
  w.begin_object();
  w.key("traceEvents");
  w.begin_array();

  std::vector<int> rows;
  {
    std::lock_guard<std::mutex> lock(impl_->registry_mutex);
    for (const auto& [rank, ring] : impl_->rings) rows.push_back(rank);
  }
  for (const int rank : rows) {
    w.begin_object();
    w.field("name", "thread_name");
    w.field("ph", "M");
    w.field("pid", static_cast<std::int64_t>(0));
    w.field("tid", static_cast<std::int64_t>(row_tid(rank)));
    w.key("args");
    w.begin_object();
    if (rank >= kWorkerRowBase) {
      w.field("name", "ckpt-worker " + std::to_string(rank - kWorkerRowBase));
    } else if (rank >= 0) {
      w.field("name", "rank " + std::to_string(rank));
    } else {
      w.field("name", "launcher");
    }
    w.end_object();
    w.end_object();
  }

  for (const SpanRecord& rec : records) {
    w.begin_object();
    w.field("name", rec.name);
    w.field("cat", category_of(rec.name));
    w.field("ph", rec.instant() ? "i" : "X");
    w.field("ts", rec.t0_us);
    if (rec.instant()) {
      w.field("s", "t");  // thread-scoped instant
    } else {
      w.field("dur", rec.dur_us);
    }
    w.field("pid", static_cast<std::int64_t>(0));
    w.field("tid", static_cast<std::int64_t>(row_tid(rec.rank)));
    w.key("args");
    w.begin_object();
    w.field("epoch", static_cast<std::uint64_t>(rec.epoch));
    if (rec.parent[0] != '\0') w.field("parent", rec.parent);
    if (!rec.instant()) w.field("cpu_us", rec.cpu_us);
    w.end_object();
    w.end_object();
  }

  w.end_array();
  w.field("displayTimeUnit", "ms");
  w.end_object();
  return w.str();
}

bool Tracer::export_chrome_trace(const std::string& path) const {
  const std::string json = chrome_trace_json();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    SKT_LOG_WARN("telemetry: cannot write trace file {}", path);
    return false;
  }
  const bool ok = std::fwrite(json.data(), 1, json.size(), f) == json.size();
  std::fclose(f);
  if (!ok) SKT_LOG_WARN("telemetry: short write on trace file {}", path);
  return ok;
}

void set_thread_rank(int rank) { t_rank = rank; }

void set_thread_async_worker(int rank) {
  t_rank = rank >= 0 ? kWorkerRowBase + rank : -1;
}

void set_epoch(std::uint64_t epoch) { t_epoch = epoch; }

Span::Span(const char* name) : name_(name), t0_us_(-1.0), cpu0_us_(0.0) {
  if (!enabled()) return;
  t0_us_ = Tracer::instance().now_us();
  cpu0_us_ = thread_cpu_us();
  if (t_depth < std::size(t_stack)) t_stack[t_depth] = name_;
  ++t_depth;
}

Span::~Span() {
  if (t0_us_ < 0.0) return;
  const double cpu_us = std::max(0.0, thread_cpu_us() - cpu0_us_);
  if (t_depth > 0) --t_depth;
  SpanRecord rec;
  copy_name(rec.name, name_);
  // After the pop, t_stack[t_depth] is this span; the slot below is its parent.
  if (t_depth > 0 && t_depth <= std::size(t_stack)) {
    copy_name(rec.parent, t_stack[t_depth - 1]);
  }
  rec.t0_us = t0_us_;
  rec.dur_us = std::max(0.0, Tracer::instance().now_us() - t0_us_);
  rec.cpu_us = cpu_us;
  rec.rank = t_rank;
  rec.epoch = t_epoch;
  rec.depth = t_depth;
  Tracer::instance().push(rec);
}

void instant(std::string_view name) {
  if (!enabled()) return;
  SpanRecord rec;
  copy_name(rec.name, name);
  if (t_depth > 0 && t_depth <= std::size(t_stack)) {
    copy_name(rec.parent, t_stack[t_depth - 1]);
  }
  rec.t0_us = Tracer::instance().now_us();
  rec.dur_us = -1.0;
  rec.rank = t_rank;
  rec.epoch = t_epoch;
  rec.depth = t_depth;
  Tracer::instance().push(rec);
}

}  // namespace skt::telemetry
