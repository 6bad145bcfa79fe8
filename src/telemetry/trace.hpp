// RAII span tracing of the commit/restore state machine.
//
//   void commit() {
//     SKT_SPAN("ckpt.commit");
//     { SKT_SPAN("ckpt.encode"); coder_->encode(...); }
//     ...
//   }
//
// Each completed span is pushed into a per-rank ring buffer owned by the
// process-wide Tracer — NOT by the rank thread — so the spans recorded up
// to a node kill survive the thread's JobAborted unwind and still appear
// in the exported trace. Ring capacity is fixed; when a rank overflows it,
// the oldest spans are overwritten and total_dropped() says how many.
//
// Span names use the same dotted stems as the ckpt.* failpoints, and a
// triggered failpoint is recorded as an instant event named
// "fail:<failpoint>", so an exported timeline shows exactly which protocol
// step an injected failure landed in.
//
// Export is Chrome trace_event JSON: open chrome://tracing or
// https://ui.perfetto.dev and load the file. One row (tid) per rank; the
// launcher daemon gets its own row.
//
// Each span records its wall duration and the thread CPU time it used.
// Everything is a no-op while telemetry::enabled() is false — a disabled
// SKT_SPAN costs one relaxed atomic load.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace skt::telemetry {

struct SpanRecord {
  static constexpr std::size_t kNameBytes = 48;
  char name[kNameBytes] = {};
  char parent[kNameBytes] = {};  ///< enclosing span on the same thread, if any
  double t0_us = 0.0;            ///< microseconds since tracer start
  double dur_us = 0.0;           ///< < 0 marks an instant event
  /// Measured CPU time of the recording thread over the span
  /// (CLOCK_THREAD_CPUTIME_ID delta); 0 for instants. With dur_us it
  /// tells a span that waits (bcast_panel) from one that computes.
  double cpu_us = 0.0;
  int rank = -1;                 ///< world rank; -1 = non-rank (launcher) thread
  std::uint64_t epoch = 0;       ///< checkpoint epoch active when the span closed
  std::uint16_t depth = 0;       ///< nesting depth at record time

  [[nodiscard]] bool instant() const { return dur_us < 0.0; }
};

/// Declare this thread's world rank for span attribution; called by the
/// Runtime next to util::set_thread_context. Rank < 0 re-attaches the
/// thread to the shared non-rank row.
void set_thread_rank(int rank);

/// Attribute this thread's spans to rank `rank`'s async checkpoint WORKER
/// row instead of the rank row itself, so overlap between the rank thread
/// and its background commit pipeline is visible as two parallel rows in
/// the exported timeline ("ckpt-worker <r>").
void set_thread_async_worker(int rank);

/// Checkpoint epoch stamped onto spans closed by this thread from now on.
void set_epoch(std::uint64_t epoch);

/// RAII span; records on destruction. Name must outlive the span (string
/// literals via SKT_SPAN always do).
class Span {
 public:
  explicit Span(const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* name_;
  double t0_us_;   ///< < 0 when telemetry was disabled at construction
  double cpu0_us_;  ///< thread CPU time at construction (when enabled)
};

/// Zero-duration marker (failpoint hits, aborts).
void instant(std::string_view name);

class Tracer {
 public:
  /// Ring capacity per rank row (newest kept on overflow).
  static constexpr std::size_t kRingCapacity = 4096;

  static Tracer& instance();

  void push(const SpanRecord& rec);

  /// All recorded spans, every rank merged, sorted by start time.
  [[nodiscard]] std::vector<SpanRecord> collect() const;

  /// Spans overwritten by ring wrap-around, summed over ranks.
  [[nodiscard]] std::uint64_t total_dropped() const;

  /// Ring overflow per row (rank, worker, or -1 launcher row), nonzero
  /// entries only — RunReports carry this so a truncated rank timeline is
  /// attributable from the artifact alone.
  [[nodiscard]] std::map<int, std::uint64_t> dropped_by_rank() const;

  /// The whole timeline as Chrome trace_event JSON.
  [[nodiscard]] std::string chrome_trace_json() const;

  /// chrome_trace_json() to `path`; false (with a stderr warning) on I/O error.
  bool export_chrome_trace(const std::string& path) const;

  /// Drop every recorded span (test isolation). Rings stay registered.
  void clear();

  /// Microseconds since tracer start (the trace time base).
  [[nodiscard]] double now_us() const;

 private:
  Tracer();
  struct Impl;
  Impl* impl_;
};

#define SKT_SPAN_CAT2(a, b) a##b
#define SKT_SPAN_CAT(a, b) SKT_SPAN_CAT2(a, b)
/// Trace the enclosing scope as a span named `name` (a string literal).
#define SKT_SPAN(name) ::skt::telemetry::Span SKT_SPAN_CAT(skt_span_, __LINE__)(name)

}  // namespace skt::telemetry
