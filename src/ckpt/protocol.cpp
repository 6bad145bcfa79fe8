#include "ckpt/protocol.hpp"

#include <algorithm>
#include <cstring>

#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"

namespace skt::ckpt {

void record_commit_telemetry(const CommitStats& stats) {
  telemetry::set_epoch(stats.epoch);
  auto& reg = telemetry::metrics();
  static telemetry::Counter& commits = reg.counter("ckpt.commits");
  static telemetry::Counter& ckpt_bytes = reg.counter("ckpt.checkpoint_bytes");
  static telemetry::Counter& sum_bytes = reg.counter("ckpt.checksum_bytes");
  static telemetry::Histogram& h_encode = reg.histogram("ckpt.encode_s");
  static telemetry::Histogram& h_flush = reg.histogram("ckpt.flush_s");
  static telemetry::Histogram& h_device = reg.histogram("ckpt.device_s");
  static telemetry::Histogram& h_total = reg.histogram("ckpt.commit_s");
  static telemetry::Gauge& g_dirty = reg.gauge("ckpt.dirty_bytes");
  static telemetry::Histogram& h_dirty_frac = reg.histogram("ckpt.dirty_fraction", 1.0);
  commits.increment();
  ckpt_bytes.add(stats.checkpoint_bytes);
  sum_bytes.add(stats.checksum_bytes);
  g_dirty.set(static_cast<double>(stats.dirty_bytes));
  h_dirty_frac.record(stats.dirty_fraction);
  h_encode.record(stats.encode_s + stats.encode_virtual_s);
  h_flush.record(stats.flush_s);
  if (stats.device_s > 0.0) h_device.record(stats.device_s);
  h_total.record(stats.total_s());
}

void record_restore_telemetry(const RestoreStats& stats) {
  telemetry::set_epoch(stats.epoch);
  auto& reg = telemetry::metrics();
  static telemetry::Counter& restores = reg.counter("ckpt.restores");
  static telemetry::Counter& rebuilds = reg.counter("ckpt.rebuilt_members");
  static telemetry::Histogram& h_rebuild = reg.histogram("ckpt.restore_s");
  restores.increment();
  if (stats.rebuilt_member) rebuilds.increment();
  h_rebuild.record(stats.rebuild_s);
}

void copy_combined(std::span<const std::byte> data, std::span<const std::byte> user,
                   enc::ByteRange r, std::byte* dst) {
  const std::size_t end = std::min(r.end, data.size() + user.size());
  std::size_t pos = r.begin;
  if (pos < std::min(end, data.size())) {
    const std::size_t len = std::min(end, data.size()) - pos;
    std::memcpy(dst + pos, data.data() + pos, len);
    pos += len;
  }
  if (pos < end) std::memcpy(dst + pos, user.data() + (pos - data.size()), end - pos);
}

}  // namespace skt::ckpt
