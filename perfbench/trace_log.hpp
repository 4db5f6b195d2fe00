#pragma once
/// \file trace_log.hpp
/// The benchmark's own span recorder.  Spans are kept in memory, one log per
/// recording thread, and written out once as a Chrome/Perfetto trace when
/// the run ends.  Per-layer self time is derived from the recorded spans:
/// a span's duration minus the part of it its child spans cover.

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// Microseconds since the process-wide benchmark epoch (steady clock).
double now_us();

struct SpanRecord {
  std::string name;
  int tid = 0;              ///< recording thread (connection or replay)
  std::uint64_t id = 0;     ///< unique across logs
  std::uint64_t parent = 0; ///< 0 for a root span
  std::uint64_t group = 0;  ///< request identifier shared by its spans
  double begin_us = 0.0;
  double end_us = 0.0;
};

/// Spans of one thread.  Not thread-safe: each thread owns its log.
class SpanLog {
 public:
  explicit SpanLog(int tid) : tid_(tid) {}

  /// Opens a span as a child of the innermost open span.
  void open(std::string_view name, std::uint64_t group = 0);
  /// Closes the innermost open span.
  void close();

  /// Records an already-timed span under the innermost open span.
  void add(std::string_view name, double begin_us, double end_us,
           std::uint64_t group = 0);

  const std::vector<SpanRecord>& spans() const { return spans_; }
  std::vector<SpanRecord> take() { return std::move(spans_); }

 private:
  std::uint64_t next_id();

  int tid_;
  std::uint64_t seq_ = 0;
  std::vector<SpanRecord> spans_;
  std::vector<std::size_t> open_;  ///< indices into spans_
};

/// Opens a span for the lifetime of the scope.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, std::string_view name, std::uint64_t group = 0)
      : log_(log) {
    log_.open(name, group);
  }
  ~ScopedSpan() { log_.close(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog& log_;
};

struct SelfTime {
  double total_us = 0.0;  ///< summed self time
  std::size_t count = 0;  ///< spans of this name
  double mean_us() const {
    return count == 0 ? 0.0 : total_us / static_cast<double>(count);
  }
};

/// Self time per span name.
std::map<std::string, SelfTime> self_times(
    const std::vector<SpanRecord>& spans);

/// Writes the spans as a Chrome trace ("X" events, microseconds), with
/// `metadata_json` (a JSON object) under "otherData".  Returns false when
/// the file cannot be written.  obs::render_chrome_trace is not used: an
/// obs::Span has no span id or parent, and self times are derived from the
/// file through the "id"/"parent" args written here.
bool write_chrome_trace(const std::string& path,
                        const std::vector<SpanRecord>& spans,
                        std::string_view metadata_json);

}  // namespace perfbench
