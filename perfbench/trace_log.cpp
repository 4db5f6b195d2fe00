#include "trace_log.hpp"

#include <chrono>
#include <fstream>
#include <stdexcept>
#include <unordered_map>

#include "ptask/serve/protocol.hpp"

namespace perfbench {

namespace {

const std::chrono::steady_clock::time_point kEpoch =
    std::chrono::steady_clock::now();

}  // namespace

double now_us() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - kEpoch)
      .count();
}

std::uint64_t SpanLog::next_id() {
  // The thread id in the high bits keeps ids unique across logs.
  return (static_cast<std::uint64_t>(tid_ + 1) << 40) | ++seq_;
}

void SpanLog::open(std::string_view name, std::uint64_t group) {
  SpanRecord span;
  span.name = std::string(name);
  span.tid = tid_;
  span.id = next_id();
  span.parent = open_.empty() ? 0 : spans_[open_.back()].id;
  span.group = group;
  span.begin_us = now_us();
  open_.push_back(spans_.size());
  spans_.push_back(std::move(span));
}

void SpanLog::close() {
  if (open_.empty()) throw std::logic_error("SpanLog::close without open");
  spans_[open_.back()].end_us = now_us();
  open_.pop_back();
}

void SpanLog::add(std::string_view name, double begin_us, double end_us,
                  std::uint64_t group) {
  SpanRecord span;
  span.name = std::string(name);
  span.tid = tid_;
  span.id = next_id();
  span.parent = open_.empty() ? 0 : spans_[open_.back()].id;
  span.group = group;
  span.begin_us = begin_us;
  span.end_us = end_us;
  spans_.push_back(std::move(span));
}

std::map<std::string, SelfTime> self_times(
    const std::vector<SpanRecord>& spans) {
  // Children of one parent run one after another on the parent's thread,
  // so the part of the parent they cover is the sum of their durations.
  std::unordered_map<std::uint64_t, double> child_us;
  for (const SpanRecord& span : spans) {
    if (span.parent != 0) child_us[span.parent] += span.end_us - span.begin_us;
  }
  std::map<std::string, SelfTime> out;
  for (const SpanRecord& span : spans) {
    const auto it = child_us.find(span.id);
    const double covered = it == child_us.end() ? 0.0 : it->second;
    SelfTime& row = out[span.name];
    row.total_us += (span.end_us - span.begin_us) - covered;
    ++row.count;
  }
  return out;
}

bool write_chrome_trace(const std::string& path,
                        const std::vector<SpanRecord>& spans,
                        std::string_view metadata_json) {
  std::ofstream out(path);
  if (!out) return false;
  std::string text = "{\"traceEvents\":[";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& span = spans[i];
    if (i != 0) text += ',';
    text += "{\"name\":";
    ptask::serve::append_json_string(text, span.name);
    text += ",\"ph\":\"X\",\"pid\":1,\"tid\":" + std::to_string(span.tid);
    text += ",\"ts\":";
    ptask::serve::append_json_double(text, span.begin_us);
    text += ",\"dur\":";
    ptask::serve::append_json_double(text, span.end_us - span.begin_us);
    text += ",\"args\":{\"id\":" + std::to_string(span.id) +
            ",\"parent\":" + std::to_string(span.parent) +
            ",\"request\":" + std::to_string(span.group) + "}}";
    if (text.size() > (1u << 20)) {
      out << text;
      text.clear();
    }
  }
  text += "],\"displayTimeUnit\":\"ms\",\"otherData\":";
  text += metadata_json;
  text += "}\n";
  out << text;
  return static_cast<bool>(out);
}

}  // namespace perfbench
