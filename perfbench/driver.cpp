// perfbench_driver -- the serving benchmark of ptask (see README.md).
//
// Runs the shipping ptask_served daemon as a child process, sets it up
// several times (generation + daemon start + warm-up / session open), then
// drives one workload from `nproc` closed-loop connections and checks every
// answer.  With --trace 0 it prints the end-to-end metrics; with --trace 1
// it records a span around every Client::call, replays the same inputs
// in-process through each layer's public functions, writes one Chrome
// trace, and prints the per-layer metrics derived from it.  The last line
// of standard output is the result object.
//
// Usage:
//   perfbench_driver --served PATH --workload mixed|sessions --seed N
//       --seconds S --trace 0|1 [--out-dir DIR] [--git-commit C]
//       [--git-dirty 0|1] [--selfcheck]
//
// Exits 0 only when every answer was right; a wrong run still prints its
// result line and then exits 1.

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "daemon.hpp"
#include "ptask/obs/json.hpp"
#include "ptask/obs/metrics.hpp"
#include "ptask/serve/client.hpp"
#include "replay.hpp"
#include "trace_log.hpp"
#include "workloads.hpp"

namespace {

using perfbench::Workload;
namespace serve = ptask::serve;

/// Set-ups per run; setup_s is their median.
constexpr int kSetups = 5;
/// Rounds of the timed window; timing metrics are their medians.
constexpr std::size_t kRounds = 8;
/// Ping round trips for serve.rtt_ping_us.
constexpr int kPings = 2000;

struct Options {
  std::string served;
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".bench_out";
  std::string git_commit = "unknown";
  std::string git_dirty = "unknown";
  bool selfcheck = false;  ///< toy sizes plus the benchmark's own checks
};

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Printed with --trace 0, in this order.
constexpr MetricSpec kEndToEnd[] = {
    {"ok_qps", "1/s"},
    {"latency_p50_ms", "ms"},
    {"latency_p99_ms", "ms"},
    {"repeat_p99_ms", "ms"},
    {"server_cpu_ms_per_op", "ms"},
    {"server_peak_rss_mb", "MiB"},
    {"makespan_geomean_s", "s"},
    {"setup_s", "s"},
};

// Printed with --trace 1, in this order.
constexpr MetricSpec kPerLayer[] = {
    {"serve.protocol.parse_us", "us"},
    {"obs.json_parse_us", "us"},
    {"serve.protocol.key_us", "us"},
    {"serve.protocol.serialize_us", "us"},
    {"serve.cache.lookup_us", "us"},
    {"serve.protocol.request_bytes", "B"},
    {"serve.protocol.response_bytes", "B"},
    {"serve.rtt_ping_us", "us"},
    {"serve.cache.hit_ratio", "ratio"},
    {"serve.cache.value_bytes", "B"},
    {"serve.queue.wait_mean_us", "us"},
    {"serve.queue.rejected", "count"},
    {"sched.portfolio_us", "us"},
    {"sched.strategy.layer_ms", "ms"},
    {"sched.strategy.cpa_ms", "ms"},
    {"sched.strategy.mcpa_ms", "ms"},
    {"sched.strategy.cpr_ms", "ms"},
    {"sched.strategy.dp_ms", "ms"},
    {"sched.strategy.layer.wins", "count"},
    {"sched.strategy.cpa.wins", "count"},
    {"sched.strategy.mcpa.wins", "count"},
    {"sched.strategy.cpr.wins", "count"},
    {"sched.strategy.dp.wins", "count"},
    {"sched.portfolio.useful_ratio", "ratio"},
    {"sched.pass.contract-chains_us", "us"},
    {"sched.pass.layerize_us", "us"},
    {"sched.pass.group-search_us", "us"},
    {"sched.pass.assign-lpt_us", "us"},
    {"sched.pass.adjust-groups_us", "us"},
    {"sched.pass.lowering_us", "us"},
    {"sched.incremental.reset_us", "us"},
    {"sched.incremental.extend_us", "us"},
    {"sched.incremental.reuse_ratio", "ratio"},
    {"analysis.certify_us", "us"},
    {"load.repeat_share", "ratio"},
    {"trace.ok_qps", "1/s"},
    {"trace.latency_p50_ms", "ms"},
    {"trace.latency_p99_ms", "ms"},
};

int usage() {
  std::cerr << "usage: perfbench_driver --served PATH --workload "
               "mixed|sessions --seed N --seconds S --trace 0|1 "
               "[--out-dir DIR] [--git-commit C] [--git-dirty 0|1] "
               "[--selfcheck]\n";
  return 2;
}

std::string read_text(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

std::string json_string(std::string_view text) {
  std::string out;
  serve::append_json_string(out, text);
  return out;
}

std::string json_number(double value) {
  std::string out;
  serve::append_json_double(out, value);
  return out;
}

/// Host/build fingerprint stamped into every record.
std::string fingerprint(const Options& options) {
  char host[256] = {};
  ::gethostname(host, sizeof(host) - 1);
  std::string cpu = "unknown";
  std::istringstream cpuinfo(read_text("/proc/cpuinfo"));
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) == 0) {
      cpu = line.substr(line.find(':') + 2);
      break;
    }
  }
#if defined(__clang__)
  const std::string compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  const std::string compiler = std::string("gcc ") + __VERSION__;
#else
  const std::string compiler = "unknown";
#endif
  std::string out = "{\"hostname\":" + json_string(host);
  out += ",\"nproc\":" + std::to_string(std::thread::hardware_concurrency());
  out += ",\"cpu_model\":" + json_string(cpu);
  out += ",\"compiler\":" + json_string(compiler);
  out += ",\"build_type\":" + json_string(PERFBENCH_BUILD_TYPE);
  out += ",\"ptask_obs\":" + json_string(PERFBENCH_PTASK_OBS);
  out += ",\"git_commit\":" + json_string(options.git_commit);
  out += ",\"git_dirty\":" + json_string(options.git_dirty) + "}";
  return out;
}

/// Nearest-rank quantile; failed samples count as infinitely slow.
double quantile_ms(const std::vector<perfbench::Sample>& samples, double q,
                   bool repeats_only) {
  std::vector<double> values;
  for (const perfbench::Sample& sample : samples) {
    if (repeats_only && !sample.repeat) continue;
    values.push_back(sample.ok ? sample.latency_us / 1000.0
                               : std::numeric_limits<double>::infinity());
  }
  const double value =
      ptask::obs::percentile_nearest_rank(std::move(values), q);
  // JSON has no infinity: a percentile that lands on failures reads 1e9 ms.
  return std::isfinite(value) ? value : 1e9;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

struct ServerSnapshot {
  double cache_hits = 0.0;
  double cache_misses = 0.0;
  double cache_value_bytes = 0.0;
  double queue_wait_sum_us = 0.0;
  double queue_wait_count = 0.0;
  double queue_rejected = 0.0;
};

double exposition_value(const std::string& text, const std::string& name) {
  const std::string prefix = name + " ";
  std::istringstream lines(text);
  for (std::string line; std::getline(lines, line);) {
    if (line.rfind(prefix, 0) == 0) {
      return std::strtod(line.c_str() + prefix.size(), nullptr);
    }
  }
  return 0.0;
}

/// The daemon's public `stats` and `metrics` answers.  Queue figures use the
/// histogram's exact _sum/_count; serve.latency_us is not used (it starts
/// at dequeue and so leaves out queue wait and send).
ServerSnapshot snapshot(serve::Client& client) {
  ServerSnapshot out;
  const ptask::obs::json::Value stats = ptask::obs::json::parse(client.stats());
  if (const auto* body = stats.find("stats")) {
    if (const auto* cache = body->find("cache")) {
      if (const auto* v = cache->find("hits")) out.cache_hits = v->number;
      if (const auto* v = cache->find("misses")) out.cache_misses = v->number;
      if (const auto* v = cache->find("value_bytes")) {
        out.cache_value_bytes = v->number;
      }
    }
  }
  const std::string text = serve::response_metrics_text(client.metrics());
  out.queue_wait_sum_us =
      exposition_value(text, "ptask_serve_queue_wait_us_sum");
  out.queue_wait_count =
      exposition_value(text, "ptask_serve_queue_wait_us_count");
  out.queue_rejected =
      exposition_value(text, "ptask_serve_queue_rejected_total");
  return out;
}

/// Runs in a copy of the gate: a response with one flipped byte must be
/// flagged by the oracle.
bool oracle_flags_flipped_byte(const perfbench::Inputs& inputs) {
  if (inputs.workload == Workload::Sessions) {
    perfbench::Inputs copy;
    copy.workload = inputs.workload;
    copy.sessions.push_back(inputs.sessions.front());
    std::string& body = copy.sessions.front().last_body;
    if (body.empty()) return false;
    body[body.size() / 2] ^= 0x01;
    return perfbench::run_oracle(copy, 1).mismatches == 1;
  }
  const perfbench::Distinct& item = inputs.distinct.front();
  if (item.body.empty() ||
      !perfbench::check_answer(item, item.body, item.response).empty()) {
    return false;
  }
  std::string flipped = item.body;
  flipped[flipped.size() / 2] ^= 0x01;
  if (perfbench::check_answer(item, flipped, item.response).empty()) {
    return false;
  }
  if (item.request.certify) {
    // Right bytes, tampered hash.
    std::string response = item.response;
    const std::size_t at = response.rfind("\"0x");
    if (at == std::string::npos) return false;
    response[at + 3] = response[at + 3] == '0' ? '1' : '0';
    if (perfbench::check_answer(item, item.body, response).empty()) {
      return false;
    }
  }
  return true;
}

/// The written trace parses, and self times derived from the file equal
/// the in-memory ones.
bool trace_file_consistent(const std::string& path,
                           const std::vector<perfbench::SpanRecord>& spans) {
  const ptask::obs::json::Value document =
      ptask::obs::json::parse(read_text(path));
  const auto* events = document.find("traceEvents");
  if (events == nullptr || events->array.size() != spans.size()) return false;
  std::vector<perfbench::SpanRecord> parsed;
  for (const ptask::obs::json::Value& event : events->array) {
    perfbench::SpanRecord span;
    span.name = event.find("name")->string;
    span.begin_us = event.find("ts")->number;
    span.end_us = span.begin_us + event.find("dur")->number;
    span.id =
        static_cast<std::uint64_t>(event.find("args")->find("id")->number);
    span.parent =
        static_cast<std::uint64_t>(event.find("args")->find("parent")->number);
    parsed.push_back(std::move(span));
  }
  const auto from_file = perfbench::self_times(parsed);
  const auto in_memory = perfbench::self_times(spans);
  if (from_file.size() != in_memory.size()) return false;
  for (const auto& [name, row] : in_memory) {
    const auto it = from_file.find(name);
    if (it == from_file.end() || it->second.count != row.count ||
        std::abs(it->second.total_us - row.total_us) >
            1e-6 * std::max(1.0, std::abs(row.total_us))) {
      return false;
    }
  }
  return true;
}

int run(const Options& options) {
  const Workload workload = perfbench::parse_workload(options.workload);
  const int nproc =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  const perfbench::Sizes sizes =
      perfbench::sizes_for(options.seconds, options.selfcheck);
  const std::string tag = options.workload + "-seed" +
                          std::to_string(options.seed) + "-trace" +
                          (options.trace ? "1" : "0");
  std::vector<std::string> problems;
  std::size_t setup_failures = 0;

  // ---- set-up, repeated; the last one's daemon serves the timed window.
  std::vector<double> setup_s;
  perfbench::Inputs inputs;
  std::unique_ptr<perfbench::Daemon> daemon;
  std::vector<serve::Client> connections;
  for (int rep = 0; rep < kSetups; ++rep) {
    connections.clear();
    if (daemon) daemon->stop();
    daemon.reset();
    inputs = perfbench::Inputs{};  // frees the last set-up's inputs first
    const double t0 = perfbench::now_us();
    inputs = perfbench::generate(workload, options.seed, sizes, nproc);
    daemon = std::make_unique<perfbench::Daemon>(options.served,
                                                 inputs.daemon_workers);
    connections = perfbench::connect_all(daemon->port(), inputs.connections);
    setup_failures = perfbench::warm_up(inputs, connections);
    setup_s.push_back((perfbench::now_us() - t0) / 1e6);
  }
  if (setup_failures != 0) {
    problems.push_back(std::to_string(setup_failures) +
                       " set-up requests failed");
  }

  // ---- timed window.
  std::vector<perfbench::SpanLog> client_logs;
  for (int c = 0; c < inputs.connections; ++c) client_logs.emplace_back(c);
  const ServerSnapshot before = snapshot(connections.front());
  // Far above the window on a slow host, and still inside the 180 s a run
  // may take.
  const double deadline_us =
      perfbench::now_us() + std::max(8.0 * options.seconds, 20.0) * 1e6;
  const std::size_t rounds = perfbench::rounds_of(inputs, kRounds);
  perfbench::LoadResult load;
  std::map<std::string, std::vector<double>> per_round;
  for (std::size_t round = 0; round < rounds; ++round) {
    const double cpu0 = daemon->cpu_seconds();
    const perfbench::LoadResult part =
        perfbench::run_timed(inputs, connections, round, rounds, deadline_us,
                             options.trace ? &client_logs : nullptr);
    const double cpu1 = daemon->cpu_seconds();
    const double ok = static_cast<double>(part.ok);
    per_round["ok_qps"].push_back(part.wall_s > 0.0 ? ok / part.wall_s : 0.0);
    per_round["latency_p50_ms"].push_back(
        quantile_ms(part.samples, 0.50, false));
    per_round["latency_p99_ms"].push_back(
        quantile_ms(part.samples, 0.99, false));
    // sessions sends no repeated content: its repeat p99 is the overall p99.
    per_round["repeat_p99_ms"].push_back(quantile_ms(
        part.samples, 0.99, workload != Workload::Sessions));
    per_round["server_cpu_ms_per_op"].push_back(
        ok > 0.0 ? (cpu1 - cpu0) * 1000.0 / ok : 0.0);
    perfbench::merge(load, part);
  }
  if (!connections.front().connected()) {
    connections.front().connect("127.0.0.1", daemon->port());
  }
  const ServerSnapshot after = snapshot(connections.front());
  const double peak_rss_mib = daemon->peak_rss_mib();

  double ping_us = 0.0;
  if (options.trace) {
    perfbench::SpanLog& log = client_logs.front();
    const std::string ping = "{\"type\":\"ping\"}";
    for (int i = 0; i < kPings; ++i) {
      const perfbench::ScopedSpan span(log, "client.ping", i + 1);
      connections.front().call(ping);
    }
    std::vector<double> pings;
    for (const perfbench::SpanRecord& span : log.spans()) {
      if (span.name == "client.ping") {
        pings.push_back(span.end_us - span.begin_us);
      }
    }
    ping_us = median(pings);
  }
  if (const std::size_t unclosed =
          perfbench::close_sessions(inputs, connections.front())) {
    problems.push_back(std::to_string(unclosed) + " sessions did not close");
  }
  connections.clear();
  if (!daemon->stop()) problems.push_back("ptask_served did not exit cleanly");

  // ---- correctness gate, outside the timed window.
  const perfbench::OracleResult oracle = perfbench::run_oracle(inputs, nproc);
  for (const std::string& message : oracle.messages) {
    problems.push_back("oracle: " + message);
  }
  const double realized_share =
      load.samples.empty() ? 0.0
                           : static_cast<double>(load.repeats) /
                                 static_cast<double>(load.samples.size());
  if (std::abs(realized_share - inputs.declared_repeat_share) > 1e-3) {
    problems.push_back("realized repeat share " + json_number(realized_share) +
                       " departs from the declared " +
                       json_number(inputs.declared_repeat_share));
  }
  if (load.mismatches != 0) {
    problems.push_back(std::to_string(load.mismatches) +
                       " repeat answers differ from the first answer");
  }

  // ---- metrics: timing ones are medians over the rounds.
  std::map<std::string, double> metrics;
  for (const auto& [name, values] : per_round) metrics[name] = median(values);
  metrics["server_peak_rss_mb"] = peak_rss_mib;
  double log_sum = 0.0;
  for (double makespan : oracle.makespans) log_sum += std::log(makespan);
  metrics["makespan_geomean_s"] =
      oracle.makespans.empty()
          ? 0.0
          : std::exp(log_sum / static_cast<double>(oracle.makespans.size()));
  metrics["setup_s"] = median(setup_s);

  std::map<std::string, double> attribution;
  std::string trace_path;
  if (options.trace) {
    perfbench::SpanLog replay_log(inputs.connections);
    const perfbench::ReplayResult replayed =
        perfbench::replay(inputs, sizes.replay_cap, replay_log);
    for (const std::string& problem : replayed.problems) {
      problems.push_back("replay: " + problem);
    }
    metrics.insert(replayed.metrics.begin(), replayed.metrics.end());
    attribution = replayed.served_path_us;
    const double hits = after.cache_hits - before.cache_hits;
    const double misses = after.cache_misses - before.cache_misses;
    metrics["serve.cache.hit_ratio"] =
        hits + misses > 0.0 ? hits / (hits + misses) : 0.0;
    metrics["serve.cache.value_bytes"] = after.cache_value_bytes;
    const double waits = after.queue_wait_count - before.queue_wait_count;
    metrics["serve.queue.wait_mean_us"] =
        waits > 0.0
            ? (after.queue_wait_sum_us - before.queue_wait_sum_us) / waits
            : 0.0;
    metrics["serve.queue.rejected"] =
        after.queue_rejected - before.queue_rejected;
    metrics["serve.rtt_ping_us"] = ping_us;
    metrics["load.repeat_share"] = realized_share;
    metrics["trace.ok_qps"] = metrics["ok_qps"];
    metrics["trace.latency_p50_ms"] = metrics["latency_p50_ms"];
    metrics["trace.latency_p99_ms"] = metrics["latency_p99_ms"];

    std::vector<perfbench::SpanRecord> spans;
    for (perfbench::SpanLog& log : client_logs) {
      std::vector<perfbench::SpanRecord> part = log.take();
      spans.insert(spans.end(), std::make_move_iterator(part.begin()),
                   std::make_move_iterator(part.end()));
    }
    const std::vector<perfbench::SpanRecord>& replay_spans = replay_log.spans();
    spans.insert(spans.end(), replay_spans.begin(), replay_spans.end());
    // One trace file per workload (the latest traced run): a mixed trace
    // is about 10 MB, too much to keep for every seed.
    trace_path = options.out_dir + "/" + options.workload + ".trace.json";
    if (!perfbench::write_chrome_trace(
            trace_path, spans,
            "{\"workload\":" + json_string(options.workload) +
                ",\"seed\":" + std::to_string(options.seed) +
                ",\"fingerprint\":" + fingerprint(options) + "}")) {
      problems.push_back("cannot write " + trace_path);
    } else if (options.selfcheck && !trace_file_consistent(trace_path, spans)) {
      problems.push_back("self-check: trace file self times disagree");
    }
    if (options.selfcheck && replayed.pipeline_checked == 0) {
      problems.push_back("self-check: no decorated pipeline run compared");
    }
  }
  if (options.selfcheck && !oracle_flags_flipped_byte(inputs)) {
    problems.push_back("self-check: oracle missed a flipped response byte");
  }

  // ---- result record and output.
  const std::size_t failed = load.attempted - load.ok + oracle.mismatches +
                             oracle.certificate_mismatches + setup_failures;
  const std::size_t attempted =
      load.attempted + (inputs.workload == Workload::Sessions
                            ? inputs.sessions.size()
                            : inputs.warm);
  const bool correct = problems.empty() && oracle.mismatches == 0 &&
                       oracle.certificate_mismatches == 0 &&
                       load.errors == 0 && load.unsent == 0;

  const auto family_json = [](const std::map<std::string, std::size_t>& rows) {
    std::string out = "{";
    for (const auto& [name, count] : rows) {
      if (out.size() > 1) out += ',';
      out += json_string(name) + ":" + std::to_string(count);
    }
    return out + "}";
  };
  std::string metrics_json = "{";
  for (const MetricSpec& spec : options.trace ? std::vector<MetricSpec>(
                                                    std::begin(kPerLayer),
                                                    std::end(kPerLayer))
                                              : std::vector<MetricSpec>(
                                                    std::begin(kEndToEnd),
                                                    std::end(kEndToEnd))) {
    if (metrics_json.size() > 1) metrics_json += ',';
    metrics_json += json_string(spec.name) + ":{\"value\":" +
                    json_number(metrics[spec.name]) + ",\"unit\":" +
                    json_string(spec.unit) + "}";
  }
  metrics_json += "}";

  std::string record = "{\"fingerprint\":" + fingerprint(options);
  record += ",\"workload\":" + json_string(options.workload);
  record += ",\"seed\":" + std::to_string(options.seed);
  record += ",\"seconds\":" + json_number(options.seconds);
  record += ",\"trace\":" + std::string(options.trace ? "1" : "0");
  record += ",\"connections\":" + std::to_string(inputs.connections);
  record += ",\"daemon_workers\":" + std::to_string(inputs.daemon_workers);
  record += ",\"setup_runs_s\":[";
  for (std::size_t i = 0; i < setup_s.size(); ++i) {
    record += (i == 0 ? "" : ",") + json_number(setup_s[i]);
  }
  record += "],\"load\":{\"attempted\":" + std::to_string(load.attempted) +
            ",\"ok\":" + std::to_string(load.ok) +
            ",\"refused\":" + std::to_string(load.refused) +
            ",\"errors\":" + std::to_string(load.errors) +
            ",\"unsent\":" + std::to_string(load.unsent) +
            ",\"wall_s\":" + json_number(load.wall_s) +
            ",\"declared_repeat_share\":" +
            json_number(inputs.declared_repeat_share) +
            ",\"realized_repeat_share\":" + json_number(realized_share) +
            ",\"distinct_requests\":" +
            std::to_string(inputs.workload == Workload::Sessions
                               ? inputs.sessions.size()
                               : inputs.distinct.size()) +
            ",\"duplicates_dropped\":" +
            std::to_string(inputs.duplicates_dropped) +
            ",\"family_distinct\":" + family_json(inputs.family_distinct) +
            ",\"family_sent\":" + family_json(load.family_sent) + "}";
  record += ",\"rounds\":{";
  for (const auto& [name, values] : per_round) {
    if (record.back() != '{') record += ',';
    record += json_string(name) + ":[";
    for (std::size_t i = 0; i < values.size(); ++i) {
      record += (i == 0 ? "" : ",") + json_number(values[i]);
    }
    record += "]";
  }
  record += "}";
  record += ",\"oracle\":{\"checked\":" + std::to_string(oracle.checked) +
            ",\"mismatches\":" + std::to_string(oracle.mismatches) +
            ",\"certificate_mismatches\":" +
            std::to_string(oracle.certificate_mismatches) + "}";
  if (options.trace) {
    record += ",\"served_path_us\":{";
    bool first = true;
    for (const auto& [layer, us] : attribution) {
      record += (first ? "" : ",") + json_string(layer) + ":" + json_number(us);
      first = false;
    }
    record += "},\"trace_file\":" + json_string(trace_path);
    // Tracing overhead: the traced window against this seed's untraced run.
    const std::string untraced_path = options.out_dir + "/" + options.workload +
                                      "-seed" + std::to_string(options.seed) +
                                      "-trace0.json";
    const std::string untraced_text = read_text(untraced_path);
    if (!untraced_text.empty()) {
      try {
        const ptask::obs::json::Value untraced =
            ptask::obs::json::parse(untraced_text);
        const auto* m = untraced.find("metrics");
        const double qps = m->find("ok_qps")->find("value")->number;
        const double p50 = m->find("latency_p50_ms")->find("value")->number;
        record += ",\"tracing_overhead\":{\"untraced_ok_qps\":" +
                  json_number(qps) + ",\"traced_ok_qps\":" +
                  json_number(metrics["ok_qps"]) +
                  ",\"untraced_latency_p50_ms\":" + json_number(p50) +
                  ",\"traced_latency_p50_ms\":" +
                  json_number(metrics["latency_p50_ms"]) + "}";
      } catch (const std::exception&) {
      }
    }
  }
  record += ",\"problems\":[";
  for (std::size_t i = 0; i < problems.size(); ++i) {
    record += (i == 0 ? "" : ",") + json_string(problems[i]);
  }
  record += "],\"metrics\":" + metrics_json + "}";
  {
    std::ofstream out(options.out_dir + "/" + tag + ".json");
    out << record << "\n";
  }

  std::cout << "perfbench: " << options.workload << " seed " << options.seed
            << ": " << load.ok << "/" << load.attempted << " ok in "
            << load.wall_s << " s, repeat share " << realized_share
            << " (declared " << inputs.declared_repeat_share << "), oracle "
            << oracle.checked << " checked, " << oracle.mismatches
            << " mismatches, " << oracle.certificate_mismatches
            << " certificate mismatches\n";
  std::cout << "perfbench: distinct by family "
            << family_json(inputs.family_distinct) << ", sent by family "
            << family_json(load.family_sent)
            << ", duplicates dropped " << inputs.duplicates_dropped << "\n";
  std::cout << "perfbench: fingerprint " << fingerprint(options) << "\n";
  for (const auto& [layer, us] : attribution) {
    std::cout << "perfbench: served path per request: " << layer << " "
              << us << " us\n";
  }
  for (const std::string& problem : problems) {
    std::cout << "perfbench: PROBLEM: " << problem << "\n";
  }
  std::cout << "{\"correct\":" << (correct ? "true" : "false")
            << ",\"attempted\":" << attempted << ",\"failed\":" << failed
            << ",\"metrics\":" << metrics_json << "}" << std::endl;
  return correct && failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        throw std::invalid_argument("missing value for " + arg);
      }
      return argv[++i];
    };
    try {
      if (arg == "--served") {
        options.served = next();
      } else if (arg == "--workload") {
        options.workload = next();
      } else if (arg == "--seed") {
        options.seed = std::stoull(next());
      } else if (arg == "--seconds") {
        options.seconds = std::stod(next());
      } else if (arg == "--trace") {
        options.trace = next() == "1";
      } else if (arg == "--out-dir") {
        options.out_dir = next();
      } else if (arg == "--git-commit") {
        options.git_commit = next();
      } else if (arg == "--git-dirty") {
        options.git_dirty = next();
      } else if (arg == "--selfcheck") {
        options.selfcheck = true;
      } else {
        return usage();
      }
    } catch (const std::exception& e) {
      std::cerr << "perfbench_driver: " << e.what() << "\n";
      return usage();
    }
  }
  if (options.served.empty() || options.workload.empty() ||
      options.seconds <= 0.0) {
    return usage();
  }
  try {
    return run(options);
  } catch (const std::exception& e) {
    std::cerr << "perfbench_driver: " << e.what() << "\n";
    return 1;
  }
}
