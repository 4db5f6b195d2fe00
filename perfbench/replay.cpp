#include "replay.hpp"

#include <stdexcept>

#include "ptask/analysis/certifier.hpp"
#include "ptask/arch/machine.hpp"
#include "ptask/fuzz/generator.hpp"
#include "ptask/obs/json.hpp"
#include "ptask/sched/incremental.hpp"
#include "ptask/sched/portfolio.hpp"
#include "ptask/serve/protocol.hpp"
#include "ptask/serve/schedule_cache.hpp"

namespace perfbench {

namespace serve = ptask::serve;
namespace sched = ptask::sched;

namespace {

constexpr const char* kStrategies[] = {"layer", "cpa", "mcpa", "cpr", "dp"};

class TimedPass final : public sched::Pass {
 public:
  TimedPass(std::unique_ptr<sched::Pass> inner, SpanLog& log)
      : inner_(std::move(inner)),
        span_name_("sched.pass." + std::string(inner_->name())),
        log_(&log) {}
  std::string_view name() const override { return inner_->name(); }
  void run(sched::PassContext& ctx) const override {
    const ScopedSpan span(*log_, span_name_);
    inner_->run(ctx);
  }

 private:
  std::unique_ptr<sched::Pass> inner_;
  std::string span_name_;
  SpanLog* log_;
};

struct Accumulator {
  SpanLog* log = nullptr;
  serve::ScheduleCache cache;  ///< benchmark-owned, for the hit timing
  std::map<std::string, double> strategy_ms;
  std::map<std::string, double> strategy_wins;
  double winner_ms = 0.0;
  double all_ms = 0.0;
  std::size_t portfolio_runs = 0;
  double layers_reused = 0.0;
  double layers_total = 0.0;
  double request_bytes = 0.0;
  double response_bytes = 0.0;
  std::size_t wire_requests = 0;
  ReplayResult* result = nullptr;
};

/// The schedule-request path: parse, DOM, key, portfolio, certify,
/// serialize, cache fill + hit, then the decorated Algorithm-1 pipeline and
/// (given an instance seed) an incremental reset + extend of the same
/// instance.  `wire` = false skips the parse/serialize spans (used for the
/// sessions workload, whose served requests are extends).
void replay_request(Accumulator& acc, const serve::ScheduleRequest& source,
                    const std::string& payload, std::uint64_t instance_seed,
                    std::size_t group, bool wire) {
  SpanLog& log = *acc.log;
  const ScopedSpan root(log, "replay.request", group);
  serve::ScheduleRequest request;
  if (wire) {
    {
      const ScopedSpan span(log, "serve.protocol.parse", group);
      request = serve::parse_request(payload);
    }
    {
      const ScopedSpan span(log, "obs.json_parse", group);
      const ptask::obs::json::Value document = ptask::obs::json::parse(payload);
      if (!document.is_object()) throw std::runtime_error("payload not JSON");
    }
  } else {
    request = source;
  }
  std::string key;
  {
    const ScopedSpan span(log, "serve.protocol.key", group);
    key = serve::canonical_key(request);
  }
  const ptask::cost::CostModel cost{ptask::arch::Machine(request.machine)};
  sched::PortfolioReport report;
  sched::Schedule schedule;
  {
    const ScopedSpan span(log, "sched.portfolio", group);
    schedule = sched::PortfolioScheduler(cost).run(
        request.graph, request.total_cores, report);
  }
  ++acc.portfolio_runs;
  for (const sched::StrategyScore& score : report.scores) {
    acc.strategy_ms[score.strategy] += score.millis;
    acc.all_ms += score.millis;
    if (score.strategy == report.winner) {
      acc.strategy_wins[score.strategy] += 1.0;
      acc.winner_ms += score.millis;
    }
  }
  {
    const ScopedSpan span(log, "analysis.certify", group);
    if (!ptask::analysis::certify(request.graph, schedule, {}).ok()) {
      acc.result->problems.push_back("replayed schedule does not certify");
    }
  }
  std::string body;
  std::string response;
  {
    const ScopedSpan span(log, wire ? "serve.protocol.serialize"
                                    : "offpath.serialize",
                          group);
    body = serve::serialize_schedule(schedule);
    response = request.certify
                   ? serve::ok_response(
                         body, ptask::analysis::hash_hex(
                                   ptask::analysis::fnv1a64(body)))
                   : serve::ok_response(body);
  }
  if (wire) {
    acc.request_bytes += static_cast<double>(payload.size());
    acc.response_bytes += static_cast<double>(response.size());
    ++acc.wire_requests;
  }
  {
    const ScopedSpan span(log, "serve.cache.fill", group);
    acc.cache.get_or_compute(key, [&] { return body; });
  }
  {
    const ScopedSpan span(log, "serve.cache.lookup", group);
    const serve::ScheduleCache::Entry hit =
        acc.cache.get_or_compute(key, [] { return std::string(); });
    if (*hit != body) acc.result->problems.push_back("cache hit changed bytes");
  }
  {
    const sched::Pipeline timed = timed_algorithm1(cost, log);
    std::string decorated;
    {
      const ScopedSpan span(log, "sched.pass.lowering", group);
      decorated = serve::serialize_schedule(
          timed.run(request.graph, request.total_cores));
    }
    const std::string reference = serve::serialize_schedule(
        sched::Pipeline::algorithm1(cost).run(request.graph,
                                              request.total_cores));
    ++acc.result->pipeline_checked;
    if (decorated != reference) {
      acc.result->problems.push_back(
          "decorated pass pipeline differs from Pipeline::algorithm1");
    }
  }
  if (instance_seed != 0) {
    const ptask::fuzz::ArrivalStream stream =
        ptask::fuzz::arrival_stream(instance_seed, 2);
    const ptask::cost::CostModel stream_cost{
        ptask::arch::Machine(stream.instance.machine)};
    sched::IncrementalScheduler incremental(stream_cost);
    {
      const ScopedSpan span(log, "sched.incremental.reset", group);
      incremental.reset(stream.initial, stream.instance.total_cores,
                        stream.initial_release);
    }
    for (const sched::GraphDelta& delta : stream.deltas) {
      {
        const ScopedSpan span(log, "sched.incremental.extend", group);
        incremental.extend(delta);
      }
      acc.layers_reused += static_cast<double>(
          incremental.last_stats().layers_reused);
      acc.layers_total += static_cast<double>(
          incremental.last_stats().total_layers);
    }
  }
}

/// The session path: reset on the base graph, then every extend payload
/// parsed, applied and answered as the daemon does.
void replay_session(Accumulator& acc, const Session& session) {
  SpanLog& log = *acc.log;
  const ptask::cost::CostModel cost{
      ptask::arch::Machine(session.submit.machine)};
  sched::IncrementalScheduler incremental(cost);
  {
    const ScopedSpan span(log, "sched.incremental.reset", 0);
    incremental.reset(session.submit.graph, session.submit.total_cores,
                      session.submit.release_time);
  }
  for (std::size_t k = 0; k < session.extend_payloads.size(); ++k) {
    const std::string& payload = session.extend_payloads[k];
    const std::size_t group = k + 1;
    const ScopedSpan root(log, "replay.request", group);
    serve::ExtendRequest request;
    {
      const ScopedSpan span(log, "serve.protocol.parse", group);
      request = serve::parse_extend(payload);
    }
    {
      const ScopedSpan span(log, "obs.json_parse", group);
      const ptask::obs::json::Value document = ptask::obs::json::parse(payload);
      if (!document.is_object()) throw std::runtime_error("payload not JSON");
    }
    {
      const ScopedSpan span(log, "sched.incremental.extend", group);
      incremental.extend(request.delta);
    }
    acc.layers_reused +=
        static_cast<double>(incremental.last_stats().layers_reused);
    acc.layers_total +=
        static_cast<double>(incremental.last_stats().total_layers);
    std::string response;
    {
      const ScopedSpan span(log, "serve.protocol.serialize", group);
      response = serve::session_response(
          session.id, incremental.last_stats(),
          serve::serialize_schedule(incremental.current()));
    }
    acc.request_bytes += static_cast<double>(payload.size());
    acc.response_bytes += static_cast<double>(response.size());
    ++acc.wire_requests;
  }
}

}  // namespace

sched::Pipeline timed_algorithm1(const ptask::cost::CostModel& cost,
                                 SpanLog& log) {
  sched::Pipeline pipeline(cost, "layer");
  pipeline
      .append(std::make_unique<TimedPass>(
          std::make_unique<sched::ContractChains>(), log))
      .append(std::make_unique<TimedPass>(std::make_unique<sched::Layerize>(),
                                          log))
      .append(std::make_unique<TimedPass>(
          std::make_unique<sched::GroupSearch>(), log))
      .append(std::make_unique<TimedPass>(std::make_unique<sched::AssignLPT>(),
                                          log))
      .append(std::make_unique<TimedPass>(
          std::make_unique<sched::AdjustGroups>(), log));
  return pipeline;
}

ReplayResult replay(const Inputs& inputs, std::size_t cap, SpanLog& log) {
  ReplayResult result;
  Accumulator acc;
  acc.log = &log;
  acc.result = &result;

  if (inputs.workload == Workload::Sessions) {
    if (!inputs.sessions.empty()) replay_session(acc, inputs.sessions.front());
    // Off the served path: delta batches as standalone certified portfolio
    // requests, so every layer's figures exist on this workload too.
    std::size_t group = 1u << 20;
    for (const Session& session : inputs.sessions) {
      for (const ptask::core::TaskGraph& graph : session.delta_graphs) {
        if (group - (1u << 20) >= cap / 4) break;
        serve::ScheduleRequest request;
        request.total_cores = session.submit.total_cores;
        request.machine = session.submit.machine;
        request.graph = graph;
        request.certify = true;
        replay_request(acc, request, serve::serialize_request(request), 0,
                       group++, false);
      }
    }
  } else {
    // Warm requests first, then fresh ones in the order they were sent.
    const std::size_t count = std::min(cap, inputs.distinct.size());
    for (std::size_t i = 0; i < count; ++i) {
      const Distinct& item = inputs.distinct[i];
      replay_request(acc, item.request, item.payload, item.instance_seed,
                     i + 1, true);
    }
  }

  const std::map<std::string, SelfTime> self = self_times(log.spans());
  const auto mean = [&](const std::string& span) {
    const auto it = self.find(span);
    return it == self.end() ? 0.0 : it->second.mean_us();
  };
  std::map<std::string, double>& m = result.metrics;
  m["serve.protocol.parse_us"] = mean("serve.protocol.parse");
  m["obs.json_parse_us"] = mean("obs.json_parse");
  m["serve.protocol.key_us"] = mean("serve.protocol.key");
  m["serve.protocol.serialize_us"] = mean("serve.protocol.serialize");
  m["serve.cache.lookup_us"] = mean("serve.cache.lookup");
  const double wire =
      static_cast<double>(std::max<std::size_t>(1, acc.wire_requests));
  m["serve.protocol.request_bytes"] = acc.request_bytes / wire;
  m["serve.protocol.response_bytes"] = acc.response_bytes / wire;
  m["sched.portfolio_us"] = mean("sched.portfolio");
  const double runs =
      static_cast<double>(std::max<std::size_t>(1, acc.portfolio_runs));
  for (const char* strategy : kStrategies) {
    const std::string name = std::string("sched.strategy.") + strategy;
    m[name + "_ms"] = acc.strategy_ms[strategy] / runs;
    m[name + ".wins"] = acc.strategy_wins[strategy];
  }
  m["sched.portfolio.useful_ratio"] =
      acc.all_ms > 0.0 ? acc.winner_ms / acc.all_ms : 0.0;
  for (const char* pass : {"contract-chains", "layerize", "group-search",
                           "assign-lpt", "adjust-groups", "lowering"}) {
    m[std::string("sched.pass.") + pass + "_us"] =
        mean(std::string("sched.pass.") + pass);
  }
  m["sched.incremental.reset_us"] = mean("sched.incremental.reset");
  m["sched.incremental.extend_us"] = mean("sched.incremental.extend");
  m["sched.incremental.reuse_ratio"] =
      acc.layers_total > 0.0 ? acc.layers_reused / acc.layers_total : 0.0;
  m["analysis.certify_us"] = mean("analysis.certify");

  // How the workload's requests use these calls (per request, us).
  std::map<std::string, double>& path = result.served_path_us;
  const double parse = mean("serve.protocol.parse");
  const double hit_path =
      parse + mean("serve.protocol.key") + mean("serve.cache.lookup");
  switch (inputs.workload) {
    case Workload::Mixed: {
      const double fresh = 1.0 - inputs.declared_repeat_share;
      path["serve"] = hit_path + fresh * mean("serve.protocol.serialize");
      path["sched"] = fresh * mean("sched.portfolio");
      path["analysis"] = fresh * mean("analysis.certify");
      break;
    }
    case Workload::Sessions:
      path["serve"] = parse + mean("serve.protocol.serialize");
      path["sched"] = mean("sched.incremental.extend");
      path["analysis"] = 0.0;
      break;
  }
  return result;
}

}  // namespace perfbench
