#pragma once
/// \file replay.hpp
/// Single-threaded, in-process replay of a workload's inputs through the
/// public functions of each layer on the serving path (serve, obs, sched,
/// analysis), with a span around every call.  The spans give the per-layer
/// self times of the traced run.

#include <cstddef>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "ptask/cost/cost_model.hpp"
#include "ptask/sched/pipeline.hpp"
#include "trace_log.hpp"
#include "workloads.hpp"

namespace perfbench {

/// Algorithm 1 with every pass wrapped in a timing decorator that records
/// a "sched.pass.<name>" span in `log`.  Its schedules must be
/// byte-identical to Pipeline::algorithm1's.
ptask::sched::Pipeline timed_algorithm1(const ptask::cost::CostModel& cost,
                                        SpanLog& log);

struct ReplayResult {
  std::map<std::string, double> metrics;  ///< per-layer metric values
  /// Estimated served-path time per request, by layer (us): how the
  /// workload's requests use the replayed calls.
  std::map<std::string, double> served_path_us;
  std::size_t pipeline_checked = 0;     ///< decorated vs algorithm1 runs
  std::vector<std::string> problems;    ///< byte-identity failures etc.
};

/// Replays up to `cap` distinct requests of `inputs` (sessions: the first
/// session's extends, plus up to `cap` delta batches as standalone
/// requests) and derives the per-layer metrics from the spans in `log`.
ReplayResult replay(const Inputs& inputs, std::size_t cap, SpanLog& log);

}  // namespace perfbench
