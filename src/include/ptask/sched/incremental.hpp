#pragma once
/// \file incremental.hpp
/// Online scheduling with local repair: graph deltas + a re-entrant pipeline.
///
/// `IncrementalScheduler` keeps the settled schedule of an accumulated task
/// graph plus the per-layer memo state of the last pipeline invocation
/// (`LayerMemoEntry`, pipeline.hpp).  On a `GraphDelta` -- a batch of newly
/// arriving tasks and edges with release times and priorities -- it re-runs
/// the Algorithm-1 passes over the grown graph, but AssignLPT replays every
/// layer whose content signature still matches the memo and (re)schedules
/// only the layers the delta actually perturbed; the repaired suffix is
/// spliced onto the untouched settled prefix inside the same result.
///
/// The contract is *bit-identity*: `extend` produces exactly the schedule a
/// full from-scratch run over the accumulated graph would produce -- same
/// bytes under serve::serialize_schedule -- the repair only avoids
/// re-deriving the layers whose inputs did not change.  Release times and
/// priorities are arrival-ordering metadata (validated for monotonicity and
/// surfaced to callers); placement itself stays the paper's pure Algorithm 1,
/// which is what keeps the differential oracle exact.
///
/// The stateless `run` override makes the class a drop-in registry strategy
/// ("incremental"): a one-shot run is simply an extend from an empty memo,
/// so its output is the layer scheduler's modulo the strategy name.

#include <cstddef>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "ptask/core/mtask.hpp"
#include "ptask/core/task_graph.hpp"
#include "ptask/sched/pipeline.hpp"

namespace ptask::sched {

/// One newly arriving task of a delta.
struct ArrivingTask {
  core::MTask task;
  double release_time = 0.0;  ///< arrival instant; >= the batch release
  int priority = 0;           ///< caller ordering hint (annotation only)
};

/// One online arrival batch: tasks are appended to the accumulated graph in
/// order (the i-th new task gets id `old_num_tasks + i`), then `edges` are
/// inserted atomically.  Edge endpoints refer to the *accumulated* graph, so
/// deltas may wire new tasks below any already-settled task.
struct GraphDelta {
  double release_time = 0.0;  ///< batch arrival instant (monotonic per session)
  std::vector<ArrivingTask> tasks;
  std::vector<std::pair<core::TaskId, core::TaskId>> edges;
};

/// An invalid delta: unknown edge endpoints, self edges, cycles, or a
/// non-monotonic release time.  The scheduler state is unchanged when this
/// is thrown (strong exception safety).
class DeltaError : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

/// What the last repair reused vs. recomputed.
struct RepairStats {
  std::size_t total_layers = 0;
  std::size_t layers_reused = 0;     ///< replayed bit-identically from memo
  std::size_t layers_scheduled = 0;  ///< (re)scheduled this invocation
  std::size_t settled_prefix = 0;    ///< leading layers replayed unchanged
  std::size_t delta_tasks = 0;
  std::size_t delta_edges = 0;
};

/// Stateful online scheduler over a growing task graph.
///
/// Not thread-safe: concurrent sessions each own an instance (the serve
/// layer holds one per session behind a per-session lock).
class IncrementalScheduler final : public Scheduler {
 public:
  explicit IncrementalScheduler(const cost::CostModel& cost,
                                LayerSchedulerOptions options = {});

  std::string_view name() const override { return "incremental"; }

  /// Stateless one-shot schedule of `graph` (the registry path).  Exactly
  /// the layer scheduler's result modulo the strategy name; does not touch
  /// session state.
  Schedule run(const core::TaskGraph& graph, int total_cores) const override;

  /// Starts (or restarts) a session: schedules `graph` from scratch and
  /// settles the memo for subsequent `extend` calls.
  const Schedule& reset(core::TaskGraph graph, int total_cores,
                        double release_time = 0.0);

  /// Applies one arrival batch and repairs the schedule locally.  Returns
  /// the spliced schedule -- bit-identical (serve::serialize_schedule) to a
  /// full re-schedule of the accumulated graph.  The graph grows in place,
  /// and its chain contraction is extended rather than rebuilt.  Throws
  /// DeltaError when the delta is invalid, and passes on any exception of
  /// the repair itself (e.g. the cost model's); either way all state is
  /// left untouched.
  const Schedule& extend(const GraphDelta& delta);

  bool has_schedule() const { return has_schedule_; }
  /// The settled schedule of the accumulated graph (requires has_schedule()).
  const Schedule& current() const;
  /// The accumulated graph the settled schedule covers.
  const core::TaskGraph& graph() const { return graph_; }
  int total_cores() const { return total_cores_; }
  /// Release instant of the last accepted batch (monotonicity floor).
  double last_release_time() const { return last_release_; }
  /// Reuse/repair counters of the last reset/extend.
  const RepairStats& last_stats() const { return stats_; }

 private:
  Pipeline pipeline_;
  core::TaskGraph graph_;
  int total_cores_ = 0;
  bool has_schedule_ = false;
  Schedule current_;
  std::vector<LayerMemoEntry> memo_;
  RepairStats stats_;
  double last_release_ = 0.0;
};

}  // namespace ptask::sched
