#pragma once
/// \file moldable.hpp
/// Shared machinery for allocation-based moldable-task schedulers (CPA and
/// CPR, paper Section 4.3): a precomputed T(t, p) table, a reusable
/// list-scheduling workspace and the bottom-level list scheduler that turns
/// an allocation into a Gantt schedule.

#include <cstddef>
#include <limits>
#include <span>
#include <utility>
#include <vector>

#include "ptask/cost/cost_model.hpp"
#include "ptask/sched/schedule.hpp"

namespace ptask::sched {

/// Internal cost model a moldable scheduler optimizes.
///
/// `CommAware` prices computation plus the task's group/global collectives
/// under the default mapping pattern -- the same information the layer
/// scheduler uses.  Orthogonal collectives are inter-task exchanges whose
/// cost depends on the (unknown) group structure of a layer; they are not
/// part of T(t, p) for any of the schedulers.
///
/// `ComputeOnly` prices Tcomp/p only -- the near-linear speedup functions
/// the original CPA/CPR publications evaluate with.  A scheduler driven by
/// this model is blind to the communication penalty of very wide tasks,
/// which is precisely the failure mode the paper demonstrates for CPR on
/// the extrapolation method (Fig. 13 right).
enum class MoldableCostMode { CommAware, ComputeOnly };

/// Common result of the allocation-based schedulers (CPA/MCPA/CPR): cores
/// per task plus the list-scheduled Gantt view.  Convert to the canonical
/// `Schedule` with `canonical()` (pipeline.hpp) for the group/core-sequence
/// accessors and uniform downstream consumption.
struct MoldableResult {
  std::vector<int> allocation;  ///< cores per task
  GanttSchedule schedule;
};

/// Precomputed execution times T(t, p) for p in [1, P], one flat row of P
/// entries per task.
class TaskTimeTable {
 public:
  TaskTimeTable(const core::TaskGraph& graph, const cost::CostModel& cost,
                int total_cores,
                MoldableCostMode mode = MoldableCostMode::CommAware);

  /// T(id, p); throws std::out_of_range for a task or core count outside
  /// the table.
  double time(core::TaskId id, int p) const;
  int total_cores() const { return total_cores_; }
  /// T(id, 1..P) as one row, `row(id)[p - 1]`; `id` must be in range.
  std::span<const double> row(core::TaskId id) const {
    return std::span<const double>(times_).subspan(
        static_cast<std::size_t>(id) * static_cast<std::size_t>(total_cores_),
        static_cast<std::size_t>(total_cores_));
  }

 private:
  int total_cores_;
  int num_tasks_;
  std::vector<double> times_;  // [task * P + p - 1]
};

/// Reusable list-scheduling state for one (graph, table) pair.
///
/// Everything that does not depend on the allocation -- the topological
/// order, the in-degrees, the sources, and every scratch buffer -- is set up
/// once, so the iterative schedulers (CPR's trial widenings, CPA/MCPA's
/// critical-path loop) pay only for the placements themselves.  `run`
/// places tasks exactly as list_schedule does and `materialize` turns the
/// last run into a GanttSchedule.  The graph and the table must outlive
/// the workspace.  Not thread-safe; use one workspace per thread.
class MoldableWorkspace {
 public:
  /// Throws std::logic_error when the graph contains a cycle.
  MoldableWorkspace(const core::TaskGraph& graph, const TaskTimeTable& table);

  /// Sets the task times to T(t, allocation[t]) and recomputes the bottom
  /// levels under them.  Throws std::out_of_range for an allocation entry
  /// outside [1, P]; the allocation must hold one entry per task.
  void price(std::span<const int> allocation);

  /// Task times and bottom levels of the last `price` (or `run`).
  std::span<const double> task_time() const { return task_time_; }
  std::span<const double> bottom_level() const { return bottom_level_; }
  /// Sum of the task times, added up in task id order.
  double total_time() const;
  /// One critical path under the last pricing, written to `path` in order
  /// (the same path core::critical_path picks); returns its length.
  double critical_path(std::vector<core::TaskId>& path) const;

  /// Prices `allocation` and list-schedules it; returns the makespan.
  /// When the partial makespan exceeds `abort_above` the run stops there
  /// (see list_schedule) and the returned makespan is the partial one.
  double run(std::span<const int> allocation,
             double abort_above = std::numeric_limits<double>::infinity());

  /// The schedule of the last `run`: a partial one (unplaced tasks keep
  /// empty slots) when that run was cut off.
  GanttSchedule materialize() const;

 private:
  const core::TaskGraph* graph_;
  const TaskTimeTable* table_;
  std::vector<core::TaskId> order_;    // topological order
  std::vector<core::TaskId> sources_;  // in-degree 0, ascending id
  std::vector<int> in_degree_;

  std::vector<double> task_time_;
  std::vector<double> bottom_level_;

  // Placement state of the last run.
  std::vector<int> remaining_preds_;
  std::vector<double> ready_time_;
  std::vector<core::TaskId> ready_;
  std::vector<double> core_free_;
  std::vector<std::pair<double, int>> free_order_;
  std::vector<char> pred_core_;
  std::vector<char> chosen_core_;
  std::vector<int> pred_list_;
  std::vector<std::size_t> core_offset_;  // task's cores in cores_
  std::vector<int> cores_;
  std::vector<double> start_;
  std::vector<double> finish_;
  std::vector<core::TaskId> placed_;  // placement order
  double makespan_ = 0.0;
};

/// List-schedules `graph` with the fixed per-task core counts `allocation`
/// onto `P = table.total_cores()` symbolic cores.  Tasks are prioritized by
/// decreasing bottom level; a ready task starts as soon as its allocation of
/// cores is free (the cores that become available earliest are picked, with
/// ties broken towards the cores of the task's predecessors).  A one-shot
/// MoldableWorkspace run; iterative callers keep a workspace instead.
///
/// `abort_above` is a search-pruning cutoff for iterative callers: the
/// partial makespan only ever grows as tasks are placed, so once it exceeds
/// the cutoff the final makespan is guaranteed to as well and the caller
/// will reject the trial whatever the rest looks like.  When the cutoff
/// trips, the returned schedule is *partial* -- its makespan already
/// exceeds `abort_above`, which is all a reject decision needs -- so pass
/// the default (+inf) whenever the schedule itself is wanted.
GanttSchedule list_schedule(
    const core::TaskGraph& graph, std::span<const int> allocation,
    const TaskTimeTable& table,
    double abort_above = std::numeric_limits<double>::infinity());

}  // namespace ptask::sched
