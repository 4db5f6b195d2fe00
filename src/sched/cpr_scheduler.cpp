#include "ptask/sched/cpr_scheduler.hpp"

#include <algorithm>
#include <span>
#include <utility>
#include <vector>

namespace ptask::sched {

MoldableResult CprScheduler::schedule(const core::TaskGraph& graph,
                                      int total_cores) const {
  const int n = graph.num_tasks();
  const int P = total_cores;
  const TaskTimeTable table(graph, *cost_, P, mode_);
  MoldableWorkspace workspace(graph, table);

  std::vector<int> allocation(static_cast<std::size_t>(n), 1);
  // The makespan of `allocation`; trials only need it, so the schedule is
  // materialized once, at the end.
  double current = workspace.run(allocation);

  std::vector<core::TaskId> candidates;
  constexpr double kEps = 1e-15;
  bool improved = true;
  while (improved) {
    improved = false;
    // The last run priced `allocation`: it was the initial run or the trial
    // accepted below, so its bottom levels are the current ones.
    workspace.critical_path(candidates);
    const double sum_before = workspace.total_time();

    // Try the critical-path tasks in decreasing bottom-level order.
    const std::span<const double> bottom_level = workspace.bottom_level();
    std::sort(candidates.begin(), candidates.end(),
              [&](core::TaskId a, core::TaskId b) {
                return bottom_level[static_cast<std::size_t>(a)] >
                       bottom_level[static_cast<std::size_t>(b)];
              });
    for (core::TaskId id : candidates) {
      const int p = allocation[static_cast<std::size_t>(id)];
      if (p >= P || p >= graph.task(id).max_cores()) continue;
      allocation[static_cast<std::size_t>(id)] = p + 1;
      // Cutoff prunes doomed trials: once the partial makespan exceeds
      // current + kEps neither the strict-improvement nor the tie branch
      // below can accept, so the run stops placing tasks early.  The
      // decision is exactly the one the full schedule would produce (the
      // makespan only grows as tasks are placed).
      const double trial = workspace.run(allocation, current + kEps);
      // Accept strict makespan improvements; on an exact tie, accept if the
      // sum of the task times shrank (this is what lets CPR make progress
      // through the plateau of a layer of equal independent tasks, where
      // widening any single task cannot move the makespan until all of them
      // widened).
      bool accept = trial < current - kEps;
      if (!accept && trial <= current + kEps) {
        accept = workspace.total_time() < sum_before - kEps;
      }
      if (accept) {
        current = trial;
        improved = true;
        break;  // recompute the critical path with the new allocation
      }
      allocation[static_cast<std::size_t>(id)] = p;  // revert
    }
  }

  // An accepted trial is at most its own cutoff, so it ran to completion:
  // re-running the final allocation reproduces the last accepted schedule.
  MoldableResult result;
  workspace.run(allocation);
  result.schedule = workspace.materialize();
  result.allocation = std::move(allocation);
  return result;
}

}  // namespace ptask::sched
