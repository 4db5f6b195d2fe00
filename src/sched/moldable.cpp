#include "ptask/sched/moldable.hpp"

#include <algorithm>
#include <cstddef>
#include <stdexcept>
#include <utility>

namespace ptask::sched {

TaskTimeTable::TaskTimeTable(const core::TaskGraph& graph,
                             const cost::CostModel& cost, int total_cores,
                             MoldableCostMode mode)
    : total_cores_(total_cores), num_tasks_(graph.num_tasks()) {
  if (total_cores <= 0) {
    throw std::invalid_argument("core count must be positive");
  }
  times_.resize(static_cast<std::size_t>(num_tasks_) *
                static_cast<std::size_t>(total_cores));
  for (core::TaskId id = 0; id < num_tasks_; ++id) {
    // Orthogonal collectives are inter-task exchanges and never part of
    // T(t, p); price the task without them.
    core::MTask task(graph.task(id).name(), graph.task(id).work_flop());
    task.set_max_cores(graph.task(id).max_cores());
    if (mode == MoldableCostMode::CommAware) {
      for (const core::CollectiveOp& op : graph.task(id).comms()) {
        if (op.scope != core::CommScope::Orthogonal) task.add_comm(op);
      }
    }
    const std::size_t row = static_cast<std::size_t>(id) *
                            static_cast<std::size_t>(total_cores);
    for (int p = 1; p <= total_cores; ++p) {
      times_[row + static_cast<std::size_t>(p - 1)] =
          cost.symbolic_task_time(task, p, 1, total_cores);
    }
  }
}

double TaskTimeTable::time(core::TaskId id, int p) const {
  if (p < 1 || p > total_cores_) throw std::out_of_range("bad core count");
  if (id < 0 || id >= num_tasks_) throw std::out_of_range("bad task id");
  return row(id)[static_cast<std::size_t>(p - 1)];
}

MoldableWorkspace::MoldableWorkspace(const core::TaskGraph& graph,
                                     const TaskTimeTable& table)
    : graph_(&graph), table_(&table), order_(graph.topological_order()) {
  const auto n = static_cast<std::size_t>(graph.num_tasks());
  const auto P = static_cast<std::size_t>(table.total_cores());
  in_degree_.resize(n);
  for (core::TaskId id = 0; id < graph.num_tasks(); ++id) {
    in_degree_[static_cast<std::size_t>(id)] = graph.in_degree(id);
    if (graph.in_degree(id) == 0) sources_.push_back(id);
  }
  task_time_.resize(n);
  bottom_level_.resize(n);
  remaining_preds_.resize(n);
  ready_time_.resize(n);
  ready_.reserve(n);
  core_free_.resize(P);
  free_order_.resize(P);
  pred_core_.assign(P, 0);
  chosen_core_.assign(P, 0);
  pred_list_.reserve(P);
  core_offset_.assign(n + 1, 0);
  start_.resize(n);
  finish_.resize(n);
  placed_.reserve(n);
}

void MoldableWorkspace::price(std::span<const int> allocation) {
  const int n = graph_->num_tasks();
  if (static_cast<int>(allocation.size()) != n) {
    throw std::invalid_argument("one allocation entry per task required");
  }
  for (core::TaskId id = 0; id < n; ++id) {
    task_time_[static_cast<std::size_t>(id)] =
        table_->time(id, allocation[static_cast<std::size_t>(id)]);
  }
  // Bottom levels need only successors before predecessors; any reverse
  // topological order yields the same values (max is order-independent).
  for (auto it = order_.rbegin(); it != order_.rend(); ++it) {
    const core::TaskId id = *it;
    double below = 0.0;
    for (core::TaskId s : graph_->successors(id)) {
      below = std::max(below, bottom_level_[static_cast<std::size_t>(s)]);
    }
    bottom_level_[static_cast<std::size_t>(id)] =
        below + task_time_[static_cast<std::size_t>(id)];
  }
}

double MoldableWorkspace::total_time() const {
  double total = 0.0;
  for (const double t : task_time_) total += t;
  return total;
}

double MoldableWorkspace::critical_path(std::vector<core::TaskId>& path) const {
  // Same walk as core::critical_path: the first source with the strictly
  // longest bottom level, then at every step the first successor with the
  // strictly longest one.
  path.clear();
  double length = 0.0;
  core::TaskId cur = core::kInvalidTask;
  for (const core::TaskId id : sources_) {
    const double len = bottom_level_[static_cast<std::size_t>(id)];
    if (len > length) {
      length = len;
      cur = id;
    }
  }
  while (cur != core::kInvalidTask) {
    path.push_back(cur);
    core::TaskId next = core::kInvalidTask;
    double best = -1.0;
    for (core::TaskId s : graph_->successors(cur)) {
      const double len = bottom_level_[static_cast<std::size_t>(s)];
      if (len > best) {
        best = len;
        next = s;
      }
    }
    cur = next;
  }
  return length;
}

double MoldableWorkspace::run(std::span<const int> allocation,
                              double abort_above) {
  price(allocation);
  const int n = graph_->num_tasks();
  const int P = table_->total_cores();

  // Each task's cores live in one flat buffer at a fixed offset.
  for (core::TaskId id = 0; id < n; ++id) {
    core_offset_[static_cast<std::size_t>(id) + 1] =
        core_offset_[static_cast<std::size_t>(id)] +
        static_cast<std::size_t>(allocation[static_cast<std::size_t>(id)]);
  }
  cores_.resize(core_offset_.back());
  std::copy(in_degree_.begin(), in_degree_.end(), remaining_preds_.begin());
  std::fill(ready_time_.begin(), ready_time_.end(), 0.0);
  // Ready tasks ordered by decreasing bottom level.
  ready_.assign(sources_.begin(), sources_.end());
  std::fill(core_free_.begin(), core_free_.end(), 0.0);
  // All cores in (free time, index) order -- the order a stable sort of
  // 0..P-1 by free time yields.  Kept incrementally as a flat sorted
  // vector: a placement gives all of its p cores the same new free time
  // (the task's finish), so one compaction pass plus one block insert at
  // the lower bound restores the order in O(P) with no allocations.
  for (int c = 0; c < P; ++c) {
    free_order_[static_cast<std::size_t>(c)] = {0.0, c};
  }
  placed_.clear();
  makespan_ = 0.0;

  while (!ready_.empty()) {
    // Pick the ready task with the largest bottom level (the first one on
    // a tie).
    const auto it = std::max_element(
        ready_.begin(), ready_.end(), [&](core::TaskId a, core::TaskId b) {
          return bottom_level_[static_cast<std::size_t>(a)] <
                 bottom_level_[static_cast<std::size_t>(b)];
        });
    const core::TaskId id = *it;
    ready_.erase(it);
    const auto task = static_cast<std::size_t>(id);
    const int p = allocation[task];

    // Cores that become free earliest; among equally free cores, prefer the
    // cores of the task's predecessors (data affinity keeps chains on one
    // set of cores and avoids spurious re-distributions).
    pred_list_.clear();
    for (core::TaskId pr : graph_->predecessors(id)) {
      const auto pred = static_cast<std::size_t>(pr);
      for (std::size_t i = core_offset_[pred]; i < core_offset_[pred + 1];
           ++i) {
        const int c = cores_[i];
        if (pred_core_[static_cast<std::size_t>(c)] == 0) {
          pred_core_[static_cast<std::size_t>(c)] = 1;
          pred_list_.push_back(c);
        }
      }
    }
    // The start time is fixed by the p-th earliest-free core; any core free
    // by then is an equally good pick, so among those the predecessor cores
    // win (affinity costs nothing and avoids re-distribution).  The chosen
    // set is therefore: predecessor cores free by `start` first (in free
    // time order), then the other earliest-free cores -- at least p cores
    // are free by `start` by construction.
    double start = std::max(ready_time_[task],
                            free_order_[static_cast<std::size_t>(p - 1)].first);
    const std::span<int> cores = std::span<int>(cores_).subspan(
        core_offset_[task], static_cast<std::size_t>(p));
    std::size_t chosen = 0;
    // The sorted prefix with free <= start holds every eligible core (at
    // least p of them, since the p-th earliest-free core bounds `start`);
    // walking it visits cores in (free time, index) order, so taking the
    // predecessor cores first and backfilling with the rest reproduces the
    // affinity tie-break exactly.
    for (std::size_t i = 0; i < free_order_.size() && chosen < cores.size();
         ++i) {
      if (free_order_[i].first > start) break;
      if (pred_core_[static_cast<std::size_t>(free_order_[i].second)] != 0) {
        cores[chosen++] = free_order_[i].second;
      }
    }
    for (std::size_t i = 0; chosen < cores.size(); ++i) {
      if (pred_core_[static_cast<std::size_t>(free_order_[i].second)] == 0) {
        cores[chosen++] = free_order_[i].second;
      }
    }
    for (const int c : pred_list_) pred_core_[static_cast<std::size_t>(c)] = 0;
    std::sort(cores.begin(), cores.end());
    for (const int c : cores) {
      start = std::max(start, core_free_[static_cast<std::size_t>(c)]);
    }
    const double finish = start + task_time_[task];
    start_[task] = start;
    finish_[task] = finish;
    // Restore the free order: drop the chosen cores, then merge them back
    // in from the rear -- they all share the finish time and come with
    // ascending indices, so they already form a sorted run.
    for (const int c : cores) {
      chosen_core_[static_cast<std::size_t>(c)] = 1;
      core_free_[static_cast<std::size_t>(c)] = finish;
    }
    auto kept_end = std::remove_if(
        free_order_.begin(), free_order_.end(), [&](const auto& entry) {
          return chosen_core_[static_cast<std::size_t>(entry.second)] != 0;
        });
    auto dst = free_order_.end();
    for (std::size_t b = cores.size(); b > 0;) {
      const std::pair<double, int> entry{finish, cores[b - 1]};
      if (kept_end != free_order_.begin() && *(kept_end - 1) > entry) {
        *--dst = *(--kept_end);
      } else {
        *--dst = entry;
        --b;
      }
    }
    for (const int c : cores) chosen_core_[static_cast<std::size_t>(c)] = 0;
    makespan_ = std::max(makespan_, finish);
    placed_.push_back(id);
    // Prune-cutoff for trial-and-reject callers: the makespan is monotone
    // in the placements, so exceeding the cutoff now decides the trial.
    if (makespan_ > abort_above) return makespan_;

    for (core::TaskId s : graph_->successors(id)) {
      ready_time_[static_cast<std::size_t>(s)] =
          std::max(ready_time_[static_cast<std::size_t>(s)], finish);
      if (--remaining_preds_[static_cast<std::size_t>(s)] == 0) {
        ready_.push_back(s);
      }
    }
  }
  return makespan_;
}

GanttSchedule MoldableWorkspace::materialize() const {
  GanttSchedule gantt;
  gantt.total_cores = table_->total_cores();
  gantt.slots.resize(static_cast<std::size_t>(graph_->num_tasks()));
  for (const core::TaskId id : placed_) {
    const auto task = static_cast<std::size_t>(id);
    TaskSlot& slot = gantt.slots[task];
    slot.cores.assign(
        cores_.begin() + static_cast<std::ptrdiff_t>(core_offset_[task]),
        cores_.begin() + static_cast<std::ptrdiff_t>(core_offset_[task + 1]));
    slot.start = start_[task];
    slot.finish = finish_[task];
  }
  gantt.makespan = makespan_;
  return gantt;
}

GanttSchedule list_schedule(const core::TaskGraph& graph,
                            std::span<const int> allocation,
                            const TaskTimeTable& table, double abort_above) {
  MoldableWorkspace workspace(graph, table);
  workspace.run(allocation, abort_above);
  return workspace.materialize();
}

}  // namespace ptask::sched
