#pragma once
/// \file task_graph.hpp
/// The M-task graph: a DAG whose nodes are M-tasks and whose directed edges
/// are input-output relations (paper Section 2.1, Fig. 1).

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "ptask/core/mtask.hpp"

namespace ptask::core {

struct ChainContraction;

/// Directed acyclic graph of M-tasks.
///
/// Node identity is the insertion index (`TaskId`).  The class maintains
/// forward and backward adjacency and offers the queries the scheduler
/// needs: topological order, reachability/independence, and degree counts.
class TaskGraph {
 public:
  TaskGraph() = default;

  /// Adds a task and returns its id.
  TaskId add_task(MTask task);

  /// Adds the input-output edge `from -> to`.  Duplicate edges are ignored.
  /// Throws std::invalid_argument when it would close a cycle.
  void add_edge(TaskId from, TaskId to);

  /// Adds a batch of edges atomically: the whole batch is validated first
  /// (ids in range, no self edges, no cycle through existing + new edges)
  /// and applied only when every edge is acceptable.  On
  /// std::invalid_argument the graph is unchanged -- the all-or-nothing
  /// contract incremental graph deltas rely on.  Duplicate edges (against
  /// the graph or inside the batch) are ignored.  Returns the edges actually
  /// inserted, in batch order; each is the last entry of its endpoints'
  /// adjacency lists until further edges arrive (see roll_back).
  /// This is also asymptotically cheaper than per-edge add_edge for large
  /// batches: one O(V + E) Kahn pass over the overlay instead of one
  /// reachability walk per edge.
  std::vector<std::pair<TaskId, TaskId>> add_edges(
      const std::vector<std::pair<TaskId, TaskId>>& edges);

  /// Undoes a growth step: removes `fresh_edges` -- the most recent
  /// insertions, as add_edges returned them -- in reverse, then drops every
  /// task with id >= `num_tasks`.  No edge may join the kept tasks to the
  /// dropped ones except those in `fresh_edges`.  The precondition is
  /// checked first: on std::logic_error (an edge that is not a latest
  /// insertion, or a kept/dropped edge left over) the graph is unchanged.
  void roll_back(int num_tasks,
                 const std::vector<std::pair<TaskId, TaskId>>& fresh_edges);

  int num_tasks() const { return static_cast<int>(tasks_.size()); }
  int num_edges() const { return num_edges_; }
  bool empty() const { return tasks_.empty(); }

  const MTask& task(TaskId id) const;
  MTask& task(TaskId id);

  const std::vector<TaskId>& successors(TaskId id) const;
  const std::vector<TaskId>& predecessors(TaskId id) const;
  int in_degree(TaskId id) const;
  int out_degree(TaskId id) const;

  bool has_edge(TaskId from, TaskId to) const;

  /// All task ids in one topological order (stable: ready tasks appear in id
  /// order).
  std::vector<TaskId> topological_order() const;

  /// True if `from` can reach `to` along directed edges.
  bool reaches(TaskId from, TaskId to) const;

  /// Two tasks are independent iff neither reaches the other (they may then
  /// execute concurrently on disjoint core groups).
  bool independent(TaskId a, TaskId b) const;

  /// Inserts zero-work marker start/stop tasks connected to all sources and
  /// sinks (the CM-task compiler inserts these automatically, Section 2.2.3).
  /// Returns {start_id, stop_id}.  No-op markers are excluded from layers.
  std::pair<TaskId, TaskId> add_start_stop_markers();

  /// Sum of work over all tasks (flop).
  double total_work_flop() const;

  /// GraphViz dot rendering (for documentation and debugging).
  std::string to_dot(const std::string& graph_name = "mtask_graph") const;

 private:
  // Extends a contraction's graph in place through replace_suffix.
  friend bool extend_linear_chains(
      ChainContraction& contraction, const TaskGraph& graph,
      int old_num_tasks,
      const std::vector<std::pair<TaskId, TaskId>>& fresh_edges);

  /// Replaces every task from `keep` on by `tasks`, whose adjacency is
  /// `succ` / `pred`.  A kept task's entry that named a replaced task x is
  /// rewritten in place to succ_remap[x - keep] in successor lists and to
  /// pred_remap[x - keep] in predecessor lists.  The edge count follows the
  /// lists.  Checked first, leaving the graph unchanged on
  /// std::logic_error: sizes agree, ids are in range, and every edge that
  /// touches a new task is listed in both its successor and its predecessor
  /// list.  Acyclicity is the caller's to keep.
  void replace_suffix(int keep, const std::vector<TaskId>& succ_remap,
                      const std::vector<TaskId>& pred_remap,
                      std::vector<MTask> tasks,
                      std::vector<std::vector<TaskId>> succ,
                      std::vector<std::vector<TaskId>> pred);

  void check_id(TaskId id) const;

  std::vector<MTask> tasks_;
  std::vector<std::vector<TaskId>> succ_;
  std::vector<std::vector<TaskId>> pred_;
  int num_edges_ = 0;
};

}  // namespace ptask::core
