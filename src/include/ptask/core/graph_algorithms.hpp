#pragma once
/// \file graph_algorithms.hpp
/// Structural algorithms on M-task graphs used by the schedulers:
/// linear-chain contraction and greedy layer partitioning (paper Section
/// 3.2, steps 1 and 2), plus critical-path machinery for CPA/CPR.

#include <span>
#include <vector>

#include "ptask/core/task_graph.hpp"

namespace ptask::core {

/// Result of replacing every maximal linear chain by a single node.
struct ChainContraction {
  TaskGraph contracted;
  /// members[c] lists the original task ids merged into contracted task c,
  /// in chain order (singleton for tasks that were not part of a chain).
  std::vector<std::vector<TaskId>> members;
  /// representative[orig] is the contracted node containing `orig`.
  std::vector<TaskId> representative;
};

/// Contracts all maximal linear chains (paper Section 3.2, step 1).
///
/// A linear chain is a path v1 -> v2 -> ... -> vk (k >= 2) where every
/// interior link satisfies out_degree(vi) == 1 and in_degree(vi+1) == 1.
/// The merged node accumulates the members' work and internal communication,
/// takes the most restrictive max_cores, and -- by construction -- forces all
/// chain members onto the same core group, avoiding re-distributions inside
/// the chain.  Marker tasks never participate in chains.
ChainContraction contract_linear_chains(const TaskGraph& graph);

/// Extends `contraction`, the chain contraction of `graph`'s first
/// `old_num_tasks` tasks before `fresh_edges` (as TaskGraph::add_edges
/// returned them) were inserted, to the contraction of the grown `graph`.
/// The result equals contract_linear_chains(graph) exactly: members,
/// representatives, merged tasks, adjacency order and edge count.
///
/// When every fresh edge ends at a new task (the online-arrival model),
/// only the chains from the smallest head a fresh source can change are
/// re-walked; the cost follows that suffix and its neighbourhood, not the
/// graph.  Otherwise -- an edge into an old task can split any chain -- it
/// falls back to a full contract_linear_chains.  Returns true on the fast
/// path, false on the fallback.
bool extend_linear_chains(
    ChainContraction& contraction, const TaskGraph& graph, int old_num_tasks,
    const std::vector<std::pair<TaskId, TaskId>>& fresh_edges);

/// The identity contraction: every task is its own (singleton) chain.  Used
/// by schedulers that skip chain contraction but still produce results in
/// the contracted-id index space.
ChainContraction identity_contraction(const TaskGraph& graph);

/// Greedy breadth-first partition into layers of pairwise independent tasks
/// (paper Section 3.2, step 2): repeatedly emit every task whose predecessors
/// have all been emitted.  Marker tasks are skipped (they carry no
/// computation and belong to no layer).
std::vector<std::vector<TaskId>> greedy_layers(const TaskGraph& graph);

/// Longest-path data for CPA/CPR.  `task_time[id]` is the (allocation-
/// dependent) execution time of task id.
struct CriticalPathInfo {
  double length = 0.0;
  std::vector<double> top_level;     ///< longest path ending before the task
  std::vector<double> bottom_level;  ///< longest path starting at the task
  std::vector<TaskId> path;          ///< one critical path, in order
};

CriticalPathInfo critical_path(const TaskGraph& graph,
                               std::span<const double> task_time);

/// Concatenates `repetitions` copies of a per-step graph into one program
/// graph: every (non-marker) sink of copy r feeds every (non-marker) source
/// of copy r+1, modelling the input-output relation that carries a solver's
/// state from one time step into the next.  Task names get a "#r" suffix;
/// markers are dropped (schedulers re-insert their own bookkeeping).
TaskGraph repeat_graph(const TaskGraph& step, int repetitions);

}  // namespace ptask::core
