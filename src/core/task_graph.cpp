#include "ptask/core/task_graph.hpp"

#include <algorithm>
#include <cstdint>
#include <queue>
#include <sstream>
#include <stdexcept>
#include <unordered_map>

namespace ptask::core {

TaskId TaskGraph::add_task(MTask task) {
  tasks_.push_back(std::move(task));
  succ_.emplace_back();
  pred_.emplace_back();
  return static_cast<TaskId>(tasks_.size() - 1);
}

void TaskGraph::check_id(TaskId id) const {
  if (id < 0 || id >= num_tasks()) {
    throw std::out_of_range("task id out of range");
  }
}

void TaskGraph::add_edge(TaskId from, TaskId to) {
  check_id(from);
  check_id(to);
  if (from == to) throw std::invalid_argument("self edge");
  if (has_edge(from, to)) return;
  if (reaches(to, from)) {
    throw std::invalid_argument("edge would create a cycle");
  }
  succ_[static_cast<std::size_t>(from)].push_back(to);
  pred_[static_cast<std::size_t>(to)].push_back(from);
  ++num_edges_;
}

std::vector<std::pair<TaskId, TaskId>> TaskGraph::add_edges(
    const std::vector<std::pair<TaskId, TaskId>>& edges) {
  std::vector<std::pair<TaskId, TaskId>> fresh;
  if (edges.empty()) return fresh;
  const std::size_t n = tasks_.size();

  // Validate ranges / self edges and drop duplicates before touching any
  // adjacency, so a bad batch leaves the graph byte-identical.  The batch's
  // successor overlay lives in one flat CSR buffer (counted, prefix-summed,
  // then filled); per-node slices stay short in practice, so duplicate
  // probes are linear scans of the filled slice -- no hashing, no per-node
  // vector allocations.
  std::vector<std::uint32_t> offset(n + 1, 0);
  for (const auto& [from, to] : edges) {
    check_id(from);
    check_id(to);
    if (from == to) throw std::invalid_argument("self edge");
    ++offset[static_cast<std::size_t>(from) + 1];
  }
  for (std::size_t i = 0; i < n; ++i) offset[i + 1] += offset[i];
  std::vector<TaskId> overlay(edges.size());
  std::vector<std::uint32_t> filled(n, 0);
  std::vector<std::uint32_t> in_added(n, 0);
  fresh.reserve(edges.size());
  for (const auto& [from, to] : edges) {
    if (has_edge(from, to)) continue;
    TaskId* const begin =
        overlay.data() + offset[static_cast<std::size_t>(from)];
    TaskId* const end = begin + filled[static_cast<std::size_t>(from)];
    if (std::find(begin, end, to) != end) continue;
    *end = to;
    ++filled[static_cast<std::size_t>(from)];
    ++in_added[static_cast<std::size_t>(to)];
    fresh.push_back({from, to});
  }
  if (fresh.empty()) return fresh;

  // One Kahn pass over the overlay graph (existing adjacency + the batch):
  // every node drains iff the combined edge set is acyclic.
  std::vector<int> indeg(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    indeg[i] = static_cast<int>(pred_[i].size() + in_added[i]);
  }
  std::vector<TaskId> ready;
  ready.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (indeg[i] == 0) ready.push_back(static_cast<TaskId>(i));
  }
  std::size_t drained = 0;
  while (!ready.empty()) {
    const TaskId id = ready.back();
    ready.pop_back();
    ++drained;
    const auto relax = [&](TaskId s) {
      if (--indeg[static_cast<std::size_t>(s)] == 0) ready.push_back(s);
    };
    for (TaskId s : succ_[static_cast<std::size_t>(id)]) relax(s);
    const TaskId* const begin =
        overlay.data() + offset[static_cast<std::size_t>(id)];
    const TaskId* const end = begin + filled[static_cast<std::size_t>(id)];
    for (const TaskId* s = begin; s != end; ++s) relax(*s);
  }
  if (drained != n) {
    throw std::invalid_argument("edge batch would create a cycle");
  }

  // Exact-size reserves keep the commit loop realloc-free; the loop itself
  // appends in batch order so the resulting adjacency order is identical to
  // a sequence of add_edge calls.
  for (std::size_t i = 0; i < n; ++i) {
    if (filled[i] > 0) succ_[i].reserve(succ_[i].size() + filled[i]);
    if (in_added[i] > 0) pred_[i].reserve(pred_[i].size() + in_added[i]);
  }
  for (const auto& [from, to] : fresh) {
    succ_[static_cast<std::size_t>(from)].push_back(to);
    pred_[static_cast<std::size_t>(to)].push_back(from);
    ++num_edges_;
  }
  return fresh;
}

void TaskGraph::roll_back(
    int num_tasks, const std::vector<std::pair<TaskId, TaskId>>& fresh_edges) {
  if (num_tasks < 0 || num_tasks > this->num_tasks()) {
    throw std::out_of_range("roll_back past the task count");
  }
  // Check the whole precondition before changing anything, in O(edges +
  // dropped tasks' degrees): taken in reverse, each edge must be the last
  // entry of both its lists once the later ones are popped, and afterwards
  // no edge may join a kept task to a dropped one.
  std::unordered_map<TaskId, std::size_t> succ_popped;
  std::unordered_map<TaskId, std::size_t> pred_popped;
  for (auto it = fresh_edges.rbegin(); it != fresh_edges.rend(); ++it) {
    const auto [from, to] = *it;
    check_id(from);
    check_id(to);
    const std::vector<TaskId>& succ = succ_[static_cast<std::size_t>(from)];
    const std::vector<TaskId>& pred = pred_[static_cast<std::size_t>(to)];
    std::size_t& succ_gone = succ_popped[from];
    std::size_t& pred_gone = pred_popped[to];
    if (succ_gone >= succ.size() || succ[succ.size() - 1 - succ_gone] != to ||
        pred_gone >= pred.size() || pred[pred.size() - 1 - pred_gone] != from) {
      throw std::logic_error("roll_back: edge is not a latest insertion");
    }
    ++succ_gone;
    ++pred_gone;
  }
  const auto joins_kept = [&](const std::vector<TaskId>& adjacency,
                              std::size_t popped) {
    return std::any_of(adjacency.begin(),
                       adjacency.end() - static_cast<std::ptrdiff_t>(popped),
                       [&](TaskId other) { return other < num_tasks; });
  };
  for (TaskId id = num_tasks; id < this->num_tasks(); ++id) {
    const auto succ_it = succ_popped.find(id);
    const auto pred_it = pred_popped.find(id);
    if (joins_kept(succ_[static_cast<std::size_t>(id)],
                   succ_it == succ_popped.end() ? 0 : succ_it->second) ||
        joins_kept(pred_[static_cast<std::size_t>(id)],
                   pred_it == pred_popped.end() ? 0 : pred_it->second)) {
      throw std::logic_error(
          "roll_back: an edge joins a kept and a dropped task");
    }
  }

  for (auto it = fresh_edges.rbegin(); it != fresh_edges.rend(); ++it) {
    succ_[static_cast<std::size_t>(it->first)].pop_back();
    pred_[static_cast<std::size_t>(it->second)].pop_back();
    --num_edges_;
  }
  const auto keep = static_cast<std::ptrdiff_t>(num_tasks);
  tasks_.erase(tasks_.begin() + keep, tasks_.end());
  succ_.erase(succ_.begin() + keep, succ_.end());
  pred_.erase(pred_.begin() + keep, pred_.end());
}

void TaskGraph::replace_suffix(int keep, const std::vector<TaskId>& succ_remap,
                               const std::vector<TaskId>& pred_remap,
                               std::vector<MTask> tasks,
                               std::vector<std::vector<TaskId>> succ,
                               std::vector<std::vector<TaskId>> pred) {
  const auto k = static_cast<std::size_t>(keep);
  if (keep < 0 || k > tasks_.size() ||
      succ_remap.size() != tasks_.size() - k ||
      pred_remap.size() != tasks_.size() - k || succ.size() != tasks.size() ||
      pred.size() != tasks.size()) {
    throw std::logic_error("replace_suffix: sizes disagree");
  }
  const auto end = static_cast<TaskId>(k + tasks.size());

  // The kept tasks that name a replaced one are its kept neighbours.
  std::vector<TaskId> touched;
  for (std::size_t c = k; c < tasks_.size(); ++c) {
    for (TaskId p : pred_[c]) {
      if (p < keep) touched.push_back(p);
    }
    for (TaskId s : succ_[c]) {
      if (s < keep) touched.push_back(s);
    }
  }
  std::sort(touched.begin(), touched.end());
  touched.erase(std::unique(touched.begin(), touched.end()), touched.end());

  // Every edge touching a new task, read once from the successor lists and
  // once from the predecessor lists: the two readings must agree.
  std::vector<std::pair<TaskId, TaskId>> by_succ;
  std::vector<std::pair<TaskId, TaskId>> by_pred;
  bool in_range = true;
  const auto remapped = [&](const std::vector<TaskId>& remap, TaskId x) {
    const TaskId y = remap[static_cast<std::size_t>(x) - k];
    in_range = in_range && y >= keep && y < end;
    return y;
  };
  for (TaskId u : touched) {
    for (TaskId s : succ_[static_cast<std::size_t>(u)]) {
      if (s >= keep) by_succ.push_back({u, remapped(succ_remap, s)});
    }
    for (TaskId p : pred_[static_cast<std::size_t>(u)]) {
      if (p >= keep) by_pred.push_back({remapped(pred_remap, p), u});
    }
  }
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    const auto c = static_cast<TaskId>(k + i);
    for (TaskId s : succ[i]) {
      in_range = in_range && s >= 0 && s < end;
      by_succ.push_back({c, s});
    }
    for (TaskId p : pred[i]) {
      in_range = in_range && p >= 0 && p < end;
      by_pred.push_back({p, c});
    }
  }
  std::sort(by_succ.begin(), by_succ.end());
  std::sort(by_pred.begin(), by_pred.end());
  if (!in_range || by_succ != by_pred) {
    throw std::logic_error(
        "replace_suffix: successor and predecessor lists disagree");
  }

  for (std::size_t c = k; c < tasks_.size(); ++c) {
    num_edges_ -= static_cast<int>(succ_[c].size());
  }
  tasks_.resize(k);
  succ_.resize(k);
  pred_.resize(k);
  for (TaskId u : touched) {
    for (TaskId& s : succ_[static_cast<std::size_t>(u)]) {
      if (s >= keep) s = succ_remap[static_cast<std::size_t>(s) - k];
    }
    for (TaskId& p : pred_[static_cast<std::size_t>(u)]) {
      if (p >= keep) p = pred_remap[static_cast<std::size_t>(p) - k];
    }
  }
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    num_edges_ += static_cast<int>(succ[i].size());
    tasks_.push_back(std::move(tasks[i]));
    succ_.push_back(std::move(succ[i]));
    pred_.push_back(std::move(pred[i]));
  }
}

const MTask& TaskGraph::task(TaskId id) const {
  check_id(id);
  return tasks_[static_cast<std::size_t>(id)];
}

MTask& TaskGraph::task(TaskId id) {
  check_id(id);
  return tasks_[static_cast<std::size_t>(id)];
}

const std::vector<TaskId>& TaskGraph::successors(TaskId id) const {
  check_id(id);
  return succ_[static_cast<std::size_t>(id)];
}

const std::vector<TaskId>& TaskGraph::predecessors(TaskId id) const {
  check_id(id);
  return pred_[static_cast<std::size_t>(id)];
}

int TaskGraph::in_degree(TaskId id) const {
  return static_cast<int>(predecessors(id).size());
}

int TaskGraph::out_degree(TaskId id) const {
  return static_cast<int>(successors(id).size());
}

bool TaskGraph::has_edge(TaskId from, TaskId to) const {
  check_id(from);
  check_id(to);
  const auto& s = succ_[static_cast<std::size_t>(from)];
  return std::find(s.begin(), s.end(), to) != s.end();
}

std::vector<TaskId> TaskGraph::topological_order() const {
  std::vector<int> indeg(tasks_.size());
  for (std::size_t i = 0; i < tasks_.size(); ++i) {
    indeg[i] = static_cast<int>(pred_[i].size());
  }
  std::priority_queue<TaskId, std::vector<TaskId>, std::greater<>> ready;
  for (std::size_t i = 0; i < tasks_.size(); ++i) {
    if (indeg[i] == 0) ready.push(static_cast<TaskId>(i));
  }
  std::vector<TaskId> order;
  order.reserve(tasks_.size());
  while (!ready.empty()) {
    const TaskId id = ready.top();
    ready.pop();
    order.push_back(id);
    for (TaskId s : succ_[static_cast<std::size_t>(id)]) {
      if (--indeg[static_cast<std::size_t>(s)] == 0) ready.push(s);
    }
  }
  if (order.size() != tasks_.size()) {
    throw std::logic_error("task graph contains a cycle");
  }
  return order;
}

bool TaskGraph::reaches(TaskId from, TaskId to) const {
  check_id(from);
  check_id(to);
  if (from == to) return true;
  std::vector<bool> seen(tasks_.size(), false);
  std::vector<TaskId> stack{from};
  seen[static_cast<std::size_t>(from)] = true;
  while (!stack.empty()) {
    const TaskId v = stack.back();
    stack.pop_back();
    for (TaskId s : succ_[static_cast<std::size_t>(v)]) {
      if (s == to) return true;
      if (!seen[static_cast<std::size_t>(s)]) {
        seen[static_cast<std::size_t>(s)] = true;
        stack.push_back(s);
      }
    }
  }
  return false;
}

bool TaskGraph::independent(TaskId a, TaskId b) const {
  if (a == b) return false;
  return !reaches(a, b) && !reaches(b, a);
}

std::pair<TaskId, TaskId> TaskGraph::add_start_stop_markers() {
  std::vector<TaskId> sources, sinks;
  for (TaskId id = 0; id < num_tasks(); ++id) {
    if (in_degree(id) == 0) sources.push_back(id);
    if (out_degree(id) == 0) sinks.push_back(id);
  }
  MTask start("start", 0.0);
  start.set_marker(true);
  MTask stop("stop", 0.0);
  stop.set_marker(true);
  const TaskId start_id = add_task(std::move(start));
  const TaskId stop_id = add_task(std::move(stop));
  for (TaskId s : sources) add_edge(start_id, s);
  for (TaskId s : sinks) add_edge(s, stop_id);
  return {start_id, stop_id};
}

double TaskGraph::total_work_flop() const {
  double total = 0.0;
  for (const MTask& t : tasks_) total += t.work_flop();
  return total;
}

std::string TaskGraph::to_dot(const std::string& graph_name) const {
  std::ostringstream os;
  os << "digraph " << graph_name << " {\n";
  for (TaskId id = 0; id < num_tasks(); ++id) {
    os << "  t" << id << " [label=\"" << task(id).name() << "\"";
    if (task(id).is_marker()) os << " shape=point";
    os << "];\n";
  }
  for (TaskId id = 0; id < num_tasks(); ++id) {
    for (TaskId s : successors(id)) {
      os << "  t" << id << " -> t" << s << ";\n";
    }
  }
  os << "}\n";
  return os.str();
}

}  // namespace ptask::core
