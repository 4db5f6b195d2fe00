#include "ptask/core/graph_algorithms.hpp"

#include <algorithm>
#include <stdexcept>

namespace ptask::core {

namespace {

/// True if the edge u -> v may be an interior link of a linear chain.
bool chainable(const TaskGraph& g, TaskId u, TaskId v) {
  return g.out_degree(u) == 1 && g.in_degree(v) == 1 && !g.task(u).is_marker() &&
         !g.task(v).is_marker();
}

/// A task heads a chain unless its unique predecessor chains into it.
bool is_chain_head(const TaskGraph& g, TaskId v) {
  return g.in_degree(v) != 1 || !chainable(g, g.predecessors(v).front(), v);
}

/// The maximal chain starting at `head`, in chain order.
std::vector<TaskId> walk_chain(const TaskGraph& g, TaskId head) {
  std::vector<TaskId> chain{head};
  TaskId cur = head;
  while (g.out_degree(cur) == 1) {
    const TaskId next = g.successors(cur).front();
    if (!chainable(g, cur, next)) break;
    chain.push_back(next);
    cur = next;
  }
  return chain;
}

/// Records `chain` as contracted node members.size() -- pointing its
/// members' representatives at it -- and returns the node's merged task.
MTask add_chain(const TaskGraph& g, std::vector<TaskId> chain,
                ChainContraction& result) {
  MTask merged = g.task(chain.front());
  if (chain.size() > 1) {
    merged.set_name("chain(" + g.task(chain.front()).name() + ".." +
                    g.task(chain.back()).name() + ")");
    for (std::size_t i = 1; i < chain.size(); ++i) {
      const MTask& t = g.task(chain[i]);
      merged.add_work_flop(t.work_flop());
      for (const CollectiveOp& op : t.comms()) merged.add_comm(op);
      for (const Param& p : t.params()) merged.add_param(p);
      merged.set_max_cores(std::min(merged.max_cores(), t.max_cores()));
    }
  }
  const auto c = static_cast<TaskId>(result.members.size());
  for (TaskId member : chain) {
    result.representative[static_cast<std::size_t>(member)] = c;
  }
  result.members.push_back(std::move(chain));
  return merged;
}

}  // namespace

ChainContraction contract_linear_chains(const TaskGraph& graph) {
  const int n = graph.num_tasks();
  ChainContraction result;
  result.representative.assign(static_cast<std::size_t>(n), kInvalidTask);

  // Walk every chain from its head and create the contracted node.
  for (TaskId head = 0; head < n; ++head) {
    if (is_chain_head(graph, head)) {
      result.contracted.add_task(
          add_chain(graph, walk_chain(graph, head), result));
    }
  }

  // Re-create edges between distinct contracted nodes.  The bulk insert
  // dedups and runs one Kahn pass over the whole contracted graph, instead
  // of a per-edge reachability probe -- same resulting adjacency (first
  // occurrence wins), but linear instead of quadratic on dense inputs.
  std::vector<std::pair<TaskId, TaskId>> edges;
  edges.reserve(static_cast<std::size_t>(graph.num_edges()));
  for (TaskId u = 0; u < n; ++u) {
    for (TaskId v : graph.successors(u)) {
      const TaskId cu = result.representative[static_cast<std::size_t>(u)];
      const TaskId cv = result.representative[static_cast<std::size_t>(v)];
      if (cu != cv) edges.push_back({cu, cv});
    }
  }
  result.contracted.add_edges(edges);
  return result;
}

bool extend_linear_chains(
    ChainContraction& contraction, const TaskGraph& graph, int old_num_tasks,
    const std::vector<std::pair<TaskId, TaskId>>& fresh_edges) {
  std::vector<TaskId>& rep = contraction.representative;
  const bool fast =
      old_num_tasks >= 0 && old_num_tasks <= graph.num_tasks() &&
      rep.size() == static_cast<std::size_t>(old_num_tasks) &&
      std::all_of(fresh_edges.begin(), fresh_edges.end(), [&](const auto& e) {
        return e.second >= old_num_tasks;
      });
  if (!fast) {
    contraction = contract_linear_chains(graph);
    return false;
  }

  // With every fresh edge ending at a new task, old in-degrees are fixed
  // and old out-degrees only grow at fresh sources.  So an old chain can
  // only change where it holds a fresh source: it may grow past its tail,
  // or split after the source, whose old chain successor becomes a head.
  // Every other old chain keeps its members.  `first` is the smallest head
  // of a changed chain or of a chain a split starts; chains with smaller
  // heads are untouched, and since contracted ids follow head order they
  // keep their ids too.
  std::vector<std::vector<TaskId>>& members = contraction.members;
  TaskId first = old_num_tasks;
  for (const auto& [from, to] : fresh_edges) {
    if (from >= old_num_tasks) continue;
    const std::vector<TaskId>& chain =
        members[static_cast<std::size_t>(rep[static_cast<std::size_t>(from)])];
    first = std::min(first, chain.front());
    const auto at = std::find(chain.begin(), chain.end(), from);
    if (at + 1 != chain.end()) first = std::min(first, *(at + 1));
  }
  const auto keep = static_cast<std::size_t>(
      std::partition_point(members.begin(), members.end(),
                           [&](const std::vector<TaskId>& chain) {
                             return chain.front() < first;
                           }) -
      members.begin());

  // Contracted nodes from `keep` on are replaced.  A kept node's entry that
  // names one is remapped through the old node's head (succ entries) or
  // tail (pred entries): both stay a head / tail of the grown graph.
  std::vector<TaskId> old_head;
  std::vector<TaskId> old_tail;
  for (std::size_t c = keep; c < members.size(); ++c) {
    old_head.push_back(members[c].front());
    old_tail.push_back(members[c].back());
  }
  members.resize(keep);

  // Re-walk every chain whose head is `first` or later, in head order.
  rep.resize(static_cast<std::size_t>(graph.num_tasks()), kInvalidTask);
  std::vector<MTask> tasks;
  for (TaskId head = first; head < graph.num_tasks(); ++head) {
    if (is_chain_head(graph, head)) {
      tasks.push_back(add_chain(graph, walk_chain(graph, head), contraction));
    }
  }
  std::vector<TaskId> succ_remap;
  std::vector<TaskId> pred_remap;
  for (std::size_t i = 0; i < old_head.size(); ++i) {
    succ_remap.push_back(rep[static_cast<std::size_t>(old_head[i])]);
    pred_remap.push_back(rep[static_cast<std::size_t>(old_tail[i])]);
  }

  // Rebuilt nodes: only a chain's tail has edges leaving the chain, and
  // they all end at heads of distinct chains; only its head has entering
  // ones, all from tails.  contract_linear_chains enumerates edges by
  // ascending source, so succ follows the tail's successor order and pred
  // the ascending tail ids.
  std::vector<std::vector<TaskId>> succ(tasks.size());
  std::vector<std::vector<TaskId>> pred(tasks.size());
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    const std::vector<TaskId>& chain = members[keep + i];
    for (TaskId s : graph.successors(chain.back())) {
      succ[i].push_back(rep[static_cast<std::size_t>(s)]);
    }
    pred[i] = graph.predecessors(chain.front());
    std::sort(pred[i].begin(), pred[i].end());
    for (TaskId& p : pred[i]) p = rep[static_cast<std::size_t>(p)];
  }
  contraction.contracted.replace_suffix(static_cast<int>(keep), succ_remap,
                                        pred_remap, std::move(tasks),
                                        std::move(succ), std::move(pred));
  return true;
}

ChainContraction identity_contraction(const TaskGraph& graph) {
  ChainContraction result;
  result.contracted = graph;
  result.members.resize(static_cast<std::size_t>(graph.num_tasks()));
  result.representative.resize(static_cast<std::size_t>(graph.num_tasks()));
  for (TaskId id = 0; id < graph.num_tasks(); ++id) {
    result.members[static_cast<std::size_t>(id)] = {id};
    result.representative[static_cast<std::size_t>(id)] = id;
  }
  return result;
}

std::vector<std::vector<TaskId>> greedy_layers(const TaskGraph& graph) {
  const int n = graph.num_tasks();
  std::vector<int> remaining_preds(static_cast<std::size_t>(n));
  for (TaskId id = 0; id < n; ++id) {
    remaining_preds[static_cast<std::size_t>(id)] = graph.in_degree(id);
  }

  std::vector<std::vector<TaskId>> layers;
  std::vector<TaskId> frontier;
  for (TaskId id = 0; id < n; ++id) {
    if (remaining_preds[static_cast<std::size_t>(id)] == 0) {
      frontier.push_back(id);
    }
  }

  int emitted = 0;
  while (!frontier.empty()) {
    std::vector<TaskId> layer;
    std::vector<TaskId> next;
    for (TaskId id : frontier) {
      if (!graph.task(id).is_marker()) layer.push_back(id);
      ++emitted;
      for (TaskId s : graph.successors(id)) {
        if (--remaining_preds[static_cast<std::size_t>(s)] == 0) {
          next.push_back(s);
        }
      }
    }
    if (!layer.empty()) layers.push_back(std::move(layer));
    frontier = std::move(next);
  }
  if (emitted != n) throw std::logic_error("task graph contains a cycle");
  return layers;
}

CriticalPathInfo critical_path(const TaskGraph& graph,
                               std::span<const double> task_time) {
  const int n = graph.num_tasks();
  if (static_cast<int>(task_time.size()) != n) {
    throw std::invalid_argument("one task time per task required");
  }
  CriticalPathInfo info;
  info.top_level.assign(static_cast<std::size_t>(n), 0.0);
  info.bottom_level.assign(static_cast<std::size_t>(n), 0.0);

  const std::vector<TaskId> order = graph.topological_order();
  for (TaskId id : order) {
    double top = 0.0;
    for (TaskId p : graph.predecessors(id)) {
      top = std::max(top, info.top_level[static_cast<std::size_t>(p)] +
                              task_time[static_cast<std::size_t>(p)]);
    }
    info.top_level[static_cast<std::size_t>(id)] = top;
  }
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const TaskId id = *it;
    double below = 0.0;
    for (TaskId s : graph.successors(id)) {
      below = std::max(below, info.bottom_level[static_cast<std::size_t>(s)]);
    }
    info.bottom_level[static_cast<std::size_t>(id)] =
        below + task_time[static_cast<std::size_t>(id)];
  }

  TaskId cur = kInvalidTask;
  for (TaskId id = 0; id < n; ++id) {
    const double len = info.bottom_level[static_cast<std::size_t>(id)];
    if (graph.in_degree(id) == 0 && len > info.length) {
      info.length = len;
      cur = id;
    }
  }
  while (cur != kInvalidTask) {
    info.path.push_back(cur);
    TaskId next = kInvalidTask;
    double best = -1.0;
    for (TaskId s : graph.successors(cur)) {
      const double len = info.bottom_level[static_cast<std::size_t>(s)];
      if (len > best) {
        best = len;
        next = s;
      }
    }
    cur = next;
  }
  return info;
}

TaskGraph repeat_graph(const TaskGraph& step, int repetitions) {
  if (repetitions < 1) throw std::invalid_argument("need >= 1 repetition");
  TaskGraph program;
  std::vector<TaskId> prev_map;  // previous copy: original id -> program id

  for (int rep = 0; rep < repetitions; ++rep) {
    std::vector<TaskId> map(static_cast<std::size_t>(step.num_tasks()),
                            kInvalidTask);
    for (TaskId id = 0; id < step.num_tasks(); ++id) {
      if (step.task(id).is_marker()) continue;
      MTask copy = step.task(id);
      copy.set_name(copy.name() + "#" + std::to_string(rep));
      map[static_cast<std::size_t>(id)] = program.add_task(std::move(copy));
    }
    for (TaskId from = 0; from < step.num_tasks(); ++from) {
      if (step.task(from).is_marker()) continue;
      for (TaskId to : step.successors(from)) {
        if (step.task(to).is_marker()) continue;
        program.add_edge(map[static_cast<std::size_t>(from)],
                         map[static_cast<std::size_t>(to)]);
      }
    }
    if (rep > 0) {
      // Sinks of the previous copy feed the sources of this one.
      for (TaskId id = 0; id < step.num_tasks(); ++id) {
        const MTask& t = step.task(id);
        if (t.is_marker()) continue;
        bool is_sink = true;
        for (TaskId s : step.successors(id)) {
          if (!step.task(s).is_marker()) is_sink = false;
        }
        if (!is_sink) continue;
        for (TaskId src = 0; src < step.num_tasks(); ++src) {
          const MTask& st = step.task(src);
          if (st.is_marker()) continue;
          bool is_source = true;
          for (TaskId p : step.predecessors(src)) {
            if (!step.task(p).is_marker()) is_source = false;
          }
          if (!is_source) continue;
          program.add_edge(prev_map[static_cast<std::size_t>(id)],
                           map[static_cast<std::size_t>(src)]);
        }
      }
    }
    prev_map = std::move(map);
  }
  return program;
}

}  // namespace ptask::core
