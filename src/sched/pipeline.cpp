#include "ptask/sched/pipeline.hpp"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <limits>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <unordered_map>
#include <utility>

#include "ptask/obs/metrics.hpp"
#include "ptask/obs/trace.hpp"

namespace ptask::sched {

namespace {

/// True when `task` carries an Orthogonal-scope collective, i.e. its
/// symbolic time depends on the concurrent group count.
bool depends_on_num_groups(const core::MTask& task) {
  for (const core::CollectiveOp& op : task.comms()) {
    if (op.scope == core::CommScope::Orthogonal) return true;
  }
  return false;
}

/// Per-layer working buffers, reused across the candidate group counts of
/// the layer (and across layers of one worker) so the candidate loop does
/// no per-candidate allocation.
struct LayerScratch {
  std::vector<std::size_t> order;     ///< LPT order, carried across candidates
  std::vector<double> time;           ///< patched times at the large size
  std::vector<double> time_lo;        ///< patched times at the small size
  std::vector<int> task_group;        ///< candidate assignment
  std::vector<std::pair<double, int>> heap;  ///< (load, group) min-heap
  /// Shared time rows: group size q -> per-task symbolic time.  Valid for
  /// tasks without orthogonal collectives (their time is independent of
  /// the candidate's group count), which is what lets the ~min(P, n)
  /// candidate counts of a layer share only O(sqrt(P)) distinct rows.
  std::unordered_map<int, std::vector<double>> rows;
  std::vector<std::size_t> ortho;     ///< tasks with orthogonal collectives
  /// Compute-only pruning bounds per group size: (max, sum) over tasks of
  /// work / (min(q, max_cores) * flops).
  std::unordered_map<int, std::pair<double, double>> compute_bounds;
};

struct PruneStats {
  std::uint64_t pruned = 0;
  std::uint64_t evaluated = 0;
};

/// One layer of Algorithm 1: evaluate every candidate group count with an
/// equal core split and the modified Sahni greedy assignment, keep the best.
///
/// Bit-identity contract: this computes the byte-identical ScheduledLayer
/// of the historical monolith, which priced every (task, candidate) pair
/// afresh and scanned for the least-loaded group (tests pin it against a
/// verbatim copy in tests/reference_layer_scheduler.hpp).  The invariants
/// that make that hold:
///  * `order` is sorted for *every* candidate, pruned ones included --
///    std::sort is unstable, so the carried order (and with it the
///    placement of equal-time tasks in the winning candidate) depends on
///    the full sort history;
///  * the heap pops the lowest-index minimum load, exactly the group
///    std::min_element scans to;
///  * a time row holds the doubles a per-candidate call returns: the model
///    is a pure function of (task, q, g, P) that reads g only for tasks
///    with orthogonal collectives, and those are re-priced per candidate;
///  * pruning uses true lower bounds (compute share at the largest group
///    size; the averaged bound is deflated by the worst-case summation
///    error), so a pruned candidate can never have beaten the incumbent.
///  The last two hold for any model that keeps the CostModel contract on
///  symbolic_task_time (cost_model.hpp).
ScheduledLayer schedule_layer(const core::TaskGraph& graph,
                              const std::vector<core::TaskId>& tasks,
                              const std::vector<int>& candidates, int P,
                              const cost::CostModel& cost,
                              LayerScratch& s, PruneStats& stats) {
  const std::size_t n = tasks.size();
  ScheduledLayer best;
  if (candidates.empty()) return best;

  s.order.resize(n);
  std::iota(s.order.begin(), s.order.end(), 0);
  s.rows.clear();
  s.compute_bounds.clear();
  s.ortho.clear();
  for (std::size_t i = 0; i < n; ++i) {
    if (depends_on_num_groups(graph.task(tasks[i]))) s.ortho.push_back(i);
  }

  // Fills (once) the shared time row for group size q; entries of tasks
  // with orthogonal collectives stay 0 and are patched per candidate.
  const auto shared_row = [&](int q, int g) -> const std::vector<double>& {
    auto [it, inserted] = s.rows.try_emplace(q);
    if (inserted) {
      it->second.assign(n, 0.0);
      std::size_t next_ortho = 0;  // s.ortho is ascending
      for (std::size_t i = 0; i < n; ++i) {
        if (next_ortho < s.ortho.size() && s.ortho[next_ortho] == i) {
          ++next_ortho;
          continue;
        }
        it->second[i] = cost.symbolic_task_time(graph.task(tasks[i]), q, g, P);
      }
    }
    return it->second;
  };
  // The layer's times at group size q under g groups; `into` receives the
  // patched copy when the layer has orthogonal tasks.
  const auto times_at = [&](int q, int g,
                            std::vector<double>& into) -> const double* {
    const std::vector<double>& row = shared_row(q, g);
    if (s.ortho.empty()) return row.data();
    into = row;
    for (const std::size_t i : s.ortho) {
      into[i] = cost.symbolic_task_time(graph.task(tasks[i]), q, g, P);
    }
    return into.data();
  };

  double best_time = std::numeric_limits<double>::infinity();
  int best_g = 0;

  for (const int g : candidates) {
    const int q_lo = P / g;
    const int rem = P % g;
    const int q_top = rem > 0 ? q_lo + 1 : q_lo;  // == equal_group_sizes[0]

    // Times at the first (largest) group size drive the LPT sort.
    const double* time_top = times_at(q_top, g, s.time);

    // The sort runs for every candidate, pruned ones included: `order`
    // carries across candidates (historical tie-break semantics), and
    // skipping an unstable sort could permute equal-time tasks of a later
    // winning candidate.
    std::sort(s.order.begin(), s.order.end(),
              [&](std::size_t a, std::size_t b) {
                return time_top[a] > time_top[b];
              });

    if (best_time < std::numeric_limits<double>::infinity()) {
      auto [it, inserted] = s.compute_bounds.try_emplace(q_top);
      if (inserted) {
        double max_c = 0.0;
        double sum_c = 0.0;
        for (std::size_t i = 0; i < n; ++i) {
          const double c =
              cost.symbolic_compute_time(graph.task(tasks[i]), q_top);
          max_c = std::max(max_c, c);
          sum_c += c;
        }
        it->second = {max_c, sum_c};
      }
      // max_c lower-bounds the makespan exactly: every task's time is at
      // least its compute share at the largest group size.  The averaged
      // bound (total compute spread over g groups) is deflated by the
      // worst-case summation error so rounding can never prune a candidate
      // that would have won.
      const double safety =
          1.0 - 8.0 * static_cast<double>(n + 2) *
                    std::numeric_limits<double>::epsilon();
      const double lower_bound =
          std::max(it->second.first,
                   it->second.second / static_cast<double>(g) * safety);
      if (lower_bound >= best_time) {
        ++stats.pruned;
        continue;
      }
    }
    ++stats.evaluated;

    const double* time_lo =
        rem > 0 ? times_at(q_lo, g, s.time_lo) : time_top;

    // Greedy assignment via a (load, group) min-heap: the heap minimum
    // under lexicographic pair order is the lowest-index minimum load --
    // exactly what a linear scan's std::min_element picks -- and each group
    // accumulates the same time sequence, so the assignment is bit-identical
    // at O(n log g) instead of O(n g).
    s.task_group.assign(n, 0);
    s.heap.clear();
    for (int gi = 0; gi < g; ++gi) s.heap.emplace_back(0.0, gi);
    // All-zero loads with ascending indices already form a min-heap.
    for (const std::size_t i : s.order) {
      std::pop_heap(s.heap.begin(), s.heap.end(), std::greater<>{});
      auto& [load, gi] = s.heap.back();
      load += gi < rem ? time_top[i] : time_lo[i];
      s.task_group[i] = gi;
      std::push_heap(s.heap.begin(), s.heap.end(), std::greater<>{});
    }
    double layer_time = 0.0;
    for (const auto& [load, gi] : s.heap) {
      layer_time = std::max(layer_time, load);
    }

    if (layer_time < best_time) {
      best_time = layer_time;
      best_g = g;
      best.task_group.swap(s.task_group);
      best.predicted_time = layer_time;
    }
  }

  if (best_g > 0) {
    // Materialized once for the winner instead of per improving candidate.
    best.tasks = tasks;
    best.group_sizes = equal_group_sizes(P, best_g);
  }
  return best;
}

/// Content signature of one layer: the ordered original-task member lists
/// of its contracted nodes plus the candidate group counts.  Layers with
/// equal signatures have byte-identical merged task contents (original
/// tasks are immutable under the online-arrival model and chain contraction
/// merges members deterministically), so their schedule_layer results are
/// interchangeable modulo the contracted-id labels.
std::string layer_signature(const core::ChainContraction& contraction,
                            const std::vector<core::TaskId>& tasks,
                            const std::vector<int>& candidates) {
  std::string key;
  key.reserve(tasks.size() * 8);
  for (const core::TaskId id : tasks) {
    for (const core::TaskId member :
         contraction.members[static_cast<std::size_t>(id)]) {
      key += std::to_string(member);
      key += ',';
    }
    key += ';';
  }
  key += '|';
  for (const int g : candidates) {
    key += std::to_string(g);
    key += ',';
  }
  return key;
}

/// The signature of a memo entry (members were captured at settle time).
std::string memo_signature(const LayerMemoEntry& entry) {
  std::string key;
  for (const std::vector<core::TaskId>& members : entry.members) {
    for (const core::TaskId member : members) {
      key += std::to_string(member);
      key += ',';
    }
    key += ';';
  }
  key += '|';
  for (const int g : entry.candidates) {
    key += std::to_string(g);
    key += ',';
  }
  return key;
}

/// Moves the pass results out of `ctx` and accumulates the predicted
/// makespan -- the shared tail of Pipeline::run and Pipeline::run_layered.
LayeredSchedule finalize_layered(PassContext& ctx) {
  LayeredSchedule result;
  result.total_cores = ctx.total_cores;
  result.contraction = std::move(ctx.contraction);
  result.layers = std::move(ctx.layers);
  for (const ScheduledLayer& layer : result.layers) {
    result.predicted_makespan += layer.predicted_time;
  }
  return result;
}

}  // namespace

void ContractChains::run(PassContext& ctx) const {
  obs::ScopedSpan span(obs::SpanKind::Scheduler, "sched.chain_contraction");
  if (!ctx.options.contract_chains) {
    ctx.contraction = core::identity_contraction(*ctx.graph);
  } else if (ctx.grown_from >= 0) {
    static obs::Counter& extended =
        obs::metrics().counter("sched.contraction.extended");
    static obs::Counter& rebuilt =
        obs::metrics().counter("sched.contraction.rebuilt");
    (core::extend_linear_chains(ctx.contraction, *ctx.graph, ctx.grown_from,
                                ctx.fresh_edges)
         ? extended
         : rebuilt)
        .add();
  } else {
    ctx.contraction = core::contract_linear_chains(*ctx.graph);
  }
}

void Layerize::run(PassContext& ctx) const {
  obs::ScopedSpan span(obs::SpanKind::Scheduler, "sched.layer_partition");
  ctx.layer_tasks = core::greedy_layers(ctx.contraction.contracted);
}

void GroupSearch::run(PassContext& ctx) const {
  obs::ScopedSpan span(obs::SpanKind::Scheduler, "sched.group_search");
  const int P = ctx.total_cores;
  ctx.group_candidates.clear();
  ctx.group_candidates.reserve(ctx.layer_tasks.size());
  for (const std::vector<core::TaskId>& tasks : ctx.layer_tasks) {
    const int n_tasks = static_cast<int>(tasks.size());
    int g_limit = std::min(P, n_tasks);
    if (ctx.options.max_groups > 0) {
      g_limit = std::min(g_limit, ctx.options.max_groups);
    }
    int g_first = 1;
    if (ctx.options.fixed_groups > 0) {
      g_first = g_limit = std::min(ctx.options.fixed_groups,
                                   std::min(P, n_tasks));
    }
    std::vector<int> candidates;
    candidates.reserve(static_cast<std::size_t>(g_limit - g_first + 1));
    for (int g = g_first; g <= g_limit; ++g) candidates.push_back(g);
    ctx.group_candidates.push_back(std::move(candidates));
  }
}

void AssignLPT::run(PassContext& ctx) const {
  obs::ScopedSpan span(obs::SpanKind::Scheduler, "sched.assign_lpt");
  if (ctx.group_candidates.size() != ctx.layer_tasks.size()) {
    throw std::logic_error("AssignLPT requires GroupSearch candidates");
  }
  static obs::Counter& pruned_counter =
      obs::metrics().counter("sched.prune.pruned");
  static obs::Counter& evaluated_counter =
      obs::metrics().counter("sched.prune.evaluated");

  const core::TaskGraph& contracted = ctx.contraction.contracted;
  const int P = ctx.total_cores;
  const cost::CostModel& cost = *ctx.cost;
  const std::size_t n_layers = ctx.layer_tasks.size();
  ctx.layers.clear();
  ctx.layers.resize(n_layers);
  ctx.layer_dirty.assign(n_layers, 1);
  ctx.layer_memo.assign(n_layers, -1);

  // Incremental repair: layers whose content signature matches a memo entry
  // are replayed under the new contracted ids instead of re-scheduled.  The
  // replay is bit-identical because schedule_layer is a pure function of
  // the signature (plus P / cost / options, constant across a session) and
  // the memo stores the settled post-adjust layer.
  //
  // Matching is two-tier.  Arrival deltas usually leave a long prefix of
  // layers untouched, so layer li is first compared structurally against
  // memo entry li -- an allocation-free vector walk.  Only when some layer
  // misses positionally (content shifted between layers) is the signature
  // string map built to find entries that moved.
  std::vector<std::int32_t> memo_hit(n_layers, -1);
  if (!ctx.memo.empty()) {
    const auto matches_entry = [&](const LayerMemoEntry& entry,
                                   std::size_t li) {
      const std::vector<core::TaskId>& tasks = ctx.layer_tasks[li];
      if (entry.candidates != ctx.group_candidates[li] ||
          entry.members.size() != tasks.size()) {
        return false;
      }
      for (std::size_t i = 0; i < tasks.size(); ++i) {
        if (entry.members[i] !=
            ctx.contraction.members[static_cast<std::size_t>(tasks[i])]) {
          return false;
        }
      }
      return true;
    };
    bool all_positional = true;
    for (std::size_t li = 0; li < n_layers; ++li) {
      if (li < ctx.memo.size() && matches_entry(ctx.memo[li], li)) {
        memo_hit[li] = static_cast<std::int32_t>(li);
      } else {
        all_positional = false;
      }
    }
    if (!all_positional) {
      std::unordered_map<std::string, std::int32_t> settled;
      settled.reserve(ctx.memo.size());
      for (std::size_t m = 0; m < ctx.memo.size(); ++m) {
        settled.emplace(memo_signature(ctx.memo[m]),
                        static_cast<std::int32_t>(m));
      }
      for (std::size_t li = 0; li < n_layers; ++li) {
        if (memo_hit[li] >= 0) continue;
        const auto hit = settled.find(layer_signature(
            ctx.contraction, ctx.layer_tasks[li], ctx.group_candidates[li]));
        if (hit != settled.end()) memo_hit[li] = hit->second;
      }
    }
  }

  // Layers are independent and `order` is per-layer, so the worker split
  // cannot change any tie-break: parallel == serial, byte for byte.
  std::atomic<std::size_t> next{0};
  const auto run_layers = [&](PruneStats& stats) {
    LayerScratch scratch;
    for (std::size_t li = next.fetch_add(1); li < n_layers;
         li = next.fetch_add(1)) {
      if (memo_hit[li] >= 0) {
        const LayerMemoEntry& entry =
            ctx.memo[static_cast<std::size_t>(memo_hit[li])];
        // Positional remap: equal signatures mean position i of the new
        // layer is the same merged task as position i of the settled one.
        ScheduledLayer replay = entry.layer;
        replay.tasks = ctx.layer_tasks[li];
        ctx.layers[li] = std::move(replay);
        ctx.layer_dirty[li] = 0;
        ctx.layer_memo[li] = memo_hit[li];
        continue;
      }
      ctx.layers[li] =
          schedule_layer(contracted, ctx.layer_tasks[li],
                         ctx.group_candidates[li], P, cost, scratch, stats);
    }
  };

  PruneStats total;
  const int workers =
      std::min(ctx.options.parallel_layers, static_cast<int>(n_layers));
  if (workers <= 1) {
    run_layers(total);
  } else {
    std::vector<PruneStats> stats(static_cast<std::size_t>(workers));
    std::mutex error_mutex;
    std::exception_ptr error;
    std::vector<std::thread> pool;
    pool.reserve(static_cast<std::size_t>(workers));
    for (int w = 0; w < workers; ++w) {
      pool.emplace_back([&, w] {
        try {
          run_layers(stats[static_cast<std::size_t>(w)]);
        } catch (...) {
          const std::lock_guard<std::mutex> lock(error_mutex);
          if (!error) error = std::current_exception();
        }
      });
    }
    for (std::thread& worker : pool) worker.join();
    if (error) std::rethrow_exception(error);
    for (const PruneStats& s : stats) {
      total.pruned += s.pruned;
      total.evaluated += s.evaluated;
    }
  }
  pruned_counter.add(total.pruned);
  evaluated_counter.add(total.evaluated);

  ctx.layers_reused = 0;
  ctx.layers_scheduled = 0;
  ctx.settled_prefix = 0;
  bool prefix_clean = true;
  for (std::size_t li = 0; li < n_layers; ++li) {
    if (ctx.layer_dirty[li] != 0) {
      ++ctx.layers_scheduled;
      prefix_clean = false;
    } else {
      ++ctx.layers_reused;
      if (prefix_clean) ++ctx.settled_prefix;
    }
  }
}

void AdjustGroups::run(PassContext& ctx) const {
  if (!ctx.options.adjust_group_sizes) return;
  obs::ScopedSpan span(obs::SpanKind::Scheduler, "sched.adjust");
  const core::TaskGraph& contracted = ctx.contraction.contracted;
  const cost::CostModel& cost = *ctx.cost;
  const int P = ctx.total_cores;
  for (std::size_t li = 0; li < ctx.layers.size(); ++li) {
    ScheduledLayer& layer = ctx.layers[li];
    // Layers replayed from the memo are already post-adjust (the memo is
    // captured after the full pass chain); re-adjusting them would be an
    // idempotent waste of the repair's savings.
    if (li < ctx.layer_dirty.size() && ctx.layer_dirty[li] == 0) continue;
    if (layer.num_groups() <= 1) continue;
    // Accumulated *sequential* work per group (paper: Tseq(G_l)).
    std::vector<double> work(static_cast<std::size_t>(layer.num_groups()),
                             0.0);
    for (std::size_t i = 0; i < layer.tasks.size(); ++i) {
      work[static_cast<std::size_t>(layer.task_group[i])] +=
          contracted.task(layer.tasks[i]).work_flop();
    }
    layer.group_sizes = proportional_group_sizes(P, work);
    // Re-evaluate the layer time with the adjusted sizes.
    std::vector<double> accumulated(
        static_cast<std::size_t>(layer.num_groups()), 0.0);
    for (std::size_t i = 0; i < layer.tasks.size(); ++i) {
      const std::size_t gidx = static_cast<std::size_t>(layer.task_group[i]);
      accumulated[gidx] += cost.symbolic_task_time(
          contracted.task(layer.tasks[i]), layer.group_sizes[gidx],
          layer.num_groups(), P);
    }
    layer.predicted_time =
        *std::max_element(accumulated.begin(), accumulated.end());
  }
}

Pipeline& Pipeline::append(std::unique_ptr<Pass> pass) {
  passes_.push_back(std::move(pass));
  return *this;
}

Pipeline Pipeline::algorithm1(const cost::CostModel& cost,
                              LayerSchedulerOptions options,
                              std::string name) {
  Pipeline pipeline(cost, std::move(name), options);
  pipeline.append(std::make_unique<ContractChains>())
      .append(std::make_unique<Layerize>())
      .append(std::make_unique<GroupSearch>())
      .append(std::make_unique<AssignLPT>())
      .append(std::make_unique<AdjustGroups>());
  return pipeline;
}

PassContext Pipeline::make_context(const core::TaskGraph& graph,
                                   int total_cores) const {
  if (total_cores <= 0) {
    throw std::invalid_argument("core count must be positive");
  }
  static obs::Counter& invocations =
      obs::metrics().counter("sched.invocations");
  invocations.add();
  PassContext ctx;
  ctx.graph = &graph;
  ctx.cost = cost_;
  ctx.total_cores = total_cores;
  ctx.options = options_;
  return ctx;
}

LayeredSchedule Pipeline::run_layered(const core::TaskGraph& graph,
                                      int total_cores) const {
  obs::ScopedSpan span(obs::SpanKind::Scheduler, "sched.schedule");
  PassContext ctx = make_context(graph, total_cores);
  for (const std::unique_ptr<Pass>& pass : passes_) pass->run(ctx);
  return finalize_layered(ctx);
}

Schedule Pipeline::run(const core::TaskGraph& graph, int total_cores) const {
  obs::ScopedSpan span(obs::SpanKind::Scheduler, "sched.schedule");
  PassContext ctx = make_context(graph, total_cores);
  for (const std::unique_ptr<Pass>& pass : passes_) pass->run(ctx);
  Schedule result = canonical(finalize_layered(ctx), *ctx.cost, name_);
  result.layouts = std::move(ctx.layouts);
  result.notes = std::move(ctx.notes);
  return result;
}

Schedule Pipeline::run_with_context(PassContext& ctx) const {
  obs::ScopedSpan span(obs::SpanKind::Scheduler, "sched.schedule");
  for (const std::unique_ptr<Pass>& pass : passes_) pass->run(ctx);

  // Per-task lowering times: the settled doubles from the memo for replayed
  // layers, freshly priced for dirty ones.  Replaying the exact memoized
  // doubles (instead of re-deriving durations from slot differences, which
  // is not FP-exact) is what keeps the spliced Gantt byte-identical to a
  // full re-schedule -- to_gantt then runs the identical accumulation
  // arithmetic either way.
  const core::TaskGraph& contracted = ctx.contraction.contracted;
  const cost::CostModel& cost = *ctx.cost;
  const int P = ctx.total_cores;
  std::vector<double> time_of(
      static_cast<std::size_t>(contracted.num_tasks()), 0.0);
  std::vector<LayerMemoEntry> settled(ctx.layers.size());
  {
    obs::ScopedSpan settle_span(obs::SpanKind::Scheduler, "sched.memo_settle");
    for (std::size_t li = 0; li < ctx.layers.size(); ++li) {
      const ScheduledLayer& layer = ctx.layers[li];
      const std::int32_t memo_idx =
          li < ctx.layer_memo.size() ? ctx.layer_memo[li] : -1;
      if (memo_idx >= 0) {
        const std::vector<double>& times =
            ctx.memo[static_cast<std::size_t>(memo_idx)].task_times;
        for (std::size_t i = 0; i < layer.tasks.size(); ++i) {
          time_of[static_cast<std::size_t>(layer.tasks[i])] = times[i];
        }
      } else {
        for (std::size_t i = 0; i < layer.tasks.size(); ++i) {
          const core::TaskId id = layer.tasks[i];
          const std::size_t g = static_cast<std::size_t>(layer.task_group[i]);
          time_of[static_cast<std::size_t>(id)] = cost.symbolic_task_time(
              contracted.task(id), layer.group_sizes[g], layer.num_groups(),
              P);
        }
      }
    }

    // Settle the new memo before finalize_layered moves the working state
    // out of the context.  A layer replayed from memo entry m has members,
    // candidates, times, and layer content identical to that entry (that is
    // what the signature match certified), so the entry is moved wholesale --
    // only the contracted-id labels need refreshing.  Deep construction is
    // reserved for dirty layers and duplicate hits on an already-moved
    // entry.
    std::vector<char> consumed(ctx.memo.size(), 0);
    for (std::size_t li = 0; li < ctx.layers.size(); ++li) {
      LayerMemoEntry& entry = settled[li];
      const ScheduledLayer& layer = ctx.layers[li];
      const std::int32_t memo_idx =
          li < ctx.layer_memo.size() ? ctx.layer_memo[li] : -1;
      if (memo_idx >= 0 && !consumed[static_cast<std::size_t>(memo_idx)]) {
        entry = std::move(ctx.memo[static_cast<std::size_t>(memo_idx)]);
        consumed[static_cast<std::size_t>(memo_idx)] = 1;
        entry.layer.tasks = layer.tasks;
        continue;
      }
      entry.members.reserve(layer.tasks.size());
      entry.task_times.reserve(layer.tasks.size());
      for (const core::TaskId id : layer.tasks) {
        entry.members.push_back(
            ctx.contraction.members[static_cast<std::size_t>(id)]);
        entry.task_times.push_back(time_of[static_cast<std::size_t>(id)]);
      }
      entry.candidates = ctx.group_candidates[li];
      entry.layer = layer;
    }
  }

  obs::ScopedSpan lowering_span(obs::SpanKind::Scheduler, "sched.lowering");
  Schedule result;
  result.strategy = name_;
  result.settled_prefix_layers = ctx.settled_prefix;
  result.layered = finalize_layered(ctx);
  result.gantt =
      to_gantt(result.layered, [&](core::TaskId id, int, int) {
        return time_of[static_cast<std::size_t>(id)];
      });
  result.allocation.resize(result.gantt.slots.size());
  for (std::size_t id = 0; id < result.gantt.slots.size(); ++id) {
    result.allocation[id] = result.gantt.slots[id].num_cores();
  }
  result.layouts = std::move(ctx.layouts);
  result.notes = std::move(ctx.notes);
  ctx.memo = std::move(settled);
  return result;
}

Schedule canonical(LayeredSchedule layered, const cost::CostModel& cost,
                   std::string strategy) {
  Schedule result;
  result.strategy = std::move(strategy);
  result.layered = std::move(layered);
  const core::TaskGraph& contracted =
      result.layered.contraction.contracted;
  const int P = result.layered.total_cores;
  result.gantt = to_gantt(
      result.layered, [&](core::TaskId id, int q, int num_groups) {
        return cost.symbolic_task_time(contracted.task(id), q, num_groups, P);
      });
  result.allocation.resize(result.gantt.slots.size());
  for (std::size_t id = 0; id < result.gantt.slots.size(); ++id) {
    result.allocation[id] = result.gantt.slots[id].num_cores();
  }
  return result;
}

Schedule canonical(const core::TaskGraph& graph, MoldableResult moldable,
                   std::string strategy) {
  Schedule result;
  result.strategy = std::move(strategy);
  result.layered.total_cores = moldable.schedule.total_cores;
  result.layered.contraction = core::identity_contraction(graph);
  result.layered.predicted_makespan = moldable.schedule.makespan;
  result.gantt = std::move(moldable.schedule);
  result.allocation = std::move(moldable.allocation);
  return result;
}

}  // namespace ptask::sched
