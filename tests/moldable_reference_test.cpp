// Byte-identity of the moldable schedulers against a frozen reference.
//
// The reference below is a test-only copy of the list scheduler, the CPR
// trial loop and the CPA/MCPA allocation loop as they stood before the
// list-scheduling workspace: every trial rebuilds a priority-queue
// topological order, a full CriticalPathInfo, its scratch vectors and a
// GanttSchedule.  It is kept verbatim in behaviour (not in speed) so the
// library's CprScheduler, CpaScheduler, McpaScheduler and list_schedule are
// compared against the old code rather than against themselves: allocation,
// every slot's cores/start/finish and the makespan must agree bit for bit.
//
// Reproduction: every instance derives from the base seed; re-run with
// PTASK_FUZZ_SEED=<seed> to replay a failure, PTASK_FUZZ_INSTANCES=<n> to
// widen (or narrow) the sweep.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "ptask/arch/machine.hpp"
#include "ptask/core/graph_algorithms.hpp"
#include "ptask/cost/cost_model.hpp"
#include "ptask/fuzz/generator.hpp"
#include "ptask/fuzz/rng.hpp"
#include "ptask/sched/cpa_scheduler.hpp"
#include "ptask/sched/cpr_scheduler.hpp"
#include "ptask/sched/moldable.hpp"

namespace ptask::sched {
namespace {

// ---------------------------------------------------------------------------
// Reference implementation (frozen copy; do not optimize).
// ---------------------------------------------------------------------------

GanttSchedule reference_list_schedule(
    const core::TaskGraph& graph, std::span<const int> allocation,
    const TaskTimeTable& table,
    double abort_above = std::numeric_limits<double>::infinity()) {
  const int n = graph.num_tasks();
  const int P = table.total_cores();
  if (static_cast<int>(allocation.size()) != n) {
    throw std::invalid_argument("one allocation entry per task required");
  }

  std::vector<double> task_time(static_cast<std::size_t>(n));
  for (core::TaskId id = 0; id < n; ++id) {
    task_time[static_cast<std::size_t>(id)] =
        table.time(id, allocation[static_cast<std::size_t>(id)]);
  }
  const core::CriticalPathInfo cp = core::critical_path(graph, task_time);

  std::vector<int> remaining_preds(static_cast<std::size_t>(n));
  std::vector<double> ready_time(static_cast<std::size_t>(n), 0.0);
  std::vector<core::TaskId> ready;
  for (core::TaskId id = 0; id < n; ++id) {
    remaining_preds[static_cast<std::size_t>(id)] = graph.in_degree(id);
    if (remaining_preds[static_cast<std::size_t>(id)] == 0) {
      ready.push_back(id);
    }
  }

  std::vector<double> core_free(static_cast<std::size_t>(P), 0.0);
  std::vector<std::pair<double, int>> free_order(static_cast<std::size_t>(P));
  for (int c = 0; c < P; ++c) {
    free_order[static_cast<std::size_t>(c)] = {0.0, c};
  }
  std::vector<char> pred_core(static_cast<std::size_t>(P), 0);
  std::vector<char> chosen_core(static_cast<std::size_t>(P), 0);
  std::vector<int> pred_list;

  GanttSchedule gantt;
  gantt.total_cores = P;
  gantt.slots.resize(static_cast<std::size_t>(n));

  int scheduled = 0;
  while (!ready.empty()) {
    const auto it = std::max_element(
        ready.begin(), ready.end(), [&](core::TaskId a, core::TaskId b) {
          return cp.bottom_level[static_cast<std::size_t>(a)] <
                 cp.bottom_level[static_cast<std::size_t>(b)];
        });
    const core::TaskId id = *it;
    ready.erase(it);

    const int p = allocation[static_cast<std::size_t>(id)];
    if (p < 1 || p > P) throw std::invalid_argument("allocation out of range");

    pred_list.clear();
    for (core::TaskId pr : graph.predecessors(id)) {
      for (int c : gantt.slots[static_cast<std::size_t>(pr)].cores) {
        if (pred_core[static_cast<std::size_t>(c)] == 0) {
          pred_core[static_cast<std::size_t>(c)] = 1;
          pred_list.push_back(c);
        }
      }
    }
    double start = std::max(ready_time[static_cast<std::size_t>(id)],
                            free_order[static_cast<std::size_t>(p - 1)].first);
    TaskSlot& slot = gantt.slots[static_cast<std::size_t>(id)];
    slot.cores.clear();
    for (std::size_t i = 0; i < free_order.size() &&
                            static_cast<int>(slot.cores.size()) < p;
         ++i) {
      if (free_order[i].first > start) break;
      if (pred_core[static_cast<std::size_t>(free_order[i].second)] != 0) {
        slot.cores.push_back(free_order[i].second);
      }
    }
    for (std::size_t i = 0; static_cast<int>(slot.cores.size()) < p; ++i) {
      if (pred_core[static_cast<std::size_t>(free_order[i].second)] == 0) {
        slot.cores.push_back(free_order[i].second);
      }
    }
    for (const int c : pred_list) pred_core[static_cast<std::size_t>(c)] = 0;
    std::sort(slot.cores.begin(), slot.cores.end());
    for (int c : slot.cores) {
      start = std::max(start, core_free[static_cast<std::size_t>(c)]);
    }
    slot.start = start;
    slot.finish = start + task_time[static_cast<std::size_t>(id)];
    for (int c : slot.cores) {
      chosen_core[static_cast<std::size_t>(c)] = 1;
      core_free[static_cast<std::size_t>(c)] = slot.finish;
    }
    auto kept_end = std::remove_if(
        free_order.begin(), free_order.end(), [&](const auto& entry) {
          return chosen_core[static_cast<std::size_t>(entry.second)] != 0;
        });
    auto dst = free_order.end();
    for (std::size_t b = slot.cores.size(); b > 0;) {
      const std::pair<double, int> entry{
          slot.finish, slot.cores[static_cast<std::size_t>(b - 1)]};
      if (kept_end != free_order.begin() && *(kept_end - 1) > entry) {
        *--dst = *(--kept_end);
      } else {
        *--dst = entry;
        --b;
      }
    }
    for (int c : slot.cores) chosen_core[static_cast<std::size_t>(c)] = 0;
    gantt.makespan = std::max(gantt.makespan, slot.finish);
    ++scheduled;
    if (gantt.makespan > abort_above) return gantt;

    for (core::TaskId s : graph.successors(id)) {
      ready_time[static_cast<std::size_t>(s)] =
          std::max(ready_time[static_cast<std::size_t>(s)], slot.finish);
      if (--remaining_preds[static_cast<std::size_t>(s)] == 0) {
        ready.push_back(s);
      }
    }
  }
  if (scheduled != n) throw std::logic_error("graph contains a cycle");
  return gantt;
}

MoldableResult reference_cpr(const core::TaskGraph& graph, int P,
                             const cost::CostModel& cost,
                             MoldableCostMode mode) {
  const int n = graph.num_tasks();
  const TaskTimeTable table(graph, cost, P, mode);

  MoldableResult result;
  result.allocation.assign(static_cast<std::size_t>(n), 1);
  result.schedule = reference_list_schedule(graph, result.allocation, table);

  auto total_task_time = [&] {
    double total = 0.0;
    for (core::TaskId id = 0; id < n; ++id) {
      total += table.time(id, result.allocation[static_cast<std::size_t>(id)]);
    }
    return total;
  };

  std::vector<double> task_time(static_cast<std::size_t>(n));
  constexpr double kEps = 1e-15;
  bool improved = true;
  while (improved) {
    improved = false;
    for (core::TaskId id = 0; id < n; ++id) {
      task_time[static_cast<std::size_t>(id)] =
          table.time(id, result.allocation[static_cast<std::size_t>(id)]);
    }
    const core::CriticalPathInfo cp = core::critical_path(graph, task_time);
    const double sum_before = total_task_time();

    std::vector<core::TaskId> candidates = cp.path;
    std::sort(candidates.begin(), candidates.end(),
              [&](core::TaskId a, core::TaskId b) {
                return cp.bottom_level[static_cast<std::size_t>(a)] >
                       cp.bottom_level[static_cast<std::size_t>(b)];
              });
    for (core::TaskId id : candidates) {
      const int p = result.allocation[static_cast<std::size_t>(id)];
      if (p >= P || p >= graph.task(id).max_cores()) continue;
      result.allocation[static_cast<std::size_t>(id)] = p + 1;
      GanttSchedule trial = reference_list_schedule(
          graph, result.allocation, table, result.schedule.makespan + kEps);
      bool accept = trial.makespan < result.schedule.makespan - kEps;
      if (!accept && trial.makespan <= result.schedule.makespan + kEps) {
        accept = total_task_time() < sum_before - kEps;
      }
      if (accept) {
        result.schedule = std::move(trial);
        improved = true;
        break;
      }
      result.allocation[static_cast<std::size_t>(id)] = p;
    }
  }
  return result;
}

MoldableResult reference_cpa_loop(const core::TaskGraph& graph, int P,
                                  const TaskTimeTable& table,
                                  const std::vector<int>& alloc_cap) {
  const int n = graph.num_tasks();
  MoldableResult result;
  result.allocation.assign(static_cast<std::size_t>(n), 1);

  std::vector<double> task_time(static_cast<std::size_t>(n));
  for (core::TaskId id = 0; id < n; ++id) {
    task_time[static_cast<std::size_t>(id)] =
        table.time(id, result.allocation[static_cast<std::size_t>(id)]);
  }
  auto average_area = [&] {
    double area = 0.0;
    for (core::TaskId id = 0; id < n; ++id) {
      area += task_time[static_cast<std::size_t>(id)] *
              result.allocation[static_cast<std::size_t>(id)];
    }
    return area / static_cast<double>(P);
  };

  while (true) {
    const core::CriticalPathInfo cp = core::critical_path(graph, task_time);
    if (cp.length <= average_area()) break;

    core::TaskId best = core::kInvalidTask;
    double best_gain = 0.0;
    for (core::TaskId id : cp.path) {
      const int p = result.allocation[static_cast<std::size_t>(id)];
      if (p >= alloc_cap[static_cast<std::size_t>(id)] ||
          p >= graph.task(id).max_cores()) {
        continue;
      }
      if (table.time(id, p + 1) >= task_time[static_cast<std::size_t>(id)]) {
        continue;
      }
      const double gain = task_time[static_cast<std::size_t>(id)] / p -
                          table.time(id, p + 1) / (p + 1);
      if (best == core::kInvalidTask || gain > best_gain) {
        best = id;
        best_gain = gain;
      }
    }
    if (best == core::kInvalidTask || best_gain <= 0.0) break;
    result.allocation[static_cast<std::size_t>(best)] += 1;
    task_time[static_cast<std::size_t>(best)] =
        table.time(best, result.allocation[static_cast<std::size_t>(best)]);
  }

  result.schedule = reference_list_schedule(graph, result.allocation, table);
  return result;
}

MoldableResult reference_cpa(const core::TaskGraph& graph, int P,
                             const cost::CostModel& cost,
                             MoldableCostMode mode) {
  const TaskTimeTable table(graph, cost, P, mode);
  const std::vector<int> cap(static_cast<std::size_t>(graph.num_tasks()), P);
  return reference_cpa_loop(graph, P, table, cap);
}

MoldableResult reference_mcpa(const core::TaskGraph& graph, int P,
                              const cost::CostModel& cost,
                              MoldableCostMode mode) {
  const TaskTimeTable table(graph, cost, P, mode);
  std::vector<int> cap(static_cast<std::size_t>(graph.num_tasks()), 1);
  for (const std::vector<core::TaskId>& level : core::greedy_layers(graph)) {
    const int width = static_cast<int>(level.size());
    const int bound = std::max(1, (P + width - 1) / std::max(1, width));
    for (core::TaskId id : level) cap[static_cast<std::size_t>(id)] = bound;
  }
  return reference_cpa_loop(graph, P, table, cap);
}

// ---------------------------------------------------------------------------
// Bitwise comparison helpers.
// ---------------------------------------------------------------------------

std::uint64_t bits(double value) { return std::bit_cast<std::uint64_t>(value); }

/// Counts (and reports) every difference between two Gantt schedules:
/// core count, each slot's core list, and the bit patterns of every start,
/// finish and the makespan.
void expect_same_gantt(const GanttSchedule& actual,
                       const GanttSchedule& expected) {
  EXPECT_EQ(actual.total_cores, expected.total_cores);
  EXPECT_EQ(bits(actual.makespan), bits(expected.makespan))
      << actual.makespan << " vs " << expected.makespan;
  ASSERT_EQ(actual.slots.size(), expected.slots.size());
  for (std::size_t i = 0; i < expected.slots.size(); ++i) {
    const TaskSlot& a = actual.slots[i];
    const TaskSlot& e = expected.slots[i];
    EXPECT_EQ(a.cores, e.cores) << "slot " << i;
    EXPECT_EQ(bits(a.start), bits(e.start)) << "slot " << i;
    EXPECT_EQ(bits(a.finish), bits(e.finish)) << "slot " << i;
  }
}

void expect_same_result(const MoldableResult& actual,
                        const MoldableResult& expected) {
  EXPECT_EQ(actual.allocation, expected.allocation);
  expect_same_gantt(actual.schedule, expected.schedule);
}

std::uint64_t base_seed() {
  return fuzz::seed_from_env(fuzz::kDefaultFuzzSeed);
}

int instance_count() {
  if (const char* env = std::getenv("PTASK_FUZZ_INSTANCES");
      env != nullptr && *env != '\0') {
    const long value = std::strtol(env, nullptr, 10);
    if (value > 0) return static_cast<int>(value);
  }
  return 300;
}

/// The sweep: `instance_count()` fuzz instances from the base seed, plus
/// fuzz seed 406 (26 tasks on 104 cores, the slowest CPR shape the serving
/// tests know), whose wide free-core order stresses the placement loop.
std::vector<fuzz::Instance> sweep() {
  std::vector<fuzz::Instance> instances;
  const std::uint64_t base = base_seed();
  const int count = instance_count();
  instances.reserve(static_cast<std::size_t>(count) + 1);
  for (int i = 0; i < count; ++i) {
    instances.push_back(fuzz::random_instance(
        fuzz::substream(base, static_cast<std::uint64_t>(i))));
  }
  instances.push_back(fuzz::random_instance(406));
  return instances;
}

const std::vector<fuzz::Instance>& instances() {
  static const std::vector<fuzz::Instance> cached = [] {
    std::cerr << "[fuzz] base seed " << base_seed() << " (" << instance_count()
              << " instances + seed 406; override with PTASK_FUZZ_SEED / "
                 "PTASK_FUZZ_INSTANCES)\n";
    return sweep();
  }();
  return cached;
}

std::string describe(const fuzz::Instance& instance) {
  return "seed " + std::to_string(instance.seed) + " (" + instance.name +
         ", P=" + std::to_string(instance.total_cores) + ")";
}

// ---------------------------------------------------------------------------
// Tests.
// ---------------------------------------------------------------------------

TEST(MoldableReference, CprMatchesTheReferenceBitForBit) {
  for (const fuzz::Instance& instance : instances()) {
    SCOPED_TRACE(describe(instance));
    const cost::CostModel cost{arch::Machine(instance.machine)};
    for (const MoldableCostMode mode :
         {MoldableCostMode::ComputeOnly, MoldableCostMode::CommAware}) {
      SCOPED_TRACE(mode == MoldableCostMode::ComputeOnly ? "compute-only"
                                                         : "comm-aware");
      expect_same_result(
          CprScheduler(cost, mode).schedule(instance.graph,
                                            instance.total_cores),
          reference_cpr(instance.graph, instance.total_cores, cost, mode));
    }
  }
}

TEST(MoldableReference, CpaAndMcpaMatchTheReferenceBitForBit) {
  for (const fuzz::Instance& instance : instances()) {
    SCOPED_TRACE(describe(instance));
    const cost::CostModel cost{arch::Machine(instance.machine)};
    for (const MoldableCostMode mode :
         {MoldableCostMode::CommAware, MoldableCostMode::ComputeOnly}) {
      SCOPED_TRACE(mode == MoldableCostMode::ComputeOnly ? "compute-only"
                                                         : "comm-aware");
      expect_same_result(
          CpaScheduler(cost, mode).schedule(instance.graph,
                                            instance.total_cores),
          reference_cpa(instance.graph, instance.total_cores, cost, mode));
      expect_same_result(
          McpaScheduler(cost, mode).schedule(instance.graph,
                                             instance.total_cores),
          reference_mcpa(instance.graph, instance.total_cores, cost, mode));
    }
  }
}

TEST(MoldableReference, ListScheduleMatchesWithAndWithoutACutoff) {
  for (const fuzz::Instance& instance : instances()) {
    SCOPED_TRACE(describe(instance));
    const cost::CostModel cost{arch::Machine(instance.machine)};
    const int P = instance.total_cores;
    const TaskTimeTable table(instance.graph, cost, P,
                              MoldableCostMode::CommAware);
    // Two allocations per instance: CPA's (wide, mixed sizes) and a seeded
    // random one, so the affinity and free-order paths see both.
    std::vector<std::vector<int>> allocations;
    allocations.push_back(
        CpaScheduler(cost).schedule(instance.graph, P).allocation);
    fuzz::Rng rng(fuzz::substream(instance.seed, 0xA110C));
    std::vector<int> random(
        static_cast<std::size_t>(instance.graph.num_tasks()));
    for (int& p : random) p = rng.uniform(1, P);
    allocations.push_back(std::move(random));

    for (const std::vector<int>& allocation : allocations) {
      const GanttSchedule full =
          reference_list_schedule(instance.graph, allocation, table);
      expect_same_gantt(list_schedule(instance.graph, allocation, table),
                        full);
      // Cutoffs below, at and above the makespan: a cutoff at the makespan
      // never trips (the abort is strict), a lower one leaves a partial
      // schedule whose placed slots and makespan must match as well.
      for (const double cutoff :
           {0.0, full.makespan * 0.25, full.makespan * 0.5,
            full.makespan * 0.9, full.makespan, full.makespan * 2.0}) {
        SCOPED_TRACE("cutoff " + std::to_string(cutoff));
        expect_same_gantt(
            list_schedule(instance.graph, allocation, table, cutoff),
            reference_list_schedule(instance.graph, allocation, table,
                                    cutoff));
      }
    }
  }
}

TEST(MoldableReference, WorkspaceReuseAfterACutOffRunMatchesAFreshSchedule) {
  int aborted = 0;
  for (const fuzz::Instance& instance : instances()) {
    SCOPED_TRACE(describe(instance));
    const cost::CostModel cost{arch::Machine(instance.machine)};
    const int P = instance.total_cores;
    const TaskTimeTable table(instance.graph, cost, P,
                              MoldableCostMode::CommAware);
    const std::vector<int> wide =
        CpaScheduler(cost).schedule(instance.graph, P).allocation;
    const std::vector<int> ones(wide.size(), 1);

    MoldableWorkspace workspace(instance.graph, table);
    for (const std::vector<int>* first : {&wide, &ones}) {
      const std::vector<int>& second = first == &wide ? ones : wide;
      // A cut-off run leaves placement state behind; the next full run on
      // the same workspace must not see any of it.
      const double full = workspace.run(*first);
      const double cutoff = full * 0.5;
      const double partial = workspace.run(*first, cutoff);
      if (partial > cutoff) ++aborted;
      EXPECT_EQ(bits(workspace.run(second)),
                bits(reference_list_schedule(instance.graph, second, table)
                         .makespan));
      expect_same_gantt(workspace.materialize(),
                        list_schedule(instance.graph, second, table));
      expect_same_gantt(workspace.materialize(),
                        reference_list_schedule(instance.graph, second, table));

      // The pricing of the last run matches core::critical_path: bottom
      // levels, the path and its length.
      const core::CriticalPathInfo cp =
          core::critical_path(instance.graph, workspace.task_time());
      std::vector<core::TaskId> path;
      EXPECT_EQ(bits(workspace.critical_path(path)), bits(cp.length));
      EXPECT_EQ(path, cp.path);
      ASSERT_EQ(workspace.bottom_level().size(), cp.bottom_level.size());
      for (std::size_t i = 0; i < cp.bottom_level.size(); ++i) {
        EXPECT_EQ(bits(workspace.bottom_level()[i]), bits(cp.bottom_level[i]));
      }
    }
  }
  // The sweep must actually exercise the cut-off path.
  EXPECT_GT(aborted, instance_count() / 2);
}

/// Runs `call` and returns "<type>: <what()>" of what it throws.
template <typename Call>
std::string thrown(Call&& call) {
  try {
    call();
  } catch (const std::out_of_range& e) {
    return std::string("out_of_range: ") + e.what();
  } catch (const std::invalid_argument& e) {
    return std::string("invalid_argument: ") + e.what();
  } catch (const std::logic_error& e) {
    return std::string("logic_error: ") + e.what();
  }
  return "nothing";
}

TEST(MoldableReference, ListScheduleRejectsBadAllocationsLikeTheReference) {
  const fuzz::Instance instance = fuzz::random_instance(406);
  const cost::CostModel cost{arch::Machine(instance.machine)};
  const int P = instance.total_cores;
  const TaskTimeTable table(instance.graph, cost, P);
  const auto n = static_cast<std::size_t>(instance.graph.num_tasks());

  const std::vector<std::vector<int>> bad = {
      std::vector<int>(n - 1, 1),  // one entry short
      std::vector<int>(n + 1, 1),  // one entry too many
      [&] { std::vector<int> a(n, 1); a.back() = 0; return a; }(),
      [&] { std::vector<int> a(n, 1); a.front() = P + 1; return a; }(),
      [&] { std::vector<int> a(n, 2); a[n / 2] = -3; return a; }(),
  };
  for (const std::vector<int>& allocation : bad) {
    const std::string expected = thrown(
        [&] { reference_list_schedule(instance.graph, allocation, table); });
    EXPECT_NE(expected, "nothing");
    EXPECT_EQ(thrown([&] { list_schedule(instance.graph, allocation, table); }),
              expected);
  }
}

}  // namespace
}  // namespace ptask::sched
