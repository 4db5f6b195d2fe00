// Property tests for in-place graph growth: TaskGraph::add_edges (one
// all-or-nothing batch) and roll_back against per-edge references, and
// core::extend_linear_chains against a from-scratch contract_linear_chains
// after every delta of randomized arrival streams.
//
// Reproduction: every instance derives from the base seed; re-run with
// PTASK_FUZZ_SEED=<seed> to replay a failure, PTASK_FUZZ_INSTANCES=<n> to
// widen the sweep.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <numeric>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "ptask/core/graph_algorithms.hpp"
#include "ptask/core/task_graph.hpp"
#include "ptask/fuzz/generator.hpp"
#include "ptask/fuzz/rng.hpp"

namespace ptask::core {
namespace {

using Edges = std::vector<std::pair<TaskId, TaskId>>;

std::uint64_t base_seed() {
  return fuzz::seed_from_env(fuzz::kDefaultFuzzSeed);
}

int instance_count() {
  if (const char* env = std::getenv("PTASK_FUZZ_INSTANCES");
      env != nullptr && *env != '\0') {
    const long value = std::strtol(env, nullptr, 10);
    if (value > 0) return static_cast<int>(value);
  }
  return 40;
}

template <typename T>
void shuffle(std::vector<T>& items, fuzz::Rng& rng) {
  for (std::size_t i = items.size(); i > 1; --i) {
    const auto j = static_cast<std::size_t>(
        rng.uniform(0, static_cast<int>(i) - 1));
    std::swap(items[i - 1], items[j]);
  }
}

/// Every observable field of two graphs: tasks, adjacency order, edge count.
void expect_same_graph(const TaskGraph& actual, const TaskGraph& expected) {
  ASSERT_EQ(actual.num_tasks(), expected.num_tasks());
  EXPECT_EQ(actual.num_edges(), expected.num_edges());
  for (TaskId id = 0; id < expected.num_tasks(); ++id) {
    SCOPED_TRACE("task " + std::to_string(id));
    const MTask& a = actual.task(id);
    const MTask& e = expected.task(id);
    EXPECT_EQ(a.name(), e.name());
    EXPECT_EQ(a.work_flop(), e.work_flop());
    EXPECT_EQ(a.max_cores(), e.max_cores());
    EXPECT_EQ(a.is_marker(), e.is_marker());
    ASSERT_EQ(a.comms().size(), e.comms().size());
    for (std::size_t i = 0; i < e.comms().size(); ++i) {
      EXPECT_EQ(a.comms()[i].kind, e.comms()[i].kind);
      EXPECT_EQ(a.comms()[i].scope, e.comms()[i].scope);
      EXPECT_EQ(a.comms()[i].data_bytes, e.comms()[i].data_bytes);
      EXPECT_EQ(a.comms()[i].repeat, e.comms()[i].repeat);
    }
    ASSERT_EQ(a.params().size(), e.params().size());
    for (std::size_t i = 0; i < e.params().size(); ++i) {
      EXPECT_EQ(a.params()[i].name, e.params()[i].name);
      EXPECT_EQ(a.params()[i].bytes, e.params()[i].bytes);
      EXPECT_EQ(a.params()[i].distribution, e.params()[i].distribution);
      EXPECT_EQ(a.params()[i].is_input, e.params()[i].is_input);
      EXPECT_EQ(a.params()[i].is_output, e.params()[i].is_output);
    }
    EXPECT_EQ(actual.successors(id), expected.successors(id));
    EXPECT_EQ(actual.predecessors(id), expected.predecessors(id));
  }
}

void expect_same_contraction(const ChainContraction& actual,
                             const ChainContraction& expected) {
  EXPECT_EQ(actual.members, expected.members);
  EXPECT_EQ(actual.representative, expected.representative);
  expect_same_graph(actual.contracted, expected.contracted);
}

/// One fuzz instance as an arrival stream whose ids are *not* a
/// topological order: arrivals follow a topological order, but the ids
/// inside every batch (the initial one included) are shuffled, so edges
/// inside a batch may run from a larger id to a smaller one.  About one
/// task in ten becomes a marker.  Every delta's edges are shuffled; with
/// `old_edges`, a delta may also join two earlier arrivals (earlier to
/// later, so the graph stays acyclic), which can end at an old task.
struct ShuffledStream {
  TaskGraph initial;
  std::vector<std::vector<MTask>> tasks;  ///< per delta, in id order
  std::vector<Edges> edges;               ///< per delta
};

ShuffledStream shuffled_stream(std::uint64_t seed, bool old_edges) {
  const fuzz::Instance instance = fuzz::random_instance(seed);
  const TaskGraph& source = instance.graph;
  fuzz::Rng rng(fuzz::substream(seed, 0xC0A7));
  const int n = source.num_tasks();
  const int k = std::min(n, rng.uniform(2, 6));
  const auto begin = [&](int b) {
    return static_cast<TaskId>((static_cast<long long>(b) * n) / k);
  };

  // position[id]: the arrival (topological) rank of the task given `id`.
  const std::vector<TaskId> topo = source.topological_order();
  std::vector<TaskId> id_of(static_cast<std::size_t>(n));
  std::vector<TaskId> position(static_cast<std::size_t>(n));
  for (int b = 0; b < k; ++b) {
    std::vector<TaskId> ids(static_cast<std::size_t>(begin(b + 1) - begin(b)));
    std::iota(ids.begin(), ids.end(), begin(b));
    shuffle(ids, rng);
    for (TaskId j = begin(b); j < begin(b + 1); ++j) {
      const TaskId id = ids[static_cast<std::size_t>(j - begin(b))];
      id_of[static_cast<std::size_t>(topo[static_cast<std::size_t>(j)])] = id;
      position[static_cast<std::size_t>(id)] = j;
    }
  }
  const auto batch_of = [&](TaskId id) {
    int b = 0;
    while (id >= begin(b + 1)) ++b;
    return b;
  };

  std::vector<MTask> task_of(static_cast<std::size_t>(n));
  for (TaskId old = 0; old < n; ++old) {
    MTask task = source.task(old);
    if (rng.chance(0.1)) task.set_marker(true);
    task_of[static_cast<std::size_t>(id_of[static_cast<std::size_t>(old)])] =
        std::move(task);
  }
  std::vector<Edges> edges(static_cast<std::size_t>(k));
  for (TaskId u = 0; u < n; ++u) {
    for (TaskId v : source.successors(u)) {
      const TaskId a = id_of[static_cast<std::size_t>(u)];
      const TaskId b = id_of[static_cast<std::size_t>(v)];
      edges[static_cast<std::size_t>(std::max(batch_of(a), batch_of(b)))]
          .push_back({a, b});
    }
  }

  ShuffledStream stream;
  for (TaskId id = 0; id < begin(1); ++id) {
    stream.initial.add_task(task_of[static_cast<std::size_t>(id)]);
  }
  stream.initial.add_edges(edges[0]);
  for (int b = 1; b < k; ++b) {
    Edges delta = edges[static_cast<std::size_t>(b)];
    if (old_edges && begin(b) >= 2) {
      for (int e = rng.uniform(0, 2); e > 0; --e) {
        TaskId x = rng.uniform(0, begin(b) - 1);
        TaskId y = rng.uniform(0, begin(b) - 1);
        if (x == y) continue;
        if (position[static_cast<std::size_t>(x)] >
            position[static_cast<std::size_t>(y)]) {
          std::swap(x, y);
        }
        delta.push_back({x, y});
      }
    }
    shuffle(delta, rng);
    stream.edges.push_back(std::move(delta));
    stream.tasks.emplace_back(task_of.begin() + begin(b),
                              task_of.begin() + begin(b + 1));
  }
  return stream;
}

// ---------------------------------------------------------------------------
// TaskGraph growth: the batch cycle check and roll_back.
// ---------------------------------------------------------------------------

TEST(GraphGrowth, AddEdgesAgreesWithPerEdgeInsertion) {
  const std::uint64_t base = fuzz::substream(base_seed(), 0xADDE);
  int accepted = 0;
  int rejected = 0;
  for (int i = 0; i < instance_count(); ++i) {
    const std::uint64_t seed =
        fuzz::substream(base, static_cast<std::uint64_t>(i));
    fuzz::Rng rng(seed);
    TaskGraph graph = fuzz::random_instance(seed).graph;
    for (int round = 0; round < 4; ++round) {
      SCOPED_TRACE("instance " + std::to_string(i) + " round " +
                   std::to_string(round));
      const int old_tasks = graph.num_tasks();
      const int added = rng.uniform(0, 3);
      for (int t = 0; t < added; ++t) {
        graph.add_task(MTask("new" + std::to_string(t), 1.0e6));
      }
      // Random pairs: some close cycles, some repeat existing edges.  Half
      // the batches only join tasks in topological order, so they are
      // acyclic; about one in three is as large as the graph.
      const std::vector<TaskId> order = graph.topological_order();
      std::vector<TaskId> rank(order.size());
      for (std::size_t r = 0; r < order.size(); ++r) {
        rank[static_cast<std::size_t>(order[r])] = static_cast<TaskId>(r);
      }
      const bool forward = rng.chance(0.5);
      const int size = rng.chance(0.3) ? graph.num_tasks() : rng.uniform(1, 6);
      Edges batch;
      for (int e = 0; e < size; ++e) {
        TaskId from = rng.uniform(0, graph.num_tasks() - 1);
        TaskId to = rng.uniform(0, graph.num_tasks() - 1);
        if (forward && rank[static_cast<std::size_t>(from)] >
                           rank[static_cast<std::size_t>(to)]) {
          std::swap(from, to);
        }
        if (from != to) batch.push_back({from, to});
      }
      TaskGraph reference = graph;
      bool ok = true;
      try {
        for (const auto& [from, to] : batch) reference.add_edge(from, to);
      } catch (const std::invalid_argument&) {
        ok = false;
      }
      const TaskGraph before = graph;
      if (!ok) {
        EXPECT_THROW(graph.add_edges(batch), std::invalid_argument);
        expect_same_graph(graph, before);
        graph.roll_back(old_tasks, {});
        ++rejected;
        continue;
      }
      const Edges fresh = graph.add_edges(batch);
      expect_same_graph(graph, reference);
      EXPECT_EQ(static_cast<int>(fresh.size()),
                graph.num_edges() - before.num_edges());
      ++accepted;
      if (rng.chance(0.5)) {
        graph.roll_back(old_tasks, fresh);
        TaskGraph original = before;
        original.roll_back(old_tasks, {});
        expect_same_graph(graph, original);
      }
    }
  }
  EXPECT_GT(accepted, 0);
  EXPECT_GT(rejected, 0);
}

TEST(GraphGrowth, RollBackChecksItsPreconditionFirst) {
  // 0 -> 1, then a growth step adds task 2 with 0 -> 2 and 1 -> 2.
  TaskGraph graph;
  for (int t = 0; t < 3; ++t) {
    graph.add_task(MTask("t" + std::to_string(t), 1.0e6));
  }
  graph.add_edge(0, 1);
  const Edges fresh = graph.add_edges({{0, 2}, {1, 2}});
  ASSERT_EQ(fresh, (Edges{{0, 2}, {1, 2}}));
  const TaskGraph before = graph;

  // Not the latest insertions: 0 -> 1 sits below 0 -> 2 in succ(0).
  EXPECT_THROW(graph.roll_back(3, {{0, 1}}), std::logic_error);
  expect_same_graph(graph, before);
  // Popped in the wrong order: 0 -> 2 is not last in pred(2) until
  // 1 -> 2 is gone.
  EXPECT_THROW(graph.roll_back(2, {{1, 2}, {0, 2}}), std::logic_error);
  expect_same_graph(graph, before);
  // Dropping task 2 with its edges left in place.
  EXPECT_THROW(graph.roll_back(2, {{1, 2}}), std::logic_error);
  expect_same_graph(graph, before);
  // An edge that does not exist at all.
  EXPECT_THROW(graph.roll_back(3, {{2, 0}}), std::logic_error);
  expect_same_graph(graph, before);
  EXPECT_THROW(graph.roll_back(4, {}), std::out_of_range);
  expect_same_graph(graph, before);

  graph.roll_back(2, fresh);
  EXPECT_EQ(graph.num_tasks(), 2);
  EXPECT_EQ(graph.num_edges(), 1);
  EXPECT_EQ(graph.successors(0), std::vector<TaskId>{1});
}

// ---------------------------------------------------------------------------
// Chain contraction: extending equals contracting from scratch.
// ---------------------------------------------------------------------------

/// How the sweep exercised extend_linear_chains.
struct Coverage {
  int fast = 0;         ///< fast-path steps
  int fallback = 0;     ///< full-rebuild steps (edges into old tasks)
  int extensions = 0;   ///< fast steps where an old chain grew into new tasks
  int splits = 0;       ///< fast steps where an old chain lost members
};

/// Classifies what one fast step did to the old tasks' chains.
void tally_fast_step(const ChainContraction& before,
                     const ChainContraction& after, int old_tasks,
                     Coverage& coverage) {
  bool extended = false;
  bool split = false;
  for (TaskId t = 0; t < old_tasks; ++t) {
    const std::vector<TaskId>& was =
        before.members[static_cast<std::size_t>(
            before.representative[static_cast<std::size_t>(t)])];
    const std::vector<TaskId>& now =
        after.members[static_cast<std::size_t>(
            after.representative[static_cast<std::size_t>(t)])];
    if (now.size() > was.size()) extended = true;
    if (now.size() < was.size()) split = true;
  }
  coverage.extensions += extended ? 1 : 0;
  coverage.splits += split ? 1 : 0;
}

Coverage sweep_contractions(std::uint64_t salt, bool old_edges) {
  const std::uint64_t base = fuzz::substream(base_seed(), salt);
  const int count = instance_count();
  std::cerr << "[fuzz] contraction extension: base seed " << base_seed()
            << " (" << count << " streams)\n";
  Coverage coverage;
  for (int i = 0; i < count; ++i) {
    const std::uint64_t seed =
        fuzz::substream(base, static_cast<std::uint64_t>(i));
    const ShuffledStream stream = shuffled_stream(seed, old_edges);
    TaskGraph graph = stream.initial;
    ChainContraction extended = contract_linear_chains(graph);
    for (std::size_t d = 0; d < stream.edges.size(); ++d) {
      SCOPED_TRACE("stream " + std::to_string(i) + " delta " +
                   std::to_string(d) + "; reproduce with PTASK_FUZZ_SEED=" +
                   std::to_string(base_seed()));
      const ChainContraction before = extended;
      const int old_tasks = graph.num_tasks();
      for (const MTask& task : stream.tasks[d]) graph.add_task(task);
      const Edges fresh = graph.add_edges(stream.edges[d]);
      const bool fast =
          extend_linear_chains(extended, graph, old_tasks, fresh);
      const ChainContraction expected = contract_linear_chains(graph);
      expect_same_contraction(extended, expected);
      if (::testing::Test::HasFatalFailure()) return coverage;
      if (fast) {
        ++coverage.fast;
        tally_fast_step(before, extended, old_tasks, coverage);
      } else {
        ++coverage.fallback;
      }
    }
  }
  return coverage;
}

TEST(ContractionExtension, EqualsFullContractionAfterEveryDelta) {
  const Coverage coverage = sweep_contractions(0xC4A1, /*old_edges=*/false);
  std::cerr << "[fuzz] fast " << coverage.fast << ", extensions "
            << coverage.extensions << ", splits " << coverage.splits << "\n";
  EXPECT_EQ(coverage.fallback, 0)
      << "deltas with only old -> new and new -> new edges take the fast path";
  EXPECT_GT(coverage.extensions, 0) << "no delta grew a settled chain";
  EXPECT_GT(coverage.splits, 0) << "no delta split a settled chain";
}

TEST(ContractionExtension, EdgesIntoOldTasksFallBackToAFullContraction) {
  const Coverage coverage = sweep_contractions(0xC4A2, /*old_edges=*/true);
  std::cerr << "[fuzz] fast " << coverage.fast << ", fallback "
            << coverage.fallback << "\n";
  EXPECT_GT(coverage.fallback, 0);
  EXPECT_GT(coverage.fast, 0);
}

TEST(ContractionExtension, HandmadeSplitBelowASmallerIdStaysExact) {
  // Chain 3 -> 1 -> 0 (ids against the topological order).  A new edge out
  // of 1 splits it, and 0 -- smaller than the chain's head -- becomes a
  // head, shifting the ids of every chain headed in between (2 here).
  TaskGraph graph;
  for (int i = 0; i < 4; ++i) {
    graph.add_task(MTask("t" + std::to_string(i), 1.0e6 * (i + 1)));
  }
  graph.add_edges({{3, 1}, {1, 0}});
  ChainContraction contraction = contract_linear_chains(graph);
  ASSERT_EQ(contraction.members.size(), 2u);  // {2}, {3, 1, 0}

  graph.add_task(MTask("t4", 5.0e6));
  const Edges fresh = graph.add_edges({{1, 4}});
  EXPECT_TRUE(extend_linear_chains(contraction, graph, 4, fresh));
  expect_same_contraction(contraction, contract_linear_chains(graph));
  EXPECT_EQ(contraction.members.size(), 4u);  // {0}, {2}, {3, 1}, {4}
}

TEST(ContractionExtension, HandmadeSplitChainNextToASmallerHeadStaysExact) {
  // Chain 1 -> 2 next to the kept node {0}.  A new edge out of 1 splits the
  // chain into {1} and {2}; 0's entry for it must follow the old tail 2
  // when the chain feeds 0, and the old head 1 when 0 feeds the chain.
  const auto split_after_one = [](const Edges& edges) {
    TaskGraph graph;
    for (int i = 0; i < 4; ++i) {
      graph.add_task(MTask("t" + std::to_string(i), 1.0e6 * (i + 1)));
    }
    graph.add_edges(edges);
    ChainContraction contraction = contract_linear_chains(graph);
    ASSERT_EQ(contraction.members.size(), 3u);  // {0}, {1, 2}, {3}

    graph.add_task(MTask("t4", 5.0e6));
    const Edges fresh = graph.add_edges({{1, 4}});
    EXPECT_TRUE(extend_linear_chains(contraction, graph, 4, fresh));
    expect_same_contraction(contraction, contract_linear_chains(graph));
    EXPECT_EQ(contraction.members.size(), 5u);  // {0}, {1}, {2}, {3}, {4}
  };
  split_after_one({{1, 2}, {2, 0}, {3, 0}});  // the chain feeds 0
  split_after_one({{1, 2}, {0, 1}, {0, 3}});  // 0 feeds the chain
}

}  // namespace
}  // namespace ptask::core
