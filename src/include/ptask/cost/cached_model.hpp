#pragma once
/// \file cached_model.hpp
/// Memoizing wrapper around CostModel::symbolic_task_time.
///
/// The scheduler passes evaluate symbolic task times repeatedly over the
/// same (task, group size, group count) tuples: AdjustGroups re-prices the
/// partition the group search chose, canonical() prices the Gantt
/// lowering.  CachedCostModel memoizes `symbolic_task_time` so each
/// distinct evaluation is computed exactly once and every later call
/// returns the identical double -- the wrapper is bit-transparent by
/// contract (see docs/SCHEDULING.md).  The group search's candidate sweep
/// deliberately does NOT price through this cache: its dense per-layer
/// time rows already deduplicate every repeated key, so it fills them via
/// the base model directly instead of paying a hash insert per
/// never-repeating key.
///
/// Key structure.  An entry is keyed on the task's address *and* a content
/// fingerprint (work, max_cores, collectives), so a lookup can never return
/// a stale value for a different task that happens to reuse a freed task's
/// address.  Tasks without Orthogonal-scope collectives are priced
/// independently of the concurrent group count (`num_groups` only sizes
/// orthogonal collectives), so their entries ignore `num_groups`.
///
/// Thread safety.  The table is sharded (mutex per shard); concurrent
/// lookups from parallel AssignLPT layer workers are safe.  Hits/misses
/// are counted per instance and in the global obs metrics registry
/// (`sched.cache.hit` / `sched.cache.miss`).

#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <unordered_map>

#include "ptask/cost/cost_model.hpp"

namespace ptask::cost {

class CachedCostModel final : public CostModel {
 public:
  /// Wraps a fresh copy of `base`'s machine; computed values are
  /// bit-identical to `base`'s (same spec, same link parameters).
  explicit CachedCostModel(const CostModel& base);

  /// Memoized Tsymb(M, q); computes through CostModel::symbolic_task_time
  /// on the first evaluation of a key and returns the stored double on
  /// every later call.
  double symbolic_task_time(const core::MTask& task, int q, int num_groups,
                            int total_cores) const override;

  /// True when `task` carries an Orthogonal-scope collective, i.e. its
  /// symbolic time depends on the concurrent group count.
  static bool depends_on_num_groups(const core::MTask& task);

  std::uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  std::uint64_t misses() const {
    return misses_.load(std::memory_order_relaxed);
  }

  /// Drops every entry (counters are kept).
  void clear();

 private:
  struct Key {
    const core::MTask* task = nullptr;
    std::uint64_t fingerprint = 0;  ///< content hash guarding address reuse
    int q = 0;
    int num_groups = 0;  ///< 0 for tasks without orthogonal collectives
    int total_cores = 0;

    bool operator==(const Key& other) const {
      return task == other.task && fingerprint == other.fingerprint &&
             q == other.q && num_groups == other.num_groups &&
             total_cores == other.total_cores;
    }
  };
  struct KeyHash {
    std::size_t operator()(const Key& key) const;
  };
  struct Shard {
    std::mutex mutex;
    std::unordered_map<Key, double, KeyHash> entries;
  };

  static constexpr std::size_t kShards = 16;

  mutable std::array<Shard, kShards> shards_;
  mutable std::atomic<std::uint64_t> hits_{0};
  mutable std::atomic<std::uint64_t> misses_{0};
};

}  // namespace ptask::cost
