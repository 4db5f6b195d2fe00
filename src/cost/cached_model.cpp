#include "ptask/cost/cached_model.hpp"

#include <cstring>

#include "ptask/obs/metrics.hpp"

namespace ptask::cost {

namespace {

/// FNV-1a over the pricing-relevant task content.  Two tasks with the same
/// fingerprint and address are treated as the same task; the full content
/// (work, max_cores, every collective's kind/scope/bytes/repeat) goes into
/// the hash, so a stale hit after address reuse would require a 64-bit
/// collision on top of the reuse.
std::uint64_t fingerprint(const core::MTask& task) {
  constexpr std::uint64_t kOffset = 1469598103934665603ull;
  constexpr std::uint64_t kPrime = 1099511628211ull;
  std::uint64_t h = kOffset;
  const auto mix = [&](std::uint64_t v) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (v >> (byte * 8)) & 0xff;
      h *= kPrime;
    }
  };
  std::uint64_t work_bits = 0;
  const double work = task.work_flop();
  std::memcpy(&work_bits, &work, sizeof(work_bits));
  mix(work_bits);
  mix(static_cast<std::uint64_t>(task.max_cores()));
  for (const core::CollectiveOp& op : task.comms()) {
    mix(static_cast<std::uint64_t>(op.kind));
    mix(static_cast<std::uint64_t>(op.scope));
    mix(static_cast<std::uint64_t>(op.data_bytes));
    mix(static_cast<std::uint64_t>(op.repeat));
  }
  return h;
}

}  // namespace

CachedCostModel::CachedCostModel(const CostModel& base)
    : CostModel(base.machine()) {}

bool CachedCostModel::depends_on_num_groups(const core::MTask& task) {
  for (const core::CollectiveOp& op : task.comms()) {
    if (op.scope == core::CommScope::Orthogonal) return true;
  }
  return false;
}

std::size_t CachedCostModel::KeyHash::operator()(const Key& key) const {
  std::uint64_t h = key.fingerprint;
  h ^= reinterpret_cast<std::uintptr_t>(key.task) * 0x9e3779b97f4a7c15ull;
  h ^= (static_cast<std::uint64_t>(static_cast<std::uint32_t>(key.q)) << 32) |
       static_cast<std::uint32_t>(key.num_groups);
  h *= 0xff51afd7ed558ccdull;
  h ^= static_cast<std::uint64_t>(static_cast<std::uint32_t>(key.total_cores));
  h ^= h >> 33;
  return static_cast<std::size_t>(h);
}

double CachedCostModel::symbolic_task_time(const core::MTask& task, int q,
                                           int num_groups,
                                           int total_cores) const {
  static obs::Counter& hit_counter = obs::metrics().counter("sched.cache.hit");
  static obs::Counter& miss_counter =
      obs::metrics().counter("sched.cache.miss");

  Key key;
  key.task = &task;
  key.fingerprint = fingerprint(task);
  key.q = q;
  key.num_groups = depends_on_num_groups(task) ? num_groups : 0;
  key.total_cores = total_cores;

  Shard& shard = shards_[KeyHash{}(key)&(kShards - 1)];
  {
    const std::lock_guard<std::mutex> lock(shard.mutex);
    const auto it = shard.entries.find(key);
    if (it != shard.entries.end()) {
      hits_.fetch_add(1, std::memory_order_relaxed);
      hit_counter.add();
      return it->second;
    }
  }
  // Compute outside the lock: pricing walks the task's collectives and is
  // the expensive part; a racing thread computing the same key stores the
  // same (deterministic) double.
  const double value =
      CostModel::symbolic_task_time(task, q, num_groups, total_cores);
  {
    const std::lock_guard<std::mutex> lock(shard.mutex);
    shard.entries.emplace(key, value);
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  miss_counter.add();
  return value;
}

void CachedCostModel::clear() {
  for (Shard& shard : shards_) {
    const std::lock_guard<std::mutex> lock(shard.mutex);
    shard.entries.clear();
  }
}

}  // namespace ptask::cost
