#include "workloads.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <functional>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <unordered_set>

#include "ptask/analysis/certifier.hpp"
#include "ptask/arch/machine.hpp"
#include "ptask/cost/cost_model.hpp"
#include "ptask/fuzz/generator.hpp"
#include "ptask/fuzz/rng.hpp"
#include "ptask/obs/json.hpp"
#include "ptask/sched/registry.hpp"
#include "ptask/serve/server.hpp"

namespace perfbench {

namespace serve = ptask::serve;
namespace fuzz = ptask::fuzz;

namespace {

// Seed streams: each kind of input draws from its own substream of --seed.
constexpr std::uint64_t kStreamMixedPool = 2;
constexpr std::uint64_t kStreamMixedFresh = 3;
constexpr std::uint64_t kStreamSequence = 4;
constexpr std::uint64_t kStreamSessions = 5;

/// Fuzz instances larger than this are skipped (ptask_loadgen's default).
constexpr int kMaxTasks = 400;

/// Nominal closed-loop rates on a 4-core host; they size the fixed request
/// counts so a run lasts about --seconds.
constexpr double kMixedRate = 6000.0;     // requests / s
constexpr double kSessionRate = 80.0;     // extends / s / connection
/// Extends per session: the graph grows from its base by about a factor of
/// two, so every session stays mid-size and the per-extend cost stays
/// level across the window.
constexpr std::size_t kDeltasPerSession = 100;

/// Runs fn(i) for i in [0, count) on `threads` threads.
void parallel_for(std::size_t count, int threads,
                  const std::function<void(std::size_t)>& fn) {
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> pool;
  std::exception_ptr failure;
  std::mutex failure_mutex;
  for (int t = 0; t < std::max(1, threads); ++t) {
    pool.emplace_back([&] {
      try {
        for (std::size_t i = next.fetch_add(1); i < count;
             i = next.fetch_add(1)) {
          fn(i);
        }
      } catch (...) {
        const std::lock_guard<std::mutex> lock(failure_mutex);
        if (!failure) failure = std::current_exception();
      }
    });
  }
  for (std::thread& thread : pool) thread.join();
  if (failure) std::rethrow_exception(failure);
}

/// Appends `count` distinct fuzz-family portfolio requests drawn from
/// substream `stream` of `seed`.  The draw is stratified: every (graph
/// family, machine preset) pair gets an equal share, because makespans and
/// scheduling costs differ by orders of magnitude between strata and an
/// unstratified draw makes the run-to-run spread mostly sampling noise.  A
/// request whose canonical key is already in `seen` is dropped (and
/// counted), so every distinct request is sent as new content exactly once.
/// Some strata hold few distinct instances (NPB zone graphs come in a
/// handful of shapes): once a stratum has dropped more duplicates than it
/// has accepted (plus a margin), its remaining share moves to the others.
void add_distinct(Inputs& inputs, std::uint64_t seed, std::uint64_t stream,
                  std::size_t count, bool certify,
                  std::unordered_set<std::string>& seen) {
  constexpr std::size_t kFamilies = 5;
  static const std::vector<std::string> kPresets = {"CHiC", "JuRoPA",
                                                    "Altix"};
  const std::size_t strata = kFamilies * kPresets.size();
  std::vector<std::size_t> quota(strata, count / strata);
  for (std::size_t i = 0; i < count % strata; ++i) ++quota[i];
  std::vector<std::size_t> accepted(strata, 0);
  std::vector<std::size_t> dropped(strata, 0);
  std::vector<bool> closed(strata, false);

  const std::uint64_t base = fuzz::substream(seed, stream);
  const std::size_t target = inputs.distinct.size() + count;
  for (std::uint64_t k = 0; inputs.distinct.size() < target; ++k) {
    const std::uint64_t instance_seed = fuzz::substream(base, k);
    fuzz::Instance instance = fuzz::random_instance(instance_seed);
    if (instance.graph.num_tasks() > kMaxTasks) continue;
    const auto preset = std::find(kPresets.begin(), kPresets.end(),
                                  instance.machine.name);
    if (preset == kPresets.end()) continue;
    const std::size_t stratum =
        static_cast<std::size_t>(instance.family) * kPresets.size() +
        static_cast<std::size_t>(preset - kPresets.begin());
    if (quota[stratum] == 0) continue;
    Distinct item;
    item.instance_seed = instance_seed;
    item.request.scheduler = "portfolio";
    item.request.total_cores = instance.total_cores;
    item.request.machine = instance.machine;
    item.request.graph = std::move(instance.graph);
    item.request.certify = certify;
    item.request.family = fuzz::to_string(instance.family);
    item.key = serve::canonical_key(item.request);
    if (!seen.insert(item.key).second) {
      ++inputs.duplicates_dropped;
      if (++dropped[stratum] > accepted[stratum] + 16) {
        closed[stratum] = true;
        while (quota[stratum] > 0) {
          bool moved = false;
          for (std::size_t i = 1; i < strata && quota[stratum] > 0; ++i) {
            const std::size_t other = (stratum + i) % strata;
            if (!closed[other]) {
              --quota[stratum];
              ++quota[other];
              moved = true;
            }
          }
          if (!moved) {
            throw std::runtime_error(
                "fuzz generator ran out of distinct requests");
          }
        }
      }
      continue;
    }
    --quota[stratum];
    ++accepted[stratum];
    item.payload = serve::serialize_request(item.request);
    ++inputs.family_distinct[item.request.family];
    inputs.distinct.push_back(std::move(item));
  }
}

/// Tasks of `graph` without predecessors (first) or successors (last).
std::vector<ptask::core::TaskId> ends(const ptask::core::TaskGraph& graph,
                                      bool sources) {
  std::vector<ptask::core::TaskId> out;
  for (ptask::core::TaskId id = 0; id < graph.num_tasks(); ++id) {
    if ((sources ? graph.predecessors(id) : graph.successors(id)).empty()) {
      out.push_back(id);
    }
  }
  return out;
}

void generate_sessions(Inputs& inputs, std::uint64_t seed, const Sizes& sizes) {
  // Set-up opens every session before the window, and the daemon refuses
  // sessions past its limit (PTS007): hosts with many cores get fewer
  // sessions per connection.
  const std::size_t limit = serve::ServerOptions{}.max_sessions;
  const std::size_t connections =
      static_cast<std::size_t>(inputs.connections);
  if (connections > limit) {
    throw std::runtime_error(
        "ptask_served allows " + std::to_string(limit) + " sessions, fewer "
        "than the " + std::to_string(connections) + " connections");
  }
  const std::size_t count =
      connections * std::min(sizes.sessions_per_connection,
                             limit / connections);
  for (std::size_t s = 0; s < count; ++s) {
    fuzz::Rng rng(fuzz::substream(fuzz::substream(seed, kStreamSessions), s));
    Session session;
    // One machine for every session: the presets' speeds differ, and the
    // makespans should differ only by the seeded graphs.
    ptask::arch::MachineSpec machine = ptask::arch::machine_by_name("chic");
    machine.num_nodes = 16;
    session.submit.machine = machine;
    session.submit.total_cores = machine.cores_per_node() * 8;
    session.submit.release_time = 0.0;
    session.submit.family = "layered";

    // The base and every timestep are two-layer fuzz::layered_graph
    // batches, each hanging off the previous batch's last layer.  Base
    // batches are about 2% of the base size (so the base ends within a
    // batch of its target without a rejection loop); timestep deltas are
    // about 1%.
    ptask::core::TaskGraph& base = session.submit.graph;
    std::vector<ptask::core::TaskId> frontier;
    const auto append = [&](int width, auto&& add_task, auto&& add_edge) {
      fuzz::GeneratorParams step;
      step.max_width = std::max(2, width);
      step.max_depth = 2;
      step.edge_density = 0.3;
      ptask::core::TaskGraph batch = fuzz::layered_graph(rng, step);
      std::vector<ptask::core::TaskId> ids;
      for (ptask::core::TaskId id = 0; id < batch.num_tasks(); ++id) {
        ids.push_back(add_task(batch.task(id)));
      }
      for (ptask::core::TaskId id = 0; id < batch.num_tasks(); ++id) {
        for (ptask::core::TaskId to : batch.successors(id)) {
          add_edge(ids[static_cast<std::size_t>(id)],
                   ids[static_cast<std::size_t>(to)]);
        }
      }
      if (!frontier.empty()) {
        for (ptask::core::TaskId id : ends(batch, /*sources=*/true)) {
          add_edge(frontier[static_cast<std::size_t>(rng.uniform(
                       0, static_cast<int>(frontier.size()) - 1))],
                   ids[static_cast<std::size_t>(id)]);
        }
      }
      frontier.clear();
      for (ptask::core::TaskId id : ends(batch, /*sources=*/false)) {
        frontier.push_back(ids[static_cast<std::size_t>(id)]);
      }
      return batch;
    };
    while (base.num_tasks() < sizes.session_tasks) {
      append(
          sizes.session_tasks / 50,
          [&](const ptask::core::MTask& task) { return base.add_task(task); },
          [&](ptask::core::TaskId from, ptask::core::TaskId to) {
            base.add_edge(from, to);
          });
    }
    int num_tasks = base.num_tasks();
    for (std::size_t k = 0; k < sizes.session_deltas; ++k) {
      ptask::sched::GraphDelta delta;
      delta.release_time = static_cast<double>(k + 1);
      ptask::core::TaskGraph batch = append(
          sizes.session_tasks / 100,
          [&](const ptask::core::MTask& task) {
            delta.tasks.push_back(
                ptask::sched::ArrivingTask{task, delta.release_time, 0});
            return num_tasks++;
          },
          [&](ptask::core::TaskId from, ptask::core::TaskId to) {
            delta.edges.emplace_back(from, to);
          });
      session.deltas.push_back(std::move(delta));
      session.delta_graphs.push_back(std::move(batch));
    }
    inputs.sessions.push_back(std::move(session));
  }
  inputs.family_distinct["layered"] = inputs.sessions.size();
}

/// Uniform pick in [0, n) from the sequence stream.
std::uint32_t pick(fuzz::Rng& rng, std::size_t n) {
  return static_cast<std::uint32_t>(rng.next() % n);
}

/// Direct in-process schedule bytes of a request (registry strategy).
std::string direct_schedule_bytes(const serve::ScheduleRequest& request) {
  const ptask::cost::CostModel cost{ptask::arch::Machine(request.machine)};
  const std::unique_ptr<ptask::sched::Scheduler> scheduler =
      ptask::sched::SchedulerRegistry::instance().make(request.scheduler, cost);
  return serve::serialize_schedule(
      scheduler->run(request.graph, request.total_cores));
}

}  // namespace

Workload parse_workload(std::string_view name) {
  if (name == "mixed") return Workload::Mixed;
  if (name == "sessions") return Workload::Sessions;
  throw std::invalid_argument("unknown workload '" + std::string(name) + "'");
}

Sizes sizes_for(double seconds, bool toy) {
  Sizes sizes;
  if (toy) {
    sizes.mixed_pool = 8;
    sizes.mixed_requests = 200;
    sizes.session_tasks = 200;
    sizes.session_deltas = 10;
    sizes.sessions_per_connection = 2;
    sizes.replay_cap = 16;
    return sizes;
  }
  sizes.mixed_pool = 64;
  sizes.mixed_requests = static_cast<std::size_t>(kMixedRate * seconds);
  sizes.session_tasks = 2000;
  sizes.session_deltas = kDeltasPerSession;
  sizes.sessions_per_connection = std::max<std::size_t>(
      1, static_cast<std::size_t>(kSessionRate * seconds) / kDeltasPerSession);
  sizes.replay_cap = 512;
  return sizes;
}

Inputs generate(Workload workload, std::uint64_t seed, const Sizes& sizes,
                int nproc) {
  Inputs inputs;
  inputs.workload = workload;
  inputs.connections = std::max(1, nproc);
  std::unordered_set<std::string> seen;
  fuzz::Rng rng(fuzz::substream(seed, kStreamSequence));
  switch (workload) {
    case Workload::Mixed: {
      // Fewer workers than connections, so requests queue for admission.
      inputs.daemon_workers = std::max(1, inputs.connections / 2);
      inputs.declared_repeat_share = 0.8;
      const std::size_t fresh = sizes.mixed_requests / 5;
      add_distinct(inputs, seed, kStreamMixedPool, sizes.mixed_pool, true,
                   seen);
      inputs.warm = inputs.distinct.size();
      add_distinct(inputs, seed, kStreamMixedFresh, fresh, true, seen);
      inputs.sequence.reserve(sizes.mixed_requests);
      for (std::size_t i = 0; i < fresh; ++i) {
        inputs.sequence.push_back(static_cast<std::uint32_t>(inputs.warm + i));
      }
      while (inputs.sequence.size() < sizes.mixed_requests) {
        inputs.sequence.push_back(pick(rng, inputs.warm));
      }
      // Fisher-Yates: fresh requests spread over the whole window.
      for (std::size_t i = inputs.sequence.size(); i > 1; --i) {
        std::swap(inputs.sequence[i - 1], inputs.sequence[pick(rng, i)]);
      }
      break;
    }
    case Workload::Sessions:
      inputs.daemon_workers = inputs.connections;
      inputs.declared_repeat_share = 0.0;
      generate_sessions(inputs, seed, sizes);
      break;
  }
  return inputs;
}

std::vector<serve::Client> connect_all(int port, int count) {
  std::vector<serve::Client> connections(static_cast<std::size_t>(count));
  for (serve::Client& client : connections) client.connect("127.0.0.1", port);
  return connections;
}

std::size_t warm_up(Inputs& inputs, std::vector<serve::Client>& connections) {
  const int count = static_cast<int>(connections.size());
  std::atomic<std::size_t> failed{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < count; ++c) {
    threads.emplace_back([&, c] {
      serve::Client& client = connections[static_cast<std::size_t>(c)];
      try {
        if (inputs.workload == Workload::Sessions) {
          for (std::size_t i = static_cast<std::size_t>(c);
               i < inputs.sessions.size();
               i += static_cast<std::size_t>(count)) {
            Session& session = inputs.sessions[i];
            const std::string response =
                client.call(serve::serialize_submit(session.submit));
            session.submit_body = serve::response_schedule_json(response);
            if (session.submit_body.empty()) {
              failed.fetch_add(1);
              continue;
            }
            const ptask::obs::json::Value document =
                ptask::obs::json::parse(response);
            if (const auto* id = document.find("session")) {
              session.id = id->string;
            }
            for (const ptask::sched::GraphDelta& delta : session.deltas) {
              serve::ExtendRequest extend;
              extend.session = session.id;
              extend.delta = delta;
              extend.family = session.submit.family;
              session.extend_payloads.push_back(
                  serve::serialize_extend(extend));
            }
          }
          return;
        }
        for (std::size_t i = static_cast<std::size_t>(c); i < inputs.warm;
             i += static_cast<std::size_t>(count)) {
          Distinct& item = inputs.distinct[i];
          item.response = client.call(item.payload);
          item.body = serve::response_schedule_json(item.response);
          if (item.body.empty()) failed.fetch_add(1);
        }
      } catch (const std::exception&) {
        failed.fetch_add(1);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  return failed.load();
}

std::size_t rounds_of(const Inputs& inputs, std::size_t rounds) {
  if (inputs.workload != Workload::Sessions) return rounds;
  // Four sessions per connection and round: on a 4-core host a round then
  // holds 1600 extends, so its p99 has at least ten samples beyond it.
  const std::size_t per_connection =
      inputs.sessions.size() / static_cast<std::size_t>(inputs.connections);
  return std::max<std::size_t>(1, std::min(rounds, per_connection / 4));
}

void merge(LoadResult& into, const LoadResult& part) {
  into.samples.insert(into.samples.end(), part.samples.begin(),
                      part.samples.end());
  into.wall_s += part.wall_s;
  into.attempted += part.attempted;
  into.ok += part.ok;
  into.refused += part.refused;
  into.errors += part.errors;
  into.mismatches += part.mismatches;
  into.unsent += part.unsent;
  into.repeats += part.repeats;
  for (const auto& [family, n] : part.family_sent) {
    into.family_sent[family] += n;
  }
}

LoadResult run_timed(Inputs& inputs, std::vector<serve::Client>& connections,
                     std::size_t round, std::size_t rounds,
                     double deadline_us, std::vector<SpanLog>* logs) {
  const std::size_t count = connections.size();
  // Content answered before this round: warm requests and earlier fresh
  // ones.  Rounds run one after another, so the bodies are settled here.
  std::unique_ptr<std::atomic<bool>[]> answered(
      new std::atomic<bool>[inputs.distinct.size()]);
  for (std::size_t i = 0; i < inputs.distinct.size(); ++i) {
    answered[i].store(!inputs.distinct[i].body.empty(),
                      std::memory_order_relaxed);
  }
  std::vector<LoadResult> per(count);
  const double t_start = now_us();

  // One timed call; returns the served schedule bytes, "" when it failed.
  const auto send = [&](std::size_t c, std::string_view payload,
                        std::uint64_t group, bool repeat, LoadResult& out,
                        std::string& response) {
    ++out.attempted;
    const double t0 = now_us();
    bool broken = false;
    try {
      response = connections[c].call(payload);
    } catch (const std::exception&) {
      broken = true;
      response.clear();
    }
    const double t1 = now_us();
    if (logs != nullptr) (*logs)[c].add("client.call", t0, t1, group);
    std::string body =
        broken ? std::string() : serve::response_schedule_json(response);
    const bool ok = !body.empty();
    out.samples.push_back(Sample{t1 - t0, ok, repeat});
    if (repeat) ++out.repeats;
    if (ok) {
      ++out.ok;
    } else if (!broken &&
               serve::response_error_code(response) == serve::kErrOverloaded) {
      ++out.refused;
    } else {
      ++out.errors;
      if (broken) {
        try {
          connections[c].close();
        } catch (const std::exception&) {
        }
      }
    }
    return body;
  };

  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < count; ++c) {
    threads.emplace_back([&, c] {
      LoadResult& out = per[c];
      std::string response;
      if (inputs.workload == Workload::Sessions) {
        // This connection's sessions of this round, one after another.
        const std::hash<std::string_view> hasher;
        const std::size_t owned = inputs.sessions.size() / count;
        for (std::size_t n = owned * round / rounds;
             n < owned * (round + 1) / rounds; ++n) {
          Session& session = inputs.sessions[c + n * count];
          for (std::size_t k = 0; k < session.extend_payloads.size(); ++k) {
            if (now_us() > deadline_us || !connections[c].connected()) {
              ++out.attempted;
              ++out.unsent;
              continue;
            }
            std::string body = send(c, session.extend_payloads[k], k + 1,
                                    false, out, response);
            session.step_hashes.push_back(body.empty() ? 0 : hasher(body));
            if (k + 1 == session.extend_payloads.size()) {
              session.last_body = std::move(body);
            }
          }
        }
        return;
      }
      const std::size_t lo = inputs.sequence.size() * round / rounds;
      const std::size_t hi = inputs.sequence.size() * (round + 1) / rounds;
      for (std::size_t j = lo + (c + count - lo % count) % count; j < hi;
           j += count) {
        const std::uint32_t index = inputs.sequence[j];
        Distinct& item = inputs.distinct[index];
        if (now_us() > deadline_us || !connections[c].connected()) {
          ++out.attempted;
          ++out.unsent;
          continue;
        }
        const bool repeat = answered[index].load(std::memory_order_acquire);
        ++out.family_sent[item.request.family];
        std::string body = send(c, item.payload, j + 1, repeat, out, response);
        if (body.empty()) continue;
        if (repeat) {
          // A repeat must return the first answer's bytes.
          if (body != item.body) {
            ++out.mismatches;
            --out.ok;
            out.samples.back().ok = false;
          }
        } else {
          // Fresh content is sent exactly once, so no other thread touches
          // this entry until the release store below.
          item.response = std::move(response);
          item.body = std::move(body);
          answered[index].store(true, std::memory_order_release);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  LoadResult total;
  for (const LoadResult& part : per) merge(total, part);
  total.wall_s = (now_us() - t_start) / 1e6;
  return total;
}

std::size_t close_sessions(const Inputs& inputs, serve::Client& client) {
  std::size_t unclosed = 0;
  for (const Session& session : inputs.sessions) {
    if (session.id.empty()) continue;  // never opened: counted in set-up
    serve::CloseRequest close;
    close.session = session.id;
    try {
      const std::string response = client.call(serve::serialize_close(close));
      if (response.find("\"closed\":true") == std::string::npos) ++unclosed;
    } catch (const std::exception&) {
      ++unclosed;
    }
  }
  return unclosed;
}

std::string check_answer(const Distinct& distinct, std::string_view body,
                         std::string_view response) {
  if (body.empty()) return "no schedule in the response";
  if (body != direct_schedule_bytes(distinct.request)) {
    return "served bytes differ from a direct " + distinct.request.scheduler +
           " run";
  }
  if (distinct.request.certify) {
    const std::string hash = serve::response_certificate_hash(response);
    if (hash.empty() ||
        hash != ptask::analysis::hash_hex(ptask::analysis::fnv1a64(body))) {
      return "certificate_hash '" + hash +
             "' does not match the served bytes";
    }
  }
  return {};
}

double body_makespan(std::string_view body) {
  constexpr std::string_view kKey = "\"makespan\":";
  const std::size_t at = body.find(kKey);
  if (at == std::string_view::npos) return 0.0;
  return std::strtod(std::string(body.substr(at + kKey.size(), 32)).c_str(),
                     nullptr);
}

OracleResult run_oracle(const Inputs& inputs, int threads) {
  OracleResult result;
  std::mutex mutex;
  const auto fail = [&](std::size_t& counter, std::string message) {
    const std::lock_guard<std::mutex> lock(mutex);
    ++counter;
    if (result.messages.size() < 8) {
      result.messages.push_back(std::move(message));
    }
  };

  if (inputs.workload == Workload::Sessions) {
    result.makespans.resize(inputs.sessions.size());
    parallel_for(inputs.sessions.size(), threads, [&](std::size_t s) {
      const Session& session = inputs.sessions[s];
      const std::string label = "session " + std::to_string(s);
      const ptask::cost::CostModel cost{
          ptask::arch::Machine(session.submit.machine)};
      ptask::sched::IncrementalScheduler direct(cost);
      direct.reset(session.submit.graph, session.submit.total_cores,
                   session.submit.release_time);
      if (serve::serialize_schedule(direct.current()) != session.submit_body) {
        fail(result.mismatches, label + ": submit bytes differ from a direct "
                                        "IncrementalScheduler run");
      }
      const std::hash<std::string_view> hasher;
      std::string bytes;
      for (std::size_t k = 0; k < session.step_hashes.size(); ++k) {
        bytes = serve::serialize_schedule(direct.extend(session.deltas[k]));
        if (hasher(bytes) != session.step_hashes[k]) {
          fail(result.mismatches, label + ": extend " + std::to_string(k + 1) +
                                      " differs from the replay");
        }
      }
      if (session.step_hashes.size() == session.deltas.size() &&
          bytes != session.last_body) {
        fail(result.mismatches, label + ": final bytes differ from the replay");
      }
      const std::lock_guard<std::mutex> lock(mutex);
      result.checked += 1 + session.step_hashes.size();
      result.makespans[s] = body_makespan(
          session.last_body.empty() ? session.submit_body : session.last_body);
    });
    return result;
  }

  std::vector<double> makespans(inputs.distinct.size(), 0.0);
  parallel_for(inputs.distinct.size(), threads, [&](std::size_t i) {
    const Distinct& item = inputs.distinct[i];
    if (item.body.empty()) return;  // never answered: counted as failed
    const std::string error = check_answer(item, item.body, item.response);
    if (!error.empty()) {
      fail(error.rfind("certificate", 0) == 0 ? result.certificate_mismatches
                                              : result.mismatches,
           "request " + std::to_string(i) + ": " + error);
    }
    makespans[i] = body_makespan(item.body);
    const std::lock_guard<std::mutex> lock(mutex);
    ++result.checked;
  });
  for (double makespan : makespans) {
    if (makespan > 0.0) result.makespans.push_back(makespan);
  }
  return result;
}

}  // namespace perfbench
