#pragma once
/// \file workloads.hpp
/// The served workloads: seeded input generation, set-up against a
/// live daemon, the timed closed loop, and the correctness oracle.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "ptask/core/task_graph.hpp"
#include "ptask/sched/incremental.hpp"
#include "ptask/serve/client.hpp"
#include "ptask/serve/protocol.hpp"
#include "trace_log.hpp"

namespace perfbench {

enum class Workload { Mixed, Sessions };

/// Parses "mixed" / "sessions"; throws std::invalid_argument.
Workload parse_workload(std::string_view name);

/// How much work one run does.  Fixed per (workload, --seconds), so every
/// commit sends the same requests.
struct Sizes {
  std::size_t mixed_pool = 0;      ///< warm distinct requests
  std::size_t mixed_requests = 0;  ///< timed requests, 1/5 of them fresh
  int session_tasks = 0;           ///< base graph size per session
  std::size_t session_deltas = 0;  ///< timed extends per session
  std::size_t sessions_per_connection = 0;
  std::size_t replay_cap = 0;      ///< distinct requests the replay covers
};

/// Sizes filling about `seconds` of load on a 4-core host; `toy` gives the
/// self-check's small sizes.
Sizes sizes_for(double seconds, bool toy);

/// One distinct schedule request and its first answer.
struct Distinct {
  ptask::serve::ScheduleRequest request;
  std::string payload;  ///< exactly what is sent
  std::string key;      ///< canonical_key(request)
  std::uint64_t instance_seed = 0;
  std::string response;  ///< full response of the first answer
  std::string body;      ///< its schedule bytes
};

/// One incremental session: a base graph and its timestep deltas.
struct Session {
  ptask::serve::SubmitRequest submit;
  std::vector<ptask::sched::GraphDelta> deltas;
  /// Each delta's task batch on its own, as a standalone graph.
  std::vector<ptask::core::TaskGraph> delta_graphs;
  std::string id;           ///< from the submit response
  std::string submit_body;  ///< schedule bytes of the submit response
  std::vector<std::string> extend_payloads;  ///< built once the id is known
  std::vector<std::size_t> step_hashes;      ///< hash of each extend's bytes
  std::string last_body;                     ///< bytes of the last extend
};

struct Inputs {
  Workload workload = Workload::Mixed;
  int connections = 1;
  int daemon_workers = 1;
  double declared_repeat_share = 0.0;
  std::vector<Distinct> distinct;  ///< mixed: warm pool, then fresh
  std::size_t warm = 0;            ///< distinct[0, warm) answered in set-up
  std::vector<std::uint32_t> sequence;  ///< timed requests (into distinct)
  /// Session i belongs to connection i % connections, which streams its
  /// sessions one after another.  All are open at once, so there are at
  /// most as many as the daemon's session limit.
  std::vector<Session> sessions;
  std::size_t duplicates_dropped = 0;   ///< generated twice, sent once
  std::map<std::string, std::size_t> family_distinct;
};

/// Generates a workload's inputs from `seed`; deterministic.
Inputs generate(Workload workload, std::uint64_t seed, const Sizes& sizes,
                int nproc);

/// Opens one connection per client.
std::vector<ptask::serve::Client> connect_all(int port, int count);

/// Set-up traffic: answers every warm request (mixed) or opens every
/// session (sessions), each connection its own share.  Returns the number
/// of failed set-up requests.
std::size_t warm_up(Inputs& inputs,
                    std::vector<ptask::serve::Client>& connections);

/// Closes every session opened in set-up (sessions; a no-op otherwise).
/// Returns the number of sessions the daemon did not close.
std::size_t close_sessions(const Inputs& inputs, ptask::serve::Client& client);

struct Sample {
  double latency_us = 0.0;
  bool ok = false;
  bool repeat = false;  ///< its content had been answered before it was sent
};

struct LoadResult {
  std::vector<Sample> samples;
  double wall_s = 0.0;
  std::size_t attempted = 0;
  std::size_t ok = 0;
  std::size_t refused = 0;     ///< PTS008
  std::size_t errors = 0;      ///< other failed responses or broken calls
  std::size_t mismatches = 0;  ///< repeat answers differing from the first
  std::size_t unsent = 0;      ///< not sent before the hard deadline
  std::size_t repeats = 0;     ///< samples with repeat set
  std::map<std::string, std::size_t> family_sent;
};

/// The timed window is split into rounds that run one after another; each
/// metric is taken per round and reported as the median over rounds, so a
/// burst of host noise shorter than half the window leaves it alone.
/// Sessions get a round per four sessions of a connection.
std::size_t rounds_of(const Inputs& inputs, std::size_t rounds);

/// Adds `part`'s counts, samples and wall time to `into`.
void merge(LoadResult& into, const LoadResult& part);

/// One round of the timed closed loop: connection c sends the items
/// j = c (mod C) of the round's slice of the sequence (sessions: the
/// extends of its sessions in the round's slice) one at a time.  Nothing is
/// sent after `deadline_us` (now_us() clock).  With `logs` non-null every
/// Client::call is recorded as a span in logs[c].
LoadResult run_timed(Inputs& inputs,
                     std::vector<ptask::serve::Client>& connections,
                     std::size_t round, std::size_t rounds,
                     double deadline_us, std::vector<SpanLog>* logs);

struct OracleResult {
  std::size_t checked = 0;
  std::size_t mismatches = 0;   ///< served bytes differ from a direct run
  std::size_t certificate_mismatches = 0;
  std::vector<double> makespans;  ///< one per distinct schedule served
  std::vector<std::string> messages;
};

/// Correctness gate, outside the timed window: served bytes against a
/// direct in-process run of the same registry strategy (an
/// IncrementalScheduler replay for sessions), certificate hashes
/// re-derived from the served bytes.  Runs on `threads` threads.
OracleResult run_oracle(const Inputs& inputs, int threads);

/// Checks one served answer of `distinct`; returns "" when it is right.
std::string check_answer(const Distinct& distinct, std::string_view body,
                         std::string_view response);

/// The "makespan" member of serialized schedule bytes.
double body_makespan(std::string_view body);

}  // namespace perfbench
