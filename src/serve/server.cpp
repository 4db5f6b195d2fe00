#include "ptask/serve/server.hpp"

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <deque>
#include <mutex>
#include <optional>
#include <stdexcept>

#include "ptask/analysis/certifier.hpp"
#include "ptask/cost/cost_model.hpp"
#include "ptask/obs/export.hpp"
#include "ptask/obs/metrics.hpp"
#include "ptask/obs/prometheus.hpp"
#include "ptask/obs/trace.hpp"
#include "ptask/sched/incremental.hpp"
#include "ptask/sched/registry.hpp"
#include "ptask/serve/protocol.hpp"

namespace ptask::serve {

namespace {

/// serve.error.<code> counter (codes are a small fixed set, so the name
/// lookup per error is fine -- errors are off the hot path).
void count_error(std::string_view code) {
  obs::metrics().counter("serve.error." + std::string(code)).add();
}

using Clock = std::chrono::steady_clock;

double elapsed_us(Clock::time_point since) {
  return std::chrono::duration<double, std::micro>(Clock::now() - since)
      .count();
}

void append_us_field(std::string& out, double us) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f", us);
  out += buf;
}

/// Inclusive upper bound of log-histogram bucket i (see obs::Histogram).
std::string bucket_upper_bound(int i) {
  if (i == 0) return "0";
  if (i >= 64) return std::to_string(~std::uint64_t{0});
  return std::to_string((std::uint64_t{1} << i) - 1);
}

void append_histogram_json(std::string& out, const obs::HistogramSample& h) {
  out += "{\"count\":" + std::to_string(h.count);
  out += ",\"sum\":" + std::to_string(h.sum);
  out += ",\"p50\":";
  append_json_double(out, h.p50);
  out += ",\"p90\":";
  append_json_double(out, h.p90);
  out += ",\"p99\":";
  append_json_double(out, h.p99);
  out += ",\"buckets\":[";
  for (std::size_t i = 0; i < h.buckets.size(); ++i) {
    if (i != 0) out += ',';
    out += '[' + bucket_upper_bound(h.buckets[i].first) + ',' +
           std::to_string(h.buckets[i].second) + ']';
  }
  out += "]}";
}

}  // namespace

/// Per-request trace record threaded through the worker pipeline: request
/// id, cache outcome, phase timings (microseconds; a negative value means
/// the phase never ran), and the error code.  This is what the slow-request
/// log serializes.
struct Server::RequestTrace {
  std::string request_id;
  std::string kind = "schedule";  ///< schedule|stats|ping|metrics|trace
  std::string scheduler;
  std::string family;
  std::string error_code;  ///< "" on success
  bool cache_used = false;
  bool cache_hit = false;
  double recv_us = -1.0;
  double queue_us = -1.0;
  double parse_us = -1.0;
  double cache_us = -1.0;
  double schedule_us = -1.0;
  double certify_us = -1.0;
  double serialize_us = -1.0;
  double send_us = -1.0;
  double total_us = 0.0;
};

/// One open incremental-scheduling session.  The cost model lives here
/// because the scheduler's pipeline keeps a pointer to it for the whole
/// session lifetime.  `mutex` serializes submit/extend/stat reads on this
/// session; the map in Server only hands out the shared_ptr.
struct Server::SessionState {
  explicit SessionState(const arch::MachineSpec& machine)
      : cost(arch::Machine(machine)), scheduler(cost) {}

  std::mutex mutex;
  cost::CostModel cost;
  sched::IncrementalScheduler scheduler;
  /// Size of the last response frame: sessions only grow, so it pre-sizes
  /// the next frame and the schedule is serialized without reallocation.
  std::size_t last_frame_bytes = 0;
};

namespace {

/// RAII phase scope: times one request phase into its serve.phase.*
/// histogram (and the RequestTrace field) and, when tracing is enabled,
/// wraps it in a Serve span.  Phase metrics use the steady clock directly,
/// so they survive PTASK_OBS=OFF builds where span instrumentation
/// compiles out.
class ServePhase {
 public:
  ServePhase(const std::string& span_name, obs::Histogram& hist,
             double& out_us)
      : hist_(hist), out_us_(&out_us) {
    if (obs::enabled()) span_.emplace(obs::SpanKind::Serve, span_name);
    t0_ = Clock::now();
  }
  ~ServePhase() { finish(); }
  ServePhase(const ServePhase&) = delete;
  ServePhase& operator=(const ServePhase&) = delete;

  void finish() {
    if (done_) return;
    done_ = true;
    const double us = elapsed_us(t0_);
    *out_us_ = us;
    hist_.observe(us > 0.0 ? static_cast<std::uint64_t>(us) : 0);
    span_.reset();
  }

 private:
  std::optional<obs::ScopedSpan> span_;
  obs::Histogram& hist_;
  double* out_us_;
  Clock::time_point t0_{};
  bool done_ = false;
};

}  // namespace

/// One admitted request traveling from the reactor to a worker.
struct Server::RequestJob {
  std::uint64_t conn_id = 0;
  std::string payload;
  Reactor::Clock::time_point t_request{};  ///< frame arrival (recv start)
  double span_begin_s = 0.0;               ///< tracer clock at frame arrival
  double recv_us = -1.0;
  Reactor::Clock::time_point t_enqueue{};  ///< admission time
};

/// A job after parse/dispatch, carrying either a final response or a
/// schedule request awaiting execution.
struct Server::ParsedJob {
  RequestJob job;
  RequestTrace trace;
  bool tracing = false;
  Clock::time_point t0{};  ///< latency clock (starts at parse)
  std::string response;    ///< the finished response frame
  std::optional<ScheduleRequest> request;
};

/// Bounded admission queue between the reactor and the worker pool.
struct Server::RequestQueue {
  enum class Push { Ok, Full, Closed };

  explicit RequestQueue(std::size_t max) : max_entries(max) {}

  std::mutex mutex;
  std::condition_variable cv;
  std::deque<RequestJob> jobs;
  std::size_t max_entries = 0;  ///< 0 = unbounded
  bool closed = false;
  std::atomic<std::size_t> depth{0};
  std::atomic<std::uint64_t> enqueued{0};
  std::atomic<std::uint64_t> rejected{0};

  Push push(RequestJob&& job) {
    {
      const std::lock_guard<std::mutex> lock(mutex);
      if (closed) return Push::Closed;
      if (max_entries > 0 && jobs.size() >= max_entries) {
        rejected.fetch_add(1, std::memory_order_relaxed);
        return Push::Full;
      }
      jobs.push_back(std::move(job));
      depth.store(jobs.size(), std::memory_order_relaxed);
    }
    enqueued.fetch_add(1, std::memory_order_relaxed);
    cv.notify_one();
    return Push::Ok;
  }

  /// Blocks for the next job.  Returns false when the queue is closed and
  /// fully drained (worker exit).
  bool pop(RequestJob& out) {
    std::unique_lock<std::mutex> lock(mutex);
    cv.wait(lock, [&] { return closed || !jobs.empty(); });
    if (jobs.empty()) return false;
    out = std::move(jobs.front());
    jobs.pop_front();
    depth.store(jobs.size(), std::memory_order_relaxed);
    return true;
  }

  void close() {
    {
      const std::lock_guard<std::mutex> lock(mutex);
      closed = true;
    }
    cv.notify_all();
  }
};

Server::Server(const ServerOptions& options)
    : options_(options),
      injector_(options.faults),
      cache_(options.cache_max_entries) {
  if (options_.num_workers < 1) options_.num_workers = 1;
  if (options_.max_request_bytes > kMaxFrameBytes) {
    options_.max_request_bytes = kMaxFrameBytes;
  }
}

Server::~Server() { stop(); }

void Server::start() {
  if (running_.exchange(true)) return;
  stopping_.store(false);

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    running_.store(false);
    throw std::runtime_error("ptask_served: socket() failed");
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(options_.port));
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0 ||
      ::listen(listen_fd_, 128) < 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    running_.store(false);
    throw std::runtime_error("ptask_served: cannot listen on port " +
                             std::to_string(options_.port));
  }
  socklen_t addr_len = sizeof(addr);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &addr_len);
  port_ = ntohs(addr.sin_port);

  start_time_ = std::chrono::steady_clock::now();
  // Nonce in minted request ids: distinguishes ids across server
  // restarts/instances without any global coordination.
  id_nonce_ = static_cast<std::uint64_t>(
                  std::chrono::duration_cast<std::chrono::microseconds>(
                      start_time_.time_since_epoch())
                      .count()) &
              0xffffffffu;
  if (!options_.slow_log_path.empty()) {
    const std::lock_guard<std::mutex> lock(slow_log_mutex_);
    slow_log_.open(options_.slow_log_path,
                   std::ios::out | std::ios::trunc);
  }

  queue_ = std::make_unique<RequestQueue>(options_.max_queue);
  Reactor::Options reactor_options;
  reactor_options.listen_fd = listen_fd_;
  reactor_options.max_request_bytes = options_.max_request_bytes;
  reactor_options.worker_track = options_.num_workers;  // own trace track
  reactor_ = std::make_unique<Reactor>(
      reactor_options,
      [this](std::uint64_t conn_id, std::string&& payload,
             Reactor::Clock::time_point t_request, double span_begin_s,
             double recv_us) {
        on_frame(conn_id, std::move(payload), t_request, span_begin_s,
                 recv_us);
      },
      [this](std::uint32_t length) { return on_oversize(length); });
  try {
    reactor_->start();
  } catch (...) {
    reactor_.reset();
    ::close(listen_fd_);
    listen_fd_ = -1;
    running_.store(false);
    throw;
  }
  listen_fd_ = -1;  // the reactor owns (and closes) the listener now

  workers_.reserve(static_cast<std::size_t>(options_.num_workers));
  for (int i = 0; i < options_.num_workers; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

void Server::stop() {
  if (!running_.load(std::memory_order_acquire)) return;
  stopping_.store(true, std::memory_order_release);
  // Drain order: no new connects -> no new admissions -> workers finish
  // every admitted request -> the reactor flushes the remaining responses.
  if (reactor_) reactor_->stop_accepting();
  if (queue_) queue_->close();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();
  if (reactor_) {
    reactor_->stop();
    reactor_.reset();
  }
  // Keep the (closed, drained) queue alive: render_stats() reads the
  // enqueued/rejected totals from it, and the post-shutdown stats dump
  // must still report them.  start() replaces it with a fresh queue.
  {
    const std::lock_guard<std::mutex> lock(slow_log_mutex_);
    if (slow_log_.is_open()) slow_log_.close();
  }
  running_.store(false, std::memory_order_release);
}

std::size_t Server::queue_depth() const {
  return queue_ ? queue_->depth.load(std::memory_order_relaxed) : 0;
}

void Server::on_frame(std::uint64_t conn_id, std::string&& payload,
                      Reactor::Clock::time_point t_request,
                      double span_begin_s, double recv_us) {
  static obs::Counter& requests = obs::metrics().counter("serve.requests");
  static obs::Counter& queue_enqueued =
      obs::metrics().counter("serve.queue.enqueued");
  static obs::Counter& queue_rejected =
      obs::metrics().counter("serve.queue.rejected");
  requests.add();

  RequestJob job;
  job.conn_id = conn_id;
  job.payload = std::move(payload);
  job.t_request = t_request;
  job.span_begin_s = span_begin_s;
  job.recv_us = recv_us;
  job.t_enqueue = Reactor::Clock::now();

  // Admission control runs on the reactor thread, so a rejection costs no
  // worker capacity: the overload answer is rendered and queued for flush
  // right here.
  const std::string_view rejected_payload = job.payload;  // for id recovery
  switch (queue_->push(std::move(job))) {
    case RequestQueue::Push::Ok:
      queue_enqueued.add();
      return;
    case RequestQueue::Push::Closed:
      // Shutdown already began; nothing will drain the queue for this
      // frame, so drop the connection instead of stranding the client.
      reactor_->disconnect(conn_id);
      return;
    case RequestQueue::Push::Full: {
      queue_rejected.add();
      count_error(kErrOverloaded);
      RequestTrace trace;
      trace.error_code = kErrOverloaded;
      trace.recv_us = recv_us;
      trace.request_id = extract_request_id_loose(rejected_payload);
      if (trace.request_id.empty()) trace.request_id = mint_request_id();
      std::string frame = overload_frame(
          trace.request_id,
          "admission queue full (" + std::to_string(options_.max_queue) +
              " requests); retry after the hint",
          options_.overload_retry_after_ms);
      trace.total_us = elapsed_us(t_request);
      finish_request(trace, span_begin_s, obs::enabled());
      reactor_->respond(conn_id, std::move(frame));
      return;
    }
  }
}

std::string Server::on_oversize(std::uint32_t length) {
  // Oversized frames never reach the queue: the reactor answers and closes.
  // The client's request id -- if any -- sits in the unread payload, so
  // this one error path carries a minted id.
  static obs::Counter& requests = obs::metrics().counter("serve.requests");
  requests.add();
  count_error(kErrTooLarge);
  RequestTrace trace;
  trace.error_code = kErrTooLarge;
  trace.request_id = mint_request_id();
  std::string frame = error_frame(
      trace.request_id, kErrTooLarge,
      "request of " + std::to_string(length) + " bytes exceeds the limit of " +
          std::to_string(options_.max_request_bytes));
  finish_request(trace, obs::enabled() ? obs::tracer().now() : 0.0,
                 obs::enabled());
  return frame;
}

void Server::worker_loop(int worker_index) {
  // Tag this worker's ambient span context once: every span this thread
  // records (request phases, scheduler passes) lands on the worker's own
  // trace track, so concurrent requests never interleave on one track.
  obs::thread_context().worker = worker_index;
  static obs::Histogram& queue_wait =
      obs::metrics().histogram("serve.queue.wait_us");

  RequestJob job;
  while (queue_->pop(job)) {
    in_flight_.fetch_add(1, std::memory_order_relaxed);
    ParsedJob item;
    item.tracing = obs::enabled();
    item.trace.recv_us = job.recv_us;
    const double wait_us = elapsed_us(job.t_enqueue);
    item.trace.queue_us = wait_us;
    queue_wait.observe(
        static_cast<std::uint64_t>(wait_us > 0.0 ? wait_us : 0.0));
    if (item.tracing) {
      obs::Span queue_span;
      queue_span.kind = obs::SpanKind::Serve;
      queue_span.name = "serve.queue";
      queue_span.worker = obs::thread_context().worker;
      const double end_s = obs::tracer().now();
      queue_span.begin_s = end_s - wait_us / 1e6;
      queue_span.end_s = end_s;
      obs::tracer().record(std::move(queue_span));
    }
    item.job = std::move(job);
    if (!dispatch_payload(item)) execute_schedule(item);

    item.trace.total_us = elapsed_us(item.job.t_request);
    finish_request(item.trace, item.job.span_begin_s, item.tracing);
    reactor_->respond(item.job.conn_id, std::move(item.response));
    in_flight_.fetch_sub(1, std::memory_order_relaxed);
  }
}

bool Server::dispatch_payload(ParsedJob& item) {
  static obs::Counter& responses_ok =
      obs::metrics().counter("serve.responses.ok");
  static obs::Histogram& phase_parse =
      obs::metrics().histogram("serve.phase.parse_us");
  RequestTrace& trace = item.trace;
  const std::string_view payload = item.job.payload;
  const std::uint64_t sequence =
      served_requests_.fetch_add(1, std::memory_order_relaxed);
  injector_.perturb(rt::FaultInjector::point(
      0, static_cast<std::int64_t>(sequence), /*phase=*/0));

  const auto ensure_request_id = [&] {
    if (trace.request_id.empty()) trace.request_id = mint_request_id();
  };

  item.t0 = Clock::now();
  try {
    // The parse phase covers the document parse plus (for schedule
    // requests) the typed request parse below.
    ServePhase parse_phase("serve.parse", phase_parse, trace.parse_us);
    obs::json::Value document;
    try {
      document = obs::json::parse(payload);
    } catch (const std::runtime_error& e) {
      // Best-effort id recovery keeps even PTS001 errors correlatable.
      parse_phase.finish();
      trace.request_id = extract_request_id_loose(payload);
      throw ProtocolError(kErrMalformedJson, e.what());
    }
    if (const obs::json::Value* id = document.find("request_id")) {
      if (id->is_string()) trace.request_id = id->string;
    }
    ensure_request_id();
    if (document.is_object()) {
      if (const obs::json::Value* type = document.find("type")) {
        if (type->is_string() && type->string == "stats") {
          parse_phase.finish();
          trace.kind = "stats";
          responses_ok.add();
          ResponseFrame frame(true, trace.request_id);
          append_stats(frame.out());
          item.response = std::move(frame).finish();
          return true;
        }
        if (type->is_string() && type->string == "metrics") {
          parse_phase.finish();
          trace.kind = "metrics";
          responses_ok.add();
          item.response = metrics_frame(trace.request_id, render_metrics());
          return true;
        }
        if (type->is_string() && type->string == "trace") {
          parse_phase.finish();
          trace.kind = "trace";
          responses_ok.add();
          // Drain the live tracer: safe concurrently with recording
          // workers (per-buffer locking; see obs/trace.hpp).  Spans still
          // open land in the next dump.
          std::string chrome = obs::render_chrome_trace(obs::tracer().take());
          while (!chrome.empty() && chrome.back() == '\n') chrome.pop_back();
          item.response = trace_frame(trace.request_id, chrome);
          return true;
        }
        if (type->is_string() && type->string == "ping") {
          parse_phase.finish();
          trace.kind = "ping";
          responses_ok.add();
          item.response = pong_frame(trace.request_id);
          return true;
        }
        // Session requests (online incremental scheduling).  These never
        // touch the whole-schedule cache: a session response depends on
        // mutable per-session state, so caching it would serve schedules
        // for graphs the session has since grown past.
        if (type->is_string() && type->string == "submit") {
          const SubmitRequest request = parse_submit(payload);
          parse_phase.finish();
          trace.kind = "submit";
          trace.scheduler = "incremental";
          trace.family = request.family;
          item.response = handle_submit(request, trace);
          responses_ok.add();
          return true;
        }
        if (type->is_string() && type->string == "extend") {
          const ExtendRequest request = parse_extend(payload);
          parse_phase.finish();
          trace.kind = "extend";
          trace.scheduler = "incremental";
          trace.family = request.family;
          item.response = handle_extend(request, trace);
          responses_ok.add();
          return true;
        }
        if (type->is_string() && type->string == "close") {
          const CloseRequest request = parse_close(payload);
          parse_phase.finish();
          trace.kind = "close";
          item.response = handle_close(request, trace);
          responses_ok.add();
          return true;
        }
      }
    }

    ScheduleRequest request = parse_request(payload);
    parse_phase.finish();
    trace.scheduler = request.scheduler;
    trace.family = request.family;
    item.request.emplace(std::move(request));
    return false;
  } catch (const ProtocolError& e) {
    ensure_request_id();
    trace.error_code = e.code();
    count_error(e.code());
    item.response = error_frame(trace.request_id, e.code(), e.what());
    return true;
  } catch (const std::exception& e) {
    ensure_request_id();
    trace.error_code = kErrBadRequest;
    count_error(kErrBadRequest);
    item.response = error_frame(trace.request_id, kErrBadRequest, e.what());
    return true;
  }
}

void Server::execute_schedule(ParsedJob& item) {
  static obs::Counter& responses_ok =
      obs::metrics().counter("serve.responses.ok");
  static obs::Histogram& latency =
      obs::metrics().histogram("serve.latency_us");
  static obs::Histogram& phase_cache =
      obs::metrics().histogram("serve.phase.cache_us");
  static obs::Histogram& phase_schedule =
      obs::metrics().histogram("serve.phase.schedule_us");
  static obs::Histogram& phase_certify =
      obs::metrics().histogram("serve.phase.certify_us");
  static obs::Histogram& phase_serialize =
      obs::metrics().histogram("serve.phase.serialize_us");
  RequestTrace& trace = item.trace;
  const ScheduleRequest& request = *item.request;

  const auto ensure_request_id = [&] {
    if (trace.request_id.empty()) trace.request_id = mint_request_id();
  };

  try {
    const std::string key = canonical_key(request);
    injector_.perturb(rt::FaultInjector::point(
        1,
        static_cast<std::int64_t>(
            served_requests_.load(std::memory_order_relaxed)),
        /*phase=*/1));

    bool computed = false;
    ScheduleCache::Entry schedule_json;
    {
      // The cache phase covers the whole lookup including any
      // single-flight wait; on a miss the compute phases below run nested
      // inside it (so cache_us >= schedule_us + certify_us + serialize_us
      // on misses, and is pure lookup/wait cost on hits).
      ServePhase cache_phase("serve.cache.lookup", phase_cache,
                             trace.cache_us);
      schedule_json = cache_.get_or_compute(key, [&] {
        computed = true;
        std::optional<sched::Schedule> schedule;
        {
          ServePhase schedule_phase("serve.schedule[" + request.scheduler +
                                        "]",
                                    phase_schedule, trace.schedule_us);
          const cost::CostModel cost{arch::Machine(request.machine)};
          const std::unique_ptr<sched::Scheduler> scheduler =
              sched::SchedulerRegistry::instance().make(request.scheduler,
                                                        cost);
          schedule = scheduler->run(request.graph, request.total_cores);
        }
        // Opt-in audit before the bytes become cacheable: a certification
        // failure throws, which evicts the single-flight placeholder --
        // uncertifiable schedules are never served from the cache.  A
        // cache *hit* under a certify key was therefore certified when it
        // was computed (the flag is part of the canonical key).
        if (request.certify) {
          ServePhase certify_phase("serve.certify", phase_certify,
                                   trace.certify_us);
          const analysis::Certificate certificate =
              analysis::certify(request.graph, *schedule, {});
          if (!certificate.ok()) {
            throw ProtocolError(
                kErrCertification,
                "schedule failed independent certification: " +
                    analysis::render_text(certificate.report));
          }
        }
        ServePhase serialize_phase("serve.serialize", phase_serialize,
                                   trace.serialize_us);
        return serialize_schedule(*schedule);
      });
    }
    trace.cache_used = true;
    trace.cache_hit = !computed;

    responses_ok.add();
    const double total_us = elapsed_us(item.t0);
    const auto observed_us =
        static_cast<std::uint64_t>(total_us > 0.0 ? total_us : 0.0);
    latency.observe(observed_us);
    // Per-strategy and per-family breakdowns.  Name lookup per request is
    // a mutex-protected map probe -- noise against a scheduler run.
    obs::metrics()
        .histogram("serve.strategy." + request.scheduler + ".latency_us")
        .observe(observed_us);
    obs::metrics()
        .counter("serve.strategy." + request.scheduler + ".requests")
        .add();
    if (!request.family.empty()) {
      obs::metrics()
          .histogram("serve.family." + request.family + ".latency_us")
          .observe(observed_us);
      obs::metrics()
          .counter("serve.family." + request.family + ".requests")
          .add();
    }
    // The hash is a pure function of the canonical bytes, so cached hits
    // carry the same certificate hash as the original miss.
    item.response = ok_frame(
        trace.request_id, *schedule_json,
        request.certify ? analysis::hash_hex(analysis::fnv1a64(*schedule_json))
                        : std::string());
  } catch (const ProtocolError& e) {
    ensure_request_id();
    trace.error_code = e.code();
    count_error(e.code());
    item.response = error_frame(trace.request_id, e.code(), e.what());
  } catch (const std::exception& e) {
    // Scheduler/cost-model rejections (e.g. invalid core counts for the
    // machine) map to bad-request: the graph/machine combination cannot be
    // scheduled.
    ensure_request_id();
    trace.error_code = kErrBadRequest;
    count_error(kErrBadRequest);
    item.response = error_frame(trace.request_id, kErrBadRequest, e.what());
  }
}

std::string Server::handle_submit(const SubmitRequest& request,
                                  RequestTrace& trace) {
  static obs::Counter& submits =
      obs::metrics().counter("serve.incremental.submits");
  static obs::Histogram& phase_schedule =
      obs::metrics().histogram("serve.phase.schedule_us");
  static obs::Histogram& phase_serialize =
      obs::metrics().histogram("serve.phase.serialize_us");
  auto session = std::make_shared<SessionState>(request.machine);
  std::string session_id;
  {
    std::lock_guard<std::mutex> map_lock(sessions_mutex_);
    if (options_.max_sessions > 0 &&
        sessions_.size() >= options_.max_sessions) {
      throw ProtocolError(kErrSession,
                          "session limit reached (" +
                              std::to_string(options_.max_sessions) +
                              " open sessions); close a session first");
    }
    session_id = mint_session_id();
    sessions_.emplace(session_id, session);
  }
  try {
    std::lock_guard<std::mutex> lock(session->mutex);
    ServePhase schedule_phase("serve.schedule[incremental]", phase_schedule,
                              trace.schedule_us);
    const sched::Schedule& schedule = session->scheduler.reset(
        request.graph, request.total_cores, request.release_time);
    schedule_phase.finish();
    ServePhase serialize_phase("serve.serialize", phase_serialize,
                               trace.serialize_us);
    std::string frame = session_frame(trace.request_id, session_id,
                                      session->scheduler.last_stats(),
                                      schedule);
    serialize_phase.finish();
    session->last_frame_bytes = frame.size();
    submits.add();
    return frame;
  } catch (...) {
    // A failed initial schedule (e.g. the machine rejects the core count)
    // must not leave an unusable session holding a map slot.
    std::lock_guard<std::mutex> map_lock(sessions_mutex_);
    sessions_.erase(session_id);
    throw;
  }
}

std::string Server::handle_extend(const ExtendRequest& request,
                                  RequestTrace& trace) {
  static obs::Counter& extends =
      obs::metrics().counter("serve.incremental.extends");
  static obs::Histogram& phase_schedule =
      obs::metrics().histogram("serve.phase.schedule_us");
  static obs::Histogram& phase_serialize =
      obs::metrics().histogram("serve.phase.serialize_us");
  std::shared_ptr<SessionState> session;
  {
    std::lock_guard<std::mutex> map_lock(sessions_mutex_);
    const auto it = sessions_.find(request.session);
    if (it == sessions_.end()) {
      throw ProtocolError(kErrSession,
                          "unknown session '" + request.session + "'");
    }
    session = it->second;
  }
  std::lock_guard<std::mutex> lock(session->mutex);
  ServePhase schedule_phase("serve.schedule[incremental]", phase_schedule,
                            trace.schedule_us);
  const sched::Schedule* schedule = nullptr;
  try {
    schedule = &session->scheduler.extend(request.delta);
  } catch (const sched::DeltaError& e) {
    // Invalid deltas (range, cycles, non-monotonic releases) leave the
    // session untouched.  Surface them as session errors: the generic
    // handler below would misfile them as PTS002 bad requests.
    throw ProtocolError(kErrSession, e.what());
  }
  schedule_phase.finish();
  ServePhase serialize_phase("serve.serialize", phase_serialize,
                             trace.serialize_us);
  // Headroom over the previous frame absorbs this extend's growth.
  const std::size_t hint =
      session->last_frame_bytes + session->last_frame_bytes / 8;
  std::string frame =
      session_frame(trace.request_id, request.session,
                    session->scheduler.last_stats(), *schedule, hint);
  serialize_phase.finish();
  session->last_frame_bytes = frame.size();
  extends.add();
  return frame;
}

std::string Server::handle_close(const CloseRequest& request,
                                 RequestTrace& trace) {
  static obs::Counter& closes =
      obs::metrics().counter("serve.incremental.closes");
  std::lock_guard<std::mutex> map_lock(sessions_mutex_);
  const auto it = sessions_.find(request.session);
  if (it == sessions_.end()) {
    throw ProtocolError(kErrSession,
                        "unknown session '" + request.session + "'");
  }
  sessions_.erase(it);
  closes.add();
  return close_frame(trace.request_id, request.session);
}

std::size_t Server::num_sessions() const {
  std::lock_guard<std::mutex> lock(sessions_mutex_);
  return sessions_.size();
}

std::string Server::mint_session_id() {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "sess-%08llx-%llu",
                static_cast<unsigned long long>(id_nonce_),
                static_cast<unsigned long long>(
                    next_session_id_.fetch_add(1, std::memory_order_relaxed)));
  return buf;
}

void Server::append_stats(std::string& out) const {
  const obs::MetricsRegistry& registry = obs::metrics();
  const std::vector<obs::CounterSample> counters = registry.counters();
  const std::vector<obs::HistogramSample> histograms =
      registry.histograms();

  std::uint64_t requests = 0;
  std::uint64_t responses_ok = 0;
  std::uint64_t truncated = 0;
  std::vector<std::pair<std::string, std::uint64_t>> errors;
  for (const obs::CounterSample& row : counters) {
    if (row.name == "serve.requests") requests = row.value;
    if (row.name == "serve.responses.ok") responses_ok = row.value;
    if (row.name == "serve.truncated") truncated = row.value;
    if (row.name.rfind("serve.error.", 0) == 0) {
      errors.emplace_back(row.name.substr(sizeof("serve.error.") - 1),
                          row.value);
    }
  }
  obs::HistogramSample latency;
  for (const obs::HistogramSample& row : histograms) {
    if (row.name == "serve.latency_us") latency = row;
  }

  out += ",\"stats\":{\"requests\":" + std::to_string(requests);
  out += ",\"responses_ok\":" + std::to_string(responses_ok);
  out += ",\"truncated\":" + std::to_string(truncated);
  out += ",\"in_flight\":" + std::to_string(in_flight());
  out += ",\"sessions\":" + std::to_string(num_sessions());
  out += ",\"uptime_s\":";
  append_json_double(out, uptime_s());
  out += ",\"queue\":{\"depth\":" + std::to_string(queue_depth());
  out += ",\"max\":" + std::to_string(options_.max_queue);
  out +=
      ",\"enqueued\":" +
      std::to_string(queue_ ? queue_->enqueued.load(std::memory_order_relaxed)
                            : 0);
  out +=
      ",\"rejected\":" +
      std::to_string(queue_ ? queue_->rejected.load(std::memory_order_relaxed)
                            : 0) +
      '}';
  out += ",\"cache\":{\"hits\":" + std::to_string(cache_.hits());
  out += ",\"misses\":" + std::to_string(cache_.misses());
  out += ",\"entries\":" + std::to_string(cache_.entries());
  out += ",\"evictions\":" + std::to_string(cache_.evictions());
  out += ",\"max_entries\":" + std::to_string(cache_.max_entries());
  out += ",\"value_bytes\":" + std::to_string(cache_.value_bytes()) + '}';
  out += ",\"latency_us\":";
  append_histogram_json(out, latency);
  out += ",\"errors\":{";
  for (std::size_t i = 0; i < errors.size(); ++i) {
    if (i != 0) out += ',';
    append_json_string(out, errors[i].first);
    out += ':' + std::to_string(errors[i].second);
  }
  // Full registry dump: every counter and every histogram (with its
  // log-bucket boundaries), names JSON-escaped, so the payload always
  // parses round-trip clean no matter what metric names exist.
  out += "},\"counters\":{";
  for (std::size_t i = 0; i < counters.size(); ++i) {
    if (i != 0) out += ',';
    append_json_string(out, counters[i].name);
    out += ':' + std::to_string(counters[i].value);
  }
  out += "},\"histograms\":{";
  for (std::size_t i = 0; i < histograms.size(); ++i) {
    if (i != 0) out += ',';
    append_json_string(out, histograms[i].name);
    out += ':';
    append_histogram_json(out, histograms[i]);
  }
  out += "}}";
}

std::string Server::render_stats() const {
  std::string out = "{\"ok\":true";
  append_stats(out);
  out += '}';
  return out;
}

std::string Server::render_metrics() const {
  std::string out = obs::render_prometheus(obs::metrics());
  const auto gauge = [&out](const char* name, const std::string& value,
                            const char* help) {
    out += std::string("# HELP ") + name + " " + help + "\n";
    out += std::string("# TYPE ") + name + " gauge\n";
    out += std::string(name) + " " + value + "\n";
  };
  gauge("ptask_serve_in_flight", std::to_string(in_flight()),
        "requests currently being served");
  gauge("ptask_serve_queue_depth", std::to_string(queue_depth()),
        "requests admitted but not yet picked up by a worker");
  gauge("ptask_serve_queue_max", std::to_string(options_.max_queue),
        "configured admission queue bound (0 = unbounded)");
  gauge("ptask_serve_sessions", std::to_string(num_sessions()),
        "open incremental-scheduling sessions");
  gauge("ptask_serve_cache_entries", std::to_string(cache_.entries()),
        "completed schedule cache entries");
  gauge("ptask_serve_cache_value_bytes",
        std::to_string(cache_.value_bytes()),
        "bytes held by cached schedule responses");
  gauge("ptask_serve_cache_max_entries",
        std::to_string(cache_.max_entries()),
        "configured cache entry cap (0 = unbounded)");
  char uptime[32];
  std::snprintf(uptime, sizeof(uptime), "%.3f", uptime_s());
  gauge("ptask_serve_uptime_seconds", uptime, "seconds since start()");
  return out;
}

double Server::uptime_s() const {
  if (start_time_ == std::chrono::steady_clock::time_point{}) return 0.0;
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start_time_)
      .count();
}

std::string Server::mint_request_id() {
  static obs::Counter& minted =
      obs::metrics().counter("serve.request_ids.minted");
  minted.add();
  char buf[48];
  std::snprintf(buf, sizeof(buf), "s-%08llx-%llu",
                static_cast<unsigned long long>(id_nonce_),
                static_cast<unsigned long long>(
                    next_request_id_.fetch_add(1, std::memory_order_relaxed)));
  return buf;
}

void Server::finish_request(const RequestTrace& trace, double span_begin_s,
                            bool tracing) {
  static obs::Counter& slow_requests =
      obs::metrics().counter("serve.slow_requests");
  if (tracing) {
    // The root span is recorded last but begins first (at frame arrival);
    // exporters sort by begin time, so it parents the phase spans by time
    // containment on this worker's track.
    obs::Span root;
    root.kind = obs::SpanKind::Serve;
    root.name = "serve.request " + trace.request_id;
    root.worker = obs::thread_context().worker;
    root.begin_s = span_begin_s;
    root.end_s = obs::tracer().now();
    obs::tracer().record(std::move(root));
  }
  if (options_.slow_threshold_us == 0 ||
      trace.total_us < static_cast<double>(options_.slow_threshold_us)) {
    return;
  }
  slow_requests.add();
  if (options_.slow_log_path.empty()) return;

  // One self-contained JSON line per slow request (docs/OBSERVABILITY.md
  // documents the schema).  Phases that never ran are omitted.
  std::string line = "{\"request_id\":";
  append_json_string(line, trace.request_id);
  line += ",\"kind\":";
  append_json_string(line, trace.kind);
  if (!trace.scheduler.empty()) {
    line += ",\"scheduler\":";
    append_json_string(line, trace.scheduler);
  }
  if (!trace.family.empty()) {
    line += ",\"family\":";
    append_json_string(line, trace.family);
  }
  line += ",\"cache\":";
  append_json_string(
      line, trace.cache_used ? (trace.cache_hit ? "hit" : "miss") : "none");
  line += ",\"error\":";
  if (trace.error_code.empty()) {
    line += "null";
  } else {
    append_json_string(line, trace.error_code);
  }
  line += ",\"total_us\":";
  append_us_field(line, trace.total_us);
  line += ",\"phases\":{";
  bool first = true;
  const auto phase = [&line, &first](const char* name, double us) {
    if (us < 0.0) return;
    if (!first) line += ',';
    first = false;
    line += '"';
    line += name;
    line += "\":";
    append_us_field(line, us);
  };
  phase("recv_us", trace.recv_us);
  phase("queue_us", trace.queue_us);
  phase("parse_us", trace.parse_us);
  phase("cache_us", trace.cache_us);
  phase("schedule_us", trace.schedule_us);
  phase("certify_us", trace.certify_us);
  phase("serialize_us", trace.serialize_us);
  phase("send_us", trace.send_us);
  line += "}}";

  const std::lock_guard<std::mutex> lock(slow_log_mutex_);
  if (slow_log_.is_open()) {
    slow_log_ << line << '\n';
    slow_log_.flush();  // slow requests are rare; readers see lines live
  }
}

}  // namespace ptask::serve
