// serve_mixed: an in-process `gcnt serve` daemon (2 workers, TCP on
// 127.0.0.1) holding four resident ~20k-node sessions, driven over the
// serve client library by 2 client threads: an infer / append_observe mix
// (1 edit in 8 per session) offered open loop at two fixed rates, then
// sent unpaced for the second half of the run to measure the mix's
// capacity and its per-request latency.
//
// Open loop: request n is due at start + n / rate whatever happened
// before, and its latency runs from that due time to the reply, so a
// stall also charges the requests queued behind it. Unpaced, a request is
// due when its client's previous reply arrives. The end-to-end figures
// come from the unpaced phase: between paced requests the cores go idle,
// and the time a virtual CPU takes to wake then depends on the rest of
// the host more than on the daemon. Each client thread
// owns two sessions and one connection, so every session sees its
// requests in schedule order and each reply is checked bitwise against a
// single-shot GcnModel::infer of a client-side mirror in the same state.

#include <algorithm>
#include <chrono>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <thread>

#include "common/error.h"
#include "common/parallel.h"
#include "common/stats.h"
#include "gcn/graph_tensors.h"
#include "gcn/serialize.h"
#include "harness.h"
#include "netlist/bench_io.h"
#include "scoap/scoap.h"
#include "serve/client.h"
#include "serve/server.h"

namespace perfbench {

using namespace gcnt;

namespace {

constexpr std::size_t kSessions = 4;
constexpr std::size_t kClients = 2;  ///< + kWorkers <= 4 cores
constexpr std::size_t kWorkers = 2;
/// The daemon's kernels run on the calling worker: a kernel pool of its
/// own would put more threads than cores on the load.
constexpr std::size_t kKernelThreads = 1;
constexpr std::size_t kGates = 18500;       ///< ~20k nodes per session
constexpr std::size_t kEditEvery = 8;       ///< per-session request mix
constexpr std::size_t kTargetsPerSession = 1024;
/// Edit targets have a fan-in cone of [kConeMin, kConeMax) nodes, so
/// every edit re-predicts a similar dirty cone.
constexpr std::size_t kConeMin = 8;
constexpr std::size_t kConeMax = 32;
/// Offered rates: about a quarter and 55% of the unpaced capacity of
/// this mix (~900 requests/s on a 4-core AVX-512 host). Each client has
/// one request in flight, so a higher rate makes the clients, not the
/// daemon, the queue.
constexpr double kLowRps = 220.0;
constexpr double kHighRps = 500.0;
/// Phases alternate in this many rounds in an untraced run.
constexpr int kRounds = 4;
/// The last kSpinNs before a request is due are spun, not slept, so
/// timer wake-up jitter does not show as latency.
constexpr std::uint64_t kSpinNs = 200'000;
/// Session states checked against a single-shot infer: every
/// kCheckStride-th one and the last; replies within any one state must
/// all be identical.
constexpr std::size_t kCheckStride = 32;

struct SessionPlan {
  std::string name;
  std::string text;               ///< .bench text loaded into the daemon
  std::vector<NodeId> targets;    ///< OP targets, used in order
  std::size_t edits = 0;          ///< acknowledged edits so far
  /// (session state = edits applied, logits fnv) per infer reply.
  std::vector<std::pair<std::size_t, std::uint64_t>> replies;
};

/// OP targets spread over the design: a stride walk visits every node
/// once, keeping valid targets whose fan-in cone is in the band.
std::vector<NodeId> edit_targets(const Netlist& netlist) {
  std::vector<NodeId> targets;
  const std::size_t n = netlist.size();
  for (std::size_t i = 0; i < n && targets.size() < kTargetsPerSession; ++i) {
    const NodeId v = static_cast<NodeId>((i * 7919) % n);
    const CellType t = netlist.type(v);
    if (is_sink(t) || t == CellType::kInput) continue;
    const std::size_t cone = netlist.fanin_cone(v, kConeMax).size();
    if (cone < kConeMin || cone >= kConeMax) continue;
    targets.push_back(v);
  }
  return targets;
}

struct Phase {
  std::vector<double> latency_ms;  ///< from due time to reply
  std::vector<double> rpc_ms;      ///< from send to reply
  double late_max_ms = 0.0;        ///< worst send delay behind schedule
  double depth_max = 0.0;          ///< worst daemon queue depth seen
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> errors;
  double seconds = 0.0;            ///< wall time of the phase
  double p(double q) const { return percentile(latency_ms, q); }

  /// Pools `other` into this phase.
  void add(const Phase& other) {
    latency_ms.insert(latency_ms.end(), other.latency_ms.begin(),
                      other.latency_ms.end());
    rpc_ms.insert(rpc_ms.end(), other.rpc_ms.begin(), other.rpc_ms.end());
    late_max_ms = std::max(late_max_ms, other.late_max_ms);
    depth_max = std::max(depth_max, other.depth_max);
    attempted += other.attempted;
    failed += other.failed;
    errors.insert(errors.end(), other.errors.begin(), other.errors.end());
    seconds += other.seconds;
  }
};

/// Runs `seconds` of the schedule at `rate` requests per second; rate 0
/// sends unpaced (each request is due when the previous one returns).
Phase run_phase(int port, std::vector<SessionPlan>& plans, double rate,
                double seconds, bool traced, Tracer& tracer) {
  Phase phase;
  const std::uint64_t t0 = now_ns();
  const bool paced = rate > 0.0;
  const std::size_t total =
      paced ? static_cast<std::size_t>(rate * seconds) : ~std::size_t{0};
  const std::uint64_t start = now_ns() + 5'000'000;
  const std::uint64_t end =
      start + static_cast<std::uint64_t>(seconds * 1e9);
  std::mutex merge;
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      Phase mine;
      std::uint64_t last_ping = 0;
      try {
        serve::ServeClient client = serve::ServeClient::connect_tcp(port);
        for (std::size_t n = c; n < total; n += kClients) {
          if (!paced && now_ns() >= end) break;
          const std::uint64_t due =
              paced ? start + static_cast<std::uint64_t>(
                                  static_cast<double>(n) * 1e9 / rate)
                    : std::max(start, now_ns());
          // With slack before the next request, sample the daemon's
          // queue depth (traced runs only).
          if (traced && now_ns() + 2'000'000 < due &&
              now_ns() - last_ping > 50'000'000) {
            last_ping = now_ns();
            mine.depth_max = std::max<double>(mine.depth_max,
                                              client.ping().queue_depth);
          }
          std::this_thread::sleep_until(
              std::chrono::steady_clock::time_point(
                  std::chrono::nanoseconds(due > kSpinNs ? due - kSpinNs : 0)));
          while (now_ns() < due) {
          }
          const std::uint64_t sent = now_ns();
          SessionPlan& plan =
              plans[c + kClients * ((n / kClients) % (kSessions / kClients))];
          const std::size_t k = n / kSessions;  // per-session sequence
          const bool edit = k % kEditEvery == kEditEvery - 1 &&
                            plan.edits < plan.targets.size();
          ++mine.attempted;
          bool ok = true;
          Matrix logits;
          try {
            if (edit) {
              client.append_observe(plan.name, plan.targets[plan.edits]);
              ++plan.edits;
            } else {
              logits = client.infer(plan.name);
            }
          } catch (const Error& e) {
            ok = false;
            ++mine.failed;
            mine.errors.push_back(std::string(error_kind_name(e.kind())) +
                                  ": " + e.what());
          }
          const std::uint64_t done = now_ns();
          if (!ok) continue;
          mine.latency_ms.push_back(static_cast<double>(done - due) * 1e-6);
          mine.rpc_ms.push_back(static_cast<double>(done - sent) * 1e-6);
          mine.late_max_ms = std::max(
              mine.late_max_ms,
              sent > due ? static_cast<double>(sent - due) * 1e-6 : 0.0);
          if (!edit) plan.replies.emplace_back(plan.edits, fnv_matrix(logits));
          if (traced) {
            const std::int64_t root =
                tracer.record("request", due, done, -1, n + 1);
            tracer.record("generator.late", due, std::max(due, sent), root,
                          n + 1);
            tracer.record("serve.rpc", std::max(due, sent), done, root, n + 1);
          }
        }
      } catch (const std::exception& e) {
        // Connection-level failure: the rest of this client's schedule is
        // lost; one failure is recorded and the run is marked incorrect.
        ++mine.failed;
        mine.errors.push_back(std::string("connection: ") + e.what());
      }
      std::lock_guard<std::mutex> lock(merge);
      phase.add(mine);
    });
  }
  for (std::thread& t : clients) t.join();
  phase.seconds = seconds_since(t0);
  return phase;
}

struct Daemon {
  std::unique_ptr<serve::ServeServer> server;
  int port = -1;
  ~Daemon() {
    if (server) {
      server->request_stop();
      server->wait();
    }
  }
};

std::unique_ptr<Daemon> start_daemon(const std::string& model_path,
                                     const std::string& access_log,
                                     std::vector<SessionPlan>& plans) {
  auto daemon = std::make_unique<Daemon>();
  serve::ServeOptions options;
  options.model_path = model_path;
  options.tcp_port = 0;
  options.workers = kWorkers;
  options.access_log = access_log;
  daemon->server = std::make_unique<serve::ServeServer>(options);
  daemon->server->start();
  daemon->port = daemon->server->bound_tcp_port();
  serve::ServeClient control = serve::ServeClient::connect_tcp(daemon->port);
  // Warm each session the way a first edit would: the incremental
  // engine attaches lazily on the first OP and does one full forward.
  for (SessionPlan& plan : plans) {
    control.load_session_inline(plan.name, plan.text, /*standardize=*/true);
    control.append_observe(plan.name, plan.targets[0]);
    (void)control.infer(plan.name);
    plan.edits = 1;
    plan.replies.clear();
  }
  return daemon;
}

/// kMetrics scrape parsed into series -> value.
std::map<std::string, double> scrape(int port) {
  serve::ServeClient client = serve::ServeClient::connect_tcp(port);
  std::map<std::string, double> series;
  std::string error;
  if (!parse_prometheus_text(client.metrics().exposition, series, error)) {
    throw Error(ErrorKind::kCorrupt, "bad metrics exposition: " + error);
  }
  return series;
}

double series_or_zero(const std::map<std::string, double>& series,
                      const std::string& name) {
  const auto it = series.find(name);
  return it == series.end() ? 0.0 : it->second;
}

/// service_us of access-log lines [first, end) whose op is `op`.
std::vector<double> service_us(const std::string& path, std::uint64_t first,
                               const std::string& op) {
  std::vector<double> out;
  std::ifstream in(path);
  std::string line;
  const std::string op_key = "\"op\":\"" + op + "\"";
  for (std::uint64_t i = 0; std::getline(in, line); ++i) {
    if (i < first || line.find(op_key) == std::string::npos) continue;
    const std::size_t at = line.find("\"service_us\":");
    if (at != std::string::npos) out.push_back(std::stod(line.substr(at + 13)));
  }
  return out;
}

/// Checks the infer replies: all replies in one session state are
/// bit-identical, and sampled states (plus the last) equal a single-shot
/// GcnModel::infer of a client-side mirror replaying the same edits.
/// Returns the number of mismatched replies.
std::size_t check_replies(const std::vector<SessionPlan>& plans,
                          const GcnModel& model, Result& result) {
  std::size_t bad = 0;
  for (const SessionPlan& plan : plans) {
    std::map<std::size_t, std::vector<std::uint64_t>> by_state;
    for (const auto& [state, hash] : plan.replies) by_state[state].push_back(hash);
    for (const auto& [state, hashes] : by_state) {
      for (std::uint64_t hash : hashes) bad += hash != hashes.front();
    }
    Netlist netlist = read_bench_string(plan.text);
    ScoapMeasures scoap = compute_scoap(netlist);
    std::vector<std::uint32_t> levels = netlist.logic_levels();
    GraphTensors tensors = build_graph_tensors(netlist, scoap, levels);
    tensors.standardize_features();
    const std::size_t last = by_state.empty() ? 0 : by_state.rbegin()->first;
    for (std::size_t state = 0; state <= last; ++state) {
      if (state > 0) {
        const NodeId target = plan.targets[state - 1];
        const NodeId op = netlist.insert_observe_point(target);
        update_observability_after_observe(netlist, target, scoap);
        levels.resize(netlist.size(), 0);
        levels[op] = levels[target] + 1;
        append_observe_point(tensors, netlist, target, op, scoap,
                             netlist.fanin_cone(target));
      }
      const auto it = by_state.find(state);
      if (it == by_state.end() || (state % kCheckStride != 0 && state != last)) {
        continue;
      }
      tensors.rebuild_csr();
      const std::uint64_t expected = fnv_matrix(model.infer(tensors));
      for (std::uint64_t hash : it->second) bad += hash != expected;
    }
  }
  if (bad != 0) {
    result.fail(std::to_string(bad) +
                " infer replies differ from a single-shot infer of the "
                "session state");
  }
  return bad;
}

}  // namespace

Result run_serve_mixed(const Options& options, Tracer& tracer) {
  Result result;
  const std::string model_path = options.workdir + "/model.txt";
  const std::string access_log =
      options.trace ? options.workdir + "/access.log" : "";
  // The daemon publishes its metrics from the stats registry, as
  // `gcnt serve` does.
  set_stats_enabled(true);
  set_kernel_threads(kKernelThreads);

  std::vector<SessionPlan> plans(kSessions);
  for (std::size_t s = 0; s < kSessions; ++s) {
    const Netlist design =
        generate_circuit(design_config(kGates, options.seed * 16 + s));
    plans[s].name = "s" + std::to_string(s);
    plans[s].text = write_bench_string(design);
    plans[s].targets = edit_targets(read_bench_string(plans[s].text));
  }

  // Set-up, repeated: train and save the model, start the daemon and load
  // the sessions. The last daemon stays up for the measurement.
  std::vector<double> setups;
  std::unique_ptr<Daemon> daemon;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    daemon.reset();
    const std::uint64_t t0 = now_ns();
    train_model(model_path);
    daemon = start_daemon(model_path, access_log, plans);
    setups.push_back(seconds_since(t0));
  }
  const int port = daemon->port;

  const auto account = [&](const Phase& phase) {
    result.attempted += phase.attempted;
    result.failed += phase.failed;
    for (const std::string& e : phase.errors) result.fail("request failed: " + e);
  };
  // Budget: a quarter of the run each for the low and the high rate, and
  // half for the unpaced phase, taken in kRounds rounds so that each
  // phase samples the whole run. Traced runs measure the low and the
  // high rate once and then the low rate traced, instead of unpaced.
  const double phase_s = std::max(1.0, options.seconds / 4.0);
  Phase low, high, unpaced;
  const int rounds = options.trace ? 1 : kRounds;
  for (int r = 0; r < rounds; ++r) {
    low.add(run_phase(port, plans, kLowRps, phase_s / rounds, false, tracer));
    high.add(run_phase(port, plans, kHighRps, phase_s / rounds, false, tracer));
    if (!options.trace) {
      unpaced.add(
          run_phase(port, plans, 0.0, 2 * phase_s / rounds, false, tracer));
    }
  }
  account(low);
  account(high);
  account(unpaced);
  const double capacity =
      unpaced.seconds > 0.0
          ? static_cast<double>(unpaced.latency_ms.size()) / unpaced.seconds
          : 0.0;

  Phase traced;
  std::map<std::string, double> before, after;
  std::uint64_t log_first = 0;
  std::map<std::string, double> kernels_before, kernels_after;
  PoolBusy busy_before, busy_after;
  double traced_wall = 0.0;
  if (options.trace) {
    before = scrape(port);
    log_first = daemon->server->access_log_lines();
    kernels_before = kernel_ns();
    busy_before = pool_busy();
    const std::uint64_t t0 = now_ns();
    traced = run_phase(port, plans, kLowRps, 2 * phase_s, true, tracer);
    traced_wall = seconds_since(t0);
    kernels_after = kernel_ns();
    busy_after = pool_busy();
    after = scrape(port);
    account(traced);
  }

  daemon.reset();  // drains and joins the daemon; the access log is flushed
  std::size_t replies = 0, edits = 0, targets = kTargetsPerSession;
  for (const SessionPlan& plan : plans) {
    replies += plan.replies.size();
    edits += plan.edits;
    targets = std::min(targets, plan.targets.size());
  }
  const GcnModel model = load_model_file(model_path);
  const std::size_t bad = check_replies(plans, model, result);
  std::cerr << "serve_mixed: " << result.attempted << " requests, " << replies
            << " infer replies checked, " << bad << " mismatched, "
            << edits << " edits (at least " << targets
            << " targets per session)\n";
  set_stats_enabled(false);

  result.e2e("setup_s", median(setups), "s");
  result.e2e("peak_rss_mb", peak_rss_mb(), "MB");
  // Unpaced: the median is a cached infer, the 90th percentile an infer
  // that re-predicts the dirty cone of the session's last edit.
  result.e2e("op_ms_p50", unpaced.p(0.5), "ms");
  result.e2e("op_ms_p90", unpaced.p(0.9), "ms");
  result.e2e("work_per_s", capacity, "1/s");
  result.e2e("agreement",
             replies ? static_cast<double>(replies - bad) / replies : 0.0,
             "share");
  result.note("serve.low.p50_ms", low.p(0.5), "ms", low.latency_ms.size());
  result.note("serve.low.p90_ms", low.p(0.9), "ms", low.latency_ms.size());
  result.note("serve.low.p99_ms", low.p(0.99), "ms", low.latency_ms.size());
  result.note("serve.high.p50_ms", high.p(0.5), "ms", high.latency_ms.size());
  result.note("serve.high.p90_ms", high.p(0.9), "ms", high.latency_ms.size());
  result.note("serve.high.p99_ms", high.p(0.99), "ms", high.latency_ms.size());
  if (!options.trace) {
    result.note("serve.unpaced.p50_ms", unpaced.p(0.5), "ms",
                unpaced.latency_ms.size());
    result.note("serve.unpaced.p90_ms", unpaced.p(0.9), "ms",
                unpaced.latency_ms.size());
    result.note("serve.capacity_rps", capacity, "1/s", 1);
  }
  result.note("serve.generator_late_ms_max",
              std::max(low.late_max_ms, high.late_max_ms), "ms",
              low.attempted + high.attempted);

  if (options.trace) {
    const Breakdown b = analyse(tracer.spans(), "request");
    result.layer("serve.queue_wait_us_p99",
                 series_or_zero(after,
                                "gcnt_serve_queue_wait_us_window{quantile=\"0.99\"}"),
                 "us");
    const double batches = series_or_zero(after, "gcnt_serve_batch_size_count") -
                           series_or_zero(before, "gcnt_serve_batch_size_count");
    const double batched = series_or_zero(after, "gcnt_serve_batch_size_sum") -
                           series_or_zero(before, "gcnt_serve_batch_size_sum");
    result.layer("serve.batch_size_mean", batches > 0 ? batched / batches : 0.0,
                 "count");
    result.layer("serve.queue_depth_max", traced.depth_max, "count");
    result.layer("serve.service_us_infer_p50",
                 median(service_us(access_log, log_first, "infer")), "us");
    result.layer("serve.service_us_edit_p99",
                 percentile(service_us(access_log, log_first, "append_observe"),
                            0.99),
                 "us");
    result.layer("serve.generator_late_ms_max", traced.late_max_ms, "ms");
    result.layer("serve.rpc_ms_p50", median(traced.rpc_ms), "ms");
    result.layer("unattributed_share", b.unattributed_share, "share");
    result.layer("trace.overhead_share", traced.p(0.5) / low.p(0.5) - 1.0,
                 "share");
    fold_program_counters(result, kernels_before, kernels_after, busy_before,
                          busy_after, traced.latency_ms.size(), traced_wall);
  }
  const Netlist first = read_bench_string(plans[0].text);
  result.layer("netlist.nodes", static_cast<double>(first.size()), "count");
  result.layer("netlist.edges", static_cast<double>(first.edge_count()), "count");
  return result;
}

}  // namespace perfbench
