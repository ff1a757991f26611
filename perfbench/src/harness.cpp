#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <sstream>
#include <thread>

#include "bench_common.h"
#include "common/parallel.h"
#include "common/stats.h"
#include "data/dataset.h"
#include "gcn/graph_tensors.h"
#include "gcn/serialize.h"
#include "gcn/trainer.h"
#include "gen/generator.h"

namespace perfbench {

using namespace gcnt;

// ---- Result ---------------------------------------------------------------

void Result::fail(const std::string& why) { check_failures.push_back(why); }

void Result::e2e(const std::string& name, double value,
                 const std::string& unit) {
  end_to_end.push_back({name, value, unit});
}

void Result::layer(const std::string& name, double value,
                   const std::string& unit) {
  for (Metric& m : layers) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  layers.push_back({name, value, unit});
}

void Result::note(const std::string& name, double value,
                  const std::string& unit, std::size_t samples) {
  std::ostringstream line;
  line.precision(6);
  line << name << " = " << value << " " << unit << " (n=" << samples << ")";
  named.push_back(line.str());
}

// ---- statistics -----------------------------------------------------------

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = p * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] * (1.0 - frac) + values[hi] * frac;
}

double median(std::vector<double> values) {
  return percentile(std::move(values), 0.5);
}

double sum(const std::vector<double>& values) {
  double total = 0.0;
  for (double v : values) total += v;
  return total;
}

// ---- clocks and process ---------------------------------------------------

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double seconds_since(std::uint64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

std::uint64_t fnv1a(const void* data, std::size_t bytes, std::uint64_t hash) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    hash = (hash ^ p[i]) * 1099511628211ull;
  }
  return hash;
}

std::uint64_t fnv_matrix(const Matrix& m) {
  const std::uint64_t shape[2] = {m.rows(), m.cols()};
  return fnv1a(m.data(), m.size() * sizeof(float),
               fnv1a(shape, sizeof(shape)));
}

// ---- spans ----------------------------------------------------------------

namespace {

thread_local std::int64_t tls_parent = -1;
thread_local std::uint64_t tls_op = 0;

std::uint32_t thread_index() {
  static std::mutex mutex;
  static std::map<std::thread::id, std::uint32_t> ids;
  std::lock_guard<std::mutex> lock(mutex);
  const auto [it, inserted] = ids.emplace(
      std::this_thread::get_id(), static_cast<std::uint32_t>(ids.size()));
  (void)inserted;
  return it->second;
}

}  // namespace

std::int64_t Tracer::record(const char* name, std::uint64_t start_ns,
                            std::uint64_t end_ns, std::int64_t parent,
                            std::uint64_t op) {
  const std::uint32_t thread = thread_index();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back({name, start_ns, end_ns, parent, op, thread});
  return static_cast<std::int64_t>(spans_.size() - 1);
}

std::int64_t Tracer::open(const char* name, std::int64_t parent,
                          std::uint64_t op) {
  return record(name, now_ns(), 0, parent, op);
}

void Tracer::close(std::int64_t index) {
  const std::uint64_t end = now_ns();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[static_cast<std::size_t>(index)].end_ns = end;
}

std::vector<SpanRecord> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

bool Tracer::write_chrome_json(const std::string& path) const {
  const std::vector<SpanRecord> all = spans();
  std::ofstream out(path);
  if (!out) return false;
  const std::uint64_t epoch = all.empty() ? 0 : all.front().start_ns;
  out << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < all.size(); ++i) {
    const SpanRecord& s = all[i];
    const std::uint64_t start = s.start_ns >= epoch ? s.start_ns - epoch : 0;
    out << (i == 0 ? "\n" : ",\n") << "{\"name\":\"" << s.name
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.thread
        << ",\"ts\":" << static_cast<double>(start) / 1e3
        << ",\"dur\":" << static_cast<double>(s.end_ns - s.start_ns) / 1e3
        << ",\"args\":{\"op\":" << s.op << ",\"parent\":" << s.parent
        << "}}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

Span::Span(Tracer& tracer, const char* name, std::uint64_t op)
    : tracer_(&tracer), saved_parent_(tls_parent), saved_op_(tls_op) {
  if (!tracer.active()) return;
  index_ = tracer.open(name, -1, op);
  tls_parent = index_;
  tls_op = op;
}

Span::Span(Tracer& tracer, const char* name)
    : tracer_(&tracer), saved_parent_(tls_parent), saved_op_(tls_op) {
  if (!tracer.active()) return;
  index_ = tracer.open(name, tls_parent, tls_op);
  tls_parent = index_;
}

Span::~Span() {
  if (index_ < 0) return;
  tracer_->close(index_);
  tls_parent = saved_parent_;
  tls_op = saved_op_;
}

Breakdown analyse(const std::vector<SpanRecord>& spans, const char* root) {
  // Child time per span, then self = duration - children.
  std::vector<double> child_s(spans.size(), 0.0);
  for (const SpanRecord& s : spans) {
    if (s.parent >= 0) {
      child_s[static_cast<std::size_t>(s.parent)] +=
          static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
    }
  }
  // Root of each span (roots index themselves); a parent is always
  // recorded before its children.
  std::vector<std::int64_t> root_of(spans.size(), -1);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::int64_t parent = spans[i].parent;
    root_of[i] = parent < 0 ? static_cast<std::int64_t>(i)
                            : root_of[static_cast<std::size_t>(parent)];
  }
  Breakdown out;
  std::map<std::int64_t, std::size_t> slot;  // root span -> op slot
  double root_total = 0.0, root_self = 0.0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent >= 0 || std::string(spans[i].name) != root) continue;
    slot[static_cast<std::int64_t>(i)] = out.op_s.size();
    const double d = static_cast<double>(spans[i].end_ns - spans[i].start_ns) * 1e-9;
    out.op_s.push_back(d);
    root_total += d;
    root_self += std::max(0.0, d - child_s[i]);
  }
  out.self_s.resize(out.op_s.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent < 0) continue;
    const auto it = slot.find(root_of[i]);
    if (it == slot.end()) continue;
    const double d = static_cast<double>(spans[i].end_ns - spans[i].start_ns) * 1e-9;
    out.self_s[it->second][spans[i].name] += std::max(0.0, d - child_s[i]);
  }
  out.unattributed_share = root_total > 0.0 ? root_self / root_total : 0.0;
  return out;
}

double median_self_s(const Breakdown& breakdown, const std::string& name) {
  std::vector<double> values;
  for (const auto& per_op : breakdown.self_s) {
    const auto it = per_op.find(name);
    values.push_back(it == per_op.end() ? 0.0 : it->second);
  }
  return median(values);
}

// ---- program-side counters ------------------------------------------------

std::map<std::string, double> kernel_ns() {
  std::map<std::string, double> out;
  const StatsSnapshot snapshot = StatsRegistry::instance().snapshot();
  for (const auto& hist : snapshot.histograms) {
    const std::string& n = hist.name;
    if (n.rfind("kernel.", 0) == 0 && n.size() > 10 &&
        n.compare(n.size() - 3, 3, ".ns") == 0) {
      out[n.substr(7, n.size() - 10)] = static_cast<double>(hist.sum);
    }
  }
  return out;
}

PoolBusy pool_busy() {
  // Publishing is a no-op while collection is off; switch it on briefly.
  const bool was_enabled = stats_enabled();
  set_stats_enabled(true);
  publish_kernel_pool_stats();
  set_stats_enabled(was_enabled);
  PoolBusy out;
  const StatsSnapshot snapshot = StatsRegistry::instance().snapshot();
  for (const auto& [name, value] : snapshot.gauges) {
    if (name == "pool.workers") {
      out.workers = static_cast<std::size_t>(value);
    } else if (name.rfind("pool.worker", 0) == 0 &&
               name.find(".busy_ns") != std::string::npos) {
      out.busy_ns += static_cast<double>(value);
    }
  }
  return out;
}

void fold_program_counters(Result& result,
                           const std::map<std::string, double>& before,
                           const std::map<std::string, double>& after,
                           const PoolBusy& busy_before,
                           const PoolBusy& busy_after, std::size_t ops,
                           double wall_s) {
  static const char* const kKernels[] = {
      "spmm", "spmm_rows", "gemm_bias_act", "spmm_q8", "qgemm", "csr_build",
      "csr_transpose"};
  const double per_op = ops > 0 ? 1.0 / static_cast<double>(ops) : 0.0;
  for (const char* kernel : kKernels) {
    const auto a = after.find(kernel);
    const auto b = before.find(kernel);
    const double ns = (a == after.end() ? 0.0 : a->second) -
                      (b == before.end() ? 0.0 : b->second);
    result.layer(std::string("kernel.") + kernel + "_ms", ns * 1e-6 * per_op,
                 "ms");
  }
  const std::size_t workers = std::max(busy_before.workers, busy_after.workers);
  const double capacity_ns = wall_s * 1e9 * static_cast<double>(workers);
  result.layer("pool.busy_share",
               capacity_ns > 0.0
                   ? (busy_after.busy_ns - busy_before.busy_ns) / capacity_ns
                   : 0.0,
               "share");
}

// ---- inputs and computed costs ---------------------------------------------

GeneratorConfig design_config(std::size_t gates, std::uint64_t seed) {
  GeneratorConfig config;
  config.target_gates = gates;
  config.seed = seed;
  config.primary_inputs = 64;
  config.primary_outputs = 32;
  config.flip_flops = gates / 24;
  config.trap_fraction = 0.02;
  return config;
}

ForwardCost forward_cost(const GcnConfig& config, std::size_t nodes,
                         std::size_t nnz) {
  const double n = static_cast<double>(nodes);
  const double z = static_cast<double>(nnz);
  ForwardCost cost;
  double in = static_cast<double>(kNodeFeatureDim);
  for (std::size_t d = 0; d < static_cast<std::size_t>(config.depth); ++d) {
    const double out = static_cast<double>(config.embed_dims[d]);
    // Two SpMMs, two axpys into the aggregate, then GEMM + bias + ReLU.
    cost.flop += 2.0 * z * in + 4.0 * n * in + 2.0 * n * in * out + 2.0 * n * out;
    cost.bytes += z * 8.0 + 2.0 * (n + 1.0) * 4.0  // CSR index + values
                  + 2.0 * n * in * 4.0             // SpMM reads E twice
                  + 2.0 * n * in * 4.0             // writes P*E, S*E
                  + 4.0 * n * in * 4.0             // aggregate: 3 reads, 1 write
                  + n * in * 4.0 + in * out * 4.0 + n * out * 4.0;  // GEMM
    in = out;
  }
  std::vector<std::size_t> head = config.fc_dims;
  head.push_back(config.num_classes);
  for (std::size_t width : head) {
    const double out = static_cast<double>(width);
    cost.flop += 2.0 * n * in * out + n * out;
    cost.bytes += n * in * 4.0 + in * out * 4.0 + n * out * 4.0;
    in = out;
  }
  return cost;
}

// ---- set-up ---------------------------------------------------------------

void train_model(const std::string& path) {
  // A fixed small design labelled by the analytic COP oracle: seconds of
  // work, deterministic at any thread count, and independent of --seed so
  // every run and every workload sees the same weights.
  LabelerOptions labeler;
  labeler.oracle = LabelerOptions::Oracle::kCopThreshold;
  Dataset dataset = make_dataset(generate_benchmark_design(0, 1500), labeler);
  dataset.tensors.standardize_features();
  GcnModel model(bench::paper_model_config(3, 2019));
  TrainerOptions options;
  options.epochs = 30;
  options.learning_rate = 1e-2f;
  options.positive_class_weight = 8.0f;
  options.eval_interval = options.epochs;
  Trainer trainer(model, options);
  const TrainGraph data{&dataset.tensors, {}};
  trainer.train({data}, nullptr);
  save_model_file(model, path);
}

// ---- metric catalogue -----------------------------------------------------

const std::vector<std::pair<std::string, std::string>>& layer_metric_units() {
  static const std::vector<std::pair<std::string, std::string>> kUnits = {
      {"netlist.parse_s", "s"},
      {"netlist.levelize_s", "s"},
      {"netlist.insert_op_ms", "ms"},
      {"netlist.nodes", "count"},
      {"netlist.edges", "count"},
      {"scoap.full_s", "s"},
      {"scoap.observe_update_ms", "ms"},
      {"scoap.cone_nodes", "count"},
      {"graph.build_tensors_s", "s"},
      {"graph.standardize_s", "s"},
      {"graph.append_op_ms", "ms"},
      {"graph.rebuild_csr_ms", "ms"},
      {"graph.nnz", "count"},
      {"model.load_s", "s"},
      {"gcn.infer_s", "s"},
      {"gcn.gflop", "GFLOP"},
      {"gcn.gbyte", "GB"},
      {"gcn.gflops_per_s", "GFLOP/s"},
      {"incremental.affected_ms", "ms"},
      {"incremental.update_ms", "ms"},
      {"incremental.dirty_rows", "count"},
      {"incremental.dirty_fraction", "share"},
      {"incremental.full_fallbacks", "count"},
      {"dft.select_ms", "ms"},
      {"impact.eval_ms", "ms"},
      {"impact.candidates", "count"},
      {"impact.nonzero_share", "share"},
      {"quant.forward_ms", "ms"},
      {"quant.calibrate_s", "s"},
      {"output.write_s", "s"},
      {"pool.busy_share", "share"},
      {"kernel.spmm_ms", "ms"},
      {"kernel.spmm_rows_ms", "ms"},
      {"kernel.gemm_bias_act_ms", "ms"},
      {"kernel.spmm_q8_ms", "ms"},
      {"kernel.qgemm_ms", "ms"},
      {"kernel.csr_build_ms", "ms"},
      {"kernel.csr_transpose_ms", "ms"},
      {"serve.queue_wait_us_p99", "us"},
      {"serve.service_us_infer_p50", "us"},
      {"serve.service_us_edit_p99", "us"},
      {"serve.batch_size_mean", "count"},
      {"serve.queue_depth_max", "count"},
      {"serve.generator_late_ms_max", "ms"},
      {"serve.rpc_ms_p50", "ms"},
      {"unattributed_share", "share"},
      {"trace.overhead_share", "share"},
  };
  return kUnits;
}

}  // namespace perfbench
