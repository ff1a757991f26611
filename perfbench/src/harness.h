#pragma once
// Shared plumbing of the end-to-end benchmark: run options, the result
// record every workload fills, statistics, an in-memory span recorder for
// traced runs, the kernel-stats fold, and the deterministic model.
//
// Workloads drive the library only through its public headers and time
// every call from the outside; nothing here adds a span inside the
// library.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "gcn/model.h"
#include "gen/generator.h"
#include "tensor/matrix.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;  ///< length of the measured region
  bool trace = false;     ///< traced run: per-layer metrics instead of e2e
  std::string workdir;    ///< per-run scratch directory (inside the checkout)
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run reports. `end_to_end` and `layers` carry the
/// metrics named in BENCHMARK.json; `named` carries the workload's own
/// figures under their descriptive names, printed for people.
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> check_failures;
  std::vector<Metric> end_to_end;
  std::vector<Metric> layers;
  std::vector<std::string> named;

  /// Records a failed output check (the run is then not correct).
  void fail(const std::string& why);
  void e2e(const std::string& name, double value, const std::string& unit);
  void layer(const std::string& name, double value, const std::string& unit);
  /// A descriptive figure: "name = value unit (n=samples)".
  void note(const std::string& name, double value, const std::string& unit,
            std::size_t samples);
};

// ---- statistics -----------------------------------------------------------

/// Linear-interpolated percentile, p in [0, 1]; 0 for an empty sample.
double percentile(std::vector<double> values, double p);
double median(std::vector<double> values);
double sum(const std::vector<double>& values);

// ---- clocks and process ---------------------------------------------------

std::uint64_t now_ns();
double seconds_since(std::uint64_t start_ns);
/// Peak resident set size of this process, MB.
double peak_rss_mb();

/// FNV-1a, 64 bit.
std::uint64_t fnv1a(const void* data, std::size_t bytes,
                    std::uint64_t hash = 14695981039346656037ull);
std::uint64_t fnv_matrix(const gcnt::Matrix& m);

// ---- spans ----------------------------------------------------------------

struct SpanRecord {
  const char* name = "";
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::int64_t parent = -1;  ///< index into the span list, -1 for a root
  std::uint64_t op = 0;      ///< operation id; 0 = set-up
  std::uint32_t thread = 0;
};

/// In-memory span store for the traced run. Spans stay in memory and are
/// written as Chrome trace-event JSON once, at exit. Thread-safe.
class Tracer {
 public:
  /// Recording is on only while `active`; an inactive tracer costs one
  /// branch per span.
  bool active() const noexcept { return active_.load(); }
  void set_active(bool on) noexcept { active_.store(on); }

  /// Appends a finished span; returns its index.
  std::int64_t record(const char* name, std::uint64_t start_ns,
                      std::uint64_t end_ns, std::int64_t parent,
                      std::uint64_t op);
  /// Opens a span whose end is filled in by close().
  std::int64_t open(const char* name, std::int64_t parent, std::uint64_t op);
  void close(std::int64_t index);

  std::vector<SpanRecord> spans() const;
  bool write_chrome_json(const std::string& path) const;

 private:
  std::atomic<bool> active_{false};
  mutable std::mutex mutex_;
  std::vector<SpanRecord> spans_;
};

/// RAII span on the calling thread. A root span starts an operation; a
/// nested one inherits the enclosing span as its parent.
class Span {
 public:
  /// Root span of operation `op` (op 0 = set-up).
  Span(Tracer& tracer, const char* name, std::uint64_t op);
  /// Child of the innermost open span on this thread.
  Span(Tracer& tracer, const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_;
  std::int64_t index_ = -1;
  std::int64_t saved_parent_ = -1;
  std::uint64_t saved_op_ = 0;
};

/// Per-operation self time by span name (seconds), from the root spans
/// named `root` and their descendants.
struct Breakdown {
  std::vector<std::map<std::string, double>> self_s;  ///< one per op
  std::vector<double> op_s;                           ///< root durations
  double unattributed_share = 0.0;  ///< root self time / root time
};
Breakdown analyse(const std::vector<SpanRecord>& spans, const char* root);

/// Median over ops of the self time of `name` (0 when it never ran).
double median_self_s(const Breakdown& breakdown, const std::string& name);

// ---- program-side counters (traced runs) ----------------------------------

/// Cumulative kernel time (ns) of the library's GCNT_KERNEL_SCOPE spans,
/// read from the stats registry (collection must be on).
std::map<std::string, double> kernel_ns();
/// Sum of kernel-pool worker busy time (ns) and the worker count.
struct PoolBusy {
  double busy_ns = 0.0;
  std::size_t workers = 0;
};
PoolBusy pool_busy();

/// Adds the folded kernel times and the pool's busy share for a measured
/// region: `before`/`after` from kernel_ns()/pool_busy(), `ops` operations
/// over `wall_s` seconds of wall.
void fold_program_counters(Result& result,
                           const std::map<std::string, double>& before,
                           const std::map<std::string, double>& after,
                           const PoolBusy& busy_before,
                           const PoolBusy& busy_after, std::size_t ops,
                           double wall_s);

// ---- inputs and computed costs ---------------------------------------------

/// Generator settings of `gcnt generate --gates <gates> --seed <seed>`.
gcnt::GeneratorConfig design_config(std::size_t gates, std::uint64_t seed);

/// Computed (not measured) cost of one whole-graph forward of `model` on
/// `nodes` rows with `nnz` adjacency nonzeros (P plus S): arithmetic
/// operations, and compulsory bytes moved assuming every operand is
/// streamed from memory once per kernel.
struct ForwardCost {
  double flop = 0.0;
  double bytes = 0.0;
};
ForwardCost forward_cost(const gcnt::GcnConfig& config, std::size_t nodes,
                         std::size_t nnz);

// ---- set-up ---------------------------------------------------------------

/// Number of set-ups per run; setup_s is their median.
constexpr int kSetupRepeats = 3;

/// Trains the benchmark's GCN deterministically (fixed design, seed and
/// epoch count, independent of the run seed) and saves it to `path`.
void train_model(const std::string& path);

// ---- workloads ------------------------------------------------------------

Result run_infer_300k(const Options& options, Tracer& tracer);
Result run_opi_100k(const Options& options, Tracer& tracer);
Result run_serve_mixed(const Options& options, Tracer& tracer);
Result run_forward_int8(const Options& options, Tracer& tracer);

/// The per-layer metric names every traced run reports (zero when the
/// layer did no work in that workload), with their units.
const std::vector<std::pair<std::string, std::string>>& layer_metric_units();

}  // namespace perfbench
