// infer_300k: the cold single-shot analysis `gcnt infer --out` performs, on
// a ~324k-node design written during set-up:
//   read -> levelize -> SCOAP -> tensors -> standardize -> model load ->
//   fp32 GcnModel::infer -> softmax -> predictions file.
// One operation is one whole analysis; state is rebuilt from the files
// every time, as a fresh process would.

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>

#include "common/artifact.h"
#include "common/rng.h"
#include "common/stats.h"
#include "gcn/graph_tensors.h"
#include "gcn/recursive_inference.h"
#include "gcn/serialize.h"
#include "gcn/workspace.h"
#include "harness.h"
#include "netlist/bench_io.h"
#include "nn/loss.h"
#include "scoap/scoap.h"

namespace perfbench {

using namespace gcnt;

namespace {

/// ~324k nodes: activations (~165 MB) exceed L3. A ~1.08M-node design
/// (paper scale) spread 25-27% between runs on a shared 4-core host, where
/// this size leaves five analyses per run and a third of the memory churn.
constexpr std::size_t kGates = 300000;
constexpr std::size_t kOracleSamples = 24;   ///< nodes checked per analysis
constexpr double kOracleTolerance = 1e-4;    ///< |p_file - p_oracle|

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

/// Byte offsets of the node lines in the predictions file (line 0 is the
/// header, node v is line v + 1).
std::vector<std::size_t> line_starts(const std::string& text) {
  std::vector<std::size_t> starts;
  std::size_t pos = 0;
  while (pos < text.size()) {
    starts.push_back(pos);
    const std::size_t nl = text.find('\n', pos);
    if (nl == std::string::npos) break;
    pos = nl + 1;
  }
  return starts;
}

}  // namespace

Result run_infer_300k(const Options& options, Tracer& tracer) {
  Result result;
  const std::string design = options.workdir + "/design.bench";
  const std::string model_path = options.workdir + "/model.txt";
  const std::string predictions = options.workdir + "/predictions.txt";

  // Set-up, repeated: train and save the model, write the design file.
  // The design itself is synthesised once from the seed (input synthesis,
  // untimed), then released before measuring.
  std::vector<double> setups;
  {
    const Netlist generated =
        generate_circuit(design_config(kGates, options.seed));
    for (int rep = 0; rep < kSetupRepeats; ++rep) {
      const std::uint64_t t0 = now_ns();
      train_model(model_path);
      atomic_write_file(design, [&](std::ostream& out) {
        write_bench(generated, out);
      });
      setups.push_back(seconds_since(t0));
    }
  }

  std::vector<double> op_s, traced_s, untraced_s;
  std::uint64_t fingerprint = 0;
  std::size_t nodes = 0, edges = 0, nnz = 0;
  std::size_t oracle_checked = 0, oracle_agree = 0;
  GcnConfig model_config;
  const auto kernels_before = kernel_ns();
  const PoolBusy busy_before = pool_busy();
  const std::size_t min_ops = options.trace ? 2 : 1;
  const std::uint64_t start = now_ns();
  for (std::uint64_t op = 1;
       op <= min_ops || seconds_since(start) < options.seconds; ++op) {
    // Traced runs alternate untraced and traced analyses, so the trace's
    // own cost shows as their difference.
    const bool traced = options.trace && op % 2 == 0;
    tracer.set_active(traced);
    set_stats_enabled(traced);
    ++result.attempted;

    Netlist netlist;
    std::vector<std::uint32_t> levels;
    ScoapMeasures scoap;
    GraphTensors tensors;
    std::optional<GcnModel> model;
    Matrix logits;
    const std::uint64_t t0 = now_ns();
    {
      Span root(tracer, "analysis", op);
      {
        Span s(tracer, "netlist.parse");
        std::ifstream in(design);
        netlist = read_bench(in, "design");
      }
      {
        Span s(tracer, "netlist.levelize");
        levels = netlist.logic_levels();
      }
      {
        Span s(tracer, "scoap.full");
        scoap = compute_scoap(netlist);
      }
      {
        Span s(tracer, "graph.build_tensors");
        tensors = build_graph_tensors(netlist, scoap, levels);
      }
      {
        Span s(tracer, "graph.standardize");
        tensors.standardize_features();
      }
      {
        Span s(tracer, "model.load");
        model.emplace(load_model_file(model_path));
      }
      {
        Span s(tracer, "gcn.infer");
        ForwardWorkspace ws;
        model->infer(tensors, ws, logits);
      }
      {
        Span s(tracer, "output.write");
        const Matrix probabilities = softmax(logits);
        atomic_write_file(predictions, [&](std::ostream& os) {
          os << "# node p(positive) predicted\n";
          for (NodeId v = 0; v < netlist.size(); ++v) {
            const float p = probabilities.at(v, 1);
            os << netlist.node_name(v) << " " << p << " "
               << (p >= 0.5f ? 1 : 0) << "\n";
          }
        });
      }
    }
    const double wall = seconds_since(t0);
    op_s.push_back(wall);
    (traced ? traced_s : untraced_s).push_back(wall);
    set_stats_enabled(false);
    tracer.set_active(false);

    // Checks (untimed): the file is identical across analyses, and
    // sampled nodes agree with the recursive per-node oracle.
    nodes = netlist.size();
    edges = netlist.edge_count();
    nnz = tensors.pred.nnz() + tensors.succ.nnz();
    model_config = model->config();
    const std::string text = read_file(predictions);
    const std::uint64_t hash = fnv1a(text.data(), text.size());
    bool ok = true;
    if (fingerprint == 0) {
      fingerprint = hash;
    } else if (hash != fingerprint) {
      result.fail("predictions file fingerprint changed between analyses");
      ok = false;
    }
    const std::vector<std::size_t> starts = line_starts(text);
    if (starts.size() != nodes + 1) {
      result.fail("predictions file has " + std::to_string(starts.size()) +
                  " lines for " + std::to_string(nodes) + " nodes");
      ok = false;
    } else {
      const RecursiveInference oracle(*model, netlist, tensors.features);
      Rng rng(options.seed * 7919 + op);
      for (std::size_t i = 0; i < kOracleSamples; ++i) {
        const NodeId v = static_cast<NodeId>(rng() % nodes);
        const std::vector<float> row = oracle.infer_node(v);
        Matrix one(1, row.size());
        std::copy(row.begin(), row.end(), one.row(0));
        const float p_oracle = softmax(one).at(0, 1);
        std::istringstream line(text.substr(starts[v + 1], 256));
        std::string name;
        double p_file = -1.0;
        int predicted = -1;
        line >> name >> p_file >> predicted;
        ++oracle_checked;
        const bool agree = name == netlist.node_name(v) &&
                           std::fabs(p_file - p_oracle) <= kOracleTolerance &&
                           predicted == (p_file >= 0.5 ? 1 : 0);
        if (agree) {
          ++oracle_agree;
        } else {
          result.fail("node " + std::to_string(v) + ": file p=" +
                      std::to_string(p_file) + ", oracle p=" +
                      std::to_string(p_oracle));
          ok = false;
        }
      }
    }
    if (!ok) ++result.failed;
  }
  const double loop_s = seconds_since(start);

  std::cerr << "infer_300k: " << op_s.size() << " analyses of " << nodes
            << " nodes, predictions fnv 0x" << std::hex << fingerprint
            << std::dec << "\n";
  const double agreement =
      oracle_checked ? static_cast<double>(oracle_agree) / oracle_checked : 0.0;
  result.e2e("setup_s", median(setups), "s");
  result.e2e("peak_rss_mb", peak_rss_mb(), "MB");
  result.e2e("op_ms_p50", median(op_s) * 1e3, "ms");
  result.e2e("op_ms_p90", percentile(op_s, 0.9) * 1e3, "ms");
  result.e2e("work_per_s", static_cast<double>(nodes) / median(op_s), "1/s");
  result.e2e("agreement", agreement, "share");
  result.note("infer.wall_s", median(op_s), "s", op_s.size());
  result.note("infer.nodes", static_cast<double>(nodes), "count", 1);
  result.note("oracle.checked_nodes", static_cast<double>(oracle_checked),
              "count", oracle_checked);

  if (options.trace) {
    const Breakdown b = analyse(tracer.spans(), "analysis");
    result.layer("netlist.parse_s", median_self_s(b, "netlist.parse"), "s");
    result.layer("netlist.levelize_s", median_self_s(b, "netlist.levelize"), "s");
    result.layer("scoap.full_s", median_self_s(b, "scoap.full"), "s");
    result.layer("graph.build_tensors_s",
                 median_self_s(b, "graph.build_tensors"), "s");
    result.layer("graph.standardize_s", median_self_s(b, "graph.standardize"),
                 "s");
    result.layer("model.load_s", median_self_s(b, "model.load"), "s");
    const double infer_s = median_self_s(b, "gcn.infer");
    result.layer("gcn.infer_s", infer_s, "s");
    const ForwardCost cost = forward_cost(model_config, nodes, nnz);
    result.layer("gcn.gflop", cost.flop * 1e-9, "GFLOP");
    result.layer("gcn.gbyte", cost.bytes * 1e-9, "GB");
    result.layer("gcn.gflops_per_s", infer_s > 0 ? cost.flop * 1e-9 / infer_s : 0,
                 "GFLOP/s");
    result.layer("output.write_s", median_self_s(b, "output.write"), "s");
    result.layer("unattributed_share", b.unattributed_share, "share");
    result.layer("trace.overhead_share",
                 median(traced_s) / median(untraced_s) - 1.0, "share");
    fold_program_counters(result, kernels_before, kernel_ns(), busy_before,
                          pool_busy(), traced_s.size(), loop_s);
  }
  result.layer("netlist.nodes", static_cast<double>(nodes), "count");
  result.layer("netlist.edges", static_cast<double>(edges), "count");
  result.layer("graph.nnz", static_cast<double>(nnz), "count");
  return result;
}

}  // namespace perfbench
