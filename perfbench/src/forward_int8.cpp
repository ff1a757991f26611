// forward_int8_30k: repeated whole-graph int8 GcnModel::infer on resident
// ~30k-node tensors (spmm_q8 + quantized_linear_forward do the work). The
// fp32 logits computed during set-up are the agreement reference.

#include <iostream>
#include <memory>

#include "common/stats.h"
#include "gcn/graph_tensors.h"
#include "gcn/quant.h"
#include "gcn/serialize.h"
#include "gcn/workspace.h"
#include "harness.h"
#include "scoap/scoap.h"

namespace perfbench {

using namespace gcnt;

namespace {

constexpr std::size_t kGates = 28000;  ///< ~30k nodes
constexpr double kMinAgreement = 0.99;
/// One operation is a batch of back-to-back forwards, reported per
/// forward: a ~0.4 s unit averages out host interference bursts of a few
/// milliseconds that made the 90th percentile of single ~90 ms forwards
/// spread 28% between runs on a shared 4-core host.
constexpr std::size_t kForwardsPerOp = 4;

struct ForwardState {
  GraphTensors tensors;
  std::unique_ptr<GcnModel> model;
  Matrix reference;  ///< fp32 logits
  ForwardWorkspace ws;
};

std::unique_ptr<ForwardState> build_state(const Netlist& design,
                                          const std::string& model_path,
                                          Tracer& tracer) {
  auto state = std::make_unique<ForwardState>();
  Span root(tracer, "setup", 0);
  {
    Span s(tracer, "model.load");
    state->model = std::make_unique<GcnModel>(load_model_file(model_path));
  }
  std::vector<std::uint32_t> levels;
  ScoapMeasures scoap;
  {
    Span s(tracer, "netlist.levelize");
    levels = design.logic_levels();
  }
  {
    Span s(tracer, "scoap.full");
    scoap = compute_scoap(design);
  }
  {
    Span s(tracer, "graph.build_tensors");
    state->tensors = build_graph_tensors(design, scoap, levels);
  }
  {
    Span s(tracer, "graph.standardize");
    state->tensors.standardize_features();
  }
  {
    Span s(tracer, "gcn.infer");
    state->model->infer(state->tensors, state->ws, state->reference);
  }
  {
    Span s(tracer, "quant.calibrate");
    state->model->set_precision(Precision::kInt8);
  }
  return state;
}

}  // namespace

Result run_forward_int8(const Options& options, Tracer& tracer) {
  Result result;
  const std::string model_path = options.workdir + "/model.txt";
  const Netlist design = generate_circuit(design_config(kGates, options.seed));

  tracer.set_active(options.trace);
  std::vector<double> setups;
  std::unique_ptr<ForwardState> state;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    const std::uint64_t t0 = now_ns();
    train_model(model_path);
    state = build_state(design, model_path, tracer);
    setups.push_back(seconds_since(t0));
  }
  tracer.set_active(false);

  // One untimed forward sizes the workspace; its logits pin the bits.
  Matrix logits;
  state->model->infer(state->tensors, state->ws, logits);
  const std::uint64_t pinned = fnv_matrix(logits);
  std::size_t agree = 0;
  for (std::size_t r = 0; r < logits.rows(); ++r) {
    const bool a = logits.at(r, 1) > logits.at(r, 0);
    const bool b = state->reference.at(r, 1) > state->reference.at(r, 0);
    if (a == b) ++agree;
  }
  const double agreement =
      static_cast<double>(agree) / static_cast<double>(logits.rows());

  std::vector<double> op_s, forward_s, traced_s, untraced_s;
  const auto kernels_before = kernel_ns();
  const PoolBusy busy_before = pool_busy();
  const std::uint64_t start = now_ns();
  for (std::uint64_t op = 1; op <= 2 || seconds_since(start) < options.seconds;
       ++op) {
    const bool traced = options.trace && op % 2 == 0;
    tracer.set_active(traced);
    set_stats_enabled(traced);
    ++result.attempted;
    double wall = 0.0;
    bool stable = true;
    for (std::size_t i = 0; i < kForwardsPerOp; ++i) {
      const std::uint64_t t0 = now_ns();
      {
        Span root(tracer, "forward", op);
        Span s(tracer, "quant.forward");
        state->model->infer(state->tensors, state->ws, logits);
      }
      forward_s.push_back(seconds_since(t0));
      wall += forward_s.back();
      stable = stable && fnv_matrix(logits) == pinned;  // untimed
    }
    wall /= kForwardsPerOp;
    set_stats_enabled(false);
    tracer.set_active(false);
    op_s.push_back(wall);
    (traced ? traced_s : untraced_s).push_back(wall);
    if (!stable) {
      ++result.failed;
      if (result.failed == 1) result.fail("int8 logits changed bits");
    }
  }
  const double loop_s = seconds_since(start);
  if (agreement < kMinAgreement) {
    result.fail("int8 vs fp32 agreement " + std::to_string(agreement) +
                " below " + std::to_string(kMinAgreement));
    result.failed = result.attempted;
  }
  const std::size_t nodes = state->tensors.node_count();
  std::cerr << "forward_int8_30k: " << forward_s.size() << " forwards of " << nodes
            << " nodes, agreement " << agreement << "\n";

  result.e2e("setup_s", median(setups), "s");
  result.e2e("peak_rss_mb", peak_rss_mb(), "MB");
  result.e2e("op_ms_p50", median(op_s) * 1e3, "ms");
  result.e2e("op_ms_p90", percentile(op_s, 0.9) * 1e3, "ms");
  result.e2e("work_per_s", static_cast<double>(nodes) / median(op_s), "1/s");
  result.e2e("agreement", agreement, "share");
  result.note("forward.ms_p50", median(forward_s) * 1e3, "ms",
              forward_s.size());
  result.note("forward.ms_p90", percentile(forward_s, 0.9) * 1e3, "ms",
              forward_s.size());
  result.note("quant.agreement", agreement, "share", nodes);

  const std::size_t nnz = state->tensors.pred.nnz() + state->tensors.succ.nnz();
  if (options.trace) {
    const Breakdown b = analyse(tracer.spans(), "forward");
    const Breakdown setup = analyse(tracer.spans(), "setup");
    const double forward_s = median_self_s(b, "quant.forward");
    const ForwardCost cost = forward_cost(state->model->config(), nodes, nnz);
    result.layer("quant.forward_ms", forward_s * 1e3, "ms");
    result.layer("quant.calibrate_s", median_self_s(setup, "quant.calibrate"),
                 "s");
    result.layer("netlist.levelize_s", median_self_s(setup, "netlist.levelize"),
                 "s");
    result.layer("scoap.full_s", median_self_s(setup, "scoap.full"), "s");
    result.layer("graph.build_tensors_s",
                 median_self_s(setup, "graph.build_tensors"), "s");
    result.layer("graph.standardize_s",
                 median_self_s(setup, "graph.standardize"), "s");
    result.layer("model.load_s", median_self_s(setup, "model.load"), "s");
    result.layer("gcn.infer_s", median_self_s(setup, "gcn.infer"), "s");
    result.layer("gcn.gflop", cost.flop * 1e-9, "GFLOP");
    result.layer("gcn.gbyte", cost.bytes * 1e-9, "GB");
    result.layer("gcn.gflops_per_s",
                 forward_s > 0 ? cost.flop * 1e-9 / forward_s : 0.0, "GFLOP/s");
    result.layer("unattributed_share", b.unattributed_share, "share");
    result.layer("trace.overhead_share",
                 median(traced_s) / median(untraced_s) - 1.0, "share");
    fold_program_counters(result, kernels_before, kernel_ns(), busy_before,
                          pool_busy(), traced_s.size() * kForwardsPerOp, loop_s);
  }
  result.layer("netlist.nodes", static_cast<double>(design.size()), "count");
  result.layer("netlist.edges", static_cast<double>(design.edge_count()),
               "count");
  result.layer("graph.nnz", static_cast<double>(nnz), "count");
  return result;
}

}  // namespace perfbench
