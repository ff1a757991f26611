// opi_100k: the observation-point insertion loop of run_gcn_opi on a
// ~108k-node design, driven from outside through the public functions.
// One operation is one round:
//   select candidates (positive, valid, bounded cone) -> rank them with
//   ImpactEvaluator::impact_of -> insert a fixed batch of OPs
//   (insert_observe_point, update_observability_after_observe,
//   append_observe_point) -> rebuild_csr -> DirtyConeTracker::affected ->
//   IncrementalGcnEngine::update.
// Rounds run in episodes of kEpisodeRounds from the starting state, so a
// run measures the same rounds however many fit in it: every OP retires
// its target and lowers the probabilities around it, and a long enough
// loop runs out of positive candidates.

#include <algorithm>
#include <iostream>
#include <memory>
#include <optional>

#include "common/stats.h"
#include "dft/impact.h"
#include "gcn/graph_tensors.h"
#include "gcn/incremental.h"
#include "gcn/serialize.h"
#include "harness.h"
#include "scoap/scoap.h"

namespace perfbench {

using namespace gcnt;

namespace {

constexpr std::size_t kGates = 100000;      ///< ~108k nodes
constexpr std::size_t kCandidates = 48;     ///< ranked per round
constexpr std::size_t kBatch = 8;           ///< OPs inserted per round
/// Candidates have a fan-in cone of [kConeMin, kConeMax) nodes, so every
/// round inserts OPs of similar reach.
constexpr std::size_t kConeMin = 16;
constexpr std::size_t kConeMax = 128;
constexpr std::size_t kImpactCone = 128;    ///< impact_of cone limit
constexpr std::size_t kReplayRounds = 4;    ///< determinism replay prefix
/// Rounds per episode: 192 OPs, well before candidates run out (~70
/// rounds on some seeds).
constexpr std::size_t kEpisodeRounds = 24;
/// Positives are the nodes at or above the model's 0.5 threshold, or the
/// top kMinPositiveShare of nodes by probability when 0.5 yields fewer.
constexpr double kMinPositiveShare = 0.02;

struct OpiState {
  Netlist netlist;
  ScoapMeasures scoap;
  std::vector<std::uint32_t> levels;
  GraphTensors tensors;
  std::shared_ptr<const GcnModel> model;  ///< shared by copies of the state
  std::optional<IncrementalGcnEngine> engine;
  DirtyConeTracker tracker;
  float threshold = 0.5f;
  std::vector<NodeId> inserted;
};

/// Same rule as run_gcn_opi: a real signal not already feeding an OP.
bool valid_target(const Netlist& netlist, NodeId v) {
  const CellType t = netlist.type(v);
  if (is_sink(t) || t == CellType::kInput) return false;
  for (NodeId g : netlist.fanouts(v)) {
    if (netlist.type(g) == CellType::kObserve) return false;
  }
  return true;
}

std::unique_ptr<OpiState> build_state(const Netlist& design,
                                      const std::string& model_path,
                                      Tracer& tracer) {
  auto state = std::make_unique<OpiState>();
  state->netlist = design;
  Span root(tracer, "setup", 0);
  {
    Span s(tracer, "model.load");
    state->model = std::make_shared<const GcnModel>(load_model_file(model_path));
  }
  {
    Span s(tracer, "netlist.levelize");
    state->levels = state->netlist.logic_levels();
  }
  {
    Span s(tracer, "scoap.full");
    state->scoap = compute_scoap(state->netlist);
  }
  {
    Span s(tracer, "graph.build_tensors");
    state->tensors =
        build_graph_tensors(state->netlist, state->scoap, state->levels);
  }
  {
    Span s(tracer, "graph.standardize");
    state->tensors.standardize_features();
  }
  std::vector<float> p;
  {
    Span s(tracer, "gcn.infer");
    state->engine.emplace(*state->model);
    state->engine->refresh(state->tensors);
    p = state->engine->positive_probability();
  }
  std::sort(p.begin(), p.end(), std::greater<float>());
  const std::size_t floor_rank =
      static_cast<std::size_t>(kMinPositiveShare * static_cast<double>(p.size()));
  state->threshold = std::min(0.5f, p[std::min(floor_rank, p.size() - 1)]);
  return state;
}

struct RoundStats {
  std::size_t candidates = 0;
  std::size_t nonzero = 0;
  std::size_t cone_nodes = 0;
  std::size_t dirty = 0;
  bool full = false;
};

RoundStats run_round(OpiState& s, std::uint64_t round, Tracer& tracer) {
  RoundStats stats;
  std::vector<std::int32_t> predictions;
  std::vector<NodeId> candidates;
  {
    Span span(tracer, "dft.select");
    const std::vector<float> p = s.engine->positive_probability();
    predictions.assign(p.size(), 0);
    std::vector<NodeId> positives;
    for (NodeId v = 0; v < p.size(); ++v) {
      if (p[v] >= s.threshold) {
        predictions[v] = 1;
        positives.push_back(v);
      }
    }
    // Walk the positives from a rotating start so rounds spread over the
    // design; keep valid targets whose fan-in cone stays bounded.
    const std::size_t n = positives.size();
    const std::size_t offset = n ? (round * 7919) % n : 0;
    for (std::size_t i = 0; i < n && candidates.size() < kCandidates; ++i) {
      const NodeId v = positives[(offset + i) % n];
      if (!valid_target(s.netlist, v)) continue;
      const std::size_t cone = s.netlist.fanin_cone(v, kConeMax).size();
      if (cone < kConeMin || cone >= kConeMax) continue;
      candidates.push_back(v);
    }
  }
  std::vector<std::pair<int, NodeId>> ranked;
  {
    Span span(tracer, "impact.eval");
    const ImpactEvaluator evaluator({s.model.get()}, s.netlist, s.tensors,
                                    s.scoap, s.levels);
    for (NodeId v : candidates) {
      const int impact = evaluator.impact_of(v, predictions, kImpactCone);
      ranked.emplace_back(impact, v);
      if (impact != 0) ++stats.nonzero;
    }
    std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
      return a.first != b.first ? a.first > b.first : a.second < b.second;
    });
  }
  stats.candidates = candidates.size();
  for (std::size_t i = 0; i < ranked.size() && i < kBatch; ++i) {
    const NodeId target = ranked[i].second;
    NodeId op = kInvalidNode;
    std::vector<NodeId> cone;
    {
      Span span(tracer, "netlist.insert_op");
      op = s.netlist.insert_observe_point(target);
    }
    {
      Span span(tracer, "scoap.observe_update");
      update_observability_after_observe(s.netlist, target, s.scoap);
      s.levels.resize(s.netlist.size(), 0);
      s.levels[op] = s.levels[target] + 1;
    }
    {
      Span span(tracer, "netlist.insert_op");
      cone = s.netlist.fanin_cone(target);
    }
    stats.cone_nodes += cone.size();
    {
      Span span(tracer, "graph.append_op");
      std::vector<NodeId> changed_rows;
      append_observe_point(s.tensors, s.netlist, target, op, s.scoap, cone,
                           &changed_rows);
      s.tracker.record_new_node(op);
      s.tracker.record_edge(target, op);
      for (NodeId v : changed_rows) s.tracker.record_feature(v);
    }
    s.inserted.push_back(target);
  }
  {
    Span span(tracer, "graph.rebuild_csr");
    s.tensors.rebuild_csr();
  }
  std::vector<NodeId> dirty;
  {
    Span span(tracer, "incremental.affected");
    dirty = s.tracker.affected(s.tensors, s.model->config().depth);
  }
  {
    Span span(tracer, "incremental.update");
    s.engine->update(s.tensors, dirty);
    s.tracker.clear();
  }
  stats.dirty = dirty.size();
  stats.full = s.engine->last_was_full();
  return stats;
}

std::size_t argmax_agreement(const Matrix& a, const Matrix& b) {
  std::size_t agree = 0;
  for (std::size_t r = 0; r < a.rows() && r < b.rows(); ++r) {
    if ((a.at(r, 1) > a.at(r, 0)) == (b.at(r, 1) > b.at(r, 0))) ++agree;
  }
  return agree;
}

}  // namespace

Result run_opi_100k(const Options& options, Tracer& tracer) {
  Result result;
  const std::string model_path = options.workdir + "/model.txt";
  const Netlist design = generate_circuit(design_config(kGates, options.seed));

  // Set-up, repeated: train and save the model, then build the loop's
  // starting state from the design. The last two states are kept: the
  // first episode runs on one, the other stays untouched to restart
  // later episodes from and to replay a prefix for the determinism check.
  tracer.set_active(options.trace);
  std::vector<double> setups;
  std::unique_ptr<OpiState> state, spare;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    const std::uint64_t t0 = now_ns();
    train_model(model_path);
    std::unique_ptr<OpiState> built = build_state(design, model_path, tracer);
    setups.push_back(seconds_since(t0));
    spare = std::move(state);
    state = std::move(built);
  }
  tracer.set_active(false);

  std::vector<double> op_s, traced_s, untraced_s;
  std::vector<double> dirty_rows, dirty_fraction, cone_nodes, candidates;
  std::size_t nonzero = 0, evaluated = 0, fallbacks = 0;
  std::size_t round = 0;  // within the episode
  std::size_t ops_inserted = 0;
  std::size_t episodes = 1;
  std::vector<NodeId> first_episode;
  const auto kernels_before = kernel_ns();
  const PoolBusy busy_before = pool_busy();
  const std::size_t min_ops = options.trace ? 2 : 1;
  const std::uint64_t start = now_ns();
  for (std::uint64_t op = 1;
       op <= min_ops || seconds_since(start) < options.seconds; ++op) {
    if (round == kEpisodeRounds) {
      // Every episode inserts the OPs of the first, which ran on an
      // independently built state.
      if (first_episode.empty()) {
        first_episode = state->inserted;
      } else if (state->inserted != first_episode) {
        result.fail("episode " + std::to_string(episodes) +
                    " inserted a different OP list");
        ++result.failed;
      }
      *state = *spare;
      round = 0;
      ++episodes;
    }
    const bool traced = options.trace && op % 2 == 0;
    tracer.set_active(traced);
    set_stats_enabled(traced);
    ++result.attempted;
    const std::uint64_t t0 = now_ns();
    const std::size_t inserted_before = state->inserted.size();
    RoundStats stats;
    {
      Span root(tracer, "round", op);
      stats = run_round(*state, round++, tracer);
    }
    const double wall = seconds_since(t0);
    ops_inserted += state->inserted.size() - inserted_before;
    set_stats_enabled(false);
    tracer.set_active(false);
    op_s.push_back(wall);
    (traced ? traced_s : untraced_s).push_back(wall);
    dirty_rows.push_back(static_cast<double>(stats.dirty));
    dirty_fraction.push_back(static_cast<double>(stats.dirty) /
                             static_cast<double>(state->tensors.node_count()));
    cone_nodes.push_back(static_cast<double>(stats.cone_nodes));
    candidates.push_back(static_cast<double>(stats.candidates));
    nonzero += stats.nonzero;
    evaluated += stats.candidates;
    if (stats.full) ++fallbacks;
    if (stats.candidates < kBatch) {
      result.fail("round " + std::to_string(op) + " found only " +
                  std::to_string(stats.candidates) + " candidates");
      ++result.failed;
    }
  }
  const double loop_s = seconds_since(start);

  // Check 1: the incremental logits equal a fresh whole-graph forward.
  const Matrix fresh = state->model->infer(state->tensors);
  const Matrix& incremental = state->engine->logits();
  const std::size_t agree = argmax_agreement(incremental, fresh);
  if (!(fresh == incremental)) {
    result.fail("incremental logits differ from a fresh GcnModel::infer");
    result.failed = result.attempted;
  }
  // Check 2: the same rounds on an independently built state insert the
  // same OPs in the same order.
  const std::size_t replay = std::min(kReplayRounds, round);
  for (std::size_t round = 0; round < replay; ++round) {
    run_round(*spare, round, tracer);
  }
  if (!std::equal(spare->inserted.begin(), spare->inserted.end(),
                  state->inserted.begin()) ||
      spare->inserted.size() > state->inserted.size()) {
    result.fail("replayed rounds inserted a different OP list");
    result.failed = result.attempted;
  }
  std::uint64_t list_hash = fnv1a(state->inserted.data(),
                                  state->inserted.size() * sizeof(NodeId));
  std::cerr << "opi_100k: " << op_s.size() << " rounds in " << episodes
            << " episodes, " << state->inserted.size()
            << " OPs in the last on " << design.size()
            << " nodes, OP list fnv 0x" << std::hex << list_hash << std::dec
            << ", threshold " << state->threshold << ", fewest candidates "
            << *std::min_element(candidates.begin(), candidates.end())
            << "\n";

  const double round_total = sum(op_s);
  result.e2e("setup_s", median(setups), "s");
  result.e2e("peak_rss_mb", peak_rss_mb(), "MB");
  result.e2e("op_ms_p50", median(op_s) * 1e3, "ms");
  result.e2e("op_ms_p90", percentile(op_s, 0.9) * 1e3, "ms");
  result.e2e("work_per_s",
             static_cast<double>(ops_inserted) / round_total, "1/s");
  result.e2e("agreement",
             static_cast<double>(agree) / static_cast<double>(fresh.rows()),
             "share");
  result.note("opi.round_ms_p50", median(op_s) * 1e3, "ms", op_s.size());
  result.note("opi.round_ms_p90", percentile(op_s, 0.9) * 1e3, "ms",
              op_s.size());
  result.note("opi.dirty_fraction_p50", median(dirty_fraction), "share",
              dirty_fraction.size());

  if (options.trace) {
    const Breakdown b = analyse(tracer.spans(), "round");
    const Breakdown setup = analyse(tracer.spans(), "setup");
    const auto ms = [&](const char* name) { return median_self_s(b, name) * 1e3; };
    result.layer("netlist.levelize_s", median_self_s(setup, "netlist.levelize"), "s");
    result.layer("scoap.full_s", median_self_s(setup, "scoap.full"), "s");
    result.layer("graph.build_tensors_s",
                 median_self_s(setup, "graph.build_tensors"), "s");
    result.layer("graph.standardize_s",
                 median_self_s(setup, "graph.standardize"), "s");
    result.layer("model.load_s", median_self_s(setup, "model.load"), "s");
    result.layer("gcn.infer_s", median_self_s(setup, "gcn.infer"), "s");
    result.layer("netlist.insert_op_ms", ms("netlist.insert_op"), "ms");
    result.layer("scoap.observe_update_ms", ms("scoap.observe_update"), "ms");
    result.layer("scoap.cone_nodes", median(cone_nodes), "count");
    result.layer("graph.append_op_ms", ms("graph.append_op"), "ms");
    result.layer("graph.rebuild_csr_ms", ms("graph.rebuild_csr"), "ms");
    result.layer("incremental.affected_ms", ms("incremental.affected"), "ms");
    result.layer("incremental.update_ms", ms("incremental.update"), "ms");
    result.layer("incremental.dirty_rows", median(dirty_rows), "count");
    result.layer("incremental.dirty_fraction", median(dirty_fraction), "share");
    result.layer("incremental.full_fallbacks", static_cast<double>(fallbacks),
                 "count");
    result.layer("dft.select_ms", ms("dft.select"), "ms");
    result.layer("impact.eval_ms", ms("impact.eval"), "ms");
    result.layer("impact.candidates", median(candidates), "count");
    result.layer("impact.nonzero_share",
                 evaluated ? static_cast<double>(nonzero) / evaluated : 0.0,
                 "share");
    result.layer("unattributed_share", b.unattributed_share, "share");
    result.layer("trace.overhead_share",
                 median(traced_s) / median(untraced_s) - 1.0, "share");
    fold_program_counters(result, kernels_before, kernel_ns(), busy_before,
                          pool_busy(), traced_s.size(), loop_s);
  }
  result.layer("netlist.nodes", static_cast<double>(state->netlist.size()),
               "count");
  result.layer("netlist.edges",
               static_cast<double>(state->netlist.edge_count()), "count");
  result.layer("graph.nnz",
               static_cast<double>(state->tensors.pred.nnz() +
                                   state->tensors.succ.nnz()),
               "count");
  return result;
}

}  // namespace perfbench
