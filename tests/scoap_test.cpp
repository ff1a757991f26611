// SCOAP testability measures: hand-computed gate rules, saturation, and the
// incremental observability update property.

#include <gtest/gtest.h>

#include "gen/generator.h"
#include "netlist/bench_io.h"
#include "scoap/scoap.h"

namespace gcnt {
namespace {

NodeId by_name(const Netlist& n, const std::string& name) {
  for (NodeId v = 0; v < n.size(); ++v) {
    if (n.node_name(v) == name) return v;
  }
  ADD_FAILURE() << "node not found: " << name;
  return kInvalidNode;
}

TEST(ScoapAdd, Saturates) {
  EXPECT_EQ(scoap_add(1, 2), 3u);
  EXPECT_EQ(scoap_add(kScoapInfinity, 5), kScoapInfinity);
  EXPECT_EQ(scoap_add(kScoapInfinity - 1, 1), kScoapInfinity);
  EXPECT_EQ(scoap_add(kScoapInfinity, kScoapInfinity), kScoapInfinity);
}

TEST(Scoap, PrimaryInputCosts) {
  const Netlist n = read_bench_string("INPUT(a)\nOUTPUT(a)\n");
  const auto m = compute_scoap(n);
  const NodeId a = by_name(n, "a");
  EXPECT_EQ(m.cc0[a], 1u);
  EXPECT_EQ(m.cc1[a], 1u);
  EXPECT_EQ(m.co[a], 0u);  // drives the PO directly
}

TEST(Scoap, AndGateRules) {
  const Netlist n =
      read_bench_string("INPUT(a)\nINPUT(b)\nOUTPUT(g)\ng = AND(a, b)\n");
  const auto m = compute_scoap(n);
  const NodeId g = by_name(n, "g");
  const NodeId a = by_name(n, "a");
  EXPECT_EQ(m.cc1[g], 3u);  // both inputs to 1: 1+1+1
  EXPECT_EQ(m.cc0[g], 2u);  // one input to 0: 1+1
  EXPECT_EQ(m.co[g], 0u);
  EXPECT_EQ(m.co[a], 2u);  // co(g) + cc1(b) + 1
}

TEST(Scoap, OrNorGateRules) {
  const Netlist n = read_bench_string(
      "INPUT(a)\nINPUT(b)\nOUTPUT(o)\nOUTPUT(r)\no = OR(a, b)\nr = NOR(a, "
      "b)\n");
  const auto m = compute_scoap(n);
  EXPECT_EQ(m.cc0[by_name(n, "o")], 3u);  // all inputs 0
  EXPECT_EQ(m.cc1[by_name(n, "o")], 2u);  // any input 1
  EXPECT_EQ(m.cc0[by_name(n, "r")], 2u);  // inverted
  EXPECT_EQ(m.cc1[by_name(n, "r")], 3u);
}

TEST(Scoap, NandNotBufRules) {
  const Netlist n = read_bench_string(
      "INPUT(a)\nINPUT(b)\nOUTPUT(x)\nOUTPUT(y)\nOUTPUT(z)\n"
      "x = NAND(a, b)\ny = NOT(a)\nz = BUF(b)\n");
  const auto m = compute_scoap(n);
  EXPECT_EQ(m.cc0[by_name(n, "x")], 3u);
  EXPECT_EQ(m.cc1[by_name(n, "x")], 2u);
  EXPECT_EQ(m.cc0[by_name(n, "y")], 2u);  // cc1(a)+1
  EXPECT_EQ(m.cc1[by_name(n, "y")], 2u);
  EXPECT_EQ(m.cc0[by_name(n, "z")], 2u);
}

TEST(Scoap, XorParityDynamicProgram) {
  const Netlist n2 =
      read_bench_string("INPUT(a)\nINPUT(b)\nOUTPUT(g)\ng = XOR(a, b)\n");
  const auto m2 = compute_scoap(n2);
  EXPECT_EQ(m2.cc0[by_name(n2, "g")], 3u);
  EXPECT_EQ(m2.cc1[by_name(n2, "g")], 3u);

  const Netlist n3 = read_bench_string(
      "INPUT(a)\nINPUT(b)\nINPUT(c)\nOUTPUT(g)\ng = XOR(a, b, c)\n");
  const auto m3 = compute_scoap(n3);
  EXPECT_EQ(m3.cc0[by_name(n3, "g")], 4u);
  EXPECT_EQ(m3.cc1[by_name(n3, "g")], 4u);

  const Netlist nx = read_bench_string(
      "INPUT(a)\nINPUT(b)\nOUTPUT(g)\ng = XNOR(a, b)\n");
  const auto mx = compute_scoap(nx);
  EXPECT_EQ(mx.cc0[by_name(nx, "g")], 3u);
  EXPECT_EQ(mx.cc1[by_name(nx, "g")], 3u);
}

TEST(Scoap, XorObservabilityUsesEitherValue) {
  const Netlist n =
      read_bench_string("INPUT(a)\nINPUT(b)\nOUTPUT(g)\ng = XOR(a, b)\n");
  const auto m = compute_scoap(n);
  // co(a) = co(g) + min(cc0(b), cc1(b)) + 1 = 0 + 1 + 1.
  EXPECT_EQ(m.co[by_name(n, "a")], 2u);
}

TEST(Scoap, DffActsAsScanCell) {
  const Netlist n = read_bench_string(
      "INPUT(a)\nOUTPUT(y)\nq = DFF(a)\ny = BUF(q)\n");
  const auto m = compute_scoap(n);
  const NodeId q = by_name(n, "q");
  EXPECT_EQ(m.cc0[q], 1u);  // scan load
  EXPECT_EQ(m.cc1[q], 1u);
  EXPECT_EQ(m.co[by_name(n, "a")], 0u);  // captured by the scan D pin
}

TEST(Scoap, ObservabilityPrefersEasiestBranch) {
  // a fans out to an easy path (direct PO) and a hard path (side of AND).
  const Netlist n = read_bench_string(
      "INPUT(a)\nINPUT(b)\nOUTPUT(a)\nOUTPUT(g)\ng = AND(a, b)\n");
  const auto m = compute_scoap(n);
  EXPECT_EQ(m.co[by_name(n, "a")], 0u);  // the PO branch wins
}

TEST(Scoap, DeepChainAccumulates) {
  const Netlist n = read_bench_string(
      "INPUT(a)\nOUTPUT(d)\nb = NOT(a)\nc = NOT(b)\nd = NOT(c)\n");
  const auto m = compute_scoap(n);
  EXPECT_EQ(m.co[by_name(n, "a")], 3u);
  EXPECT_EQ(m.cc0[by_name(n, "d")], 4u);
}

TEST(Scoap, ObservePointZeroesObservability) {
  Netlist n = read_bench_string(
      "INPUT(a)\nINPUT(b)\nINPUT(c)\nOUTPUT(h)\ng = AND(a, b)\nh = AND(g, "
      "c)\n");
  auto m = compute_scoap(n);
  const NodeId g = by_name(n, "g");
  const NodeId a = by_name(n, "a");
  const std::uint32_t co_a_before = m.co[a];
  EXPECT_GT(m.co[g], 0u);

  n.insert_observe_point(g);
  update_observability_after_observe(n, g, m);
  EXPECT_EQ(m.co[g], 0u);
  EXPECT_LT(m.co[a], co_a_before);
}

TEST(Scoap, IncrementalUpdateMatchesFullRecompute) {
  GeneratorConfig config;
  config.seed = 71;
  config.target_gates = 600;
  config.primary_inputs = 16;
  config.primary_outputs = 8;
  config.flip_flops = 12;
  Netlist n = generate_circuit(config);
  auto incremental = compute_scoap(n);

  // Insert a handful of OPs at spread-out logic nodes.
  std::size_t inserted = 0;
  for (NodeId v = 0; v < n.size() && inserted < 5; v += 97) {
    if (!is_logic(n.type(v))) continue;
    const NodeId target = v;
    n.insert_observe_point(target);
    update_observability_after_observe(n, target, incremental);
    ++inserted;
  }
  ASSERT_GT(inserted, 0u);

  const auto full = compute_scoap(n);
  ASSERT_EQ(full.co.size(), incremental.co.size());
  for (NodeId v = 0; v < n.size(); ++v) {
    EXPECT_EQ(incremental.co[v], full.co[v]) << "node " << v;
    EXPECT_EQ(incremental.cc0[v], full.cc0[v]) << "node " << v;
    EXPECT_EQ(incremental.cc1[v], full.cc1[v]) << "node " << v;
  }
}

TEST(Scoap, IncrementalUpdateMatchesFullAfterEveryInsertion) {
  // OPs on inputs, flip-flops and gates alike, some on the same node
  // twice; the cone-local update must equal a full recompute every time.
  GeneratorConfig config;
  config.seed = 72;
  config.target_gates = 300;
  config.primary_inputs = 12;
  config.primary_outputs = 6;
  config.flip_flops = 10;
  Netlist n = generate_circuit(config);
  auto incremental = compute_scoap(n);
  const std::size_t original = n.size();
  std::size_t inserted = 0;
  for (NodeId v = 0; v < original; v += 11) {
    const CellType t = n.type(v);
    if (t == CellType::kOutput || t == CellType::kObserve) continue;
    for (int repeat = 0; repeat < (v % 3 == 0 ? 2 : 1); ++repeat) {
      n.insert_observe_point(v);
      update_observability_after_observe(n, v, incremental);
      ++inserted;
      const auto full = compute_scoap(n);
      ASSERT_EQ(incremental.co, full.co) << "after OP on node " << v;
    }
  }
  EXPECT_GT(inserted, 30u);
}

TEST(Scoap, DuplicateFaninHandled) {
  const Netlist n =
      read_bench_string("INPUT(a)\nOUTPUT(g)\ng = AND(a, a)\n");
  const auto m = compute_scoap(n);
  NodeId g = kInvalidNode, a = kInvalidNode;
  for (NodeId v = 0; v < n.size(); ++v) {
    if (n.node_name(v) == "g") g = v;
    if (n.node_name(v) == "a") a = v;
  }
  EXPECT_EQ(m.cc1[g], 3u);  // both (duplicated) inputs to 1
  // a observed through either slot with the sibling (itself) at 1.
  EXPECT_EQ(m.co[a], 2u);
}

TEST(Scoap, ObserveThroughExported) {
  const Netlist n =
      read_bench_string("INPUT(a)\nINPUT(b)\nOUTPUT(g)\ng = AND(a, b)\n");
  const auto m = compute_scoap(n);
  const NodeId g = by_name(n, "g");
  // Through slot 0 of g with gate observability 5: 5 + cc1(b) + 1.
  EXPECT_EQ(scoap_observe_through(n, g, 0, m, 5), 7u);
}

}  // namespace
}  // namespace gcnt
