// .bench reader/writer: parsing, error reporting, round-trips.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "common/trace.h"
#include "gen/generator.h"
#include "netlist/bench_io.h"

namespace gcnt {
namespace {

constexpr const char* kC17 = R"(# ISCAS-85 c17
INPUT(G1)
INPUT(G2)
INPUT(G3)
INPUT(G6)
INPUT(G7)
OUTPUT(G22)
OUTPUT(G23)
G10 = NAND(G1, G3)
G11 = NAND(G3, G6)
G16 = NAND(G2, G11)
G19 = NAND(G11, G7)
G22 = NAND(G10, G16)
G23 = NAND(G16, G19)
)";

TEST(BenchIo, ParsesC17) {
  const Netlist n = read_bench_string(kC17, "c17");
  EXPECT_EQ(n.primary_inputs().size(), 5u);
  EXPECT_EQ(n.primary_outputs().size(), 2u);
  EXPECT_EQ(n.size(), 5u + 2u + 6u);
  EXPECT_TRUE(n.validate().empty());
}

TEST(BenchIo, SignalNamesPreserved) {
  const Netlist n = read_bench_string(kC17);
  bool found = false;
  for (NodeId v = 0; v < n.size(); ++v) {
    if (n.node_name(v) == "G22") {
      found = true;
      EXPECT_EQ(n.type(v), CellType::kNand);
      EXPECT_EQ(n.fanins(v).size(), 2u);
    }
  }
  EXPECT_TRUE(found);
}

TEST(BenchIo, RoundTripIsIsomorphic) {
  const Netlist original = read_bench_string(kC17, "c17");
  const Netlist reparsed =
      read_bench_string(write_bench_string(original), "c17rt");
  EXPECT_EQ(reparsed.size(), original.size());
  EXPECT_EQ(reparsed.edge_count(), original.edge_count());
  EXPECT_EQ(reparsed.primary_inputs().size(),
            original.primary_inputs().size());
  EXPECT_EQ(reparsed.primary_outputs().size(),
            original.primary_outputs().size());
  EXPECT_TRUE(reparsed.validate().empty());
}

TEST(BenchIo, DffSupported) {
  const Netlist n = read_bench_string(R"(
INPUT(a)
OUTPUT(q)
q = DFF(a)
)");
  EXPECT_EQ(n.flip_flops().size(), 1u);
  EXPECT_TRUE(n.validate().empty());
}

TEST(BenchIo, ObserveExtensionRoundTrips) {
  Netlist n = read_bench_string(kC17, "c17");
  // Observe G10's output.
  for (NodeId v = 0; v < n.size(); ++v) {
    if (n.node_name(v) == "G10") {
      n.insert_observe_point(v);
      break;
    }
  }
  const Netlist reparsed = read_bench_string(write_bench_string(n));
  EXPECT_EQ(reparsed.observe_points().size(), 1u);
  EXPECT_TRUE(reparsed.validate().empty());
}

TEST(BenchIo, CommentsAndBlanksIgnored) {
  const Netlist n = read_bench_string(R"(
# leading comment

INPUT(a)   # trailing comment
INPUT(b)
OUTPUT(y)

y = AND(a, b)
)");
  EXPECT_EQ(n.size(), 4u);
}

TEST(BenchIo, BuffAliasAccepted) {
  const Netlist n = read_bench_string(R"(
INPUT(a)
OUTPUT(y)
y = BUFF(a)
)");
  EXPECT_TRUE(n.validate().empty());
}

TEST(BenchIo, UndefinedSignalThrows) {
  EXPECT_THROW(read_bench_string("INPUT(a)\ny = AND(a, ghost)\nOUTPUT(y)\n"),
               std::runtime_error);
}

TEST(BenchIo, RedefinitionThrows) {
  EXPECT_THROW(read_bench_string("INPUT(a)\nINPUT(a)\n"), std::runtime_error);
  EXPECT_THROW(read_bench_string("INPUT(a)\na = NOT(a)\n"),
               std::runtime_error);
}

TEST(BenchIo, UnknownGateThrows) {
  EXPECT_THROW(read_bench_string("INPUT(a)\ny = MAJ3(a, a, a)\n"),
               std::runtime_error);
}

TEST(BenchIo, BadArityThrows) {
  EXPECT_THROW(read_bench_string("INPUT(a)\ny = AND(a)\n"),
               std::runtime_error);
  EXPECT_THROW(read_bench_string("INPUT(a)\nINPUT(b)\ny = NOT(a, b)\n"),
               std::runtime_error);
}

TEST(BenchIo, MalformedLineThrows) {
  EXPECT_THROW(read_bench_string("WIBBLE\n"), std::runtime_error);
  EXPECT_THROW(read_bench_string("INPUT a\n"), std::runtime_error);
}

TEST(BenchIo, ErrorMessageCarriesLineNumber) {
  try {
    read_bench_string("INPUT(a)\n\ny = AND(a, ghost)\nOUTPUT(y)\n");
    FAIL() << "expected parse error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos);
  }
}

TEST(BenchIo, StreamIsReadFromItsCurrentPosition) {
  std::istringstream in("garbage line\n" + std::string(kC17));
  std::string skipped;
  std::getline(in, skipped);
  EXPECT_EQ(read_bench(in, "c17").size(), 13u);
}

TEST(BenchIo, ParseAndLevelizeEmitTraceSpans) {
  const std::string path = "bench_io_trace.json";
  trace_reset();
  trace_start();
  const Netlist n = read_bench_string(kC17, "c17");
  (void)n.logic_levels();
  ASSERT_TRUE(trace_stop(path));
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string json = buffer.str();
  std::remove(path.c_str());
  const std::string bytes = std::to_string(std::string(kC17).size());
  EXPECT_NE(json.find("\"name\":\"netlist.parse\""), std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"bytes\":" + bytes +
                      ",\"nodes\":13,\"edges\":14}"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"name\":\"netlist.levelize\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// Golden behaviour of the reader. The expected values below were computed
// with the line-by-line reader that preceded the single-buffer one; any
// reader must reproduce them bit for bit (node-id order, names, types,
// fanin and fanout order, and every error's exact message).

/// FNV-1a over everything a reader decides: node ids, names, types, and
/// fanin and fanout lists in order.
std::uint64_t structure_fingerprint(const Netlist& n) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix_byte = [&h](unsigned char c) {
    h ^= c;
    h *= 0x100000001b3ULL;
  };
  const auto mix = [&](std::uint64_t value) {
    for (int i = 0; i < 8; ++i) {
      mix_byte(static_cast<unsigned char>(value >> (8 * i)));
    }
  };
  mix(n.size());
  mix(n.edge_count());
  for (NodeId v = 0; v < n.size(); ++v) {
    mix(v);
    mix(static_cast<std::uint64_t>(n.type(v)));
    mix(n.node_name(v).size());
    for (char c : n.node_name(v)) mix_byte(static_cast<unsigned char>(c));
    mix(n.fanins(v).size());
    for (NodeId u : n.fanins(v)) mix(u);
    mix(n.fanouts(v).size());
    for (NodeId w : n.fanouts(v)) mix(w);
  }
  return h;
}

std::string hex(std::uint64_t value) {
  char buffer[24];
  std::snprintf(buffer, sizeof buffer, "0x%016llx",
                static_cast<unsigned long long>(value));
  return buffer;
}

/// Generated design of ~`gates` logic gates with two observation points,
/// written as .bench text.
std::string generated_bench(std::uint64_t seed, std::size_t gates) {
  GeneratorConfig config;
  config.seed = seed;
  config.target_gates = gates;
  Netlist netlist = generate_circuit(config);
  netlist.insert_observe_point(static_cast<NodeId>(netlist.size() / 3));
  netlist.insert_observe_point(static_cast<NodeId>(netlist.size() / 2));
  return write_bench_string(netlist);
}

/// The same lines in reverse order: every gate operand becomes a forward
/// reference and OUTPUT/OBSERVE lines come last.
std::string reverse_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  std::reverse(lines.begin(), lines.end());
  std::string out;
  for (const auto& line : lines) out += line + "\n";
  return out;
}

/// Rewrites the text with every tolerated variation: CRLF endings, tabs
/// and padding, lower-case keywords, BUFF, empty operands, trailing
/// comments and text after the last ')', and no final newline.
std::string quirky(const std::string& text) {
  std::istringstream in(text);
  std::string out;
  int index = 0;
  for (std::string line; std::getline(in, line); ++index) {
    if (line.rfind("INPUT(", 0) == 0) line = "\tinput (" + line.substr(6);
    if (line.rfind("OUTPUT(", 0) == 0) line = "Output(" + line.substr(7);
    const std::size_t eq = line.find(" = ");
    if (eq != std::string::npos) {
      line.replace(eq, 3, "\t=\t");
      const std::size_t comma = line.find(", ");
      if (comma != std::string::npos) line.replace(comma, 2, " ,, \t");
      if (line.find("BUF(") != std::string::npos) {
        line.replace(line.find("BUF("), 4, "buff(");
      }
      if (index % 3 == 0) line += " trailing text";
    }
    if (index % 5 == 0) line += " # comment (with, parens)";
    out += line + "\r\n";
  }
  out.resize(out.size() - 2);  // no final newline
  return out;
}

TEST(BenchIoGolden, GeneratedDesignFingerprints) {
  struct Case {
    std::uint64_t seed;
    std::size_t gates;
    std::uint64_t in_order;
    std::uint64_t reversed;
  };
  const Case cases[] = {
      {11, 1000, 0xc418e1dbd99d7c4aULL, 0xd03885cb2637bea5ULL},
      {12, 30000, 0x9fe0299c38fb0b8bULL, 0x67bdf74c38226321ULL},
  };
  for (const Case& c : cases) {
    const std::string text = generated_bench(c.seed, c.gates);
    const Netlist n = read_bench_string(text, "golden");
    EXPECT_EQ(hex(structure_fingerprint(n)), hex(c.in_order))
        << "seed " << c.seed << ", " << n.size() << " nodes";
    const Netlist r = read_bench_string(reverse_lines(text), "golden");
    EXPECT_EQ(hex(structure_fingerprint(r)), hex(c.reversed))
        << "seed " << c.seed << " reversed";
    // Every tolerated variation of the same text reads the same netlist.
    EXPECT_EQ(structure_fingerprint(read_bench_string(quirky(text))),
              structure_fingerprint(n))
        << "seed " << c.seed << " quirky";
    // The stream and string entry points agree.
    std::istringstream in(text);
    EXPECT_EQ(structure_fingerprint(read_bench(in, "golden")),
              structure_fingerprint(n));
  }
}

/// One-line rendering of a parsed netlist: `name:TYPE(fanin names)` per
/// node in id order.
std::string describe(const Netlist& n) {
  std::string out;
  for (NodeId v = 0; v < n.size(); ++v) {
    if (v) out += ' ';
    out += n.node_name(v) + ':' + std::string(cell_type_name(n.type(v))) + '(';
    for (std::size_t i = 0; i < n.fanins(v).size(); ++i) {
      if (i) out += ',';
      out += n.node_name(n.fanins(v)[i]);
    }
    out += ')';
  }
  return out;
}

/// Parses `text` and returns either "ok: <describe>" or the error's what().
std::string outcome(const std::string& text) {
  try {
    return "ok: " + describe(read_bench_string(text));
  } catch (const Error& e) {
    return std::string(error_kind_name(e.kind())) + ": " + e.what();
  }
}

TEST(BenchIoGolden, QuirksAndErrorsTable) {
  struct Case {
    const char* input;
    const char* expected;
  };
  const Case cases[] = {
      // Tolerated input.
      {"INPUT(a)\r\nINPUT(b)\r\nOUTPUT(y)\r\ny = AND(a, b)\r\n",
       "ok: a:INPUT() b:INPUT() y:AND(a,b) out_y:OUTPUT(y)"},
      {"\tINPUT(a)\t\ny\t=\tNOT(\ta\t)\nOUTPUT(y)\n",
       "ok: a:INPUT() y:NOT(a) out_y:OUTPUT(y)"},
      {"INPUT(a) junk\nINPUT(b)\ny = OR(a, b) more\nOUTPUT(y)x\n",
       "ok: a:INPUT() b:INPUT() y:OR(a,b) out_y:OUTPUT(y)"},
      {"INPUT(a)\nINPUT(b)\ny = AND(a,,b,)\n",
       "ok: a:INPUT() b:INPUT() y:AND(a,b)"},
      {"INPUT(a)\nOUTPUT(y)\ny = NOT(a)",
       "ok: a:INPUT() y:NOT(a) out_y:OUTPUT(y)"},
      {"INPUT(a) # c (x)\n# INPUT(z)\ny = BUF(a) # = AND(a)\n",
       "ok: a:INPUT() y:BUF(a)"},
      {"input(a)\nOutPut(y)\nobserve(a)\ny = nand(a, a)\n",
       "ok: a:INPUT() y:NAND(a,a) out_y:OUTPUT(y) op_a:OBSERVE(a)"},
      {"INPUT(a)\ny = BUFF(a)\nz = bUfF(y)\n",
       "ok: a:INPUT() y:BUF(a) z:BUF(y)"},
      {"OUTPUT(q)\nq = DFF(d)\nd = NOT(q)\n",
       "ok: q:DFF(d) d:NOT(q) out_q:OUTPUT(q)"},
      {"INPUT(a b)\nc d = NOT(a b)\nINPUT(e))\n",
       "ok: a b:INPUT() c d:NOT(a b) e):INPUT()"},
      {"INPUT(a)\ny = AND(a, b) = c\nINPUT(b)\n",
       "ok: a:INPUT() y:AND(a,b) b:INPUT()"},
      {"INPUT(a)\rINPUT(b)\n",
       "ok: a)\rINPUT(b:INPUT()"},
      {"\v\fINPUT(a)\f\n \n\n",
       "ok: a:INPUT()"},
      {"",
       "ok: "},
      // Rejected input: kind, line and message.
      {"INPUT(a)\nINPUT(a)\n",
       "corrupt: bench parse error at line 2: redefinition of a"},
      {"INPUT(a)\na = NOT(a)\n",
       "corrupt: bench parse error at line 2: redefinition of a"},
      {"INPUT(a)\ny = AND(a, ghost)\nOUTPUT(y)\n",
       "corrupt: bench parse error at line 2: undefined signal ghost"},
      {"INPUT(a)\nOUTPUT(ghost)\n",
       "corrupt: bench parse error at line 2: undefined signal ghost"},
      {"INPUT(a)\n\n# c\nOBSERVE(ghost)\n",
       "corrupt: bench parse error at line 4: undefined signal ghost"},
      {"INPUT(a)\ny = AND(a)\n",
       "corrupt: bench parse error at line 2: illegal operand count for AND"},
      {"INPUT(a)\nINPUT(b)\ny = NOT(a, b)\n",
       "corrupt: bench parse error at line 3: illegal operand count for NOT"},
      {"INPUT(a)\ny = AND()\n",
       "corrupt: bench parse error at line 2: illegal operand count for AND"},
      {"WIBBLE\n",
       "corrupt: bench parse error at line 1: expected INPUT(x) / OUTPUT(x) / "
       "OBSERVE(x)"},
      {"INPUT a\n",
       "corrupt: bench parse error at line 1: expected INPUT(x) / OUTPUT(x) / "
       "OBSERVE(x)"},
      {"INPUT(a, b)\n",
       "corrupt: bench parse error at line 1: expected INPUT(x) / OUTPUT(x) / "
       "OBSERVE(x)"},
      {"INPUT()\n",
       "corrupt: bench parse error at line 1: expected INPUT(x) / OUTPUT(x) / "
       "OBSERVE(x)"},
      {"(a)\n",
       "corrupt: bench parse error at line 1: expected INPUT(x) / OUTPUT(x) / "
       "OBSERVE(x)"},
      {"INPUT)a(\n",
       "corrupt: bench parse error at line 1: expected INPUT(x) / OUTPUT(x) / "
       "OBSERVE(x)"},
      {"wire(a)\n",
       "corrupt: bench parse error at line 1: unknown directive WIRE"},
      {"INPUT(a)\ny = MAJ3(a, a, a)\n",
       "corrupt: bench parse error at line 2: unknown gate type MAJ3"},
      {"INPUT(a)\ny = input(a)\n",
       "corrupt: bench parse error at line 2: gate type input not allowed on "
       "assignment"},
      {"INPUT(a)\ny = Output(a)\n",
       "corrupt: bench parse error at line 2: gate type Output not allowed on "
       "assignment"},
      {"INPUT(a)\n = AND(a, a)\n",
       "corrupt: bench parse error at line 2: missing signal name"},
      {"INPUT(a)\ny = (a)\n",
       "corrupt: bench parse error at line 2: expected <name> = GATE(args)"},
      {"INPUT(a)\ny = AND a, a\n",
       "corrupt: bench parse error at line 2: expected <name> = GATE(args)"},
      {"INPUT(a)\ny = AND(a, # a)\n",
       "corrupt: bench parse error at line 2: expected <name> = GATE(args)"},
      {"y = AND(a, b)\nz = OR(y, c)\n",
       "corrupt: bench parse error at line 1: undefined signal a"},
      {"OBSERVE(x)\nOUTPUT(y)\nINPUT(a)\ny = NOT(x)\n",
       "corrupt: bench parse error at line 4: undefined signal x"},
      {"INPUT(a)\nINPUT(a)\nWIBBLE\n",
       "corrupt: bench parse error at line 2: redefinition of a"},
      {"INPUT(a)\nWIBBLE\nINPUT(a)\n",
       "corrupt: bench parse error at line 2: expected INPUT(x) / OUTPUT(x) / "
       "OBSERVE(x)"},
      {"INPUT(a)\ny = NOT(a)\nz = FOO(a)\ny = BUF(a)\n",
       "corrupt: bench parse error at line 3: unknown gate type FOO"},
      {"INPUT(a)\ny = AND(a)\nINPUT(a)\n",
       "corrupt: bench parse error at line 3: redefinition of a"},
      {"INPUT(a)\ny = AND(a)\nz = NOT(ghost)\n",
       "corrupt: bench parse error at line 2: illegal operand count for AND"},
      {"INPUT(a)\ny = AND(f(a), a)\n",
       "corrupt: bench parse error at line 2: undefined signal f(a)"},
      {"INPUT(a)\nINPUT(b)\ny = OR(a, b) more (junk)\n",
       "corrupt: bench parse error at line 3: undefined signal b) more (junk"},
  };
  for (const Case& c : cases) {
    EXPECT_EQ(outcome(c.input), c.expected) << "input: " << c.input;
  }
}

TEST(BenchIoGolden, MutatedInputsMatchRecordedOutcomes) {
  // 400 seeded text mutations of a small generated design; the outcome of
  // each (structure fingerprint or exact error) is folded into one hash.
  GeneratorConfig config;
  config.seed = 1234;
  config.target_gates = 120;
  config.primary_inputs = 8;
  config.primary_outputs = 4;
  config.flip_flops = 4;
  const std::string base = write_bench_string(generate_circuit(config));
  Rng rng(77);
  std::uint64_t folded = 0xcbf29ce484222325ULL;
  int accepted = 0;
  static const char noise[] = "(),=#\t\r \nxyANDnot09";
  for (int i = 0; i < 400; ++i) {
    std::string text = base;
    const std::size_t pos = rng.below(text.size());
    const std::size_t span = 1 + rng.below(12);
    switch (rng.below(5)) {
      case 0:  // delete a span
        text.erase(pos, span);
        break;
      case 1:  // overwrite a span with noise
        for (std::size_t k = pos; k < std::min(text.size(), pos + span); ++k) {
          text[k] = noise[rng.below(sizeof(noise) - 1)];
        }
        break;
      case 2:  // insert one noise character
        text.insert(pos, 1, noise[rng.below(sizeof(noise) - 1)]);
        break;
      default: {  // move the line at `pos` to the front or the end
        const std::size_t begin = text.rfind('\n', pos);
        const std::size_t start = begin == std::string::npos ? 0 : begin + 1;
        const std::size_t stop = text.find('\n', pos);
        const std::string line = text.substr(
            start, stop == std::string::npos ? std::string::npos
                                             : stop + 1 - start);
        text.erase(start, line.size());
        text = rng.below(2) == 0 ? line + text : text + line;
        break;
      }
    }
    std::string result;
    try {
      result = hex(structure_fingerprint(read_bench_string(text)));
      ++accepted;
    } catch (const Error& e) {
      result = e.what();
    }
    for (char ch : result) {
      folded ^= static_cast<unsigned char>(ch);
      folded *= 0x100000001b3ULL;
    }
  }
  EXPECT_EQ(accepted, 177);
  EXPECT_EQ(hex(folded), "0x5fabc09e9d31fe15");
}

}  // namespace
}  // namespace gcnt
