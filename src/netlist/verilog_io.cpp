#include "netlist/verilog_io.h"

#include <cctype>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/error.h"
#include "common/trace.h"

namespace gcnt {

namespace {

struct Token {
  std::string text;
  int line = 0;
};

[[noreturn]] void fail(int line, const std::string& message) {
  throw Error(ErrorKind::kCorrupt,
              "verilog parse error at line " + std::to_string(line) + ": " +
                  message);
}

/// Lexer: identifiers/keywords and single-char punctuation; comments and
/// whitespace removed. `bytes` receives the number of characters read.
std::vector<Token> tokenize(std::istream& in, std::size_t& bytes) {
  std::vector<Token> tokens;
  std::string text;
  int line = 1;
  bool in_line_comment = false;
  bool in_block_comment = false;
  char c = 0, prev = 0;

  const auto flush = [&] {
    if (!text.empty()) {
      tokens.push_back(Token{text, line});
      text.clear();
    }
  };

  bytes = 0;
  while (in.get(c)) {
    ++bytes;
    if (c == '\n') {
      in_line_comment = false;
      flush();
      ++line;
      prev = c;
      continue;
    }
    if (in_line_comment) {
      prev = c;
      continue;
    }
    if (in_block_comment) {
      if (prev == '*' && c == '/') in_block_comment = false;
      prev = c;
      continue;
    }
    if (c == '/' && in.peek() == '/') {
      flush();
      in_line_comment = true;
      prev = c;
      continue;
    }
    if (c == '/' && in.peek() == '*') {
      flush();
      in_block_comment = true;
      in.get(prev);  // consume '*' so "/*/" doesn't close immediately
      ++bytes;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c))) {
      flush();
    } else if (c == '(' || c == ')' || c == ',' || c == ';' || c == '=') {
      flush();
      tokens.push_back(Token{std::string(1, c), line});
    } else {
      text += c;
    }
    prev = c;
  }
  flush();
  return tokens;
}

bool primitive_type(const std::string& word, CellType& out) {
  if (word == "and") out = CellType::kAnd;
  else if (word == "or") out = CellType::kOr;
  else if (word == "nand") out = CellType::kNand;
  else if (word == "nor") out = CellType::kNor;
  else if (word == "xor") out = CellType::kXor;
  else if (word == "xnor") out = CellType::kXnor;
  else if (word == "not") out = CellType::kNot;
  else if (word == "buf") out = CellType::kBuf;
  else if (word == "dff") out = CellType::kDff;
  else return false;
  return true;
}

struct Instance {
  CellType type;
  std::vector<std::string> ports;  // output first
  int line;
};

}  // namespace

Netlist read_verilog(std::istream& in, std::string fallback_name) {
  TraceSpan span("netlist.parse");
  std::size_t bytes = 0;
  const auto tokens = tokenize(in, bytes);
  span.arg("bytes", static_cast<double>(bytes));
  std::size_t at = 0;

  const auto peek = [&]() -> const Token& {
    static const Token eof{"<eof>", 0};
    return at < tokens.size() ? tokens[at] : eof;
  };
  const auto next = [&]() -> const Token& {
    if (at >= tokens.size()) fail(tokens.empty() ? 0 : tokens.back().line,
                                  "unexpected end of file");
    return tokens[at++];
  };
  const auto expect = [&](const std::string& want) {
    const Token& token = next();
    if (token.text != want) {
      fail(token.line, "expected '" + want + "', got '" + token.text + "'");
    }
  };
  const auto identifier_list = [&](std::vector<Token>& out) {
    for (;;) {
      out.push_back(next());
      if (peek().text == ",") {
        ++at;
        continue;
      }
      break;
    }
  };

  // --- module header.
  expect("module");
  std::string module_name = next().text;
  if (module_name.empty()) module_name = std::move(fallback_name);
  if (peek().text == "(") {
    ++at;
    if (peek().text != ")") {
      std::vector<Token> ignored;
      identifier_list(ignored);  // port order is re-derived from directions
    }
    expect(")");
  }
  expect(";");

  // --- body.
  std::vector<Token> inputs, outputs, wires;
  std::vector<Instance> instances;
  std::vector<std::pair<Token, Token>> assigns;  // lhs = rhs

  for (;;) {
    const Token token = next();
    if (token.text == "endmodule") break;
    if (token.text == "input") {
      identifier_list(inputs);
      expect(";");
    } else if (token.text == "output") {
      identifier_list(outputs);
      expect(";");
    } else if (token.text == "wire") {
      identifier_list(wires);
      expect(";");
    } else if (token.text == "assign") {
      const Token lhs = next();
      expect("=");
      const Token rhs = next();
      expect(";");
      assigns.emplace_back(lhs, rhs);
    } else {
      CellType type;
      if (!primitive_type(token.text, type)) {
        fail(token.line, "unknown statement or primitive '" + token.text + "'");
      }
      Instance instance;
      instance.type = type;
      instance.line = token.line;
      Token maybe_name = next();
      if (maybe_name.text != "(") {
        expect("(");  // consumed the instance name
      }
      std::vector<Token> ports;
      identifier_list(ports);
      expect(")");
      expect(";");
      for (const Token& port : ports) instance.ports.push_back(port.text);
      if (instance.ports.size() < 2) {
        fail(instance.line, "primitive needs an output and at least one input");
      }
      instances.push_back(std::move(instance));
    }
  }

  // --- build the graph. Inputs become kInput nodes; every instance output
  // becomes a node of the primitive's type; outputs get PO sink nodes.
  Netlist netlist(module_name);
  std::unordered_map<std::string, NodeId> signal;
  std::unordered_set<std::string> declared;
  for (const Token& t : wires) declared.insert(t.text);
  for (const Token& t : outputs) declared.insert(t.text);

  for (const Token& t : inputs) {
    if (signal.count(t.text)) fail(t.line, "redefinition of " + t.text);
    signal.emplace(t.text, netlist.add_node(CellType::kInput, t.text));
  }
  for (const Instance& instance : instances) {
    const std::string& out_signal = instance.ports.front();
    if (!declared.count(out_signal) && !signal.count(out_signal)) {
      fail(instance.line, "undeclared net " + out_signal);
    }
    if (signal.count(out_signal)) {
      fail(instance.line, "multiple drivers for " + out_signal);
    }
    signal.emplace(out_signal, netlist.add_node(instance.type, out_signal));
  }
  for (const auto& [lhs, rhs] : assigns) {
    if (!declared.count(lhs.text) && !signal.count(lhs.text)) {
      fail(lhs.line, "undeclared net " + lhs.text);
    }
    if (signal.count(lhs.text)) fail(lhs.line, "multiple drivers for " + lhs.text);
    signal.emplace(lhs.text, netlist.add_node(CellType::kBuf, lhs.text));
  }

  const auto resolve = [&](const std::string& name, int line) -> NodeId {
    const auto it = signal.find(name);
    if (it == signal.end()) fail(line, "undriven net " + name);
    return it->second;
  };

  for (const Instance& instance : instances) {
    const NodeId gate = signal.at(instance.ports.front());
    const int arity = static_cast<int>(instance.ports.size()) - 1;
    if (arity < min_fanin(instance.type) || arity > max_fanin(instance.type)) {
      fail(instance.line, "illegal port count for primitive");
    }
    for (std::size_t p = 1; p < instance.ports.size(); ++p) {
      netlist.connect(resolve(instance.ports[p], instance.line), gate);
    }
  }
  for (const auto& [lhs, rhs] : assigns) {
    netlist.connect(resolve(rhs.text, rhs.line), signal.at(lhs.text));
  }
  for (const Token& t : outputs) {
    const NodeId po = netlist.add_node(CellType::kOutput, "out_" + t.text);
    netlist.connect(resolve(t.text, t.line), po);
  }
  span.arg("nodes", static_cast<double>(netlist.size()));
  span.arg("edges", static_cast<double>(netlist.edge_count()));
  return netlist;
}

Netlist read_verilog_string(const std::string& text,
                            std::string fallback_name) {
  std::istringstream in(text);
  return read_verilog(in, std::move(fallback_name));
}

void write_verilog(const Netlist& netlist, std::ostream& out) {
  const std::string module_name =
      netlist.name().empty() ? "top" : netlist.name();
  out << "module " << module_name << " (";
  bool first = true;
  const auto emit_port = [&](const std::string& name) {
    if (!first) out << ", ";
    out << name;
    first = false;
  };
  for (NodeId v : netlist.primary_inputs()) emit_port(netlist.node_name(v));
  for (NodeId v : netlist.primary_outputs()) emit_port(netlist.node_name(v));
  for (NodeId v : netlist.observe_points()) emit_port(netlist.node_name(v));
  out << ");\n";

  for (NodeId v : netlist.primary_inputs()) {
    out << "  input " << netlist.node_name(v) << ";\n";
  }
  for (NodeId v : netlist.primary_outputs()) {
    out << "  output " << netlist.node_name(v) << ";\n";
  }
  for (NodeId v : netlist.observe_points()) {
    out << "  output " << netlist.node_name(v) << ";  // observation point\n";
  }
  for (NodeId v = 0; v < netlist.size(); ++v) {
    if (is_logic(netlist.type(v)) || netlist.type(v) == CellType::kDff) {
      out << "  wire " << netlist.node_name(v) << ";\n";
    }
  }

  std::size_t instance_index = 0;
  for (NodeId v = 0; v < netlist.size(); ++v) {
    const CellType type = netlist.type(v);
    if (is_logic(type) || type == CellType::kDff) {
      std::string mnemonic(cell_type_name(type));
      for (char& c : mnemonic) c = static_cast<char>(std::tolower(c));
      out << "  " << mnemonic << " g" << instance_index++ << " ("
          << netlist.node_name(v);
      for (NodeId u : netlist.fanins(v)) out << ", " << netlist.node_name(u);
      out << ");\n";
    } else if (type == CellType::kOutput || type == CellType::kObserve) {
      out << "  assign " << netlist.node_name(v) << " = "
          << netlist.node_name(netlist.fanins(v).front()) << ";\n";
    }
  }
  out << "endmodule\n";
}

std::string write_verilog_string(const Netlist& netlist) {
  std::ostringstream out;
  write_verilog(netlist, out);
  return out.str();
}

}  // namespace gcnt
