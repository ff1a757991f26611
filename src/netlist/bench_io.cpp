#include "netlist/bench_io.h"

#include <algorithm>
#include <cstring>
#include <exception>
#include <functional>
#include <istream>
#include <ostream>
#include <sstream>
#include <vector>

#include "common/error.h"
#include "common/trace.h"

namespace gcnt {

namespace {

[[noreturn]] void fail(int line, const std::string& message) {
  throw Error(ErrorKind::kCorrupt, "bench parse error at line " +
                                       std::to_string(line) + ": " + message);
}

/// The C locale's isspace set.
constexpr bool is_space(char c) noexcept {
  return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' ||
         c == '\r';
}

std::string_view strip(std::string_view text) noexcept {
  std::size_t begin = 0, end = text.size();
  while (begin < end && is_space(text[begin])) ++begin;
  while (end > begin && is_space(text[end - 1])) --end;
  return text.substr(begin, end - begin);
}

/// Splits "FUNC(a, b, c)" at the first '(' and the last ')': `func` is the
/// stripped text before the '(' and `inner` the text between the two
/// (anything after the last ')' is ignored). False on a missing or
/// misordered paren or an empty FUNC.
bool split_call(std::string_view text, std::string_view& func,
                std::string_view& inner) noexcept {
  const std::size_t open = text.find('(');
  const std::size_t close = text.rfind(')');
  if (open == std::string_view::npos || close == std::string_view::npos ||
      close < open) {
    return false;
  }
  func = strip(text.substr(0, open));
  inner = text.substr(open + 1, close - open - 1);
  return !func.empty();
}

/// Calls `emit` for each non-empty stripped comma-separated operand.
template <typename Emit>
void for_each_operand(std::string_view inner, Emit&& emit) {
  for (std::size_t start = 0;;) {
    const std::size_t comma = inner.find(',', start);
    // substr clamps, so the last piece runs to the end when comma == npos.
    const std::string_view piece = strip(inner.substr(start, comma - start));
    if (!piece.empty()) emit(piece);
    if (comma == std::string_view::npos) return;
    start = comma + 1;
  }
}

/// How many names ahead the table's batched passes prefetch slots.
constexpr std::size_t kPrefetchDistance = 16;

/// Open-addressing table from signal name (a view into the text) to its
/// dense definition id. A slot holds the name's length and first 8 bytes,
/// so names of up to 8 bytes match without touching the text.
class SignalTable {
 public:
  /// Sizes the table for `names`, whose ids are their indices.
  explicit SignalTable(const std::vector<std::string_view>& names)
      : names_(names) {
    std::size_t slots = 16;
    while (slots < 2 * names.size()) slots *= 2;
    slots_.assign(slots, Slot{});
    mask_ = slots - 1;
  }

  /// Interns every name in order. Returns the index of the first name
  /// that repeats an earlier one, or names.size().
  std::size_t insert_all() {
    for (std::size_t id = 0; id < names_.size(); ++id) {
      // Slots are hit at random: start a later name's load early so the
      // cache misses overlap.
      if (id + kPrefetchDistance < names_.size()) {
        prefetch(names_[id + kPrefetchDistance]);
      }
      const std::string_view name = names_[id];
      const std::uint64_t prefix = prefix_of(name);
      std::size_t i = home(name);
      for (; slots_[i].id != 0; i = (i + 1) & mask_) {
        if (matches(slots_[i], prefix, name)) return id;
      }
      slots_[i] = Slot{static_cast<std::uint32_t>(id + 1),
                       static_cast<std::uint32_t>(name.size()), prefix};
    }
    return names_.size();
  }

  /// Id of `name`, or kInvalidNode when undefined.
  NodeId find(std::string_view name) const noexcept {
    const std::uint64_t prefix = prefix_of(name);
    for (std::size_t i = home(name); slots_[i].id != 0; i = (i + 1) & mask_) {
      if (matches(slots_[i], prefix, name)) return slots_[i].id - 1;
    }
    return kInvalidNode;
  }

  /// Starts loading the slot `name` hashes to.
  void prefetch(std::string_view name) const noexcept {
    __builtin_prefetch(&slots_[home(name)]);
  }

 private:
  struct Slot {
    std::uint32_t id = 0;  // id + 1; 0 marks an empty slot
    std::uint32_t length = 0;
    std::uint64_t prefix = 0;
  };

  static std::uint64_t prefix_of(std::string_view name) noexcept {
    std::uint64_t prefix = 0;
    std::memcpy(&prefix, name.data(), std::min<std::size_t>(name.size(), 8));
    return prefix;
  }
  std::size_t home(std::string_view name) const noexcept {
    return std::hash<std::string_view>{}(name) & mask_;
  }
  bool matches(const Slot& slot, std::uint64_t prefix,
               std::string_view name) const noexcept {
    return slot.length == name.size() && slot.prefix == prefix &&
           (name.size() <= 8 || names_[slot.id - 1] == name);
  }

  const std::vector<std::string_view>& names_;
  std::vector<Slot> slots_;
  std::size_t mask_ = 0;
};

/// A gate line: its definition id, type, line and operand range.
struct GateLine {
  NodeId lhs;
  CellType type;
  int line;
  std::uint32_t first;  // index into the flat operand array
  std::uint32_t count;
};

/// An OUTPUT(x) / OBSERVE(x) line.
struct SinkLine {
  std::string_view signal;
  int line;
  CellType type;
};

/// Everything the line scan records, as views into the text. Definitions
/// (INPUT and gate lines) are indexed by id, in file order.
struct Scan {
  std::vector<std::string_view> def_names;
  std::vector<CellType> def_types;
  std::vector<int> def_lines;
  std::vector<GateLine> gates;
  std::vector<std::string_view> operands;  // all gates' operands, flat
  std::vector<SinkLine> outputs, observes;
};

/// Pass 1: reads every line in file order and throws at the first
/// malformed one. Names are not looked up here: definitions are checked
/// for repeats afterwards, and operands may refer forward.
void scan_lines(std::string_view text, Scan& scan) {
  int line_number = 0;
  for (std::size_t pos = 0; pos < text.size();) {
    const std::size_t newline = text.find('\n', pos);
    const std::size_t end =
        newline == std::string_view::npos ? text.size() : newline;
    std::string_view line = text.substr(pos, end - pos);
    pos = end + 1;
    ++line_number;
    line = strip(line.substr(0, line.find('#')));
    if (line.empty()) continue;

    std::string_view func, inner;
    const std::size_t eq = line.find('=');
    if (eq == std::string_view::npos) {
      std::string_view arg;
      int args = 0;
      const bool call = split_call(line, func, inner);
      if (call) {
        for_each_operand(inner, [&](std::string_view piece) {
          arg = piece;
          ++args;
        });
      }
      if (!call || args != 1) {
        fail(line_number, "expected INPUT(x) / OUTPUT(x) / OBSERVE(x)");
      }
      CellType type;
      if (!parse_cell_type(func, type)) type = CellType::kBuf;
      if (type == CellType::kInput) {
        scan.def_names.push_back(arg);
        scan.def_types.push_back(type);
        scan.def_lines.push_back(line_number);
      } else if (type == CellType::kOutput) {
        scan.outputs.push_back({arg, line_number, type});
      } else if (type == CellType::kObserve) {
        scan.observes.push_back({arg, line_number, type});
      } else {
        std::string upper(func);
        for (char& c : upper) {
          if (c >= 'a' && c <= 'z') c = static_cast<char>(c - 'a' + 'A');
        }
        fail(line_number, "unknown directive " + upper);
      }
      continue;
    }

    if (!split_call(line.substr(eq + 1), func, inner)) {
      fail(line_number, "expected <name> = GATE(args)");
    }
    GateLine gate{static_cast<NodeId>(scan.def_names.size()), CellType::kBuf,
                  line_number,
                  static_cast<std::uint32_t>(scan.operands.size()), 0};
    for_each_operand(inner, [&](std::string_view piece) {
      scan.operands.push_back(piece);
    });
    gate.count = static_cast<std::uint32_t>(scan.operands.size() - gate.first);
    if (!parse_cell_type(func, gate.type)) {
      fail(line_number, "unknown gate type " + std::string(func));
    }
    if (!is_logic(gate.type) && gate.type != CellType::kDff) {
      fail(line_number,
           "gate type " + std::string(func) + " not allowed on assignment");
    }
    const std::string_view lhs = strip(line.substr(0, eq));
    if (lhs.empty()) fail(line_number, "missing signal name");
    scan.def_names.push_back(lhs);
    scan.def_types.push_back(gate.type);
    scan.def_lines.push_back(line_number);
    scan.gates.push_back(gate);
  }
}

/// Parses the whole document in place. Node ids follow the reader's
/// contract: INPUT and gate lines in file order, then OUTPUT nodes, then
/// OBSERVE nodes.
Netlist parse_bench(std::string_view text, std::string design_name,
                    TraceSpan& span) {
  span.arg("bytes", static_cast<double>(text.size()));
  Scan scan;
  std::exception_ptr malformed;
  try {
    scan_lines(text, scan);
  } catch (const Error&) {
    malformed = std::current_exception();
  }
  // Every definition the scan kept precedes its first malformed line, so
  // a repeat among them is the earlier error.
  const auto& defs = scan.def_names;
  SignalTable signals(defs);
  const std::size_t repeat = signals.insert_all();
  if (repeat < defs.size()) {
    fail(scan.def_lines[repeat],
         "redefinition of " + std::string(defs[repeat]));
  }
  if (malformed) std::rethrow_exception(malformed);

  // Pass 2: resolve every operand, gates first, then OUTPUT and OBSERVE
  // lines, so the first error is the same as connecting in that order.
  const auto resolve = [&](std::string_view name, int line) -> NodeId {
    const NodeId id = signals.find(name);
    if (id == kInvalidNode) fail(line, "undefined signal " + std::string(name));
    return id;
  };
  const auto& operands = scan.operands;
  std::vector<NodeId> drivers(operands.size());
  for (const GateLine& gate : scan.gates) {
    const int arity = static_cast<int>(gate.count);
    if (arity < min_fanin(gate.type) || arity > max_fanin(gate.type)) {
      fail(gate.line, "illegal operand count for " +
                          std::string(cell_type_name(gate.type)));
    }
    for (std::uint32_t k = gate.first; k < gate.first + gate.count; ++k) {
      if (k + kPrefetchDistance < operands.size()) {
        signals.prefetch(operands[k + kPrefetchDistance]);
      }
      drivers[k] = resolve(operands[k], gate.line);
    }
  }
  std::vector<NodeId> sink_drivers;
  sink_drivers.reserve(scan.outputs.size() + scan.observes.size());
  for (const auto* sinks : {&scan.outputs, &scan.observes}) {
    for (const SinkLine& sink : *sinks) {
      sink_drivers.push_back(resolve(sink.signal, sink.line));
    }
  }

  // Build: every node, then every edge in the order the reader has always
  // connected them, into lists sized once.
  const std::size_t total = defs.size() + sink_drivers.size();
  std::vector<std::uint32_t> fanout_count(defs.size(), 0);
  for (NodeId u : drivers) ++fanout_count[u];
  for (NodeId u : sink_drivers) ++fanout_count[u];

  Netlist netlist(std::move(design_name));
  netlist.reserve(total);
  for (NodeId v = 0; v < defs.size(); ++v) {
    netlist.add_node(scan.def_types[v], std::string(defs[v]));
  }
  for (const GateLine& gate : scan.gates) {
    netlist.reserve_edges(gate.lhs, gate.count, 0);
  }
  for (NodeId v = 0; v < defs.size(); ++v) {
    netlist.reserve_edges(v, 0, fanout_count[v]);
  }
  for (const GateLine& gate : scan.gates) {
    for (std::uint32_t k = gate.first; k < gate.first + gate.count; ++k) {
      netlist.connect(drivers[k], gate.lhs);
    }
  }
  std::size_t next_sink = 0;
  for (const auto* sinks : {&scan.outputs, &scan.observes}) {
    for (const SinkLine& sink : *sinks) {
      std::string name(sink.type == CellType::kOutput ? "out_" : "op_");
      name += sink.signal;
      const NodeId node = netlist.add_node(sink.type, std::move(name));
      netlist.connect(sink_drivers[next_sink++], node);
    }
  }
  span.arg("nodes", static_cast<double>(netlist.size()));
  span.arg("edges", static_cast<double>(netlist.edge_count()));
  return netlist;
}

/// The stream's remaining bytes, in one buffer.
std::string read_all(std::istream& in) {
  std::string text;
  char chunk[1 << 16];
  while (in.read(chunk, sizeof chunk) || in.gcount() > 0) {
    text.append(chunk, static_cast<std::size_t>(in.gcount()));
  }
  return text;
}

}  // namespace

Netlist read_bench(std::istream& in, std::string design_name) {
  TraceSpan span("netlist.parse");
  const std::string text = read_all(in);
  return parse_bench(text, std::move(design_name), span);
}

Netlist read_bench_string(std::string_view text, std::string design_name) {
  TraceSpan span("netlist.parse");
  return parse_bench(text, std::move(design_name), span);
}

void write_bench(const Netlist& netlist, std::ostream& out) {
  out << "# design " << netlist.name() << "\n";
  const std::size_t n = netlist.size();
  for (NodeId v = 0; v < n; ++v) {
    const CellType t = netlist.type(v);
    if (t == CellType::kInput) {
      out << "INPUT(" << netlist.node_name(v) << ")\n";
    } else if (t == CellType::kOutput || t == CellType::kObserve) {
      out << (t == CellType::kOutput ? "OUTPUT(" : "OBSERVE(")
          << netlist.node_name(netlist.fanins(v).front()) << ")\n";
    }
  }
  for (NodeId v = 0; v < n; ++v) {
    const CellType t = netlist.type(v);
    if (!is_logic(t) && t != CellType::kDff) continue;
    out << netlist.node_name(v) << " = " << cell_type_name(t) << "(";
    const auto& fanins = netlist.fanins(v);
    for (std::size_t i = 0; i < fanins.size(); ++i) {
      if (i) out << ", ";
      out << netlist.node_name(fanins[i]);
    }
    out << ")\n";
  }
}

std::string write_bench_string(const Netlist& netlist) {
  std::ostringstream out;
  write_bench(netlist, out);
  return out.str();
}

}  // namespace gcnt
