#include "netlist/cell.h"

#include <array>

namespace gcnt {

namespace {
constexpr std::array<std::string_view, kCellTypeCount> kNames = {
    "INPUT", "OUTPUT", "BUF", "NOT",  "AND", "NAND",
    "OR",    "NOR",    "XOR", "XNOR", "DFF", "OBSERVE",
};

/// ASCII case-insensitive comparison against an upper-case mnemonic.
bool equals_upper(std::string_view text, std::string_view upper) noexcept {
  if (text.size() != upper.size()) return false;
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if ((c >= 'a' && c <= 'z' ? static_cast<char>(c - 'a' + 'A') : c) !=
        upper[i]) {
      return false;
    }
  }
  return true;
}
}  // namespace

std::string_view cell_type_name(CellType type) noexcept {
  return kNames[static_cast<std::size_t>(type)];
}

bool parse_cell_type(std::string_view text, CellType& out) noexcept {
  // BUFF is a common alias in ISCAS .bench files.
  if (equals_upper(text, "BUFF")) {
    out = CellType::kBuf;
    return true;
  }
  for (std::size_t i = 0; i < kNames.size(); ++i) {
    if (equals_upper(text, kNames[i])) {
      out = static_cast<CellType>(i);
      return true;
    }
  }
  return false;
}

}  // namespace gcnt
