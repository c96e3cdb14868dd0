#include "util/table.hpp"

#include <algorithm>
#include <iomanip>
#include <sstream>

namespace pg {

void Table::print(std::ostream& out) const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c)
    widths[c] = headers_[c].size();
  for (const auto& row : rows_)
    for (std::size_t c = 0; c < row.size() && c < widths.size(); ++c)
      widths[c] = std::max(widths[c], row[c].size());

  auto print_row = [&](const std::vector<std::string>& cells) {
    out << "|";
    for (std::size_t c = 0; c < widths.size(); ++c) {
      const std::string& cell = c < cells.size() ? cells[c] : std::string{};
      out << ' ' << std::setw(static_cast<int>(widths[c])) << cell << " |";
    }
    out << '\n';
  };

  print_row(headers_);
  out << "|";
  for (std::size_t c = 0; c < widths.size(); ++c)
    out << std::string(widths[c] + 2, '-') << "|";
  out << '\n';
  for (const auto& row : rows_) print_row(row);
}

std::string fmt(double value, int decimals) {
  std::ostringstream out;
  out << std::fixed << std::setprecision(decimals) << value;
  return out.str();
}

}  // namespace pg
