// Minimal fixed-width table printer for `powergraph_cli`'s list commands
// (scenarios, algorithms, weightings).
#pragma once

#include <iostream>
#include <string>
#include <vector>

namespace pg {

class Table {
 public:
  explicit Table(std::vector<std::string> headers)
      : headers_(std::move(headers)) {}

  /// Appends a row; each cell is already formatted.
  void add_row(std::vector<std::string> cells) {
    rows_.push_back(std::move(cells));
  }

  void print(std::ostream& out = std::cout) const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Formats a double with the given number of decimals.
std::string fmt(double value, int decimals = 3);

}  // namespace pg
