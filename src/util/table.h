#pragma once
// ASCII table rendering for the benchmark harnesses.
//
// Every bench binary regenerates one of the paper's tables/figures; this
// printer produces aligned, monospace tables so the bench output can be
// compared side by side with the paper (EXPERIMENTS.md records both).

#include <string>
#include <vector>

namespace bkc {

/// Column-aligned ASCII table. Cells are strings; numeric helpers format
/// with fixed precision so table rows line up.
class Table {
 public:
  /// Create a table with the given column headers.
  explicit Table(std::vector<std::string> headers);

  /// Start a new row. Cells are appended with add(); missing trailing
  /// cells render empty.
  Table& row();

  /// Append a cell to the current row. Precondition: row() was called.
  Table& add(std::string cell);
  Table& add(const char* cell);
  /// Fixed-precision numeric cell (default 2 decimal places).
  Table& add(double value, int precision = 2);
  Table& add(std::int64_t value);
  Table& add(std::uint64_t value);
  Table& add(int value);

  /// Render with a header rule and column padding.
  std::string to_string() const;

  /// Render and write to stdout with a title line above.
  void print(const std::string& title) const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Format helper: "1.32x"-style ratio string.
std::string ratio_str(double value, int precision = 2);

/// Format helper: percentage with one decimal, e.g. "46.0%".
std::string percent_str(double fraction, int precision = 1);

/// Format helper: human-readable bit count, e.g. "25.11 Mbit".
std::string bits_str(std::uint64_t bits);

}  // namespace bkc
