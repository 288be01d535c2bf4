// Plain-text table emitter for the benchmark harnesses.
//
// Every figure/table bench prints a human-readable aligned table with the
// paper's reference numbers next to ours.
#pragma once

#include <cstdio>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

namespace wlp {

class TextTable {
 public:
  explicit TextTable(std::vector<std::string> header) : header_(std::move(header)) {}

  /// Append a row; each cell is already formatted.
  void row(std::vector<std::string> cells) { rows_.push_back(std::move(cells)); }

  /// Convenience: format a double with fixed precision.
  static std::string num(double v, int precision = 2) {
    std::ostringstream os;
    os << std::fixed << std::setprecision(precision) << v;
    return os.str();
  }
  static std::string num(long v) { return std::to_string(v); }

  void print(std::ostream& os = std::cout) const {
    std::vector<std::size_t> width(header_.size());
    for (std::size_t c = 0; c < header_.size(); ++c) width[c] = header_[c].size();
    for (const auto& r : rows_)
      for (std::size_t c = 0; c < r.size() && c < width.size(); ++c)
        width[c] = std::max(width[c], r[c].size());

    auto rule = [&] {
      os << '+';
      for (auto w : width) os << std::string(w + 2, '-') << '+';
      os << '\n';
    };
    auto line = [&](const std::vector<std::string>& cells) {
      os << '|';
      for (std::size_t c = 0; c < width.size(); ++c) {
        const std::string& cell = c < cells.size() ? cells[c] : std::string{};
        os << ' ' << cell << std::string(width[c] - cell.size() + 1, ' ') << '|';
      }
      os << '\n';
    };

    rule();
    line(header_);
    rule();
    for (const auto& r : rows_) line(r);
    rule();
  }

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

/// Render a small ASCII speedup chart: one line per series point.
/// Used by the figure benches so the "shape" of each curve is visible in
/// plain terminal output.
inline void ascii_curve(std::ostream& os, const std::string& label,
                        const std::vector<int>& xs, const std::vector<double>& ys,
                        double y_max, int bar_width = 48) {
  os << label << '\n';
  for (std::size_t i = 0; i < xs.size() && i < ys.size(); ++i) {
    const int n = y_max > 0 ? static_cast<int>(ys[i] / y_max * bar_width + 0.5) : 0;
    std::ostringstream head;
    head << "  p=" << std::setw(3) << xs[i] << "  " << std::fixed << std::setprecision(2)
         << std::setw(6) << ys[i] << "  ";
    os << head.str() << std::string(static_cast<std::size_t>(std::max(n, 0)), '#') << '\n';
  }
}

}  // namespace wlp
