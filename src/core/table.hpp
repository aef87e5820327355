/**
 * @file
 * Plain-text table and series rendering for the experiments, so every
 * reproduced table/figure prints in a shape directly comparable to the
 * paper.
 */

#ifndef LRULEAK_CORE_TABLE_HPP
#define LRULEAK_CORE_TABLE_HPP

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace lruleak::core {

/** Column-aligned ASCII table. */
class Table
{
  public:
    explicit Table(std::vector<std::string> header)
        : header_(std::move(header))
    {}

    /** Append a row; short rows are padded with empty cells. */
    void addRow(std::vector<std::string> row);

    /** Render with a separator under the header. */
    void print(std::ostream &os) const;

    std::size_t rows() const { return rows_.size(); }

    /** Structured access for the machine-readable ResultSink emitters. */
    const std::vector<std::string> &headerCells() const { return header_; }
    const std::vector<std::vector<std::string>> &rowCells() const
    {
        return rows_;
    }

  private:
    std::vector<std::string> header_;
    std::vector<std::vector<std::string>> rows_;
};

/** Format helpers used throughout the benches. */
std::string fmtDouble(double v, int precision = 2);
std::string fmtPercent(double fraction, int precision = 1);
std::string fmtKbps(double kbps);

/**
 * One-line unicode sparkline of a series (e.g. a latency trace), plus a
 * multi-row ASCII chart for figure-style output.
 */
std::string sparkline(const std::vector<double> &values);
std::string asciiChart(const std::vector<double> &values,
                       std::size_t height = 8, std::size_t max_width = 100);

} // namespace lruleak::core

#endif // LRULEAK_CORE_TABLE_HPP
