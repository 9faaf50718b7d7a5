#include "table.hh"

#include <algorithm>
#include <iomanip>
#include <sstream>

#include "logging.hh"

namespace printed
{

TableWriter::TableWriter(std::vector<std::string> headers)
    : headers_(std::move(headers))
{
    fatalIf(headers_.empty(), "TableWriter: need at least one column");
}

void
TableWriter::addRow(std::vector<std::string> cells)
{
    if (cells.size() != headers_.size())
        fatal("TableWriter: row has " + std::to_string(cells.size()) +
              " cells, expected " + std::to_string(headers_.size()));
    rows_.push_back(std::move(cells));
}

void
TableWriter::print(std::ostream &os) const
{
    std::vector<std::size_t> widths(headers_.size());
    for (std::size_t c = 0; c < headers_.size(); ++c)
        widths[c] = headers_[c].size();
    for (const auto &row : rows_)
        for (std::size_t c = 0; c < row.size(); ++c)
            widths[c] = std::max(widths[c], row[c].size());

    auto print_row = [&](const std::vector<std::string> &row) {
        os << "|";
        for (std::size_t c = 0; c < row.size(); ++c)
            os << " " << std::left << std::setw(int(widths[c]))
               << row[c] << " |";
        os << "\n";
    };

    print_row(headers_);
    os << "|";
    for (std::size_t c = 0; c < headers_.size(); ++c)
        os << std::string(widths[c] + 2, '-') << "|";
    os << "\n";
    for (const auto &row : rows_)
        print_row(row);
}

std::string
TableWriter::num(double value, int precision)
{
    std::ostringstream ss;
    ss << std::setprecision(precision) << value;
    return ss.str();
}

std::string
TableWriter::fixed(double value, int decimals)
{
    std::ostringstream ss;
    ss << std::fixed << std::setprecision(decimals) << value;
    return ss.str();
}

} // namespace printed
