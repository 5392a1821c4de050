#include "signal/csv.h"

#include <fstream>
#include <stdexcept>

#include "core/text_writer.h"

namespace msim::sig {

std::string to_csv(const CsvTable& table) {
  core::TextWriter out;
  for (std::size_t i = 0; i < table.columns.size(); ++i) {
    if (i) out.add(',');
    out.add(table.columns[i]);
  }
  out.add('\n');
  for (const auto& row : table.rows) {
    for (std::size_t i = 0; i < row.size(); ++i) {
      if (i) out.add(',');
      out.num(row[i], 9);
    }
    out.add('\n');
  }
  return out.take();
}

void write_csv(const std::string& path, const CsvTable& table) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write CSV file: " + path);
  out << to_csv(table);
  if (!out) throw std::runtime_error("CSV write failed: " + path);
}

}  // namespace msim::sig
