// Minimal RFC-4180-ish CSV reader/writer used to export tables and
// experiment results. Quoting: fields containing the separator, a quote, or
// a newline are double-quoted with embedded quotes doubled.

#ifndef EBA_COMMON_CSV_H_
#define EBA_COMMON_CSV_H_

#include <string>
#include <vector>

#include "common/status.h"

namespace eba {

/// Serializes one row (adds no trailing newline).
std::string CsvEncodeRow(const std::vector<std::string>& fields,
                         char sep = ',');

/// Parses one physical CSV record (no embedded newlines supported here;
/// table I/O writes one record per line).
StatusOr<std::vector<std::string>> CsvDecodeRow(const std::string& line,
                                                char sep = ',');

/// Reads all records from a file.
StatusOr<std::vector<std::vector<std::string>>> CsvReadFile(
    const std::string& path, char sep = ',');

/// Parses all records from in-memory CSV text (one record per line, as
/// CsvEncodeRow writes them). Blank lines are skipped.
StatusOr<std::vector<std::vector<std::string>>> CsvParseString(
    const std::string& text, char sep = ',');

}  // namespace eba

#endif  // EBA_COMMON_CSV_H_
