#include "common/csv.h"

#include <fstream>
#include <sstream>

namespace eba {

namespace {
bool NeedsQuoting(const std::string& field, char sep) {
  for (char c : field) {
    if (c == sep || c == '"' || c == '\n' || c == '\r') return true;
  }
  return false;
}
}  // namespace

std::string CsvEncodeRow(const std::vector<std::string>& fields, char sep) {
  std::string out;
  for (size_t i = 0; i < fields.size(); ++i) {
    if (i) out.push_back(sep);
    const std::string& f = fields[i];
    if (NeedsQuoting(f, sep)) {
      out.push_back('"');
      for (char c : f) {
        if (c == '"') out.push_back('"');
        out.push_back(c);
      }
      out.push_back('"');
    } else {
      out += f;
    }
  }
  return out;
}

StatusOr<std::vector<std::string>> CsvDecodeRow(const std::string& line,
                                                char sep) {
  std::vector<std::string> fields;
  std::string current;
  bool in_quotes = false;
  for (size_t i = 0; i < line.size(); ++i) {
    char c = line[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          current.push_back('"');
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        current.push_back(c);
      }
    } else if (c == '"') {
      if (!current.empty()) {
        return Status::InvalidArgument("unexpected quote mid-field: " + line);
      }
      in_quotes = true;
    } else if (c == sep) {
      fields.push_back(std::move(current));
      current.clear();
    } else if (c == '\r') {
      // Tolerate CRLF endings.
    } else {
      current.push_back(c);
    }
  }
  if (in_quotes) {
    return Status::InvalidArgument("unterminated quoted field: " + line);
  }
  fields.push_back(std::move(current));
  return fields;
}

StatusOr<std::vector<std::vector<std::string>>> CsvReadFile(
    const std::string& path, char sep) {
  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot open: " + path);
  std::vector<std::vector<std::string>> rows;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    EBA_ASSIGN_OR_RETURN(auto fields, CsvDecodeRow(line, sep));
    rows.push_back(std::move(fields));
  }
  return rows;
}

StatusOr<std::vector<std::vector<std::string>>> CsvParseString(
    const std::string& text, char sep) {
  std::istringstream in(text);
  std::vector<std::vector<std::string>> rows;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    EBA_ASSIGN_OR_RETURN(auto fields, CsvDecodeRow(line, sep));
    rows.push_back(std::move(fields));
  }
  return rows;
}

}  // namespace eba
