#include "net/protocol.h"

#include <algorithm>

#include "storage/wal.h"

namespace eba {

namespace {

void PutSizeVec(std::string* out, const std::vector<size_t>& v) {
  PutU32(out, static_cast<uint32_t>(v.size()));
  for (const size_t x : v) PutU64(out, static_cast<uint64_t>(x));
}

void PutLidVec(std::string* out, const std::vector<int64_t>& v) {
  PutU32(out, static_cast<uint32_t>(v.size()));
  for (const int64_t x : v) PutU64(out, static_cast<uint64_t>(x));
}

bool GetSizeVec(ByteReader* in, std::vector<size_t>* v) {
  uint32_t n = 0;
  if (!in->GetU32(&n)) return false;
  if (uint64_t{n} * 8 > in->remaining()) return false;  // bogus count
  v->resize(n);
  for (uint32_t i = 0; i < n; ++i) {
    uint64_t x = 0;
    if (!in->GetU64(&x)) return false;
    (*v)[i] = static_cast<size_t>(x);
  }
  return true;
}

bool GetLidVec(ByteReader* in, std::vector<int64_t>* v) {
  uint32_t n = 0;
  if (!in->GetU32(&n)) return false;
  if (uint64_t{n} * 8 > in->remaining()) return false;
  v->resize(n);
  for (uint32_t i = 0; i < n; ++i) {
    uint64_t x = 0;
    if (!in->GetU64(&x)) return false;
    (*v)[i] = static_cast<int64_t>(x);
  }
  return true;
}

Status Malformed(const char* what) {
  return Status::InvalidArgument(std::string("malformed ") + what +
                                 " payload");
}

constexpr uint32_t kReportVersion = 1;

}  // namespace

std::string EncodeError(const ErrorBody& error) {
  std::string out;
  out.push_back(static_cast<char>(error.code));
  out.push_back(static_cast<char>(error.retryable ? 1 : 0));
  PutU32(&out, static_cast<uint32_t>(error.message.size()));
  out.append(error.message);
  return out;
}

StatusOr<ErrorBody> DecodeError(std::string_view payload) {
  ByteReader in(payload);
  ErrorBody error;
  uint8_t retryable = 0;
  uint32_t len = 0;
  std::string_view msg;
  if (!in.GetU8(&error.code) || !in.GetU8(&retryable) || !in.GetU32(&len) ||
      !in.GetBytes(len, &msg) || !in.AtEnd()) {
    return Malformed("error");
  }
  error.retryable = retryable != 0;
  error.message.assign(msg);
  return error;
}

std::string EncodeLid(int64_t lid) {
  std::string out;
  PutU64(&out, static_cast<uint64_t>(lid));
  return out;
}

StatusOr<int64_t> DecodeLid(std::string_view payload) {
  ByteReader in(payload);
  uint64_t v = 0;
  if (!in.GetU64(&v) || !in.AtEnd()) return Malformed("lid");
  return static_cast<int64_t>(v);
}

std::string EncodeStreamingReport(const StreamingReport& report) {
  std::string out;
  PutU32(&out, kReportVersion);
  PutU64(&out, report.audited_from);
  PutU64(&out, report.audited_to);
  out.push_back(static_cast<char>(report.full_reaudit ? 1 : 0));
  PutSizeVec(&out, report.per_template_counts);
  PutLidVec(&out, report.explained_lids);
  PutLidVec(&out, report.unexplained_lids);
  PutLidVec(&out, report.delta_explained_lids);
  PutSizeVec(&out, report.per_template_delta_counts);
  PutU64(&out, report.delta_tables);
  PutU64(&out, report.delta_queries);
  return out;
}

StatusOr<StreamingReport> DecodeStreamingReport(std::string_view payload) {
  ByteReader in(payload);
  uint32_t version = 0;
  if (!in.GetU32(&version)) return Malformed("report");
  if (version != kReportVersion) {
    return Status::InvalidArgument("unsupported report version " +
                                   std::to_string(version));
  }
  StreamingReport report;
  uint64_t from = 0;
  uint64_t to = 0;
  uint8_t full = 0;
  uint64_t delta_tables = 0;
  uint64_t delta_queries = 0;
  if (!in.GetU64(&from) || !in.GetU64(&to) || !in.GetU8(&full) ||
      !GetSizeVec(&in, &report.per_template_counts) ||
      !GetLidVec(&in, &report.explained_lids) ||
      !GetLidVec(&in, &report.unexplained_lids) ||
      !GetLidVec(&in, &report.delta_explained_lids) ||
      !GetSizeVec(&in, &report.per_template_delta_counts) ||
      !in.GetU64(&delta_tables) || !in.GetU64(&delta_queries) ||
      !in.AtEnd()) {
    return Malformed("report");
  }
  report.audited_from = static_cast<size_t>(from);
  report.audited_to = static_cast<size_t>(to);
  report.full_reaudit = full != 0;
  report.delta_tables = static_cast<size_t>(delta_tables);
  report.delta_queries = static_cast<size_t>(delta_queries);
  return report;
}

std::string EncodeExplainResult(const ExplainResult& result) {
  std::string out;
  out.push_back(static_cast<char>(result.explained ? 1 : 0));
  PutU32(&out, static_cast<uint32_t>(result.template_names.size()));
  for (const std::string& name : result.template_names) {
    PutU32(&out, static_cast<uint32_t>(name.size()));
    out.append(name);
  }
  return out;
}

StatusOr<ExplainResult> DecodeExplainResult(std::string_view payload) {
  ByteReader in(payload);
  ExplainResult result;
  uint8_t explained = 0;
  uint32_t n = 0;
  if (!in.GetU8(&explained) || !in.GetU32(&n)) return Malformed("explain");
  result.explained = explained != 0;
  result.template_names.reserve(std::min<size_t>(n, 4096));
  for (uint32_t i = 0; i < n; ++i) {
    uint32_t len = 0;
    std::string_view name;
    if (!in.GetU32(&len) || !in.GetBytes(len, &name)) {
      return Malformed("explain");
    }
    result.template_names.emplace_back(name);
  }
  if (!in.AtEnd()) return Malformed("explain");
  return result;
}

std::string EncodeServerReport(const ServerReport& report) {
  std::string out;
  const uint64_t fields[] = {
      report.rows_appended,      report.batches_appended,
      report.foreign_rows_appended, report.audited_rows,
      report.explained_count,    report.requests_served,
      report.appends_rejected_busy, report.connections_accepted,
  };
  PutU32(&out, static_cast<uint32_t>(sizeof(fields) / sizeof(fields[0])));
  for (const uint64_t v : fields) PutU64(&out, v);
  return out;
}

StatusOr<ServerReport> DecodeServerReport(std::string_view payload) {
  ByteReader in(payload);
  uint32_t n = 0;
  if (!in.GetU32(&n)) return Malformed("server report");
  ServerReport report;
  uint64_t* fields[] = {
      &report.rows_appended,      &report.batches_appended,
      &report.foreign_rows_appended, &report.audited_rows,
      &report.explained_count,    &report.requests_served,
      &report.appends_rejected_busy, &report.connections_accepted,
  };
  const size_t known = sizeof(fields) / sizeof(fields[0]);
  if (n < known) return Malformed("server report");
  for (size_t i = 0; i < n; ++i) {
    uint64_t v = 0;
    if (!in.GetU64(&v)) return Malformed("server report");
    // A newer server may append fields; decode the ones this build knows.
    if (i < known) *fields[i] = v;
  }
  if (!in.AtEnd()) return Malformed("server report");
  return report;
}

}  // namespace eba
