#include "storage/column.h"

#include <algorithm>
#include <cstring>

#include "common/logging.h"

namespace eba {

namespace {

void ZeroFlags(uint8_t* flags, size_t count) {
  std::fill_n(flags, count, uint8_t{0});
}

}  // namespace

Column::Column(DataType type)
    : type_(type), dict_mu_(std::make_unique<Mutex>()) {
  EBA_CHECK(type != DataType::kNull);
}

void Column::Reserve(size_t n) {
  if (type_ == DataType::kDouble) {
    doubles_.Reserve(n);
  } else {
    ints_.Reserve(n);
  }
}

void Column::AttachEpochManager(EpochManager* epochs) {
  ints_.SetEpochManager(epochs);
  doubles_.SetEpochManager(epochs);
  dict_.SetEpochManager(epochs);
  nulls_.SetEpochManager(epochs);
}

int64_t Column::InternString(const std::string& s) {
  MutexLock lock(*dict_mu_);
  auto it = dict_lookup_.find(s);
  if (it != dict_lookup_.end()) return it->second;
  int64_t code = static_cast<int64_t>(dict_.size());
  // The entry is published (dict_ release-stores its size) before the code
  // referencing it lands in the payload, so a reader that can see the cell
  // can always decode it.
  dict_.push_back(s);
  dict_lookup_.emplace(s, code);
  return code;
}

Status Column::Append(const Value& v) {
  if (v.is_null()) {
    AppendNull();
    return Status::OK();
  }
  if (v.type() != type_) {
    return Status::InvalidArgument(
        std::string("type mismatch: column is ") + DataTypeToString(type_) +
        ", value is " + DataTypeToString(v.type()));
  }
  switch (type_) {
    case DataType::kBool:
      AppendBool(v.AsBool());
      break;
    case DataType::kInt64:
      AppendInt64(v.AsInt64());
      break;
    case DataType::kDouble:
      AppendDouble(v.AsDouble());
      break;
    case DataType::kString:
      AppendString(v.AsString());
      break;
    case DataType::kTimestamp:
      AppendTimestamp(v.AsTimestamp());
      break;
    case DataType::kNull:
      break;  // unreachable
  }
  return Status::OK();
}

void Column::AppendInt64(int64_t v) {
  EBA_CHECK(type_ == DataType::kInt64);
  ints_.push_back(v);
  if (!nulls_.empty()) nulls_.push_back(0);
  size_.Publish(size_.LoadRelaxed() + 1);
}

void Column::AppendTimestamp(int64_t seconds) {
  EBA_CHECK(type_ == DataType::kTimestamp);
  ints_.push_back(seconds);
  if (!nulls_.empty()) nulls_.push_back(0);
  size_.Publish(size_.LoadRelaxed() + 1);
}

void Column::AppendBool(bool v) {
  EBA_CHECK(type_ == DataType::kBool);
  ints_.push_back(v ? 1 : 0);
  if (!nulls_.empty()) nulls_.push_back(0);
  size_.Publish(size_.LoadRelaxed() + 1);
}

void Column::AppendDouble(double v) {
  EBA_CHECK(type_ == DataType::kDouble);
  doubles_.push_back(v);
  if (!nulls_.empty()) nulls_.push_back(0);
  size_.Publish(size_.LoadRelaxed() + 1);
}

void Column::AppendString(const std::string& v) {
  EBA_CHECK(type_ == DataType::kString);
  ints_.push_back(InternString(v));
  if (!nulls_.empty()) nulls_.push_back(0);
  size_.Publish(size_.LoadRelaxed() + 1);
}

void Column::EnsureNullBitmap() {
  // One bulk append publishes the whole backfill, so a reader observing a
  // short (or empty) bitmap treats the uncovered rows as non-null, which
  // they are.
  if (nulls_.empty()) nulls_.AppendBulk(size_.LoadRelaxed(), ZeroFlags);
}

void Column::AppendNull() {
  EnsureNullBitmap();
  if (type_ == DataType::kDouble) {
    doubles_.push_back(0);
  } else {
    ints_.push_back(0);
  }
  nulls_.push_back(1);
  null_count_.Increment();
  size_.Publish(size_.LoadRelaxed() + 1);
}

Value Column::Get(size_t row) const {
  EBA_CHECK(row < size_.Load());
  if (IsNull(row)) return Value::Null();
  switch (type_) {
    case DataType::kBool:
      return Value::Bool(ints_[row] != 0);
    case DataType::kInt64:
      return Value::Int64(ints_[row]);
    case DataType::kDouble:
      return Value::Double(doubles_[row]);
    case DataType::kString:
      return Value::String(dict_[static_cast<size_t>(ints_[row])]);
    case DataType::kTimestamp:
      return Value::Timestamp(ints_[row]);
    case DataType::kNull:
      break;
  }
  return Value::Null();
}

void Column::MaterializeInto(const std::vector<uint32_t>& row_ids,
                             std::vector<Value>* out) const {
  EBA_CHECK(out != nullptr);
  out->reserve(out->size() + row_ids.size());
  for (uint32_t row : row_ids) out->push_back(Get(row));
}

// A chunk image is the in-memory payload byte for byte.
static_assert(__BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__,
              "checkpoint chunk images assume a little-endian host");

ColumnChunk Column::ExportChunk(size_t begin, size_t end,
                                size_t* dict_size) const {
  EBA_CHECK(begin < end && end <= size());
  EBA_CHECK(begin >> kColumnChunkShift == (end - 1) >> kColumnChunkShift);
  const auto bytes = [begin, end](const auto& payload) {
    std::string_view out;
    payload.ForEachSpan(begin, end, [&out](size_t, const auto* data,
                                           size_t count) {
      out = std::string_view(reinterpret_cast<const char*>(data),
                             count * sizeof(*data));
    });
    return out;
  };
  ColumnChunk chunk;
  chunk.values = type_ == DataType::kDouble ? bytes(doubles_) : bytes(ints_);
  if (!nulls_.empty()) {
    const std::string_view flags = bytes(nulls_);
    if (flags.find('\1') != std::string_view::npos) chunk.nulls = flags;
  }
  if (IsString()) {
    // Codes are assigned in first-use order, so the dictionary size at a
    // row is one past the largest code used before it.
    size_t next = *dict_size;
    for (size_t row = begin; row < end; ++row) {
      if (!IsNull(row)) {
        next = std::max(next, static_cast<size_t>(ints_[row]) + 1);
      }
    }
    for (size_t code = *dict_size; code < next; ++code) {
      chunk.dict.push_back(dict_[code]);
    }
    *dict_size = next;
  }
  return chunk;
}

Status Column::AppendChunk(const ColumnChunk& chunk) {
  const size_t n = chunk.values.size() / sizeof(int64_t);
  if (chunk.values.size() % sizeof(int64_t) != 0 ||
      (!chunk.nulls.empty() && chunk.nulls.size() != n)) {
    return Status::InvalidArgument("chunk image: " +
                                   std::to_string(chunk.values.size()) +
                                   " payload bytes for " +
                                   std::to_string(chunk.nulls.size()) +
                                   " null flags");
  }
  const uint64_t dict_size = dict_.size() + chunk.dict.size();
  uint64_t null_rows = 0;
  if (!chunk.nulls.empty() || IsString() || type_ == DataType::kBool) {
    for (size_t i = 0; i < n; ++i) {
      uint64_t slot = 0;
      std::memcpy(&slot, chunk.values.data() + i * sizeof(slot),
                  sizeof(slot));
      const char flag = chunk.nulls.empty() ? '\0' : chunk.nulls[i];
      bool valid = true;
      if (flag == '\1') {
        valid = slot == 0;
        ++null_rows;
      } else if (flag != '\0') {
        valid = false;
      } else if (type_ == DataType::kBool) {
        valid = slot <= 1;
      } else if (IsString()) {
        valid = slot < dict_size;
      }
      if (!valid) {
        return Status::InvalidArgument(
            std::string("chunk image: invalid ") + DataTypeToString(type_) +
            " slot " + std::to_string(slot) + " (null flag " +
            std::to_string(static_cast<int>(flag)) + ") at row " +
            std::to_string(i));
      }
    }
  }
  {
    MutexLock lock(*dict_mu_);
    for (const std::string_view entry : chunk.dict) {
      const int64_t code = static_cast<int64_t>(dict_.size());
      if (!dict_lookup_.emplace(std::string(entry), code).second) {
        return Status::InvalidArgument(
            "chunk image: dictionary entry '" + std::string(entry) +
            "' is already present");
      }
      dict_.push_back(std::string(entry));
    }
  }
  const char* src = chunk.values.data();
  const auto copy = [&src](auto* slots, size_t count) {
    std::memcpy(slots, src, count * sizeof(*slots));
    src += count * sizeof(*slots);
  };
  if (type_ == DataType::kDouble) {
    doubles_.AppendBulk(n, copy);
  } else {
    ints_.AppendBulk(n, copy);
  }
  if (!chunk.nulls.empty()) {
    EnsureNullBitmap();
    src = chunk.nulls.data();
    nulls_.AppendBulk(n, copy);
    null_count_.Add(null_rows);
  } else if (!nulls_.empty()) {
    nulls_.AppendBulk(n, ZeroFlags);
  }
  size_.Publish(size_.LoadRelaxed() + n);
  return Status::OK();
}

std::optional<int64_t> Column::FindStringCode(const std::string& s) const {
  MutexLock lock(*dict_mu_);
  auto it = dict_lookup_.find(s);
  if (it == dict_lookup_.end()) return std::nullopt;
  return it->second;
}

}  // namespace eba
