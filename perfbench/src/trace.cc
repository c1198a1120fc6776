#include "trace.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <utility>

namespace perfbench {

namespace {

// Request ids are unique across every buffer of the process.
std::atomic<uint32_t> next_request{1};

}  // namespace

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kBench:
      return "bench";
    case Layer::kCareweb:
      return "careweb";
    case Layer::kGraph:
      return "graph";
    case Layer::kLog:
      return "log";
    case Layer::kStorage:
      return "storage";
    case Layer::kQuery:
      return "query";
    case Layer::kCore:
      return "core";
    case Layer::kNet:
      return "net";
  }
  return "unknown";
}

SpanBuffer::SpanBuffer(bool enabled, Clock::time_point epoch,
                       uint32_t thread_id)
    : enabled_(enabled), epoch_(epoch), thread_id_(thread_id) {
  if (enabled_) spans_.reserve(1 << 14);
}

int SpanBuffer::Begin(const char* name, Layer layer) {
  if (!enabled_) return -1;
  Span span;
  span.name = name;
  span.layer = layer;
  span.parent = open_.empty() ? -1 : open_.back();
  span.request = span.parent < 0
                     ? next_request.fetch_add(1, std::memory_order_relaxed)
                     : spans_[static_cast<size_t>(span.parent)].request;
  span.start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      Clock::now() - epoch_)
                      .count();
  spans_.push_back(span);
  const int id = static_cast<int>(spans_.size() - 1);
  open_.push_back(id);
  return id;
}

void SpanBuffer::End(int id) {
  spans_[static_cast<size_t>(id)].end_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           epoch_)
          .count();
  // Spans close innermost first; tolerate a stray id by unwinding to it.
  while (!open_.empty()) {
    const int top = open_.back();
    open_.pop_back();
    if (top == id) break;
  }
}

namespace {

/// Length of the union of `intervals` clipped to [lo, hi].
int64_t CoveredNs(std::vector<std::pair<int64_t, int64_t>> intervals,
                  int64_t lo, int64_t hi) {
  std::sort(intervals.begin(), intervals.end());
  int64_t covered = 0;
  int64_t cursor = lo;
  for (auto [start, end] : intervals) {
    start = std::max(start, cursor);
    end = std::min(end, hi);
    if (end <= start) continue;
    covered += end - start;
    cursor = end;
  }
  return covered;
}

std::vector<int64_t> CoveredByChildrenNs(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(spans.size());
  for (const Span& span : spans) {
    if (span.parent >= 0) {
      children[static_cast<size_t>(span.parent)].emplace_back(span.start_ns,
                                                              span.end_ns);
    }
  }
  std::vector<int64_t> covered(spans.size(), 0);
  for (size_t i = 0; i < spans.size(); ++i) {
    if (!children[i].empty()) {
      covered[i] = CoveredNs(std::move(children[i]), spans[i].start_ns,
                             spans[i].end_ns);
    }
  }
  return covered;
}

}  // namespace

std::vector<double> SelfSeconds(const std::vector<Span>& spans) {
  const std::vector<int64_t> covered = CoveredByChildrenNs(spans);
  std::vector<double> self(spans.size(), 0.0);
  for (size_t i = 0; i < spans.size(); ++i) {
    const int64_t duration = spans[i].end_ns - spans[i].start_ns;
    self[i] = 1e-9 * static_cast<double>(std::max<int64_t>(
                         0, duration - covered[i]));
  }
  return self;
}

void AddAttribution(const std::vector<Span>& spans, Attribution* out) {
  enum Kind { kRequest, kSetup, kProbe };
  const std::vector<double> self = SelfSeconds(spans);
  const std::vector<int64_t> covered = CoveredByChildrenNs(spans);
  // A parent precedes its children in the buffer, so one pass finds the
  // kind of every span's root.
  std::vector<Kind> kind(spans.size(), kRequest);
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    if (span.parent >= 0) {
      kind[i] = kind[static_cast<size_t>(span.parent)];
      continue;
    }
    const std::string name = span.name;
    kind[i] = name == "setup" ? kSetup : name == "probe" ? kProbe : kRequest;
    if (kind[i] == kSetup) ++out->setups;
    if (kind[i] != kRequest) continue;
    ++out->requests;
    out->root_seconds += 1e-9 * static_cast<double>(span.end_ns - span.start_ns);
    out->covered_seconds += 1e-9 * static_cast<double>(covered[i]);
  }
  for (size_t i = 0; i < spans.size(); ++i) {
    const int layer = static_cast<int>(spans[i].layer);
    if (kind[i] == kRequest) out->request_self_seconds[layer] += self[i];
    if (kind[i] == kSetup) out->setup_self_seconds[layer] += self[i];
  }
}

Attribution Attribute(const std::vector<const SpanBuffer*>& buffers) {
  Attribution out;
  for (const SpanBuffer* buffer : buffers) AddAttribution(buffer->spans(), &out);
  return out;
}

bool WriteSpans(const std::string& path,
                const std::vector<const SpanBuffer*>& buffers) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const SpanBuffer* buffer : buffers) {
    const std::vector<Span>& spans = buffer->spans();
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      std::fprintf(f,
                   "{\"thread\": %u, \"id\": %zu, \"parent\": %d, "
                   "\"request\": %u, \"layer\": \"%s\", \"name\": \"%s\", "
                   "\"start_ns\": %lld, \"end_ns\": %lld}\n",
                   buffer->thread_id(), i, s.parent, s.request,
                   LayerName(s.layer), s.name,
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns));
    }
  }
  return std::fclose(f) == 0;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double MeanOfMedians(const std::vector<std::vector<double>>& groups) {
  double sum = 0.0;
  size_t n = 0;
  for (const std::vector<double>& group : groups) {
    if (group.empty()) continue;
    sum += Median(group);
    ++n;
  }
  return n > 0 ? sum / static_cast<double>(n) : 0.0;
}

namespace {

/// 0-based nearest-rank index of quantile q among n sorted samples.
size_t RankIndex(size_t n, double q) {
  const double rank = std::ceil(q * static_cast<double>(n) - 1e-9);
  const size_t index = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return std::min(index, n - 1);
}

}  // namespace

Tail HighestSupported(std::vector<double> values, size_t min_beyond) {
  Tail tail;
  tail.samples = values.size();
  if (values.empty()) return tail;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  for (double pct : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
    const size_t index = RankIndex(n, pct / 100.0);
    const size_t beyond = n - 1 - index;
    if (beyond >= min_beyond) {
      tail.percentile = pct;
      tail.value = values[index];
      tail.beyond = beyond;
      return tail;
    }
  }
  tail.percentile = 100.0;
  tail.value = values.back();
  tail.beyond = 0;
  return tail;
}

}  // namespace perfbench
