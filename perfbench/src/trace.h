// Span recording and the statistics the benchmark reports through.
//
// Spans are recorded by the benchmark around its calls into each library
// layer (the src/ modules), never inside the library. Each thread records
// into its own SpanBuffer; buffers are merged and written out when the run
// ends. A root span is one request (a batch, a served read, an audit call, a
// mining run, a recovery), one set-up (a root named "setup"), or one
// attribution-only probe (a root named "probe"); every span opened inside it
// shares its request id.
//
// A layer's self time is the duration of its spans minus the part of each
// span's interval that the span's children cover. It is reported per
// request and per set-up, so that it follows the cost of a request, not the
// length of the run.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}
inline double MsSince(Clock::time_point start) {
  return 1e3 * SecondsSince(start);
}

/// The library's modules (src/<name>) plus the benchmark's own code, which
/// owns the root spans.
enum class Layer : uint8_t {
  kBench,
  kCareweb,
  kGraph,
  kLog,
  kStorage,
  kQuery,
  kCore,
  kNet,
};
inline constexpr int kNumLayers = 8;
const char* LayerName(Layer layer);

struct Span {
  const char* name = "";  // static storage
  Layer layer = Layer::kBench;
  int64_t start_ns = 0;   // since the trace epoch
  int64_t end_ns = 0;
  int32_t parent = -1;    // index in the same buffer; -1 for a root
  uint32_t request = 0;
};

/// One thread's spans. Not thread-safe: every recording thread owns one.
/// A disabled buffer records nothing and reads no clock.
class SpanBuffer {
 public:
  SpanBuffer(bool enabled, Clock::time_point epoch, uint32_t thread_id);

  uint32_t thread_id() const { return thread_id_; }

  /// Opens a span under the innermost open span; a span opened with no open
  /// span is a root and starts a new request. Returns -1 when disabled.
  int Begin(const char* name, Layer layer);
  /// Closes span `id` (the innermost open one).
  void End(int id);

  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_;
  Clock::time_point epoch_;
  uint32_t thread_id_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span; a no-op on a disabled buffer.
class ScopedSpan {
 public:
  ScopedSpan(SpanBuffer* buffer, const char* name, Layer layer)
      : buffer_(buffer), id_(buffer->Begin(name, layer)) {}
  ~ScopedSpan() {
    if (id_ >= 0) buffer_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanBuffer* buffer_;
  int id_;
};

/// Self time (seconds) of every span of one buffer, in buffer order: its
/// duration minus the union of its children's intervals clipped to it.
std::vector<double> SelfSeconds(const std::vector<Span>& spans);

/// Layer attribution over a set of buffers. Spans under a "probe" root
/// count nowhere.
struct Attribution {
  /// Self time of each layer's spans under request roots, and their count.
  double request_self_seconds[kNumLayers] = {};
  size_t requests = 0;
  /// The same under "setup" roots.
  double setup_self_seconds[kNumLayers] = {};
  size_t setups = 0;
  /// Total duration of request roots, and the part of it the layer spans
  /// directly inside them cover.
  double root_seconds = 0.0;
  double covered_seconds = 0.0;
  double Coverage() const {
    return root_seconds > 0.0 ? covered_seconds / root_seconds : 0.0;
  }
  /// Self seconds of `layer` per request / per set-up; 0 with none.
  double PerRequest(int layer) const {
    return requests > 0 ? request_self_seconds[layer] /
                              static_cast<double>(requests)
                        : 0.0;
  }
  double PerSetup(int layer) const {
    return setups > 0 ? setup_self_seconds[layer] / static_cast<double>(setups)
                      : 0.0;
  }
};
Attribution Attribute(const std::vector<const SpanBuffer*>& buffers);
/// Adds one buffer's spans to `out`.
void AddAttribution(const std::vector<Span>& spans, Attribution* out);

/// Writes every span as one JSON object per line. Returns false on an I/O
/// error.
bool WriteSpans(const std::string& path,
                const std::vector<const SpanBuffer*>& buffers);

// --- Statistics -----------------------------------------------------------

double Median(std::vector<double> values);

/// The mean over groups of each group's median; empty groups are skipped.
/// A workload keeps one group per generated hospital, so that every
/// hospital weighs the same in its figure however many samples it gave.
double MeanOfMedians(const std::vector<std::vector<double>>& groups);

/// The highest percentile of the ladder 99.9, 99, 95, 90, 75, 50 that has at
/// least `min_beyond` samples strictly beyond its nearest-rank position.
/// With too few samples for any of them, the maximum (percentile 100,
/// nothing beyond).
struct Tail {
  double percentile = 0.0;
  double value = 0.0;
  size_t samples = 0;
  size_t beyond = 0;
};
Tail HighestSupported(std::vector<double> values, size_t min_beyond = 10);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
