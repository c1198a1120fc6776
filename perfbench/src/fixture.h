// Shared pieces of the three workloads: the run configuration, the result
// every workload fills, failure handling, and the data/template fixtures
// built from the CareWeb generator.
//
// A workload reports through Result: each metric by name with its unit,
// how many operations it attempted and how many failed, and whether its
// output checks held. main.cc turns that into the result line.

#ifndef PERFBENCH_FIXTURE_H_
#define PERFBENCH_FIXTURE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "careweb/generator.h"
#include "common/status.h"
#include "core/engine.h"
#include "core/ingest.h"
#include "core/instance.h"
#include "core/template.h"
#include "hostspeed.h"
#include "net/protocol.h"
#include "net/server.h"
#include "query/plan_cache.h"
#include "storage/database.h"
#include "trace.h"

namespace perfbench {

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory the run may write into (the durable store); created
  /// and removed by the caller.
  std::string work_dir;
  /// Where the traced run writes its spans; empty = not written.
  std::string trace_out;
  /// Audit worker threads: min(2, nproc).
  size_t threads = 1;
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

struct Result {
  std::map<std::string, Metric> metrics;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool correct = true;
  /// Provenance and sample-count lines printed before the result.
  std::vector<std::string> notes;

  void Set(const std::string& name, double value, const char* unit) {
    metrics[name] = Metric{value, unit};
  }
  /// Records a failed output check: every operation of the workload then
  /// counts as failed.
  void FailCheck(const std::string& what);
};

/// Thrown when a library call fails or a check cannot proceed; main reports
/// the workload as failed.
class BenchFailure : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

void Check(const eba::Status& status, const char* what);

template <typename T>
T Unwrap(eba::StatusOr<T> value, const char* what) {
  Check(value.status(), what);
  return std::move(value).value();
}

/// Peak resident set of the process so far, MB. Workloads read it after a
/// fixed part of the timed work, so that it covers the same work in every
/// run however many operations the host's speed allowed.
double PeakRssMb();

/// Reports the host-speed kernel's median over the run as host.kernel_ms,
/// with a note of its sample count, so that a slow host reads apart from
/// slow code.
void ReportHostSpeed(const HostSpeed& host, Result* result);

/// All spans of a run: one buffer per recording thread, each owned here so
/// they outlive the threads that filled them.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}
  SpanBuffer* NewBuffer();
  std::vector<const SpanBuffer*> buffers() const;

 private:
  bool enabled_;
  Clock::time_point epoch_;
  std::vector<std::unique_ptr<SpanBuffer>> buffers_;
};

/// Ends a traced run: reports each layer's self time per request
/// (`<layer>.self_ms`) and per set-up (`<layer>.setup_self_s`), root
/// coverage and tracing overhead, and writes the spans to `trace_out` unless
/// it is empty. `traced_ms`/`untraced_ms` are the main request's latencies
/// with spans on and off, interleaved within the same run.
void FinishTrace(const Tracer& tracer, const std::vector<double>& traced_ms,
                 const std::vector<double>& untraced_ms,
                 const std::string& trace_out, Result* result);

/// The 12 templates every auditing workload registers: the direct ones plus
/// repeat access (5) and data set B (7).
std::vector<eba::ExplanationTemplate> StreamTemplates(const eba::Database& db,
                                                      SpanBuffer* spans);

eba::CareWebData Generate(const eba::CareWebConfig& config, SpanBuffer* spans);

/// A 14-day hospital whose "LogStream" table holds days 1-7 of the log;
/// `backlog` holds the rows of days 8-14 in log order.
struct StreamData {
  eba::CareWebData data;
  std::vector<eba::Row> backlog;
  int lid_column = 0;
  double generate_s = 0.0;
  double slice_s = 0.0;
};
StreamData GenerateStream(int scale, uint64_t seed, SpanBuffer* spans);

/// An AuditServer over `auditor` on TCP loopback (eba::RealNetEnv()),
/// stopped on destruction. A host without loopback fails the run.
std::unique_ptr<eba::AuditServer> Serve(eba::StreamingAuditor* auditor,
                                        SpanBuffer* spans);

/// What the server encodes for a per-access Explain of these instances.
eba::ExplainResult ToExplainResult(
    const std::vector<eba::ExplanationInstance>& instances);

/// Microseconds to frame (EncodeFrame) and decode (DecodeExplainResult)
/// one of `payloads`, averaged over `rounds` passes.
double CodecMicros(const std::vector<std::string>& payloads, int rounds,
                   SpanBuffer* spans);

/// Attribution-only probe of the query layer: for every registered
/// template, an Executor over `snapshot` sharing the engine's plan cache
/// runs DistinctLids serially. Reports query.distinct_lids_s.<template>,
/// query.rows_emitted_per_lid.<template> and query.peak_intermediate_rows;
/// returns the per-template seconds.
std::vector<double> ProbeQueryLayer(const eba::ExplanationEngine& engine,
                                    const eba::Database::Snapshot& snapshot,
                                    SpanBuffer* spans, Result* result);

/// query.plan_cache.* from a PlanCache::stats() delta.
void ReportPlanCache(const eba::PlanCache::Stats& before,
                     const eba::PlanCache::Stats& after, size_t resident_bytes,
                     Result* result);

/// Reports `<prefix>_p50_ms` and `<prefix>_p99_ms` of `ms` (the latter is
/// the highest supported percentile; see HighestSupported) and notes the
/// sample counts behind them.
void ReportLatency(const std::string& prefix, const std::vector<double>& ms,
                   Result* result);

/// Each workload measures several hospitals per run, drawn from its seed,
/// so that the difference in cost between generated hospitals averages out
/// instead of reading as a change in the code. This is the most any
/// workload draws.
inline constexpr int kMaxHospitals = 16;
/// Generator seed of hospital `h` of the run with workload seed `seed`;
/// runs with different seeds share no hospital.
inline uint64_t HospitalSeed(uint64_t seed, int h) {
  return seed * kMaxHospitals + static_cast<uint64_t>(h);
}
/// Samples kept one group per hospital, for MeanOfMedians.
using PerHospital = std::vector<std::vector<double>>;

// The workloads.
void RunAuditFull(const RunConfig& config, Result* result);
void RunIngestDurable(const RunConfig& config, Result* result);
void RunMineTemplates(const RunConfig& config, Result* result);

}  // namespace perfbench

#endif  // PERFBENCH_FIXTURE_H_
