#include "fixture.h"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>

#include "careweb/config.h"
#include "careweb/workload.h"
#include "log/access_log.h"
#include "net/frame.h"
#include "query/executor.h"

namespace perfbench {

using eba::CareWebConfig;
using eba::CareWebData;
using eba::Database;
using eba::ExplanationTemplate;

void Result::FailCheck(const std::string& what) {
  correct = false;
  notes.push_back("CHECK FAILED: " + what);
}

void Check(const eba::Status& status, const char* what) {
  if (!status.ok()) {
    throw BenchFailure(std::string(what) + ": " + status.ToString());
  }
}

double PeakRssMb() {
  struct rusage usage;
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void ReportHostSpeed(const HostSpeed& host, Result* result) {
  const double median = Median(host.samples_ms());
  result->Set("host.kernel_ms", median, "ms");
  char line[200];
  std::snprintf(line, sizeof line,
                "host speed: kernel median %.4f ms over %zu samples, "
                "reference %.4f ms; timings scaled to the reference",
                median, host.samples_ms().size(),
                HostSpeed::kReferenceKernelMs);
  result->notes.push_back(line);
}

SpanBuffer* Tracer::NewBuffer() {
  buffers_.push_back(std::make_unique<SpanBuffer>(
      enabled_, epoch_, static_cast<uint32_t>(buffers_.size())));
  return buffers_.back().get();
}

std::vector<const SpanBuffer*> Tracer::buffers() const {
  std::vector<const SpanBuffer*> out;
  for (const auto& buffer : buffers_) out.push_back(buffer.get());
  return out;
}

void FinishTrace(const Tracer& tracer, const std::vector<double>& traced_ms,
                 const std::vector<double>& untraced_ms,
                 const std::string& trace_out, Result* result) {
  const Attribution attribution = Attribute(tracer.buffers());
  for (int layer = 0; layer < kNumLayers; ++layer) {
    const std::string name = LayerName(static_cast<Layer>(layer));
    result->Set(name + ".self_ms", 1e3 * attribution.PerRequest(layer), "ms");
    result->Set(name + ".setup_self_s", attribution.PerSetup(layer), "s");
  }
  result->Set("trace.root_coverage", attribution.Coverage(), "ratio");
  const double untraced = Median(untraced_ms);
  const double overhead =
      untraced > 0.0 ? 100.0 * (Median(traced_ms) / untraced - 1.0) : 0.0;
  result->Set("trace.overhead_pct", overhead, "%");
  char line[200];
  std::snprintf(line, sizeof line,
                "tracing overhead: main request p50 %.4f ms traced (n=%zu) vs "
                "%.4f ms untraced (n=%zu); %zu traced requests, %zu set-ups",
                Median(traced_ms), traced_ms.size(), untraced,
                untraced_ms.size(), attribution.requests, attribution.setups);
  result->notes.push_back(line);
  if (!trace_out.empty() && !WriteSpans(trace_out, tracer.buffers())) {
    result->notes.push_back("could not write spans to " + trace_out);
  }
}

CareWebData Generate(const CareWebConfig& config, SpanBuffer* spans) {
  ScopedSpan span(spans, "careweb.generate", Layer::kCareweb);
  return Unwrap(eba::GenerateCareWeb(config), "generate");
}

std::vector<ExplanationTemplate> StreamTemplates(const Database& db,
                                                 SpanBuffer* spans) {
  ScopedSpan span(spans, "careweb.templates", Layer::kCareweb);
  std::vector<ExplanationTemplate> out =
      Unwrap(eba::TemplatesHandcraftedDirect(db, /*include_repeat=*/true),
             "direct templates");
  for (auto& tmpl : Unwrap(eba::TemplatesDataSetB(db), "data set B")) {
    out.push_back(std::move(tmpl));
  }
  return out;
}

StreamData GenerateStream(int scale, uint64_t seed, SpanBuffer* spans) {
  CareWebConfig config = CareWebConfig::Scaled(scale);
  config.num_days = 14;
  config.seed = seed;
  StreamData out;
  Clock::time_point start = Clock::now();
  out.data = Generate(config, spans);
  out.generate_s = SecondsSince(start);
  start = Clock::now();
  {
    ScopedSpan span(spans, "careweb.slice", Layer::kCareweb);
    (void)Unwrap(eba::AddLogSlice(&out.data.db, "Log", "LogStream", 1, 7,
                                  /*first_only=*/false),
                 "LogStream slice");
  }
  out.slice_s = SecondsSince(start);
  ScopedSpan span(spans, "log.backlog", Layer::kLog);
  const eba::Table* log =
      Unwrap(static_cast<const Database&>(out.data.db).GetTable("Log"),
             "log table");
  eba::AccessLog view = Unwrap(eba::AccessLog::Wrap(log), "wrap log");
  std::vector<size_t> seeded = view.RowsInDayRange(1, 7);
  std::sort(seeded.begin(), seeded.end());
  out.backlog.reserve(log->num_rows() - seeded.size());
  for (size_t r = 0; r < log->num_rows(); ++r) {
    if (!std::binary_search(seeded.begin(), seeded.end(), r)) {
      out.backlog.push_back(log->GetRow(r));
    }
  }
  out.lid_column = log->schema().ColumnIndex("Lid");
  return out;
}

std::unique_ptr<eba::AuditServer> Serve(eba::StreamingAuditor* auditor,
                                        SpanBuffer* spans) {
  ScopedSpan span(spans, "net.start", Layer::kNet);
  return Unwrap(eba::AuditServer::Start(auditor, eba::ServerOptions{}),
                "start server on TCP loopback");
}

eba::ExplainResult ToExplainResult(
    const std::vector<eba::ExplanationInstance>& instances) {
  eba::ExplainResult out;
  out.explained = !instances.empty();
  for (const auto& instance : instances) {
    out.template_names.push_back(instance.tmpl().name());
  }
  return out;
}

double CodecMicros(const std::vector<std::string>& payloads, int rounds,
                   SpanBuffer* spans) {
  if (payloads.empty()) return 0.0;
  size_t checksum = 0;
  const Clock::time_point start = Clock::now();
  for (int round = 0; round < rounds; ++round) {
    for (const std::string& payload : payloads) {
      ScopedSpan span(spans, "net.codec", Layer::kNet);
      checksum += eba::EncodeFrame(eba::kRespOk, payload).size();
      checksum += Unwrap(eba::DecodeExplainResult(payload), "decode")
                      .template_names.size();
    }
  }
  const double us = 1e6 * SecondsSince(start) /
                    static_cast<double>(static_cast<size_t>(rounds) *
                                        payloads.size());
  // The frames are built for their cost only; this keeps them observable.
  if (checksum == 0) throw BenchFailure("codec produced no bytes");
  return us;
}

std::vector<double> ProbeQueryLayer(const eba::ExplanationEngine& engine,
                                    const Database::Snapshot& snapshot,
                                    SpanBuffer* spans, Result* result) {
  eba::ExecutorOptions options;
  options.plan_cache = engine.plan_cache();
  std::vector<double> seconds;
  size_t peak_intermediate = 0;
  for (const ExplanationTemplate& tmpl : engine.templates()) {
    eba::Executor executor(snapshot, options);
    const Clock::time_point start = Clock::now();
    std::vector<int64_t> lids;
    {
      ScopedSpan span(spans, "query.distinct_lids", Layer::kQuery);
      lids = Unwrap(executor.DistinctLids(tmpl.query(), tmpl.lid_attr()),
                    "probe DistinctLids");
    }
    const double s = SecondsSince(start);
    seconds.push_back(s);
    const eba::ExecStats& stats = executor.last_stats();
    peak_intermediate = std::max(peak_intermediate, stats.peak_intermediate);
    result->Set("query.distinct_lids_s." + tmpl.name(), s, "s");
    result->Set("query.rows_emitted_per_lid." + tmpl.name(),
                lids.empty() ? 0.0
                             : static_cast<double>(stats.rows_emitted) /
                                   static_cast<double>(lids.size()),
                "ratio");
  }
  result->Set("query.peak_intermediate_rows",
              static_cast<double>(peak_intermediate), "count");
  return seconds;
}

void ReportPlanCache(const eba::PlanCache::Stats& before,
                     const eba::PlanCache::Stats& after, size_t resident_bytes,
                     Result* result) {
  const double hits = static_cast<double>(after.hits - before.hits);
  const double misses = static_cast<double>(after.misses - before.misses);
  result->Set("query.plan_cache.hits", hits, "count");
  result->Set("query.plan_cache.misses", misses, "count");
  result->Set("query.plan_cache.rebinds",
              static_cast<double>(after.rebinds - before.rebinds), "count");
  result->Set("query.plan_cache.invalidations",
              static_cast<double>(after.invalidations - before.invalidations),
              "count");
  result->Set("query.plan_cache.hit_rate",
              hits + misses > 0.0 ? hits / (hits + misses) : 0.0, "ratio");
  result->Set("query.plan_cache.resident_bytes",
              static_cast<double>(resident_bytes), "bytes");
}

void ReportLatency(const std::string& prefix, const std::vector<double>& ms,
                   Result* result) {
  const Tail tail = HighestSupported(ms);
  result->Set(prefix + "_p50_ms", Median(ms), "ms");
  result->Set(prefix + "_p99_ms", tail.value, "ms");
  char line[200];
  std::snprintf(line, sizeof line,
                "%s: n=%zu, p50 %.4f ms, tail = p%g %.4f ms (%zu samples "
                "beyond)",
                prefix.c_str(), ms.size(), Median(ms), tail.percentile,
                tail.value, tail.beyond);
  result->notes.push_back(line);
}

}  // namespace perfbench
