// bench_scaling: multicore scaling curves over a streamed workload
// scale-out. Sweeps the Scaled(factor) hospital generator (factor 1 is the
// ~18k-row Small log; 100 lands near 1.8M rows; 1000 near 18M) and times
// the two audit entry points at increasing worker counts:
//
//   - ExplainAll        — full-log coverage (misuse detection, §1),
//   - ExplainNew        — the streaming new-lid audit, re-run from row 0 so
//                         the lid-sharded incremental path sees the whole
//                         log as one delta.
//
//   ./bench_scaling [--smoke] [--factors=1,100,1000] [--threads=1,2,4]
//                   [--require_speedup=X] [--json[=PATH]]
//                                         (default PATH BENCH_scaling.json)
//
// --smoke restricts the sweep to factors {1,10} — the CI shape: fast, but
// factor 10 (~180k rows) is large enough for the fan-out to beat its
// overhead. Each cell below factor 100 is the minimum of 3 runs, so a
// speedup is not one run's scheduling. --require_speedup=X additionally
// fails the run unless 4-thread ExplainAll reaches X times the 1-thread
// time on the largest factor swept; on a machine with fewer than 4 cores
// the gate is skipped with a notice (the curves are still recorded). The
// equivalence self-check — reports byte-identical across all thread
// counts, and the from-zero ExplainNew matching ExplainAll — always gates
// the exit status.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include <sys/resource.h>

#include "bench/bench_machine.h"
#include "bench/bench_util.h"
#include "careweb/generator.h"
#include "careweb/workload.h"
#include "common/thread_pool.h"
#include "core/engine.h"
#include "core/ingest.h"
#include "storage/database.h"

namespace eba {
namespace {

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Peak resident set of this process in MiB (the bounded-memory evidence
/// for the streamed 18M-row generation: the sweep's peak is recorded in
/// the JSON next to the row counts it was reached at).
double MaxRssMb() {
  struct rusage usage;
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// One operation (ExplainAll or ExplainNew) at one thread count.
struct TimedRun {
  size_t threads = 0;
  double seconds = 0.0;
};

struct FactorResult {
  int factor = 0;
  size_t log_rows = 0;
  double generate_seconds = 0.0;
  double coverage = 0.0;
  bool identical_across_threads = true;
  std::vector<TimedRun> explain_all;
  std::vector<TimedRun> explain_new;
};

bool SameReport(const ExplanationReport& a, const ExplanationReport& b) {
  return a.log_size == b.log_size &&
         a.per_template_counts == b.per_template_counts &&
         a.explained_lids == b.explained_lids &&
         a.unexplained_lids == b.unexplained_lids;
}

/// Times `fn` (min over `iters` runs — large factors pass 1, so a sweep's
/// cost stays one run per cell).
template <typename Fn>
double MinSeconds(int iters, Fn&& fn) {
  double best = 0.0;
  for (int i = 0; i < iters; ++i) {
    const double t0 = Now();
    fn();
    const double s = Now() - t0;
    if (i == 0 || s < best) best = s;
  }
  return best;
}

FactorResult RunFactor(int factor, const std::vector<size_t>& thread_counts) {
  FactorResult result;
  result.factor = factor;

  std::printf("\n--- scale factor %d ---\n", factor);
  const double gen0 = Now();
  CareWebData data =
      bench::Unwrap(GenerateCareWeb(CareWebConfig::Scaled(factor)));
  result.generate_seconds = Now() - gen0;
  const Table* log = bench::Unwrap(data.db.GetTable("Log"));
  result.log_rows = log->num_rows();
  std::printf("generated %zu access rows in %.2f s (%.0f rows/s), "
              "peak RSS %.0f MiB\n",
              result.log_rows, result.generate_seconds,
              static_cast<double>(result.log_rows) / result.generate_seconds,
              MaxRssMb());

  auto engine = bench::Unwrap(ExplanationEngine::Create(&data.db, "Log"));
  auto templates =
      bench::Unwrap(TemplatesHandcraftedDirect(data.db, /*use_groups=*/true));
  for (const auto& tmpl : templates) {
    bench::Check(engine.AddTemplate(tmpl));
  }

  // Small factors re-run a few times and keep the minimum; at factor >= 100
  // one run is already seconds long and repeat noise is irrelevant.
  const int iters = factor >= 100 ? 1 : 3;

  ExplanationReport reference;
  for (size_t t = 0; t < thread_counts.size(); ++t) {
    ExplainAllOptions options;
    options.num_threads = thread_counts[t];
    ExplanationReport report;
    const double s = MinSeconds(iters, [&] {
      report = bench::Unwrap(engine.ExplainAll(options));
    });
    result.explain_all.push_back(TimedRun{thread_counts[t], s});
    if (t == 0) {
      reference = report;
      result.coverage = report.Coverage();
    } else if (!SameReport(reference, report)) {
      result.identical_across_threads = false;
    }
    std::printf("ExplainAll  threads=%zu : %8.3f s (%.0f rows/s, %.2fx)\n",
                thread_counts[t], s,
                static_cast<double>(result.log_rows) / s,
                result.explain_all[0].seconds / s);
  }

  // Streaming path: ResetAudit rewinds the audited watermark to row 0 (the
  // catalog snapshot is untouched, so no foreign-table delta pass runs) and
  // ExplainNew audits the entire log as new lids through the lid-sharded
  // incremental machinery.
  auto auditor = bench::Unwrap(StreamingAuditor::Create(&data.db, "Log"));
  for (const auto& tmpl : templates) {
    bench::Check(auditor.AddTemplate(tmpl));
  }
  for (size_t t = 0; t < thread_counts.size(); ++t) {
    StreamingOptions options;
    options.num_threads = thread_counts[t];
    StreamingReport report;
    const double s = MinSeconds(iters, [&] {
      auditor.ResetAudit();
      report = bench::Unwrap(auditor.ExplainNew(options));
    });
    result.explain_new.push_back(TimedRun{thread_counts[t], s});
    if (report.explained_lids != reference.explained_lids ||
        report.unexplained_lids != reference.unexplained_lids) {
      result.identical_across_threads = false;
    }
    std::printf("ExplainNew  threads=%zu : %8.3f s (%.0f rows/s, %.2fx)\n",
                thread_counts[t], s,
                static_cast<double>(result.log_rows) / s,
                result.explain_new[0].seconds / s);
  }

  std::printf("coverage %.4f, reports %s across thread counts\n",
              result.coverage,
              result.identical_across_threads ? "identical" : "DIVERGE");
  return result;
}

void WriteCurveJson(std::FILE* f, const char* name,
                    const std::vector<TimedRun>& runs, size_t log_rows,
                    const char* pad) {
  std::fprintf(f, "%s\"%s\": {\n", pad, name);
  for (size_t t = 0; t < runs.size(); ++t) {
    std::fprintf(f,
                 "%s  \"threads_%zu\": {\"seconds\": %.6f, "
                 "\"rows_per_second\": %.0f, \"speedup_vs_1_thread\": "
                 "%.2f}%s\n",
                 pad, runs[t].threads, runs[t].seconds,
                 static_cast<double>(log_rows) / runs[t].seconds,
                 runs[0].seconds / runs[t].seconds,
                 t + 1 == runs.size() ? "" : ",");
  }
  std::fprintf(f, "%s}", pad);
}

double SpeedupAtThreads(const std::vector<TimedRun>& runs, size_t threads) {
  for (const TimedRun& run : runs) {
    if (run.threads == threads) return runs[0].seconds / run.seconds;
  }
  return 0.0;
}

std::vector<size_t> ParseSizeList(const char* s) {
  std::vector<size_t> out;
  while (*s != '\0') {
    char* end = nullptr;
    const unsigned long v = std::strtoul(s, &end, 10);
    if (end == s) break;
    out.push_back(static_cast<size_t>(v));
    s = *end == ',' ? end + 1 : end;
  }
  return out;
}

}  // namespace
}  // namespace eba

int main(int argc, char** argv) {
  using namespace eba;  // NOLINT
  bool smoke = false;
  bool write_json = false;
  std::string json_path = "BENCH_scaling.json";
  double require_speedup = 0.0;
  std::vector<size_t> factors;
  std::vector<size_t> thread_counts;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strncmp(argv[i], "--factors=", 10) == 0) {
      factors = ParseSizeList(argv[i] + 10);
    } else if (std::strncmp(argv[i], "--threads=", 10) == 0) {
      thread_counts = ParseSizeList(argv[i] + 10);
    } else if (std::strncmp(argv[i], "--require_speedup=", 18) == 0) {
      require_speedup = std::atof(argv[i] + 18);
    } else if (std::strcmp(argv[i], "--json") == 0) {
      write_json = true;
    } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
      write_json = true;
      json_path = argv[i] + 7;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      return 2;
    }
  }
  if (factors.empty()) {
    factors = smoke ? std::vector<size_t>{1, 10}
                    : std::vector<size_t>{1, 100, 1000};
  }
  if (thread_counts.empty()) {
    thread_counts = {1, 2, 4};
    if (HardwareThreads() > 4) thread_counts.push_back(HardwareThreads());
  }
  std::sort(thread_counts.begin(), thread_counts.end());
  thread_counts.erase(
      std::unique(thread_counts.begin(), thread_counts.end()),
      thread_counts.end());

  std::printf("bench_scaling: factors {");
  for (size_t i = 0; i < factors.size(); ++i) {
    std::printf("%s%zu", i == 0 ? "" : ",", factors[i]);
  }
  std::printf("} x threads {");
  for (size_t i = 0; i < thread_counts.size(); ++i) {
    std::printf("%s%zu", i == 0 ? "" : ",", thread_counts[i]);
  }
  std::printf("} on %zu core(s)\n", HardwareThreads());

  std::vector<FactorResult> results;
  for (size_t factor : factors) {
    results.push_back(RunFactor(static_cast<int>(factor), thread_counts));
  }
  const double max_rss_mb = MaxRssMb();
  std::printf("\npeak RSS across the sweep: %.0f MiB\n", max_rss_mb);

  bool all_identical = true;
  for (const FactorResult& r : results) {
    all_identical = all_identical && r.identical_across_threads;
  }
  const FactorResult& largest = results.back();
  const double gate_speedup = SpeedupAtThreads(largest.explain_all, 4);

  if (write_json) {
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open %s for writing\n", json_path.c_str());
      return 1;
    }
    std::fprintf(f, "{\n");
    std::fprintf(f, "  \"generated_by\": \"bench_scaling\",\n");
    std::fprintf(f, "  \"smoke\": %s,\n", smoke ? "true" : "false");
    bench::WriteMachineJson(f, "  ");
    std::fprintf(f, "  \"max_rss_mb\": %.0f,\n", max_rss_mb);
    std::fprintf(f, "  \"benchmarks\": {\n");
    std::fprintf(f, "    \"scaling\": {\n");
    for (size_t i = 0; i < results.size(); ++i) {
      const FactorResult& r = results[i];
      std::fprintf(f, "      \"factor_%d\": {\n", r.factor);
      std::fprintf(f, "        \"scale_factor\": %d,\n", r.factor);
      std::fprintf(f, "        \"log_rows\": %zu,\n", r.log_rows);
      std::fprintf(f, "        \"generate_seconds\": %.3f,\n",
                   r.generate_seconds);
      std::fprintf(f, "        \"generate_rows_per_second\": %.0f,\n",
                   static_cast<double>(r.log_rows) / r.generate_seconds);
      std::fprintf(f, "        \"coverage\": %.6f,\n", r.coverage);
      WriteCurveJson(f, "explain_all", r.explain_all, r.log_rows, "        ");
      std::fprintf(f, ",\n");
      WriteCurveJson(f, "explain_new", r.explain_new, r.log_rows, "        ");
      std::fprintf(f, "\n      }%s\n", i + 1 == results.size() ? "" : ",");
    }
    std::fprintf(f, "    },\n");
    // The summary keys are the gate surface shared by smoke and full runs:
    // coverage of the base factor is a deterministic workload property, the
    // equivalence boolean must stay true, and the mid-size 4-thread speedup
    // is the headline curve point (relative-gated only when the committed
    // baseline itself shows headroom; see compare_bench.py).
    std::fprintf(f, "    \"scaling_summary\": {\n");
    std::fprintf(f, "      \"explain_all_coverage\": %.6f,\n",
                 results.front().coverage);
    std::fprintf(f, "      \"speedup_threads_4_vs_1\": %.2f,\n", gate_speedup);
    std::fprintf(f, "      \"matches_full_explain_all\": %s\n",
                 all_identical ? "true" : "false");
    std::fprintf(f, "    }\n");
    std::fprintf(f, "  }\n}\n");
    std::fclose(f);
    std::printf("wrote %s\n", json_path.c_str());
  }

  if (!all_identical) {
    std::fprintf(stderr, "FAIL: reports diverge across thread counts (or "
                         "ExplainNew diverges from ExplainAll)\n");
    return 1;
  }
  if (require_speedup > 0.0) {
    if (HardwareThreads() < 4) {
      std::printf("speedup gate skipped: %zu core(s) < 4 (curves recorded "
                  "only)\n",
                  HardwareThreads());
    } else if (gate_speedup < require_speedup) {
      std::fprintf(stderr,
                   "FAIL: 4-thread ExplainAll speedup %.2fx < required "
                   "%.2fx on factor %d (%zu rows)\n",
                   gate_speedup, require_speedup, largest.factor,
                   largest.log_rows);
      return 1;
    } else {
      std::printf("speedup gate: 4-thread ExplainAll %.2fx >= %.2fx on "
                  "factor %d\n",
                  gate_speedup, require_speedup, largest.factor);
    }
  }
  return 0;
}
