// audit_full: the compliance officer's whole-log audit (misuse detection,
// paper §1). Three Scaled(10) hospitals drawn from the seed (~170k log rows
// over one week each) with the 12 streaming templates: the direct ones,
// repeat access and data set B. The timed phase alternates a threaded
// ExplainAll with a full re-audit (ResetAudit + ExplainNew from row 0), both
// warm, cycling through the hospitals. The executor's scans,
// probes and dedup and the engine's template fan-out do almost all the
// work; there is no WAL and no network, and the working set is far above
// the last-level cache.
//
// No collaborative-group templates: their cost follows the Louvain
// partition, which flips between a few large and many small groups from
// one generator seed to the next (ExplainAll 0.17 s to 0.83 s at Scaled(3)),
// so a run's figures would measure the seed instead of the code. Groups
// stay in mine_templates, where the mined template set, not their size,
// drives the work.

#include <algorithm>
#include <memory>
#include <numeric>

#include "core/ingest.h"
#include "fixture.h"
#include "hostspeed.h"

namespace perfbench {

using eba::ExplanationReport;
using eba::StreamingAuditor;

namespace {

constexpr int kScale = 10;
/// Hospitals per run: auditing cost differs by ~5% from one generated
/// hospital to the next.
constexpr int kHospitals = 3;
static_assert(kHospitals <= kMaxHospitals, "hospital seeds would overlap");

struct Fixture {
  eba::CareWebData data;
  std::unique_ptr<StreamingAuditor> auditor;
  eba::ExplanationReport reference;
};

bool SameReport(const ExplanationReport& a, const ExplanationReport& b) {
  return a.log_size == b.log_size &&
         a.per_template_counts == b.per_template_counts &&
         a.explained_lids == b.explained_lids &&
         a.unexplained_lids == b.unexplained_lids;
}

}  // namespace

void RunAuditFull(const RunConfig& config, Result* result) {
  Tracer tracer(config.trace);
  SpanBuffer* spans = tracer.NewBuffer();
  SpanBuffer off(false, Clock::now(), 0);

  eba::ExplainAllOptions all_options;
  all_options.num_threads = config.threads;
  eba::StreamingOptions new_options;
  new_options.num_threads = config.threads;
  HostSpeed host;

  // --- Set-up, once per hospital: generation, templates, cold audits. ---
  std::vector<double> generate_s;
  PerHospital setup_s(kHospitals);
  std::vector<std::unique_ptr<Fixture>> hospitals;
  for (int h = 0; h < kHospitals; ++h) {
    host.Between();
    const Clock::time_point start = Clock::now();
    auto f = std::make_unique<Fixture>();
    {
      ScopedSpan root(spans, "setup", Layer::kBench);
      eba::CareWebConfig careweb = eba::CareWebConfig::Scaled(kScale);
      careweb.seed = HospitalSeed(config.seed, h);
      const Clock::time_point t = Clock::now();
      f->data = Generate(careweb, spans);
      generate_s.push_back(SecondsSince(t));
      const auto templates = StreamTemplates(f->data.db, spans);
      {
        ScopedSpan span(spans, "core.register", Layer::kCore);
        f->auditor = std::make_unique<StreamingAuditor>(Unwrap(
            StreamingAuditor::Create(&f->data.db, "Log"), "auditor"));
        for (const auto& tmpl : templates) {
          Check(f->auditor->AddTemplate(tmpl), "template");
        }
      }
      {
        ScopedSpan span(spans, "core.explain_all", Layer::kCore);
        (void)Unwrap(f->auditor->engine().ExplainAll(all_options),
                     "cold audit");
      }
      {
        ScopedSpan span(spans, "core.explain_new", Layer::kCore);
        (void)Unwrap(f->auditor->ExplainNew(new_options), "cold re-audit");
      }
    }
    setup_s[h].push_back(host.Scaled(MsSince(start)) / 1e3);
    hospitals.push_back(std::move(f));
  }

  // The check's reference: a 1-thread report per hospital.
  eba::ExplainAllOptions serial_options;
  serial_options.num_threads = 1;
  for (auto& f : hospitals) {
    f->reference =
        Unwrap(f->auditor->engine().ExplainAll(serial_options), "reference");
  }

  // --- Timed phase: warm ExplainAll / re-audit pairs, cycling through the
  // --- hospitals. ---
  std::vector<eba::PlanCache::Stats> cache_before;
  for (auto& f : hospitals) {
    cache_before.push_back(f->auditor->engine().plan_cache()->stats());
  }
  PerHospital explain_all_ms(kHospitals), reaudit_ms(kHospitals);
  PerHospital rows_per_s(kHospitals);  // per ExplainAll call
  std::vector<double> traced_ms, untraced_ms;
  double peak_rss_mb = 0.0;
  host.Between();
  const Clock::time_point phase = Clock::now();
  size_t pairs = 0;
  // At least one pair per hospital; a hospital that ran one pair more does
  // not weigh more (MeanOfMedians).
  for (; pairs < kHospitals || SecondsSince(phase) < config.seconds; ++pairs) {
    const size_t h = pairs % kHospitals;
    Fixture& f = *hospitals[h];
    const ExplanationReport& reference = f.reference;
    // Alternate, so that traced and untraced pairs cover every hospital.
    const bool traced = config.trace && pairs % 2 == 1;
    SpanBuffer* s = traced ? spans : &off;
    ++result->attempted;
    {
      ExplanationReport report;
      double ms = 0.0;
      {
        ScopedSpan root(s, "explain_all", Layer::kBench);
        ScopedSpan span(s, "core.explain_all", Layer::kCore);
        const Clock::time_point start = Clock::now();
        report =
            Unwrap(f.auditor->engine().ExplainAll(all_options), "ExplainAll");
        ms = MsSince(start);
      }
      ms = host.Scaled(ms);
      explain_all_ms[h].push_back(ms);
      rows_per_s[h].push_back(static_cast<double>(reference.log_size) /
                              (ms / 1e3));
      (traced ? traced_ms : untraced_ms).push_back(ms);
      if (!SameReport(report, reference)) {
        result->FailCheck("threaded ExplainAll report differs from the "
                          "1-thread report");
      }
    }
    ++result->attempted;
    {
      eba::StreamingReport report;
      double ms = 0.0;
      {
        ScopedSpan root(s, "reaudit", Layer::kBench);
        const Clock::time_point start = Clock::now();
        {
          ScopedSpan span(s, "core.reset_audit", Layer::kCore);
          f.auditor->ResetAudit();
        }
        {
          ScopedSpan span(s, "core.explain_new", Layer::kCore);
          report = Unwrap(f.auditor->ExplainNew(new_options), "re-audit");
        }
        ms = MsSince(start);
      }
      reaudit_ms[h].push_back(host.Scaled(ms));
      if (report.explained_lids != reference.explained_lids ||
          report.unexplained_lids != reference.unexplained_lids) {
        result->FailCheck("re-audit explained set differs from the "
                          "reference report");
      }
    }
    // After one pass over the hospitals (see PeakRssMb).
    if (pairs + 1 == kHospitals) peak_rss_mb = PeakRssMb();
  }
  eba::PlanCache::Stats cache_delta;
  size_t resident_bytes = 0;
  for (size_t h = 0; h < hospitals.size(); ++h) {
    const eba::PlanCache* cache = hospitals[h]->auditor->engine().plan_cache();
    const eba::PlanCache::Stats after = cache->stats();
    cache_delta.hits += after.hits - cache_before[h].hits;
    cache_delta.misses += after.misses - cache_before[h].misses;
    cache_delta.rebinds += after.rebinds - cache_before[h].rebinds;
    cache_delta.invalidations +=
        after.invalidations - cache_before[h].invalidations;
    resident_bytes += cache->resident_bytes();
  }
  // Per pair, as the other workloads count per episode or per mining run.
  cache_delta.hits /= pairs;
  cache_delta.misses /= pairs;
  cache_delta.rebinds /= pairs;
  cache_delta.invalidations /= pairs;

  // --- End-to-end: each hospital's median, averaged over the hospitals. ---
  double log_rows = 0.0;
  std::vector<double> all_explain_all_ms, all_reaudit_ms;
  for (size_t h = 0; h < hospitals.size(); ++h) {
    log_rows += static_cast<double>(hospitals[h]->reference.log_size);
    all_explain_all_ms.insert(all_explain_all_ms.end(),
                              explain_all_ms[h].begin(),
                              explain_all_ms[h].end());
    all_reaudit_ms.insert(all_reaudit_ms.end(), reaudit_ms[h].begin(),
                          reaudit_ms[h].end());
  }
  log_rows /= static_cast<double>(hospitals.size());
  const double explain_all_s = MeanOfMedians(explain_all_ms) / 1e3;
  const double reaudit_s = MeanOfMedians(reaudit_ms) / 1e3;
  ReportHostSpeed(host, result);
  result->Set("setup_s", MeanOfMedians(setup_s), "s");
  result->Set("peak_rss_mb", peak_rss_mb, "MB");
  result->Set("main_p50_ms", 1e3 * explain_all_s, "ms");
  result->Set("main_tail_ms", HighestSupported(all_explain_all_ms).value,
              "ms");
  result->Set("aux_p50_ms", 1e3 * reaudit_s, "ms");
  result->Set("rows_per_s", MeanOfMedians(rows_per_s), "rows/s");
  result->Set("audit_rows_per_s", log_rows / explain_all_s, "rows/s");
  result->Set("reaudit_rows_per_s", log_rows / reaudit_s, "rows/s");
  ReportLatency("explain_all", all_explain_all_ms, result);
  ReportLatency("reaudit", all_reaudit_ms, result);

  // --- Per layer. ---
  result->Set("careweb.generate_s", Median(generate_s), "s");
  result->Set("core.explain_all_s", explain_all_s, "s");
  result->Set("core.reaudit_s", reaudit_s, "s");
  result->Set("core.reaudit_over_explain_all", reaudit_s / explain_all_s,
              "ratio");
  ReportPlanCache(eba::PlanCache::Stats{}, cache_delta, resident_bytes,
                  result);
  if (config.trace) {
    // Fan-out figures against the first hospital's own ExplainAll median.
    Fixture& f = *hospitals[0];
    const double first_s = Median(explain_all_ms[0]) / 1e3;
    std::vector<double> serial;
    {
      ScopedSpan root(spans, "probe", Layer::kBench);
      serial = ProbeQueryLayer(f.auditor->engine(), f.data.db.CreateSnapshot(),
                               spans, result);
    }
    const double serial_sum = std::accumulate(serial.begin(), serial.end(), 0.0);
    const double slowest = *std::max_element(serial.begin(), serial.end());
    result->Set("core.fanout_efficiency",
                serial_sum / (static_cast<double>(config.threads) * first_s),
                "ratio");
    result->Set("core.straggler_share", slowest / first_s, "ratio");
    FinishTrace(tracer, traced_ms, untraced_ms, config.trace_out, result);
  }
  result->notes.push_back(
      "audit_full: " + std::to_string(hospitals.size()) + " hospitals of ~" +
      std::to_string(static_cast<int64_t>(log_rows)) + " log rows, " +
      std::to_string(hospitals[0]->auditor->engine().num_templates()) +
      " templates, coverage " + std::to_string(hospitals[0]->reference.Coverage()));
}

}  // namespace perfbench
