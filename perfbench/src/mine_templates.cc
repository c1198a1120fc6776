// mine_templates: the administrator's template mining (paper §3). Eight
// paper-shaped hospitals drawn from the seed (~27k accesses each) with
// collaborative groups from days 1-6, mined over the first accesses of
// days 1-6 with s = 1%, M = 5, T = 3 and every §3.2.1 optimization on. The
// timed phase alternates One-Way and Bridge-2 mining, cycling through the
// hospitals. The only workload that calls the miner: many short,
// structurally distinct support queries instead of a few long scans, so an
// executor change that speeds up scans but adds per-query cost shows here.

#include <memory>
#include <set>
#include <string>

#include "careweb/workload.h"
#include "core/miner.h"
#include "fixture.h"
#include "hostspeed.h"

namespace perfbench {

using eba::MiningResult;

namespace {

/// Hospitals per run. Mining cost differs by ~10% from one generated
/// hospital to the next (1.05-1.65 s One-Way over 18 of them), more than
/// the auditing workloads' ~5%, so a run averages over more of them: each
/// is mined once One-Way and once Bridge-2 in a run of 25 seconds.
constexpr int kMineHospitals = 8;
static_assert(kMineHospitals <= kMaxHospitals, "hospital seeds would overlap");

/// Set-ups per hospital, back to back before the timed phase. A set-up
/// takes under 0.1 s, so repeating it is what keeps its median steady.
/// Not between timed pairs: there, how the next set-up reuses the memory
/// mining freed differs from run to run, and peak RSS follows it.
constexpr int kSetupsPerHospital = 2;

struct Fixture {
  eba::CareWebData data;
  eba::MinerOptions options;
  size_t mining_rows = 0;
  /// Canonical keys of the first One-Way run's templates.
  std::set<std::string> reference;
};

std::set<std::string> TemplateKeys(const MiningResult& mined,
                                   const eba::Database& db) {
  std::set<std::string> keys;
  for (const auto& t : mined.templates) {
    keys.insert(Unwrap(t.tmpl.CanonicalKey(db), "canonical key"));
  }
  return keys;
}

}  // namespace

void RunMineTemplates(const RunConfig& config, Result* result) {
  Tracer tracer(config.trace);
  SpanBuffer* spans = tracer.NewBuffer();
  SpanBuffer off(false, Clock::now(), 0);
  HostSpeed host;

  // --- Set-up, repeated: generation, groups, the mining slice, and a short
  // --- mining pass that builds the lazy indexes and statistics. ---
  std::vector<double> generate_s, groups_s, slice_s;
  PerHospital setup_s(kMineHospitals);
  std::vector<std::unique_ptr<Fixture>> hospitals(kMineHospitals);
  for (int i = 0; i < kSetupsPerHospital * kMineHospitals; ++i) {
    const int h = i % kMineHospitals;
    std::unique_ptr<Fixture>& f = hospitals[h];
    f.reset();
    host.Between();
    const Clock::time_point start = Clock::now();
    {
      ScopedSpan root(spans, "setup", Layer::kBench);
      f = std::make_unique<Fixture>();
      eba::CareWebConfig careweb = eba::CareWebConfig::PaperShaped();
      careweb.seed = HospitalSeed(config.seed, h);
      Clock::time_point t = Clock::now();
      f->data = Generate(careweb, spans);
      generate_s.push_back(SecondsSince(t));
      eba::Database& db = f->data.db;
      t = Clock::now();
      {
        ScopedSpan span(spans, "graph.build_groups", Layer::kGraph);
        (void)Unwrap(eba::BuildGroupsFromDays(&db, "Log", 1, 6, "Groups",
                                              eba::HierarchyOptions{}),
                     "groups");
      }
      groups_s.push_back(SecondsSince(t));
      t = Clock::now();
      {
        ScopedSpan span(spans, "careweb.slice", Layer::kCareweb);
        f->mining_rows =
            Unwrap(eba::AddLogSlice(&db, "Log", "TrainFirst", 1, 6,
                                    /*first_only=*/true),
                   "mining slice")
                .lids.size();
      }
      slice_s.push_back(SecondsSince(t));
      f->options.log_table = "TrainFirst";
      f->options.support_fraction = 0.01;
      f->options.max_length = 5;
      f->options.max_tables = 3;
      f->options.excluded_tables = eba::ExcludedLogsFor(db, "TrainFirst");
      {
        ScopedSpan span(spans, "core.miner.warm_up", Layer::kCore);
        eba::MinerOptions warm = f->options;
        warm.max_length = 2;
        (void)Unwrap(eba::TemplateMiner(&db, warm).MineOneWay(), "warm-up");
      }
    }
    setup_s[h].push_back(host.Scaled(MsSince(start)) / 1e3);
  }

  // --- Timed phase: One-Way / Bridge-2 pairs. Each run gets a fresh plan
  // --- cache, as the miner's own per-run cache would be, so its counters
  // --- are readable from outside. ---
  PerHospital one_way_ms(kMineHospitals), bridged_ms(kMineHospitals);
  PerHospital rows_per_s(kMineHospitals);  // per One-Way run
  std::vector<double> all_one_way_ms, all_bridged_ms, traced_ms, untraced_ms;
  std::vector<double> length_s[6];
  eba::MiningStats totals;
  eba::PlanCache::Stats cache_totals;
  size_t resident_bytes = 0;
  size_t templates_found = 0;
  double rows_mined = 0.0;
  auto mine = [&](size_t h, bool bridged, SpanBuffer* s) {
    Fixture& f = *hospitals[h];
    const eba::Database& db = f.data.db;
    eba::PlanCache cache;
    eba::MinerOptions options = f.options;
    options.executor.plan_cache = &cache;
    const eba::TemplateMiner miner(&db, options);
    MiningResult mined;
    double ms = 0.0;
    {
      ScopedSpan root(s, bridged ? "mine_bridged" : "mine_one_way",
                      Layer::kBench);
      ScopedSpan span(s, bridged ? "core.miner.bridged" : "core.miner.one_way",
                      Layer::kCore);
      const Clock::time_point start = Clock::now();
      mined = Unwrap(bridged ? miner.MineBridged(2) : miner.MineOneWay(),
                     "mining");
      ms = MsSince(start);
    }
    ms = host.Scaled(ms);
    if (!bridged) {
      const eba::PlanCache::Stats stats = cache.stats();
      cache_totals.hits += stats.hits;
      cache_totals.misses += stats.misses;
      cache_totals.rebinds += stats.rebinds;
      cache_totals.invalidations += stats.invalidations;
      resident_bytes = std::max(resident_bytes, cache.resident_bytes());
      const eba::MiningStats& st = mined.stats;
      totals.support_queries += st.support_queries;
      totals.candidates_considered += st.candidates_considered;
      totals.support_cache_hits += st.support_cache_hits;
      totals.plan_cache_hits += st.plan_cache_hits;
      totals.skipped_paths += st.skipped_paths;
      totals.pruned_paths += st.pruned_paths;
      templates_found += mined.templates.size();
      rows_mined += static_cast<double>(f.mining_rows);
      rows_per_s[h].push_back(static_cast<double>(f.mining_rows) /
                              (ms / 1e3));
      double previous = 0.0;
      for (const eba::LengthTiming& timing : st.timings) {
        if (timing.length >= 1 && timing.length <= 5) {
          length_s[timing.length].push_back(timing.cumulative_seconds -
                                            previous);
          previous = timing.cumulative_seconds;
        }
      }
    }
    std::set<std::string> keys = TemplateKeys(mined, db);
    if (f.reference.empty()) {
      f.reference = std::move(keys);
      if (f.reference.empty()) result->FailCheck("mining found no template");
    } else if (keys != f.reference) {
      result->FailCheck(std::string(bridged ? "Bridge-2" : "One-Way") +
                        " template set differs from the first One-Way run");
    }
    return ms;
  };
  host.Between();
  const Clock::time_point phase = Clock::now();
  // At least one pass over the hospitals, two when tracing; a hospital that
  // ran one pair more does not weigh more (MeanOfMedians).
  const size_t min_pairs = (config.trace ? 2 : 1) * kMineHospitals;
  double peak_rss_mb = 0.0;
  for (size_t i = 0; i < min_pairs || SecondsSince(phase) < config.seconds;
       ++i) {
    const size_t h = i % kMineHospitals;
    // Alternate passes, so that traced and untraced runs cover every
    // hospital.
    const bool traced = config.trace && (i / kMineHospitals) % 2 == 1;
    SpanBuffer* s = traced ? spans : &off;
    ++result->attempted;
    const double ms = mine(h, false, s);
    one_way_ms[h].push_back(ms);
    all_one_way_ms.push_back(ms);
    (traced ? traced_ms : untraced_ms).push_back(ms);
    ++result->attempted;
    bridged_ms[h].push_back(mine(h, true, s));
    all_bridged_ms.push_back(bridged_ms[h].back());
    // After the first hospital's pair: the peak of a pass over all eight
    // is the largest of eight mining runs, and about one hospital in forty
    // needs 15-30 MB more, so that maximum followed the seed (121-129 MB
    // in 16 of 20 runs, 143-159 MB in 4).
    if (i == 0) peak_rss_mb = PeakRssMb();
  }

  // --- End-to-end: each hospital's median, averaged over the hospitals. ---
  const double runs = static_cast<double>(all_one_way_ms.size());
  const double one_way = MeanOfMedians(one_way_ms);
  ReportHostSpeed(host, result);
  result->Set("setup_s", MeanOfMedians(setup_s), "s");
  result->Set("peak_rss_mb", peak_rss_mb, "MB");
  result->Set("main_p50_ms", one_way, "ms");
  result->Set("main_tail_ms", HighestSupported(all_one_way_ms).value, "ms");
  result->Set("aux_p50_ms", MeanOfMedians(bridged_ms), "ms");
  result->Set("rows_per_s", MeanOfMedians(rows_per_s), "rows/s");
  result->Set("mine_s", one_way / 1e3, "s");
  ReportLatency("mine_one_way", all_one_way_ms, result);
  ReportLatency("mine_bridged", all_bridged_ms, result);

  // --- Per layer. ---
  result->Set("careweb.generate_s", Median(generate_s), "s");
  result->Set("careweb.slice_s", Median(slice_s), "s");
  result->Set("graph.build_groups_s", Median(groups_s), "s");
  result->Set("core.miner.support_queries",
              static_cast<double>(totals.support_queries) / runs, "count");
  result->Set("core.miner.candidates",
              static_cast<double>(totals.candidates_considered) / runs,
              "count");
  result->Set("core.miner.support_cache_hits",
              static_cast<double>(totals.support_cache_hits) / runs, "count");
  result->Set("core.miner.plan_cache_hits",
              static_cast<double>(totals.plan_cache_hits) / runs, "count");
  result->Set("core.miner.skipped_paths",
              static_cast<double>(totals.skipped_paths) / runs, "count");
  result->Set("core.miner.pruned_paths",
              static_cast<double>(totals.pruned_paths) / runs, "count");
  result->Set("core.miner.templates_per_query",
              totals.support_queries > 0
                  ? static_cast<double>(templates_found) /
                        static_cast<double>(totals.support_queries)
                  : 0.0,
              "ratio");
  for (int length = 1; length <= 5; ++length) {
    result->Set("core.miner.length_s." + std::to_string(length),
                Median(length_s[length]), "s");
  }
  // Plan-cache counters per One-Way run.
  const uint64_t n = all_one_way_ms.size();
  cache_totals.hits /= n;
  cache_totals.misses /= n;
  cache_totals.rebinds /= n;
  cache_totals.invalidations /= n;
  ReportPlanCache(eba::PlanCache::Stats{}, cache_totals, resident_bytes,
                  result);
  if (config.trace) {
    FinishTrace(tracer, traced_ms, untraced_ms, config.trace_out, result);
  }
  result->notes.push_back(
      "mine_templates: " + std::to_string(kMineHospitals) + " hospitals, " +
      std::to_string(static_cast<int64_t>(rows_mined / runs)) +
      " mining-log rows and " +
      std::to_string(hospitals[0]->reference.size()) +
      " templates on average / in the first");
}

}  // namespace perfbench
