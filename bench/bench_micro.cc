// Micro-benchmarks (google-benchmark) for the substrate hot paths: hash
// index construction, equi-join execution, support evaluation strategies,
// first-access analysis, Louvain clustering, and path canonicalization.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/thread_pool.h"

#include "bench/bench_machine.h"
#include "bench/bench_streaming_util.h"
#include "careweb/generator.h"
#include "careweb/workload.h"
#include "core/engine.h"
#include "core/miner.h"
#include "graph/modularity.h"
#include "graph/user_graph.h"
#include "log/access_log.h"
#include "query/executor.h"
#include "query/plan_cache.h"
#include "tests/oracle/boxed_executor.h"

namespace eba {
namespace {

/// Shared small data set (generated once per process).
const CareWebData& SharedData() {
  static CareWebData* data = [] {
    auto generated = GenerateCareWeb(CareWebConfig::Small());
    EBA_CHECK_MSG(generated.ok(), generated.status().ToString());
    auto* d = new CareWebData(std::move(generated).value());
    auto groups = BuildGroupsFromDays(&d->db, "Log", 1, 6, "Groups",
                                      HierarchyOptions{});
    EBA_CHECK_MSG(groups.ok(), groups.status().ToString());
    return d;
  }();
  return *data;
}

template <typename T>
T Unwrap(StatusOr<T> s) {
  EBA_CHECK_MSG(s.ok(), s.status().ToString());
  return std::move(s).value();
}

/// ~18k-row hospital log for the executor A/B benches: the Small config at
/// 14 days, matching the scale of the engine determinism test.
const CareWebData& ExecutorBenchData() {
  static CareWebData* data = [] {
    CareWebConfig config = CareWebConfig::Small();
    config.num_days = 14;
    auto generated = GenerateCareWeb(config);
    EBA_CHECK_MSG(generated.ok(), generated.status().ToString());
    return new CareWebData(std::move(generated).value());
  }();
  return *data;
}

/// The executor configurations under comparison, indexed by state.range(0)
/// / JSON row: 0 is the boxed reference engine (BoxedExecutor, the tests'
/// oracle), 1 the Executor — the late-materialization frame engine with
/// cost-based join ordering. Calls `fn` with the configuration's executor;
/// both answer Materialize and DistinctLids.
template <typename Fn>
void WithExecConfig(int idx, const Database* db, Fn&& fn) {
  if (idx == 0) {
    BoxedExecutor executor(db);
    fn(executor);
  } else {
    Executor executor(db);
    fn(executor);
  }
}

const char* ExecConfigName(int idx) {
  return idx == 0 ? "boxed_reference" : "late_materialization_cost_ordering";
}

void BM_HashIndexBuild(benchmark::State& state) {
  const CareWebData& data = SharedData();
  const Table* log = Unwrap(data.db.GetTable("Log"));
  AccessLog access_log = Unwrap(AccessLog::Wrap(log));
  for (auto _ : state) {
    HashIndex index(&log->column(static_cast<size_t>(access_log.patient_col())));
    benchmark::DoNotOptimize(index.NumDistinctKeys());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(log->num_rows()));
}
BENCHMARK(BM_HashIndexBuild);

void BM_SupportNaive(benchmark::State& state) {
  const CareWebData& data = SharedData();
  Executor executor(&data.db);
  ExplanationTemplate tmpl = Unwrap(TemplateApptWithDoctor(data.db));
  for (auto _ : state) {
    auto count = executor.CountDistinct(tmpl.query(), tmpl.lid_attr(),
                                        Executor::SupportStrategy::kNaive);
    benchmark::DoNotOptimize(count);
  }
}
BENCHMARK(BM_SupportNaive);

void BM_SupportDedupFrontier(benchmark::State& state) {
  const CareWebData& data = SharedData();
  Executor executor(&data.db);
  ExplanationTemplate tmpl = Unwrap(TemplateApptWithDoctor(data.db));
  for (auto _ : state) {
    auto count =
        executor.CountDistinct(tmpl.query(), tmpl.lid_attr(),
                               Executor::SupportStrategy::kDedupFrontier);
    benchmark::DoNotOptimize(count);
  }
}
BENCHMARK(BM_SupportDedupFrontier);

void BM_GroupTemplateSupport(benchmark::State& state) {
  const CareWebData& data = SharedData();
  Executor executor(&data.db);
  ExplanationTemplate tmpl =
      Unwrap(TemplatesGroups(data.db, 1, false))[0];
  for (auto _ : state) {
    auto count =
        executor.CountDistinct(tmpl.query(), tmpl.lid_attr(),
                               Executor::SupportStrategy::kDedupFrontier);
    benchmark::DoNotOptimize(count);
  }
}
BENCHMARK(BM_GroupTemplateSupport);

void BM_ExplainSingleAccess(benchmark::State& state) {
  const CareWebData& data = SharedData();
  Executor executor(&data.db);
  ExplanationTemplate tmpl = Unwrap(TemplateApptWithDoctor(data.db));
  std::vector<Value> lids = {Value::Int64(1)};
  for (auto _ : state) {
    auto rel =
        executor.MaterializeForLogIds(tmpl.query(), tmpl.lid_attr(), lids);
    benchmark::DoNotOptimize(rel);
  }
}
BENCHMARK(BM_ExplainSingleAccess);

void BM_FirstAccessMask(benchmark::State& state) {
  const CareWebData& data = SharedData();
  const Table* log = Unwrap(data.db.GetTable("Log"));
  AccessLog access_log = Unwrap(AccessLog::Wrap(log));
  for (auto _ : state) {
    auto mask = access_log.FirstAccessMask();
    benchmark::DoNotOptimize(mask);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(log->num_rows()));
}
BENCHMARK(BM_FirstAccessMask);

void BM_UserGraphBuild(benchmark::State& state) {
  const CareWebData& data = SharedData();
  const Table* log = Unwrap(data.db.GetTable("Log"));
  AccessLog access_log = Unwrap(AccessLog::Wrap(log));
  for (auto _ : state) {
    auto graph = UserGraph::Build(access_log);
    benchmark::DoNotOptimize(graph);
  }
}
BENCHMARK(BM_UserGraphBuild);

void BM_LouvainClustering(benchmark::State& state) {
  const CareWebData& data = SharedData();
  const Table* log = Unwrap(data.db.GetTable("Log"));
  AccessLog access_log = Unwrap(AccessLog::Wrap(log));
  UserGraph graph = Unwrap(UserGraph::Build(access_log));
  for (auto _ : state) {
    Clustering clustering = ClusterUserGraph(graph);
    benchmark::DoNotOptimize(clustering.num_clusters);
  }
}
BENCHMARK(BM_LouvainClustering);

void BM_CanonicalKey(benchmark::State& state) {
  MiningPath path({JoinEdge{{"Log", "Patient"}, {"Appointments", "Patient"}},
                   JoinEdge{{"Appointments", "Doctor"}, {"Groups", "User"}},
                   JoinEdge{{"Groups", "Group_id"}, {"Groups", "Group_id"}},
                   JoinEdge{{"Groups", "User"}, {"Log", "User"}}});
  for (auto _ : state) {
    auto key = path.CanonicalKey();
    benchmark::DoNotOptimize(key);
  }
}
BENCHMARK(BM_CanonicalKey);

// Full-log coverage (the misuse-detection operation) with a varying worker
// count; Arg(1) is the serial baseline the ISSUE speedup target compares
// against. Real time is reported because the work happens on pool threads.
void BM_ExplainAll(benchmark::State& state) {
  const CareWebData& data = SharedData();
  static ExplanationEngine* engine = [] {
    auto created = ExplanationEngine::Create(&SharedData().db, "Log");
    EBA_CHECK_MSG(created.ok(), created.status().ToString());
    auto* e = new ExplanationEngine(std::move(created).value());
    auto templates = TemplatesHandcraftedDirect(SharedData().db, true);
    EBA_CHECK_MSG(templates.ok(), templates.status().ToString());
    for (auto& tmpl : *templates) {
      Status s = e->AddTemplate(tmpl);
      EBA_CHECK_MSG(s.ok(), s.ToString());
    }
    return e;
  }();
  ExplainAllOptions options;
  options.num_threads = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    auto report = engine->ExplainAll(options);
    EBA_CHECK_MSG(report.ok(), report.status().ToString());
    benchmark::DoNotOptimize(report->explained_lids.size());
  }
  const Table* log = Unwrap(data.db.GetTable("Log"));
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(log->num_rows()));
}
// 1 (serial baseline), 2, 4, plus the machine's full core count when that
// is not already covered.
void ExplainAllThreadCounts(benchmark::internal::Benchmark* b) {
  b->Arg(1)->Arg(2)->Arg(4);
  if (HardwareThreads() > 4) {
    b->Arg(static_cast<int64_t>(HardwareThreads()));
  }
  b->UseRealTime()->Unit(benchmark::kMillisecond);
}
BENCHMARK(BM_ExplainAll)->Apply(ExplainAllThreadCounts);

// Join materialization over the ~18k-row hospital log: boxed reference (0)
// vs late materialization with cost-based ordering (1).
void BM_ExecutorJoin(benchmark::State& state) {
  const CareWebData& data = ExecutorBenchData();
  ExplanationTemplate tmpl = Unwrap(TemplateApptWithDoctor(data.db));
  WithExecConfig(static_cast<int>(state.range(0)), &data.db,
                 [&](const auto& executor) {
                   for (auto _ : state) {
                     auto rel = executor.Materialize(tmpl.query());
                     EBA_CHECK_MSG(rel.ok(), rel.status().ToString());
                     benchmark::DoNotOptimize(rel->rows.size());
                   }
                 });
  const Table* log = Unwrap(data.db.GetTable("Log"));
  state.SetLabel(ExecConfigName(static_cast<int>(state.range(0))));
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(log->num_rows()));
}
BENCHMARK(BM_ExecutorJoin)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

// Distinct-lid support evaluation (the miner's and ExplainAll's hot call)
// over every hand-crafted direct template, same two configurations. The
// late configuration runs the semi-join fast path end to end.
void BM_DistinctLids(benchmark::State& state) {
  const CareWebData& data = ExecutorBenchData();
  static const std::vector<ExplanationTemplate>* templates =
      new std::vector<ExplanationTemplate>(
          Unwrap(TemplatesHandcraftedDirect(ExecutorBenchData().db, true)));
  WithExecConfig(static_cast<int>(state.range(0)), &data.db,
                 [&](const auto& executor) {
                   for (auto _ : state) {
                     size_t total = 0;
                     for (const auto& tmpl : *templates) {
                       auto lids = executor.DistinctLids(tmpl.query(),
                                                         tmpl.lid_attr());
                       EBA_CHECK_MSG(lids.ok(), lids.status().ToString());
                       total += lids->size();
                     }
                     benchmark::DoNotOptimize(total);
                   }
                 });
  const Table* log = Unwrap(data.db.GetTable("Log"));
  state.SetLabel(ExecConfigName(static_cast<int>(state.range(0))));
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(log->num_rows()) *
                          static_cast<int64_t>(templates->size()));
}
BENCHMARK(BM_DistinctLids)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

// The miner's repeated-template shape: the same DistinctLids support
// queries re-issued every iteration. Arg(0) pays full planning each time;
// Arg(1) attaches a PlanCache, so every iteration after the first replays
// compiled plans — the single-threaded speedup the plan cache buys.
void BM_DistinctLidsPlanCache(benchmark::State& state) {
  const CareWebData& data = ExecutorBenchData();
  PlanCache cache;
  ExecutorOptions options;  // late materialization + cost-based ordering
  if (state.range(0) != 0) options.plan_cache = &cache;
  Executor executor(&data.db, options);
  static const std::vector<ExplanationTemplate>* templates =
      new std::vector<ExplanationTemplate>(
          Unwrap(TemplatesHandcraftedDirect(ExecutorBenchData().db, true)));
  for (auto _ : state) {
    size_t total = 0;
    for (const auto& tmpl : *templates) {
      auto lids = executor.DistinctLids(tmpl.query(), tmpl.lid_attr());
      EBA_CHECK_MSG(lids.ok(), lids.status().ToString());
      total += lids->size();
    }
    benchmark::DoNotOptimize(total);
  }
  const Table* log = Unwrap(data.db.GetTable("Log"));
  state.SetLabel(state.range(0) == 0 ? "plan_cache_off" : "plan_cache_on");
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(log->num_rows()) *
                          static_cast<int64_t>(templates->size()));
}
BENCHMARK(BM_DistinctLidsPlanCache)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_MineOneWayTinyLog(benchmark::State& state) {
  const CareWebData& data = SharedData();
  // Mining over day 1's first accesses only (kept small so the benchmark
  // iterates); const_cast is safe: AddLogSlice only adds a table once.
  static bool initialized = [] {
    auto& db = const_cast<Database&>(SharedData().db);
    auto slice = AddLogSlice(&db, "Log", "MicroTrain", 1, 1, true);
    EBA_CHECK_MSG(slice.ok(), slice.status().ToString());
    return true;
  }();
  (void)initialized;
  MinerOptions options;
  options.log_table = "MicroTrain";
  options.support_fraction = 0.02;
  options.max_length = 3;
  options.max_tables = 3;
  options.excluded_tables = ExcludedLogsFor(data.db, "MicroTrain");
  TemplateMiner miner(&data.db, options);
  for (auto _ : state) {
    auto result = miner.MineOneWay();
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_MineOneWayTinyLog);

// ---------------------------------------------------------------------------
// Machine-readable executor comparison: --executor_json=PATH times the two
// executor configurations on the BM_ExecutorJoin / BM_DistinctLids workloads
// with a steady clock and writes speedups to a JSON file (the bench
// trajectory artifact; CI runs the smoke variant on every push).
// ---------------------------------------------------------------------------

template <typename Fn>
double SecondsPerIter(Fn&& fn, double min_seconds, int max_iters) {
  using Clock = std::chrono::steady_clock;
  fn();  // warm-up: builds the lazy hash indexes and column stats
  int iters = 0;
  double elapsed = 0.0;
  const auto start = Clock::now();
  while (iters < 1 || (elapsed < min_seconds && iters < max_iters)) {
    fn();
    ++iters;
    elapsed = std::chrono::duration<double>(Clock::now() - start).count();
  }
  return elapsed / iters;
}

int RunExecutorJsonBench(const std::string& path, bool smoke) {
  const CareWebData& data = ExecutorBenchData();
  const Table* log = Unwrap(data.db.GetTable("Log"));
  const std::vector<ExplanationTemplate> templates =
      Unwrap(TemplatesHandcraftedDirect(data.db, true));
  const ExplanationTemplate appt = Unwrap(TemplateApptWithDoctor(data.db));
  const double min_seconds = smoke ? 0.02 : 0.5;
  const int max_iters = smoke ? 3 : 200;

  auto lids_workload = [&](const auto& executor) {
    size_t total = 0;
    for (const auto& tmpl : templates) {
      auto lids = executor.DistinctLids(tmpl.query(), tmpl.lid_attr());
      EBA_CHECK_MSG(lids.ok(), lids.status().ToString());
      total += lids->size();
    }
    benchmark::DoNotOptimize(total);
  };

  // A/B: boxed reference oracle vs late materialization + cost ordering.
  double join_s[2];
  double lids_s[2];
  for (int cfg = 0; cfg < 2; ++cfg) {
    WithExecConfig(cfg, &data.db, [&](const auto& executor) {
      join_s[cfg] = SecondsPerIter(
          [&] {
            auto rel = executor.Materialize(appt.query());
            EBA_CHECK_MSG(rel.ok(), rel.status().ToString());
            benchmark::DoNotOptimize(rel->rows.size());
          },
          min_seconds, max_iters);
      lids_s[cfg] = SecondsPerIter([&] { lids_workload(executor); },
                                   min_seconds, max_iters);
    });
  }

  // Plan cache off/on, single thread, two repeated-template workloads.
  // SecondsPerIter's warm-up call records the plans, so the cached timings
  // measure pure replay. (a) the full-log DistinctLids support sweep —
  // probe-bound at this log size, so planning amortizes to noise; (b) the
  // per-access explain loop (MaterializeForLogIds, one lid at a time — the
  // audit-portal serving shape), where the frame is tiny and planning
  // (validation, table resolution, estimator calls, check compilation,
  // dictionary translation) dominates each query.
  auto explain_workload = [&](Executor& executor) {
    size_t total = 0;
    for (int64_t lid = 1; lid <= 16; ++lid) {
      const std::vector<Value> lids = {Value::Int64(lid)};
      for (const auto& tmpl : templates) {
        auto rel =
            executor.MaterializeForLogIds(tmpl.query(), tmpl.lid_attr(), lids);
        EBA_CHECK_MSG(rel.ok(), rel.status().ToString());
        total += rel->rows.size();
      }
    }
    benchmark::DoNotOptimize(total);
  };
  const double plan_off_lids_s = lids_s[1];
  PlanCache plan_cache;
  ExecutorOptions cached_options;
  cached_options.plan_cache = &plan_cache;
  Executor cached_executor(&data.db, cached_options);
  const double plan_on_lids_s = SecondsPerIter(
      [&] { lids_workload(cached_executor); }, min_seconds, max_iters);
  Executor plain_executor(&data.db, ExecutorOptions{});
  const double plan_off_explain_s = SecondsPerIter(
      [&] { explain_workload(plain_executor); }, min_seconds, max_iters);
  PlanCache explain_cache;
  ExecutorOptions cached_explain_options;
  cached_explain_options.plan_cache = &explain_cache;
  Executor cached_explain_executor(&data.db, cached_explain_options);
  const double plan_on_explain_s = SecondsPerIter(
      [&] { explain_workload(cached_explain_executor); }, min_seconds,
      max_iters);

  // Streaming serving loop: appends interleaved with incremental audits and
  // per-access explains, recorded here so the committed BENCH_executor.json
  // and the CI regression gate cover it.
  StreamingBenchOptions stream_options;
  stream_options.smoke = smoke;
  const StreamingBenchResult streaming = RunStreamingBench(stream_options);

  // Concurrent ingest: writer throughput with snapshot-pinned readers
  // auditing the live table, relative to append-only (gated with an
  // absolute floor by compare_bench.py).
  ConcurrentIngestOptions concurrent_options;
  concurrent_options.smoke = smoke;
  const ConcurrentIngestResult concurrent =
      RunConcurrentIngestBench(concurrent_options);

  // Durability: WAL append overhead (A/B vs plain appends) and the
  // time-to-recover vs full-re-audit ratio, both gated by compare_bench.py.
  DurabilityBenchOptions durability_options;
  durability_options.smoke = smoke;
  const DurabilityBenchResult durability =
      RunDurabilityBench(durability_options);

  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"generated_by\": \"bench_micro --executor_json\",\n");
  std::fprintf(f, "  \"smoke\": %s,\n", smoke ? "true" : "false");
  std::fprintf(f, "  \"log_rows\": %zu,\n", log->num_rows());
  std::fprintf(f, "  \"templates\": %zu,\n", templates.size());
  std::fprintf(f, "  \"hardware_threads\": %zu,\n", HardwareThreads());
  bench::WriteMachineJson(f, "  ");
  std::fprintf(f, "  \"benchmarks\": {\n");
  auto emit = [&](const char* name, const double s[2]) {
    std::fprintf(f, "    \"%s\": {\n", name);
    for (int cfg = 0; cfg < 2; ++cfg) {
      std::fprintf(f, "      \"%s_seconds_per_iter\": %.6f,\n",
                   ExecConfigName(cfg), s[cfg]);
    }
    std::fprintf(f, "      \"speedup_late_cost_vs_boxed\": %.2f\n",
                 s[0] / s[1]);
    std::fprintf(f, "    },\n");
  };
  emit("BM_ExecutorJoin", join_s);
  emit("BM_DistinctLids", lids_s);
  std::fprintf(f, "    \"plan_cache\": {\n");
  std::fprintf(f, "      \"distinct_lids\": {\"off_seconds_per_iter\": %.6f, "
               "\"on_seconds_per_iter\": %.6f, \"speedup_on_vs_off\": "
               "%.2f},\n",
               plan_off_lids_s, plan_on_lids_s,
               plan_off_lids_s / plan_on_lids_s);
  std::fprintf(f, "      \"per_access_explain\": {\"off_seconds_per_iter\": "
               "%.6f, \"on_seconds_per_iter\": %.6f, \"speedup_on_vs_off\": "
               "%.2f}\n",
               plan_off_explain_s, plan_on_explain_s,
               plan_off_explain_s / plan_on_explain_s);
  std::fprintf(f, "    },\n");
  std::fprintf(f, "    \"streaming\": {\n");
  WriteConcurrentIngestJson(f, concurrent, "      ");
  WriteStreamingJson(f, streaming, "      ");
  std::fprintf(f, "    },\n");
  std::fprintf(f, "    \"durability\": {\n");
  WriteDurabilityJson(f, durability, "      ");
  std::fprintf(f, "    }\n");
  std::fprintf(f, "  }\n}\n");
  std::fclose(f);

  std::printf("wrote %s\n", path.c_str());
  std::printf("BM_ExecutorJoin : boxed %.3f ms, late+cost %.3f ms (%.1fx)\n",
              join_s[0] * 1e3, join_s[1] * 1e3, join_s[0] / join_s[1]);
  std::printf("BM_DistinctLids : boxed %.3f ms, late+cost %.3f ms (%.1fx)\n",
              lids_s[0] * 1e3, lids_s[1] * 1e3, lids_s[0] / lids_s[1]);
  std::printf("plan cache (distinct lids)      : off %.3f ms, on %.3f ms "
              "(%.1fx)\n",
              plan_off_lids_s * 1e3, plan_on_lids_s * 1e3,
              plan_off_lids_s / plan_on_lids_s);
  std::printf("plan cache (per-access explain) : off %.3f ms, on %.3f ms "
              "(%.1fx)\n",
              plan_off_explain_s * 1e3, plan_on_explain_s * 1e3,
              plan_off_explain_s / plan_on_explain_s);
  std::printf("streaming ingest : %.0f appends/s, ExplainNew %.3f ms/batch, "
              "plan-cache hit rate %.1f%% (%s full ExplainAll)\n",
              streaming.AppendsPerSecond(), streaming.ExplainNewMsPerBatch(),
              100.0 * streaming.PlanCacheHitRate(),
              streaming.matches_full_explain_all ? "matches"
                                                 : "DIVERGES FROM");
  std::printf("concurrent ingest: %.0f rows/s under %zu concurrent audits + "
              "%zu explains vs %.0f rows/s append-only (%.2fx, %s full "
              "ExplainAll)\n",
              concurrent.ConcurrentRowsPerSecond(),
              concurrent.concurrent_audits, concurrent.point_explains,
              concurrent.AppendOnlyRowsPerSecond(),
              concurrent.ConcurrentAppendRelativeThroughput(),
              concurrent.matches_full_explain_all ? "matches"
                                                  : "DIVERGES FROM");
  std::printf("durability       : WAL appends %.0f/s vs plain %.0f/s "
              "(%.2fx raw, %.2fx serving), audit-state recovery %.1f ms vs "
              "full re-audit %.1f ms (%.1fx, %s full ExplainAll)\n",
              durability.WalAppendsPerSecond(),
              durability.PlainAppendsPerSecond(),
              durability.WalAppendRelativeThroughput(),
              durability.ServingRelativeThroughput(),
              durability.AuditStateRecoveryMs(),
              durability.FullReauditAfterRestartMs(),
              durability.RecoverySpeedupVsFullReaudit(),
              durability.recovered_matches_full_explain_all
                  ? "matches"
                  : "DIVERGES FROM");
  return streaming.matches_full_explain_all &&
                 concurrent.matches_full_explain_all &&
                 durability.recovered_matches_full_explain_all
             ? 0
             : 1;
}

}  // namespace
}  // namespace eba

// Custom main instead of BENCHMARK_MAIN so CI can pass --smoke (every
// benchmark runs for a token min time, proving the binary and all cases
// work without paying for statistically meaningful timings) and
// --executor_json=PATH (the machine-readable executor A/B comparison;
// defaults to BENCH_executor.json and exits without running the
// google-benchmark suite).
int main(int argc, char** argv) {
  std::vector<char*> args;
  bool smoke = false;
  bool executor_json = false;
  std::string json_path = "BENCH_executor.json";
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--executor_json") == 0) {
      executor_json = true;
    } else if (std::strncmp(argv[i], "--executor_json=", 16) == 0) {
      executor_json = true;
      json_path = argv[i] + 16;
    } else {
      args.push_back(argv[i]);
    }
  }
  if (executor_json) {
    return eba::RunExecutorJsonBench(json_path, smoke);
  }
  static char min_time_flag[] = "--benchmark_min_time=0.001";
  if (smoke) args.push_back(min_time_flag);
  int filtered_argc = static_cast<int>(args.size());
  benchmark::Initialize(&filtered_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(filtered_argc, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
