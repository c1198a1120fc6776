// Ablation A2: the three §3.2.1 mining optimizations toggled
// individually — support caching, the dedup-frontier evaluation strategy,
// and skipping non-selective paths — plus everything off. Each is a
// MinerOptions switch (on by default) precisely so this ablation can turn
// it off. The paper notes the optimizations save "many hours" at full scale;
// at our scale the relative ordering is what matters. Every configuration
// must mine the identical template set.

#include <chrono>
#include <set>

#include "bench/bench_util.h"
#include "core/miner.h"

namespace eba {
namespace {

using bench::Unwrap;
using Clock = std::chrono::steady_clock;

int Run(int argc, char** argv) {
  CareWebConfig config = bench::ParseConfig(argc, argv, "small");
  CareWebData data = Unwrap(GenerateCareWeb(config), "generate");
  Database& db = data.db;
  bench::PrintDataSummary(data);

  (void)Unwrap(BuildGroupsFromDays(&db, "Log", 1, config.num_days - 1,
                                   "Groups", HierarchyOptions{}));
  LogSlice train = Unwrap(
      AddLogSlice(&db, "Log", "TrainFirst", 1, config.num_days - 1, true));
  std::printf("mining log: %s first accesses\n",
              FormatCount(static_cast<int64_t>(train.lids.size())).c_str());

  MinerOptions base;
  base.log_table = "TrainFirst";
  base.support_fraction = 0.01;
  base.max_length = 5;
  base.max_tables = 3;
  base.excluded_tables = ExcludedLogsFor(db, "TrainFirst");

  struct Config {
    const char* name;
    bool cache;
    bool skip;
    Executor::SupportStrategy strategy;
  };
  const Config configs[] = {
      {"all-on", true, true, Executor::SupportStrategy::kDedupFrontier},
      {"no-cache", false, true, Executor::SupportStrategy::kDedupFrontier},
      {"no-skip", true, false, Executor::SupportStrategy::kDedupFrontier},
      {"naive-eval", true, true, Executor::SupportStrategy::kNaive},
      {"all-off", false, false, Executor::SupportStrategy::kNaive},
  };

  bench::PrintTitle(
      "Ablation: two-way mining with optimizations toggled (two-way is\n"
      "  used because its forward/backward duplicate discoveries exercise\n"
      "  the support cache)");
  std::printf("  %-12s %10s %10s %10s %10s %10s\n", "config", "time(s)",
              "templates", "queries", "cachehits", "skipped");

  std::set<std::string> base_keys;
  bool all_equal = true;
  for (const Config& c : configs) {
    MinerOptions options = base;
    options.cache_support = c.cache;
    options.skip_nonselective = c.skip;
    options.support_strategy = c.strategy;
    auto start = Clock::now();
    MiningResult result =
        Unwrap(TemplateMiner(&db, options).MineTwoWay(), c.name);
    double seconds = std::chrono::duration_cast<std::chrono::duration<double>>(
                         Clock::now() - start)
                         .count();
    std::printf("  %-12s %10.3f %10zu %10zu %10zu %10zu\n", c.name, seconds,
                result.templates.size(), result.stats.support_queries,
                result.stats.support_cache_hits, result.stats.skipped_paths);

    std::set<std::string> keys;
    for (const auto& m : result.templates) {
      keys.insert(Unwrap(m.tmpl.CanonicalKey(db)));
    }
    if (base_keys.empty()) {
      base_keys = std::move(keys);
    } else if (keys != base_keys) {
      all_equal = false;
    }
  }
  std::printf("\n  all configurations mined the same template set: %s\n",
              all_equal ? "YES" : "NO (BUG)");
  return all_equal ? 0 : 1;
}

}  // namespace
}  // namespace eba

int main(int argc, char** argv) { return eba::Run(argc, argv); }
