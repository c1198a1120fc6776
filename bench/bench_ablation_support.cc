// Ablation A1: support-evaluation strategies. Compares the naive evaluator
// (materialize the full join, then count distinct lids) against the
// dedup-frontier evaluator (the generalized "reducing result multiplicity"
// optimization of §3.2.1) on representative explanation templates,
// reporting run time and peak intermediate size. The executor keeps the
// naive strategy only for this ablation: it is the paper's unoptimized
// baseline, and the dedup frontier is the default everywhere else.

#include <chrono>

#include "bench/bench_util.h"
#include "query/executor.h"

namespace eba {
namespace {

using bench::Unwrap;
using Clock = std::chrono::steady_clock;

double TimeIt(const std::function<void()>& fn) {
  auto start = Clock::now();
  fn();
  return std::chrono::duration_cast<std::chrono::duration<double>>(
             Clock::now() - start)
      .count();
}

int Run(int argc, char** argv) {
  CareWebConfig config = bench::ParseConfig(argc, argv, "small");
  CareWebData data = Unwrap(GenerateCareWeb(config), "generate");
  Database& db = data.db;
  bench::PrintDataSummary(data);
  (void)Unwrap(BuildGroupsFromDays(&db, "Log", 1, config.num_days - 1,
                                   "Groups", HierarchyOptions{}));

  struct Case {
    const char* name;
    StatusOr<ExplanationTemplate> tmpl;
  };
  std::vector<Case> cases;
  cases.push_back({"appt_with_doctor (len 2)", TemplateApptWithDoctor(db)});
  cases.push_back({"lab_resulted_by (len 3)",
                   [&]() -> StatusOr<ExplanationTemplate> {
                     auto all = TemplatesDataSetB(db);
                     if (!all.ok()) return all.status();
                     return (*all)[1];
                   }()});
  cases.push_back({"group_appt depth-1 (len 4)",
                   [&]() -> StatusOr<ExplanationTemplate> {
                     auto all = TemplatesGroups(db, 1, false);
                     if (!all.ok()) return all.status();
                     return (*all)[0];
                   }()});
  cases.push_back({"group_appt all-depths (len 4)",
                   [&]() -> StatusOr<ExplanationTemplate> {
                     auto all = TemplatesGroups(db, -1, false);
                     if (!all.ok()) return all.status();
                     return (*all)[0];
                   }()});
  // High-multiplicity event chain: a patient with k lab orders and m
  // medication orders contributes k*m intermediate rows to the naive plan —
  // exactly the multiplicity blow-up §3.2.1's rewrite targets.
  cases.push_back(
      {"labs x medications chain (len 4)",
       ExplanationTemplate::Parse(
           db, "labs_meds_chain", "Log L, Labs B, Medications M, UserMap U",
           "L.Patient = B.Patient AND B.Orderer = M.Requester AND "
           "M.Signer = U.audit_id AND U.caregiver_id = L.User",
           "chained lab and medication orders")});
  cases.push_back(
      {"meds x meds chain (len 4)",
       ExplanationTemplate::Parse(
           db, "meds_meds_chain",
           "Log L, Medications M1, Medications M2, UserMap U",
           "L.Patient = M1.Patient AND M1.Requester = M2.Requester AND "
           "M2.Administrator = U.audit_id AND U.caregiver_id = L.User",
           "chained medication orders")});
  // The paper's motivating example: a (user, patient) pair with k accesses
  // matches k log rows per probe — the naive plan materializes k rows per
  // access (quadratic in pair frequency) where the frontier stays linear.
  cases.push_back({"repeat access (log self-join)", TemplateRepeatAccess(db)});

  bench::PrintTitle(
      "Ablation: naive vs dedup-frontier support evaluation (COUNT DISTINCT "
      "Lid over the full log)");
  std::printf("  %-30s %10s %12s %10s %12s %8s\n", "template", "naive(s)",
              "naive-peak", "dedup(s)", "dedup-peak", "support");

  Executor executor(&db);
  for (auto& c : cases) {
    ExplanationTemplate tmpl = Unwrap(std::move(c.tmpl), c.name);
    int64_t naive_count = 0, dedup_count = 0;
    double naive_s = TimeIt([&] {
      naive_count = Unwrap(executor.CountDistinct(
          tmpl.query(), tmpl.lid_attr(), Executor::SupportStrategy::kNaive));
    });
    size_t naive_peak = executor.last_stats().peak_intermediate;
    double dedup_s = TimeIt([&] {
      dedup_count = Unwrap(
          executor.CountDistinct(tmpl.query(), tmpl.lid_attr(),
                                 Executor::SupportStrategy::kDedupFrontier));
    });
    size_t dedup_peak = executor.last_stats().peak_intermediate;
    std::printf("  %-30s %10.3f %12zu %10.3f %12zu %8lld%s\n", c.name,
                naive_s, naive_peak, dedup_s, dedup_peak,
                static_cast<long long>(naive_count),
                naive_count == dedup_count ? "" : "  MISMATCH!");
  }
  return 0;
}

}  // namespace
}  // namespace eba

int main(int argc, char** argv) { return eba::Run(argc, argv); }
