// The engine's range audit against the boxed reference audit
// (BoxedExplainAll, tests/oracle/boxed_executor.h): ExplainAll at several
// thread counts and a from-zero ExplainNew must report exactly what the
// boxed oracle reports for every template family the benches use. It is
// the slowest check of the executor's equivalence tests, kept in a suite of
// its own so neither suite nears the per-suite CTest timeout under
// ThreadSanitizer.

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "careweb/generator.h"
#include "careweb/workload.h"
#include "core/engine.h"
#include "core/ingest.h"
#include "graph/hierarchy.h"
#include "tests/oracle/boxed_executor.h"
#include "tests/test_util.h"

namespace eba {
namespace {

using testing_util::UnwrapOrDie;

/// The range audit (task split, flags marked by cut) against
/// BoxedExplainAll, which has neither: ExplainAll at every thread count,
/// and a from-zero ExplainNew, for every template family the benches use —
/// the direct and repeat-access templates, data set B, the group templates
/// at depth 1 and at all depths, and same department. The log is long
/// enough that multi-threaded audits cut it, so cuts mark their rows
/// concurrently.
TEST(ExecutorEquivalenceTest, ExplainAllReportsMatchBoxedOracle) {
  CareWebConfig config = CareWebConfig::Small();
  config.num_days = 10;
  CareWebData data = UnwrapOrDie(GenerateCareWeb(config));
  (void)UnwrapOrDie(BuildGroupsFromDays(&data.db, "Log", 1, 6, "Groups",
                                        HierarchyOptions{}));
  const std::pair<const char*, std::vector<ExplanationTemplate>> families[] = {
      {"direct", UnwrapOrDie(TemplatesHandcraftedDirect(data.db, true))},
      {"dataset_b", UnwrapOrDie(TemplatesDataSetB(data.db))},
      {"groups_depth1", UnwrapOrDie(TemplatesGroups(data.db, 1, true))},
      {"groups_all_depths", UnwrapOrDie(TemplatesGroups(data.db, -1, false))},
      {"same_department", UnwrapOrDie(TemplatesSameDepartment(data.db))},
  };
  // At least two cuts of AuditRange's smallest, 4096 rows.
  ASSERT_GE(UnwrapOrDie(static_cast<const Database&>(data.db).GetTable("Log"))
                ->num_rows(),
            2u * 4096u);
  for (const auto& [family, templates] : families) {
    SCOPED_TRACE(family);
    ASSERT_FALSE(templates.empty());
    EBA_ASSERT_OK_AND_ASSIGN(ExplanationReport reference,
                             BoxedExplainAll(data.db, "Log", templates));
    ASSERT_FALSE(reference.explained_lids.empty());
    ASSERT_FALSE(reference.unexplained_lids.empty());

    StreamingAuditor auditor =
        UnwrapOrDie(StreamingAuditor::Create(&data.db, "Log"));
    for (const auto& tmpl : templates) EBA_ASSERT_OK(auditor.AddTemplate(tmpl));
    for (size_t threads : {1, 2, 4, 8}) {
      ExplainAllOptions options;
      options.num_threads = threads;
      EBA_ASSERT_OK_AND_ASSIGN(ExplanationReport report,
                               auditor.engine().ExplainAll(options));
      EXPECT_EQ(report.log_size, reference.log_size) << threads;
      EXPECT_EQ(report.per_template_counts, reference.per_template_counts)
          << threads;
      EXPECT_EQ(report.explained_lids, reference.explained_lids) << threads;
      EXPECT_EQ(report.unexplained_lids, reference.unexplained_lids)
          << threads;
    }
    EBA_ASSERT_OK_AND_ASSIGN(StreamingReport first, auditor.ExplainNew());
    EXPECT_EQ(first.new_rows(), reference.log_size);
    EXPECT_EQ(first.per_template_counts, reference.per_template_counts);
    EXPECT_EQ(first.explained_lids, reference.explained_lids);
    EXPECT_EQ(first.unexplained_lids, reference.unexplained_lids);
  }
}

}  // namespace
}  // namespace eba
