// Streaming differential fuzz: seeded randomized interleavings of log
// appends (in-order backlog replay plus synthesized, possibly out-of-order
// and duplicate-lid accesses), foreign-table appends (joinable and
// garbage), table swaps (catalog changes), audit resets, and ExplainNew
// calls. After every audit step the auditor's accumulated state is
// differentially checked against a fresh Engine::ExplainAll on a CLONED
// database — a fully independent oracle sharing no tables, indexes, or
// plan caches with the system under test. The same op sequence runs at
// thread counts {1, 4} and must produce byte-identical reports (the
// streaming analogue of executor_equivalence_test's random-query oracle).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "careweb/generator.h"
#include "careweb/workload.h"
#include "common/random.h"
#include "core/engine.h"
#include "core/ingest.h"
#include "log/access_log.h"
#include "storage/io.h"
#include "tests/test_util.h"

namespace eba {
namespace {

using testing_util::CloneDatabase;
using testing_util::UnwrapOrDie;

void Must(const Status& s) { EBA_CHECK_MSG(s.ok(), s.ToString()); }

/// Compact, order-sensitive digest of a report for cross-thread-count
/// comparison.
std::string Digest(const StreamingReport& r) {
  auto lids = [](const std::vector<int64_t>& v) {
    std::string s;
    for (int64_t lid : v) {
      s += std::to_string(lid);
      s += ',';
    }
    return s;
  };
  std::string d;
  d += std::to_string(r.audited_from) + ":" + std::to_string(r.audited_to);
  d += r.full_reaudit ? "F" : "-";
  d += "|e" + lids(r.explained_lids);
  d += "|u" + lids(r.unexplained_lids);
  d += "|d" + lids(r.delta_explained_lids);
  for (size_t c : r.per_template_counts) d += ";" + std::to_string(c);
  for (size_t c : r.per_template_delta_counts) d += "+" + std::to_string(c);
  return d;
}

struct FuzzFixture {
  CareWebData data;
  std::vector<Row> backlog;
  std::vector<ExplanationTemplate> templates;
  std::unique_ptr<StreamingAuditor> auditor;
  int64_t min_time = 0;
  int64_t max_time = 0;
  int64_t next_lid = 0;
};

FuzzFixture MakeFuzzFixture() {
  FuzzFixture f;
  f.data = UnwrapOrDie(GenerateCareWeb(CareWebConfig::Tiny()));
  const Table* log = UnwrapOrDie(f.data.db.GetTable("Log"));
  AccessLog source = UnwrapOrDie(AccessLog::Wrap(log));
  (void)UnwrapOrDie(AddLogSlice(&f.data.db, "Log", "LogStream", 1, 2,
                                /*first_only=*/false));
  std::unordered_set<size_t> seeded;
  for (size_t r : source.RowsInDayRange(1, 2)) seeded.insert(r);
  for (size_t r = 0; r < log->num_rows(); ++r) {
    if (!seeded.count(r)) f.backlog.push_back(log->GetRow(r));
    f.next_lid = std::max(f.next_lid, source.Get(r).lid + 1);
  }
  f.min_time = source.MinTime();
  f.max_time = source.MaxTime();
  f.templates = UnwrapOrDie(TemplatesHandcraftedDirect(f.data.db, true));
  f.auditor = std::make_unique<StreamingAuditor>(
      UnwrapOrDie(StreamingAuditor::Create(&f.data.db, "LogStream")));
  for (const auto& tmpl : f.templates) Must(f.auditor->AddTemplate(tmpl));
  return f;
}

/// The differential oracle: every audited lid's explained/unexplained
/// classification must match a fresh full ExplainAll on a cloned database.
void CheckAgainstClonedOracle(const Database& db,
                              const std::vector<ExplanationTemplate>& templates,
                              const StreamingAuditor& auditor, size_t step) {
  Database clone = CloneDatabase(db);
  ExplanationEngine oracle =
      UnwrapOrDie(ExplanationEngine::Create(&clone, "LogStream"));
  for (const auto& tmpl : templates) Must(oracle.AddTemplate(tmpl));
  const ExplanationReport full = UnwrapOrDie(oracle.ExplainAll());
  const std::unordered_set<int64_t> full_explained(full.explained_lids.begin(),
                                                   full.explained_lids.end());
  const Table* stream =
      UnwrapOrDie(static_cast<const Database&>(db).GetTable("LogStream"));
  AccessLog log = UnwrapOrDie(AccessLog::Wrap(stream));
  ASSERT_LE(auditor.audited_rows(), stream->num_rows());
  const std::unordered_set<int64_t> streamed_explained =
      auditor.explained_lids();
  size_t mismatches = 0;
  for (size_t r = 0; r < auditor.audited_rows() && mismatches < 5; ++r) {
    const int64_t lid = log.Get(r).lid;
    const bool streamed = streamed_explained.count(lid) > 0;
    const bool expected = full_explained.count(lid) > 0;
    if (streamed != expected) {
      ++mismatches;
      ADD_FAILURE() << "step " << step << " row " << r << " lid " << lid
                    << ": streaming says "
                    << (streamed ? "explained" : "unexplained")
                    << ", cloned-oracle ExplainAll says "
                    << (expected ? "explained" : "unexplained");
    }
  }
}

/// Runs `steps` random ops from `seed` at `num_threads`, returning one
/// digest per audit. EXPECT-fails on any oracle divergence.
std::vector<std::string> RunFuzz(uint64_t seed, size_t steps,
                                 size_t num_threads) {
  FuzzFixture f = MakeFuzzFixture();
  Random rng(seed);
  StreamingOptions options;
  options.num_threads = num_threads;

  const std::vector<std::string> foreign_tables = {"Appointments", "Visits",
                                                   "Documents"};
  size_t backlog_pos = 0;
  bool expect_full = false;
  std::vector<std::string> digests;

  auto audit = [&](size_t step) {
    const StreamingReport report = UnwrapOrDie(f.auditor->ExplainNew(options));
    EXPECT_EQ(report.full_reaudit, expect_full) << "step " << step;
    expect_full = false;
    // The delta pass reports only retroactive flips: disjoint from the
    // new-lid partition by construction.
    for (int64_t lid : report.delta_explained_lids) {
      EXPECT_FALSE(std::binary_search(report.explained_lids.begin(),
                                      report.explained_lids.end(), lid));
      EXPECT_FALSE(std::binary_search(report.unexplained_lids.begin(),
                                      report.unexplained_lids.end(), lid));
    }
    digests.push_back(Digest(report));
    CheckAgainstClonedOracle(f.data.db, f.templates, *f.auditor, step);
  };

  auto synth_access = [&]() {
    Row row(5);
    // ~8% duplicate lids; otherwise fresh. Dates are drawn across the whole
    // log span, so late-arriving EARLIER accesses occur — exercising the
    // self-join retroactive-explanation path.
    row[0] = Value::Int64(rng.Bernoulli(0.08)
                              ? rng.UniformRange(1, f.next_lid - 1)
                              : f.next_lid++);
    row[1] = Value::Timestamp(rng.UniformRange(f.min_time, f.max_time));
    row[2] = Value::Int64(rng.Choice(f.data.truth.all_users));
    row[3] = Value::Int64(rng.Choice(f.data.truth.all_patients));
    row[4] = Value::String("fuzz");
    return row;
  };

  for (size_t step = 0; step < steps; ++step) {
    const size_t op = rng.WeightedIndex({30, 25, 35, 5, 5});
    switch (op) {
      case 0: {  // log append: in-order backlog replay mixed with
                 // synthesized (out-of-order, sometimes duplicate-lid) rows
        const size_t k = rng.Uniform(9);  // 0 = empty batch
        std::vector<Row> batch;
        for (size_t i = 0; i < k; ++i) {
          if (backlog_pos < f.backlog.size() && rng.Bernoulli(0.6)) {
            batch.push_back(f.backlog[backlog_pos++]);
          } else {
            batch.push_back(synth_access());
          }
        }
        Must(f.auditor->AppendAccessBatch(batch));
        break;
      }
      case 1: {  // foreign-table append
        const std::string& table = rng.Choice(foreign_tables);
        const Table* stream =
            UnwrapOrDie(static_cast<const Database&>(f.data.db)
                            .GetTable("LogStream"));
        AccessLog log = UnwrapOrDie(AccessLog::Wrap(stream));
        const size_t cols = UnwrapOrDie(static_cast<const Database&>(f.data.db)
                                            .GetTable(table))
                                ->num_columns();
        const size_t k = 1 + rng.Uniform(3);
        std::vector<Row> rows;
        for (size_t i = 0; i < k; ++i) {
          int64_t patient, user, when;
          if (stream->num_rows() > 0 && rng.Bernoulli(0.7)) {
            // Joinable: witness a random existing (possibly already
            // audited) access.
            const AccessLog::Entry e =
                log.Get(rng.Uniform(stream->num_rows()));
            patient = e.patient;
            user = e.user;
            when = e.time - static_cast<int64_t>(rng.Uniform(3600));
          } else {
            patient = 900000 + static_cast<int64_t>(rng.Uniform(1000));
            user = 900000 + static_cast<int64_t>(rng.Uniform(1000));
            when = rng.UniformRange(f.min_time, f.max_time);
          }
          Row row(cols);
          row[0] = Value::Int64(patient);
          row[1] = Value::Timestamp(when);
          for (size_t c = 2; c < cols; ++c) row[c] = Value::Int64(user);
          rows.push_back(std::move(row));
        }
        if (rng.Bernoulli(0.5)) {
          Must(f.auditor->AppendRows(table, rows));
        } else {
          // Appends behind the auditor's back are equivalent: drift is
          // classified from the watermark snapshot, not the call site.
          Table* t = f.data.db.GetTable(table).value();
          for (const Row& row : rows) Must(t->AppendRow(row));
        }
        break;
      }
      case 2:  // audit + differential check
        audit(step);
        break;
      case 3: {  // catalog change: swap in a same-name copy, identical data
        const std::string& table = rng.Bernoulli(0.5)
                                       ? foreign_tables[rng.Uniform(
                                             foreign_tables.size())]
                                       : std::string("LogStream");
        testing_util::ReplaceTable(
            &f.data.db,
            testing_util::CopyTable(*f.data.db.GetTable(table).value()));
        expect_full = true;
        break;
      }
      case 4:  // audit reset: not drift, just forgets
        f.auditor->ResetAudit();
        break;
    }
  }
  audit(steps);  // closing audit so every interleaving ends checked
  return digests;
}

// --- Seeded crash-at-step-k mode ------------------------------------------

struct CrashOp {
  enum Kind { kLogAppend, kForeignAppend, kAudit };
  Kind kind;
  std::string table;      // kForeignAppend only
  std::vector<Row> rows;  // append ops only
};

/// Materializes a seeded random schedule as data, so the pre-crash prefix
/// and the post-recovery suffix execute the exact same ops for every kill
/// point k. Log appends replay the backlog in order; foreign appends
/// witness a random backlog access (joinable by construction).
std::vector<CrashOp> MakeCrashSchedule(uint64_t seed, size_t steps,
                                       const FuzzFixture& f) {
  Random rng(seed);
  const std::vector<std::string> foreign_tables = {"Appointments", "Visits",
                                                   "Documents"};
  std::vector<CrashOp> ops;
  size_t backlog_pos = 0;
  for (size_t step = 0; step < steps; ++step) {
    switch (rng.WeightedIndex({40, 25, 35})) {
      case 0: {
        CrashOp op;
        op.kind = CrashOp::kLogAppend;
        const size_t k = 1 + rng.Uniform(4);
        for (size_t i = 0; i < k && backlog_pos < f.backlog.size(); ++i) {
          op.rows.push_back(f.backlog[backlog_pos++]);
        }
        ops.push_back(std::move(op));
        break;
      }
      case 1: {
        CrashOp op;
        op.kind = CrashOp::kForeignAppend;
        op.table = rng.Choice(foreign_tables);
        const size_t cols =
            UnwrapOrDie(
                static_cast<const Database&>(f.data.db).GetTable(op.table))
                ->num_columns();
        const Row& src = f.backlog[rng.Uniform(f.backlog.size())];
        Row row(cols);
        row[0] = src[3];                                 // patient
        row[1] = src[1];                                 // time
        for (size_t c = 2; c < cols; ++c) row[c] = src[2];  // user
        op.rows.push_back(std::move(row));
        ops.push_back(std::move(op));
        break;
      }
      case 2:
        ops.push_back(CrashOp{CrashOp::kAudit, "", {}});
        break;
    }
  }
  ops.push_back(CrashOp{CrashOp::kAudit, "", {}});  // closing audit
  return ops;
}

void ApplyCrashOp(StreamingAuditor* auditor, const CrashOp& op,
                  const StreamingOptions& options) {
  switch (op.kind) {
    case CrashOp::kLogAppend:
      Must(auditor->AppendAccessBatch(op.rows));
      break;
    case CrashOp::kForeignAppend:
      Must(auditor->AppendRows(op.table, op.rows));
      break;
    case CrashOp::kAudit:
      (void)UnwrapOrDie(auditor->ExplainNew(options));
      break;
  }
}

TEST(StreamingFuzzTest, CrashAtEveryStepRecoversAndFinishesSchedule) {
  const uint64_t kSeed = 20110930;
  const size_t kSteps = 12;
  const std::string dir = ::testing::TempDir() + "/fuzz_crash_recover";
  StreamingOptions options;
  DurabilityOptions dopts;
  dopts.dir = dir;
  dopts.sync = WalSync::kNone;
  dopts.checkpoint_after_wal_bytes = 1024;  // auto-checkpoints mid-schedule

  const FuzzFixture rows_source = MakeFuzzFixture();
  const std::vector<CrashOp> ops = MakeCrashSchedule(kSeed, kSteps,
                                                     rows_source);

  for (size_t k = 0; k <= ops.size(); ++k) {
    Must(RealEnv()->RemoveAll(dir));
    {
      FuzzFixture f = MakeFuzzFixture();
      Must(f.auditor->EnableDurability(dopts));
      for (size_t i = 0; i < k; ++i) {
        ApplyCrashOp(f.auditor.get(), ops[i], options);
      }
      // The process "dies" here: every in-memory structure is discarded.
      // Under WalSync::kNone all acknowledged writes reached the kernel —
      // exactly what survives a kill -9.
    }
    FuzzFixture g = MakeFuzzFixture();
    g.auditor.reset();  // recovery builds its own auditor over g's database
    RecoveryStats stats;
    StreamingAuditor recovered = UnwrapOrDie(StreamingAuditor::RecoverFrom(
        &g.data.db, "LogStream", dopts, &stats));
    EXPECT_TRUE(stats.recovered) << "kill step " << k;
    for (const auto& tmpl : g.templates) Must(recovered.AddTemplate(tmpl));
    // Converge, then finish the interrupted schedule as if nothing happened.
    (void)UnwrapOrDie(recovered.ExplainNew(options));
    for (size_t i = k; i < ops.size(); ++i) {
      ApplyCrashOp(&recovered, ops[i], options);
    }
    (void)UnwrapOrDie(recovered.ExplainNew(options));
    CheckAgainstClonedOracle(g.data.db, g.templates, recovered, k);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

// --- Genuinely interleaved readers and writer ------------------------------

TEST(StreamingFuzzTest, ConcurrentReadersUnderIngestMatchClonedOracle) {
  // A real concurrent interleaving, not a serial shuffle: one writer thread
  // streams log and foreign appends in while an auditing reader calls
  // ExplainNew and a point reader calls engine().Explain / explained_lids /
  // explained_count, all against the same live database. No table swaps
  // and no resets — appends-only is the regime snapshot pinning promises to
  // support concurrently. TSAN (the CI sanitizer job runs this binary)
  // checks the synchronization; invariants are checked mid-flight and the
  // cloned-database oracle re-derives every classification after quiesce.
  FuzzFixture f = MakeFuzzFixture();
  StreamingOptions options;
  options.num_threads = 2;

  // The seeded lids exist for the whole run: safe point-lookup targets.
  std::vector<int64_t> seeded_lids;
  {
    const Table* stream = UnwrapOrDie(
        static_cast<const Database&>(f.data.db).GetTable("LogStream"));
    AccessLog log = UnwrapOrDie(AccessLog::Wrap(stream));
    for (size_t r = 0; r < stream->num_rows(); ++r) {
      seeded_lids.push_back(log.Get(r).lid);
    }
  }
  ASSERT_FALSE(seeded_lids.empty());

  // Pre-materialize the writer's schedule: the data is deterministic, only
  // the thread interleaving varies run to run. Log batches replay the
  // backlog in order with occasional fresh synthetic rows; foreign appends
  // witness a random backlog access (joinable by construction, so delta
  // passes fire while the log is still growing).
  struct WriteOp {
    std::string table;  // empty = log append
    std::vector<Row> rows;
  };
  std::vector<WriteOp> writes;
  {
    Random rng(20110930);
    const std::vector<std::string> foreign_tables = {"Appointments", "Visits",
                                                     "Documents"};
    size_t backlog_pos = 0;
    while (backlog_pos < f.backlog.size()) {
      WriteOp op;
      if (rng.Bernoulli(0.25)) {
        op.table = rng.Choice(foreign_tables);
        const size_t cols =
            UnwrapOrDie(
                static_cast<const Database&>(f.data.db).GetTable(op.table))
                ->num_columns();
        const Row& src = f.backlog[rng.Uniform(f.backlog.size())];
        Row row(cols);
        row[0] = src[3];                                    // patient
        row[1] = src[1];                                    // time
        for (size_t c = 2; c < cols; ++c) row[c] = src[2];  // user
        op.rows.push_back(std::move(row));
      } else {
        const size_t k = 1 + rng.Uniform(4);
        for (size_t i = 0; i < k && backlog_pos < f.backlog.size(); ++i) {
          op.rows.push_back(f.backlog[backlog_pos++]);
        }
        if (rng.Bernoulli(0.2)) {
          Row row(5);
          row[0] = Value::Int64(f.next_lid++);
          row[1] = Value::Timestamp(rng.UniformRange(f.min_time, f.max_time));
          row[2] = Value::Int64(rng.Choice(f.data.truth.all_users));
          row[3] = Value::Int64(rng.Choice(f.data.truth.all_patients));
          row[4] = Value::String("fuzz");
          op.rows.push_back(std::move(row));
        }
      }
      writes.push_back(std::move(op));
    }
  }

  (void)UnwrapOrDie(f.auditor->ExplainNew(options));  // seed audit

  std::atomic<bool> done{false};
  std::atomic<size_t> audits{0};

  std::thread writer([&] {
    for (const WriteOp& op : writes) {
      if (op.table.empty()) {
        Must(f.auditor->AppendAccessBatch(op.rows));
      } else {
        Must(f.auditor->AppendRows(op.table, op.rows));
      }
      std::this_thread::yield();
    }
    done.store(true, std::memory_order_release);
  });

  std::thread auditing_reader([&] {
    size_t last_to = 0;
    // Keep auditing until the writer finished AND a handful of audits ran,
    // so reads genuinely overlap the append stream even if the writer wins
    // the race to start.
    while (!done.load(std::memory_order_acquire) ||
           audits.load(std::memory_order_relaxed) < 6) {
      const StreamingReport r = UnwrapOrDie(f.auditor->ExplainNew(options));
      EXPECT_FALSE(r.full_reaudit);  // appends never force a re-audit
      EXPECT_GE(r.audited_to, last_to);
      last_to = r.audited_to;
      for (int64_t lid : r.delta_explained_lids) {
        EXPECT_FALSE(std::binary_search(r.explained_lids.begin(),
                                        r.explained_lids.end(), lid));
        EXPECT_FALSE(std::binary_search(r.unexplained_lids.begin(),
                                        r.unexplained_lids.end(), lid));
      }
      audits.fetch_add(1, std::memory_order_relaxed);
    }
  });

  std::thread point_reader([&] {
    Random rng(424242);
    while (!done.load(std::memory_order_acquire)) {
      const int64_t lid = rng.Choice(seeded_lids);
      const StatusOr<std::vector<ExplanationInstance>> instances =
          f.auditor->engine().Explain(lid);
      EXPECT_TRUE(instances.ok()) << instances.status().ToString();
      (void)f.auditor->explained_lids().count(lid);
      (void)f.auditor->explained_count();
    }
  });

  writer.join();
  auditing_reader.join();
  point_reader.join();
  EXPECT_GE(audits.load(), 6u);

  // Quiesce: one closing audit converges the explained set, then the
  // cloned-database oracle re-derives every lid's classification from
  // scratch and must agree.
  const StreamingReport last = UnwrapOrDie(f.auditor->ExplainNew(options));
  EXPECT_FALSE(last.full_reaudit);
  const Table* stream = UnwrapOrDie(
      static_cast<const Database&>(f.data.db).GetTable("LogStream"));
  EXPECT_EQ(f.auditor->audited_rows(), stream->num_rows());
  CheckAgainstClonedOracle(f.data.db, f.templates, *f.auditor, 0);
}

TEST(StreamingFuzzTest, DifferentialOracleAcrossSeedsAndThreadCounts) {
  // >= 200 interleaving steps total (acceptance criterion), each sequence
  // run at thread counts 1 and 4 with byte-identical reports required.
  const uint64_t kSeeds[] = {20110930, 424242};
  const size_t kSteps = 120;
  for (uint64_t seed : kSeeds) {
    const std::vector<std::string> serial = RunFuzz(seed, kSteps, 1);
    ASSERT_FALSE(serial.empty());
    const std::vector<std::string> parallel = RunFuzz(seed, kSteps, 4);
    ASSERT_EQ(serial.size(), parallel.size()) << "seed " << seed;
    for (size_t i = 0; i < serial.size(); ++i) {
      EXPECT_EQ(serial[i], parallel[i])
          << "seed " << seed << " audit " << i
          << ": parallel report diverges from serial";
    }
  }
}

}  // namespace
}  // namespace eba
