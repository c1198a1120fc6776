// ingest_durable: the EHR feed with durable incremental audit. A 14-day
// Scaled(3) hospital whose LogStream holds days 1-7; the first 352 batches
// of the day 8-14 backlog stream in as 256-row AppendAccessBatch calls, each
// followed by a 1-thread ExplainNew and 4 in-process Explain calls on rows
// of that batch. Every 8th batch also appends 8 Appointments rows that the
// reverse semi-join pass absorbs, and every 64th batch is followed by an
// explicit Checkpoint() (every 4th of them a full image). WAL sync is
// kNone: the fsync cost belongs to the disk, not to this code.
//
// The stream has the same shape on every hospital: checkpoints after
// batches 64, 128, 192, 256 (the full image) and 320, then a 32-batch tail
// that recovery replays from the WAL. With each hospital's whole backlog,
// the number of checkpoints, whether a full image is among them and the
// length of the replayed tail would follow the backlog's length, and so
// the seed.
//
// A run is a sequence of episodes — set-up, the fixed stream, served reads,
// crash (drop the auditor and its database), then three times RecoverFrom
// plus one converging ExplainNew — cycling through the hospitals drawn from
// the seed until the run's seconds are spent, and at least one per hospital.
// Every end-to-end figure is the mean over hospitals of the hospital's
// median, so a hospital that ran one more episode does not weigh more.
// Fixed work per episode keeps the recovered state the same however fast
// the stream ran.
//
// The served reads put the net layer in the workload: after the stream, an
// AuditServer on TCP loopback answers 1024 per-access Explain requests about
// the accesses just ingested, one at a time, and each answer is
// byte-compared with the in-process one.

#include <filesystem>
#include <memory>
#include <unordered_set>

#include "common/random.h"
#include "core/ingest.h"
#include "fixture.h"
#include "hostspeed.h"
#include "log/access_log.h"
#include "net/client.h"

namespace perfbench {

namespace fs = std::filesystem;
using eba::Row;
using eba::StreamingAuditor;

namespace {

constexpr int kScale = 3;
constexpr size_t kBatchRows = 256;
constexpr size_t kExplainsPerBatch = 4;
constexpr size_t kForeignEvery = 8;
constexpr size_t kForeignRows = 8;
constexpr size_t kCheckpointEvery = 64;
/// Batches streamed per episode; a Scaled(3) backlog holds 365-395 of them
/// (200 generator seeds).
constexpr size_t kStreamBatches = 352;
/// Served reads after each episode's stream.
constexpr size_t kServedExplains = 1024;
/// Hospitals per run: an episode takes about 5 s, so a 25-second run holds
/// about one episode per hospital.
constexpr int kIngestHospitals = 4;
static_assert(kIngestHospitals <= kMaxHospitals,
              "hospital seeds would overlap");
/// Recoveries per episode, each from the same store, as in a crash loop.
/// Each opens one more, still empty WAL and otherwise repeats the work of
/// the first; with one per episode, a run had 1-2 samples per hospital.
constexpr int kRecoveries = 3;

uint64_t DirBytes(const fs::path& dir) {
  uint64_t bytes = 0;
  std::error_code ec;
  for (fs::recursive_directory_iterator it(dir, ec), end; !ec && it != end;
       it.increment(ec)) {
    if (it->is_regular_file(ec)) bytes += it->file_size(ec);
  }
  return bytes;
}

/// The checkpoint CURRENT names: "ckpt-<seq>".
std::string CurrentCheckpoint(const fs::path& dir) {
  std::FILE* f = std::fopen((dir / "CURRENT").c_str(), "r");
  if (f == nullptr) throw BenchFailure("no CURRENT in the store");
  char name[128] = {};
  const bool read = std::fgets(name, sizeof name, f) != nullptr;
  std::fclose(f);
  std::string s = name;
  while (!s.empty() && (s.back() == '\n' || s.back() == '\r')) s.pop_back();
  if (!read || s.rfind("ckpt-", 0) != 0) {
    throw BenchFailure("unreadable CURRENT in the store");
  }
  return s;
}

/// Bytes of the live WAL: wal-<seq>.log, opened when the checkpoint CURRENT
/// names was published. Older WALs of the checkpoint chain stay on disk
/// until the next full image and are not counted.
uint64_t LiveWalBytes(const fs::path& dir) {
  const std::string seq = CurrentCheckpoint(dir).substr(5);
  std::error_code ec;
  const uint64_t bytes = fs::file_size(dir / ("wal-" + seq + ".log"), ec);
  if (ec) throw BenchFailure("no live WAL for ckpt-" + seq);
  return bytes;
}

struct Samples {
  PerHospital setup_s = PerHospital(kIngestHospitals);
  PerHospital batch_ms = PerHospital(kIngestHospitals);
  PerHospital recover_ms = PerHospital(kIngestHospitals);
  PerHospital rows_per_s = PerHospital(kIngestHospitals);  // per episode
  std::vector<double> generate_s, slice_s;
  std::vector<double> append_ms, foreign_ms, explain_new_ms;
  std::vector<double> explain_ms, traced_ms, untraced_ms;
  std::vector<double> ckpt_full_s, ckpt_incr_s;
  std::vector<double> converge_s, ckpt_load_s, db_load_s, replay_s;
  uint64_t streamed_rows = 0;
  uint64_t delta_queries = 0, delta_lids = 0;
  uint64_t wal_bytes = 0, wal_rows = 0, rows_replayed = 0;
  double full_bytes_per_row = 0.0;
  uint64_t store_bytes = 0;
  eba::PlanCache::Stats cache;
  size_t resident_bytes = 0;
  std::vector<double> rtt_ms, local_ms;
  std::vector<std::string> payloads;
  uint64_t requests_served = 0;
};

void Accumulate(const eba::PlanCache::Stats& before,
                const eba::PlanCache::Stats& after, eba::PlanCache::Stats* sum) {
  sum->hits += after.hits - before.hits;
  sum->misses += after.misses - before.misses;
  sum->rebinds += after.rebinds - before.rebinds;
  sum->invalidations += after.invalidations - before.invalidations;
}

/// One episode, on hospital `episode % kIngestHospitals`; `check` runs the
/// pre-crash differential check, `probe` the attribution-only query-layer
/// probe. Batch, recovery and set-up times are at reference speed (`host`).
void RunEpisode(const RunConfig& config, int episode, bool check, bool probe,
                HostSpeed* host, SpanBuffer* spans, Samples* out,
                Result* result) {
  SpanBuffer off(false, Clock::now(), 0);
  const int hospital = episode % kIngestHospitals;
  const fs::path dir =
      fs::path(config.work_dir) / ("store-" + std::to_string(episode));
  fs::remove_all(dir);
  eba::DurabilityOptions dopts;
  dopts.dir = dir.string();
  dopts.sync = eba::WalSync::kNone;
  dopts.checkpoint_after_wal_bytes = 0;  // explicit checkpoints only
  dopts.full_checkpoint_interval = 4;

  // --- Set-up. ---
  host->Between();
  const Clock::time_point setup_start = Clock::now();
  std::unique_ptr<StreamData> sd;
  std::unique_ptr<StreamingAuditor> auditor;
  std::vector<eba::ExplanationTemplate> templates;
  {
    ScopedSpan root(spans, "setup", Layer::kBench);
    sd = std::make_unique<StreamData>(GenerateStream(
        kScale, HospitalSeed(config.seed, hospital), spans));
    out->generate_s.push_back(sd->generate_s);
    out->slice_s.push_back(sd->slice_s);
    templates = StreamTemplates(sd->data.db, spans);
    {
      ScopedSpan span(spans, "core.register", Layer::kCore);
      auditor = std::make_unique<StreamingAuditor>(Unwrap(
          StreamingAuditor::Create(&sd->data.db, "LogStream"), "auditor"));
      for (const auto& tmpl : templates) {
        Check(auditor->AddTemplate(tmpl), "template");
      }
    }
    {
      ScopedSpan span(spans, "core.explain_new", Layer::kCore);
      (void)Unwrap(auditor->ExplainNew(), "cold audit");
    }
    {
      ScopedSpan span(spans, "storage.enable_durability", Layer::kStorage);
      Check(auditor->EnableDurability(dopts), "initial checkpoint");
    }
  }
  out->setup_s[hospital].push_back(host->Scaled(MsSince(setup_start)) / 1e3);

  // --- The stream. ---
  const eba::Table* stream = Unwrap(
      static_cast<const eba::Database&>(sd->data.db).GetTable("LogStream"),
      "stream table");
  const eba::AccessLog stream_view =
      Unwrap(eba::AccessLog::Wrap(stream), "wrap stream");
  eba::Random rng(HospitalSeed(config.seed, hospital) * 1000003 + 17);
  eba::Random coin(config.seed ^ 0x5eed);
  const eba::PlanCache::Stats cache_before =
      auditor->engine().plan_cache()->stats();
  const std::vector<Row>& backlog = sd->backlog;
  const size_t streamed = kStreamBatches * kBatchRows;
  if (backlog.size() < streamed) {
    throw BenchFailure("backlog of " + std::to_string(backlog.size()) +
                       " rows is shorter than the stream");
  }
  const size_t lid_column = static_cast<size_t>(sd->lid_column);
  uint64_t rows_since_checkpoint = 0;
  double stream_ms = 0.0;  // batches and their Explain calls
  size_t b = 0;
  for (size_t begin = 0; begin < streamed; begin += kBatchRows, ++b) {
    host->Between();
    // A batch is a few milliseconds: its calls are scaled by the samples
    // taken before it.
    const double scale = host->Factor();
    const std::vector<Row> batch(
        backlog.begin() + static_cast<std::ptrdiff_t>(begin),
        backlog.begin() + static_cast<std::ptrdiff_t>(begin + kBatchRows));
    const bool traced = config.trace && coin.Uniform(2) == 0;
    SpanBuffer* s = traced ? spans : &off;
    ScopedSpan root(s, "batch", Layer::kBench);
    result->attempted += 1;
    // A batch's latency, append to audited, is the sum of the calls it
    // makes; the benchmark's own bookkeeping between them stays out.
    double batch_ms = 0.0;
    const Clock::time_point start = Clock::now();
    {
      ScopedSpan span(s, "core.append", Layer::kCore);
      Check(auditor->AppendAccessBatch(batch), "append");
    }
    out->append_ms.push_back(scale * MsSince(start));
    batch_ms += out->append_ms.back();
    rows_since_checkpoint += batch.size();
    if (b % kForeignEvery == kForeignEvery - 1) {
      std::vector<Row> rows;
      for (size_t i = 0; i < kForeignRows; ++i) {
        const eba::AccessLog::Entry e =
            stream_view.Get(rng.Uniform(stream->num_rows()));
        rows.push_back({eba::Value::Int64(e.patient),
                        eba::Value::Timestamp(e.time - 1800),
                        eba::Value::Int64(e.user)});
      }
      result->attempted += 1;
      const Clock::time_point t = Clock::now();
      {
        ScopedSpan span(s, "core.foreign_append", Layer::kCore);
        Check(auditor->AppendRows("Appointments", rows), "foreign append");
      }
      out->foreign_ms.push_back(scale * MsSince(t));
      batch_ms += out->foreign_ms.back();
      rows_since_checkpoint += rows.size();
    }
    {
      const Clock::time_point t = Clock::now();
      eba::StreamingReport report;
      {
        ScopedSpan span(s, "core.explain_new", Layer::kCore);
        report = Unwrap(auditor->ExplainNew(), "ExplainNew");
      }
      out->explain_new_ms.push_back(scale * MsSince(t));
      batch_ms += out->explain_new_ms.back();
      if (report.full_reaudit) result->FailCheck("append forced a re-audit");
      out->delta_queries += report.delta_queries;
      out->delta_lids += report.delta_explained_lids.size();
    }
    if (b % kCheckpointEvery == kCheckpointEvery - 1) {
      out->wal_bytes += LiveWalBytes(dir);
      out->wal_rows += rows_since_checkpoint;
      rows_since_checkpoint = 0;
      result->attempted += 1;
      const Clock::time_point t = Clock::now();
      {
        ScopedSpan span(s, "storage.checkpoint", Layer::kStorage);
        Check(auditor->Checkpoint(), "checkpoint");
      }
      const double seconds = scale * SecondsSince(t);
      batch_ms += 1e3 * seconds;
      const fs::path ckpt = dir / CurrentCheckpoint(dir);
      if (fs::is_directory(ckpt / "db")) {  // a full image
        out->ckpt_full_s.push_back(seconds);
        out->full_bytes_per_row =
            static_cast<double>(DirBytes(ckpt)) /
            static_cast<double>(sd->data.db.TotalRows());
      } else {
        out->ckpt_incr_s.push_back(seconds);
      }
    }
    out->batch_ms[hospital].push_back(batch_ms);
    (traced ? out->traced_ms : out->untraced_ms).push_back(batch_ms);
    for (size_t k = 0; k < kExplainsPerBatch; ++k) {
      const int64_t lid =
          batch[rng.Uniform(batch.size())][lid_column].AsInt64();
      result->attempted += 1;
      const Clock::time_point t = Clock::now();
      {
        ScopedSpan span(s, "core.explain", Layer::kCore);
        (void)Unwrap(auditor->engine().Explain(lid), "Explain");
      }
      out->explain_ms.push_back(scale * MsSince(t));
      stream_ms += out->explain_ms.back();
    }
    stream_ms += batch_ms;
  }
  out->rows_per_s[hospital].push_back(static_cast<double>(streamed) /
                                      (stream_ms / 1e3));
  out->streamed_rows += streamed;
  Accumulate(cache_before, auditor->engine().plan_cache()->stats(),
             &out->cache);
  out->resident_bytes = auditor->engine().plan_cache()->resident_bytes();

  // --- Check: the incremental explained set equals a fresh full audit. ---
  if (check) {
    eba::Database clone = sd->data.db.Clone();
    eba::ExplanationEngine oracle =
        Unwrap(eba::ExplanationEngine::Create(&clone, "LogStream"), "oracle");
    for (const auto& tmpl : templates) {
      Check(oracle.AddTemplate(tmpl), "oracle template");
    }
    const eba::ExplanationReport full =
        Unwrap(oracle.ExplainAll(), "oracle ExplainAll");
    const std::unordered_set<int64_t> full_set(full.explained_lids.begin(),
                                               full.explained_lids.end());
    if (!auditor->ExplainedSetEquals(full_set)) {
      result->FailCheck("incremental explained set differs from a fresh "
                        "ExplainAll on a clone");
    }
  }

  if (probe) {
    ScopedSpan root(spans, "probe", Layer::kBench);
    (void)ProbeQueryLayer(auditor->engine(), sd->data.db.CreateSnapshot(),
                          spans, result);
  }

  // --- Served reads: the portal asks about accesses just ingested, one
  // --- request at a time, with no write in flight. Each served payload must
  // --- equal the in-process answer of the same auditor. ---
  {
    std::unique_ptr<eba::AuditServer> server;
    std::unique_ptr<eba::AuditClient> client;
    {
      ScopedSpan root(spans, "serve", Layer::kBench);
      server = Serve(auditor.get(), spans);
      client = Unwrap(eba::AuditClient::Connect(eba::RealNetEnv(), "127.0.0.1",
                                                server->port(), ""),
                      "connect");
    }
    size_t mismatches = 0;
    for (size_t k = 0; k < kServedExplains; ++k) {
      const int64_t lid =
          backlog[rng.Uniform(streamed)][lid_column].AsInt64();
      result->attempted += 1;
      Clock::time_point t = Clock::now();
      eba::StatusOr<eba::ExplainResult> got = [&] {
        ScopedSpan root(spans, "served_read", Layer::kBench);
        ScopedSpan span(spans, "net.explain", Layer::kNet);
        return client->Explain(lid);
      }();
      const double rtt = MsSince(t);
      if (!got.ok()) {
        result->failed += 1;
        continue;
      }
      out->rtt_ms.push_back(rtt);
      t = Clock::now();
      const auto instances =
          Unwrap(auditor->engine().Explain(lid), "in-process Explain");
      out->local_ms.push_back(MsSince(t));
      std::string payload = eba::EncodeExplainResult(*got);
      if (payload != eba::EncodeExplainResult(ToExplainResult(instances))) {
        ++mismatches;
      }
      if (out->payloads.size() < kServedExplains) {
        out->payloads.push_back(std::move(payload));
      }
    }
    out->requests_served +=
        Unwrap(client->Report(), "server report").requests_served;
    if (mismatches > 0) {
      result->FailCheck(std::to_string(mismatches) +
                        " served Explain payloads differ from the in-process "
                        "answer");
    }
  }

  // --- Crash, then recover, kRecoveries times from the same store. ---
  const std::unordered_set<int64_t> before_crash = auditor->explained_lids();
  out->store_bytes = DirBytes(dir);
  auditor.reset();
  sd.reset();
  for (int r = 0; r < kRecoveries; ++r) {
    host->Between();
    double recover_ms = 0.0;
    {
      ScopedSpan root(spans, "recover", Layer::kBench);
      result->attempted += 1;
      eba::Database db;
      eba::RecoveryStats stats;
      const Clock::time_point start = Clock::now();
      std::unique_ptr<StreamingAuditor> recovered;
      {
        ScopedSpan span(spans, "storage.recover_from", Layer::kStorage);
        recovered = std::make_unique<StreamingAuditor>(Unwrap(
            StreamingAuditor::RecoverFrom(&db, "LogStream", dopts, &stats),
            "RecoverFrom"));
      }
      const Clock::time_point converge = Clock::now();
      {
        ScopedSpan span(spans, "core.converge", Layer::kCore);
        for (const auto& tmpl : templates) {
          Check(recovered->AddTemplate(tmpl), "recovered template");
        }
        (void)Unwrap(recovered->ExplainNew(), "converging ExplainNew");
      }
      out->converge_s.push_back(SecondsSince(converge));
      recover_ms = MsSince(start);
      out->ckpt_load_s.push_back(stats.checkpoint_load_seconds);
      out->db_load_s.push_back(stats.db_load_seconds);
      out->replay_s.push_back(stats.wal_replay_seconds);
      out->rows_replayed = stats.wal_rows_replayed;
      if (!recovered->ExplainedSetEquals(before_crash)) {
        result->FailCheck("explained set after recovery differs from the "
                          "set before the crash");
      }
    }
    out->recover_ms[hospital].push_back(host->Scaled(recover_ms));
  }
  fs::remove_all(dir);
}

}  // namespace

void RunIngestDurable(const RunConfig& config, Result* result) {
  Tracer tracer(config.trace);
  SpanBuffer* spans = tracer.NewBuffer();
  Samples s;
  HostSpeed host;
  double peak_rss_mb = 0.0;
  const Clock::time_point phase = Clock::now();
  int episodes = 0;
  while (episodes < kIngestHospitals || SecondsSince(phase) < config.seconds) {
    RunEpisode(config, episodes, /*check=*/episodes < kIngestHospitals,
               /*probe=*/config.trace && episodes == 0, &host, spans, &s,
               result);
    ++episodes;
    // After one episode per hospital (see PeakRssMb).
    if (episodes == kIngestHospitals) peak_rss_mb = PeakRssMb();
  }

  // --- End-to-end. ---
  const double recover_ms = MeanOfMedians(s.recover_ms);
  const double rows_per_s = MeanOfMedians(s.rows_per_s);
  std::vector<double> batch_ms;
  for (const auto& hospital : s.batch_ms) {
    batch_ms.insert(batch_ms.end(), hospital.begin(), hospital.end());
  }
  ReportHostSpeed(host, result);
  result->Set("setup_s", MeanOfMedians(s.setup_s), "s");
  result->Set("peak_rss_mb", peak_rss_mb, "MB");
  result->Set("main_p50_ms", MeanOfMedians(s.batch_ms), "ms");
  result->Set("main_tail_ms", HighestSupported(batch_ms).value, "ms");
  result->Set("aux_p50_ms", recover_ms, "ms");
  result->Set("rows_per_s", rows_per_s, "rows/s");
  result->Set("ingest_rows_per_s", rows_per_s, "rows/s");
  result->Set("recover_s", recover_ms / 1e3, "s");
  ReportLatency("batch", batch_ms, result);

  // --- Per layer. ---
  result->Set("careweb.generate_s", Median(s.generate_s), "s");
  result->Set("careweb.slice_s", Median(s.slice_s), "s");
  ReportLatency("core.append", s.append_ms, result);
  result->Set("core.foreign_append_p50_ms", Median(s.foreign_ms), "ms");
  ReportLatency("core.explain_new", s.explain_new_ms, result);
  ReportLatency("core.explain", s.explain_ms, result);
  const double n = static_cast<double>(episodes);
  result->Set("core.delta_queries", static_cast<double>(s.delta_queries) / n,
              "count");
  result->Set("core.delta_explained_lids",
              static_cast<double>(s.delta_lids) / n, "count");
  result->Set("core.converge_s", Median(s.converge_s), "s");
  result->Set("storage.checkpoint_full_s", Median(s.ckpt_full_s), "s");
  result->Set("storage.checkpoint_full_count",
              static_cast<double>(s.ckpt_full_s.size()) / n, "count");
  result->Set("storage.checkpoint_incr_s", Median(s.ckpt_incr_s), "s");
  result->Set("storage.checkpoint_incr_count",
              static_cast<double>(s.ckpt_incr_s.size()) / n, "count");
  result->Set("storage.checkpoint_bytes_per_row", s.full_bytes_per_row,
              "bytes");
  result->Set("storage.wal_bytes_per_row",
              s.wal_rows > 0 ? static_cast<double>(s.wal_bytes) /
                                   static_cast<double>(s.wal_rows)
                             : 0.0,
              "bytes");
  result->Set("storage.recover_checkpoint_load_s", Median(s.ckpt_load_s),
              "s");
  result->Set("storage.recover_db_load_s", Median(s.db_load_s), "s");
  result->Set("storage.recover_wal_replay_s", Median(s.replay_s), "s");
  result->Set("storage.wal_rows_replayed",
              static_cast<double>(s.rows_replayed), "count");
  result->Set("storage.store_bytes", static_cast<double>(s.store_bytes),
              "bytes");
  eba::PlanCache::Stats per_episode = s.cache;
  per_episode.hits /= static_cast<uint64_t>(episodes);
  per_episode.misses /= static_cast<uint64_t>(episodes);
  per_episode.rebinds /= static_cast<uint64_t>(episodes);
  per_episode.invalidations /= static_cast<uint64_t>(episodes);
  ReportPlanCache(eba::PlanCache::Stats{}, per_episode, s.resident_bytes,
                  result);
  ReportLatency("net.explain_rtt", s.rtt_ms, result);
  result->Set("net.overhead_p50_ms", Median(s.rtt_ms) - Median(s.local_ms),
              "ms");
  result->Set("net.requests_served",
              static_cast<double>(s.requests_served) / n, "count");
  if (config.trace) {
    {
      ScopedSpan root(spans, "probe", Layer::kBench);
      result->Set("net.codec_us", CodecMicros(s.payloads, 5, spans), "us");
    }
    FinishTrace(tracer, s.traced_ms, s.untraced_ms, config.trace_out, result);
  }
  result->notes.push_back(
      "ingest_durable: " + std::to_string(episodes) + " episodes, " +
      std::to_string(s.streamed_rows / static_cast<uint64_t>(episodes)) +
      " streamed rows each, " + std::to_string(s.ckpt_full_s.size()) +
      " full + " + std::to_string(s.ckpt_incr_s.size()) +
      " incremental checkpoints");
}

}  // namespace perfbench
