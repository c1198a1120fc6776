// Auditing-server tests: frame codec round trips, token auth (including
// re-auth after disconnect), per-connection quotas, ingest backpressure,
// served-report byte-equivalence against the in-process auditor, durable
// served appends surviving a restart, concurrent clients, and a seeded
// adversarial-frame fuzz sweep — truncated prefixes, CRC flips, oversized
// lengths, unknown commands — where the server must answer with a clean
// error or drop the connection, never crash or hang. Everything runs over
// the in-memory transport (deterministic, no kernel sockets); one smoke
// test exercises the real TCP loopback path.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "careweb/generator.h"
#include "careweb/workload.h"
#include "common/random.h"
#include "core/ingest.h"
#include "log/access_log.h"
#include "net/client.h"
#include "net/frame.h"
#include "net/protocol.h"
#include "net/server.h"
#include "net/socket.h"
#include "storage/io.h"
#include "storage/wal.h"
#include "tests/test_util.h"

namespace eba {
namespace {

using testing_util::CloneDatabase;
using testing_util::UnwrapOrDie;

/// Status analogue of UnwrapOrDie for value-returning helpers, where the
/// ASSERT-based EBA_ASSERT_OK (void context) cannot be used.
void MustOk(const Status& s, const char* what = "Status") {
  if (!s.ok()) {
    [&] { FAIL() << what << ": " << s.ToString(); }();
    std::exit(EXIT_FAILURE);
  }
}

// ---------------------------------------------------------------------------
// Shared fixture: a Tiny careweb database with a seeded LogStream slice, the
// rest of the log as an append backlog, and the handcrafted templates.

struct NetFixture {
  CareWebData data;
  std::vector<Row> backlog;
  std::vector<ExplanationTemplate> templates;
};

const NetFixture& SharedFixture() {
  static const NetFixture* fixture = [] {
    auto* f = new NetFixture();
    f->data = UnwrapOrDie(GenerateCareWeb(CareWebConfig::Tiny()));
    const Table* log = UnwrapOrDie(f->data.db.GetTable("Log"));
    AccessLog source = UnwrapOrDie(AccessLog::Wrap(log));
    (void)UnwrapOrDie(AddLogSlice(&f->data.db, "Log", "LogStream", 1, 2,
                                  /*first_only=*/false));
    std::vector<size_t> seeded = source.RowsInDayRange(1, 2);
    std::sort(seeded.begin(), seeded.end());
    for (size_t r = 0; r < log->num_rows(); ++r) {
      if (!std::binary_search(seeded.begin(), seeded.end(), r)) {
        f->backlog.push_back(log->GetRow(r));
      }
    }
    f->templates = UnwrapOrDie(TemplatesHandcraftedDirect(f->data.db, true));
    return f;
  }();
  return *fixture;
}

/// A live server over its own clone of the fixture database.
struct ServerHarness {
  std::unique_ptr<Database> db;
  std::unique_ptr<StreamingAuditor> auditor;
  std::unique_ptr<NetEnv> net;
  std::unique_ptr<AuditServer> server;

  AuditClient& client() { return *client_; }
  std::unique_ptr<AuditClient> client_;
};

ServerHarness MakeHarness(ServerOptions options) {
  const NetFixture& f = SharedFixture();
  ServerHarness h;
  h.db = std::make_unique<Database>(CloneDatabase(f.data.db));
  h.auditor = std::make_unique<StreamingAuditor>(
      UnwrapOrDie(StreamingAuditor::Create(h.db.get(), "LogStream")));
  for (const auto& t : f.templates) MustOk(h.auditor->AddTemplate(t));
  h.net = NewInMemoryNetEnv();
  options.net = h.net.get();
  h.server = UnwrapOrDie(AuditServer::Start(h.auditor.get(), options));
  h.client_ = UnwrapOrDie(AuditClient::Connect(
      h.net.get(), "local", h.server->port(), options.auth_token));
  return h;
}

/// Raw connection for hand-crafted (malformed) frames.
std::unique_ptr<Connection> RawConnect(ServerHarness& h) {
  return UnwrapOrDie(h.net->Connect("local", h.server->port()));
}

/// Reads one response frame off a raw connection.
StatusOr<Frame> ReadResponse(Connection* conn) {
  FrameReader reader(conn, 64u << 20);
  return reader.Next();
}

// ---------------------------------------------------------------------------
// Frame codec

TEST(FrameTest, RoundTripThroughInMemoryPipe) {
  auto net = NewInMemoryNetEnv();
  auto listener = UnwrapOrDie(net->Listen("local", 0));
  auto client = UnwrapOrDie(net->Connect("local", listener->port()));
  auto server = UnwrapOrDie(listener->Accept());

  EBA_ASSERT_OK(client->WriteAll(EncodeFrame(kReqExplain, EncodeLid(-42))));
  EBA_ASSERT_OK(client->WriteAll(EncodeFrame(kReqReport, "")));
  FrameReader reader(server.get(), 1 << 20);
  const Frame first = UnwrapOrDie(reader.Next());
  EXPECT_EQ(first.type, kReqExplain);
  EXPECT_EQ(UnwrapOrDie(DecodeLid(first.payload)), -42);
  const Frame second = UnwrapOrDie(reader.Next());
  EXPECT_EQ(second.type, kReqReport);
  EXPECT_TRUE(second.payload.empty());

  // Clean close at a frame boundary reads as NotFound, not an error.
  client->ShutdownBoth();
  EXPECT_TRUE(reader.Next().status().IsNotFound());
}

TEST(FrameTest, CorruptionIsRejectedNotMisread) {
  const std::string good = EncodeFrame(kReqReport, "payload bytes");
  auto net = NewInMemoryNetEnv();
  auto listener = UnwrapOrDie(net->Listen("local", 0));

  // A flip of any byte must surface as InvalidArgument (CRC or, for the
  // length field, a truncated/oversized read) — never as a decoded frame
  // with different bytes.
  for (size_t off = 0; off < good.size(); ++off) {
    std::string bytes = good;
    bytes[off] = static_cast<char>(bytes[off] ^ 0x10);
    auto client = UnwrapOrDie(net->Connect("local", listener->port()));
    auto server = UnwrapOrDie(listener->Accept());
    EBA_ASSERT_OK(client->WriteAll(bytes));
    client->ShutdownBoth();
    FrameReader reader(server.get(), 1 << 10);
    const StatusOr<Frame> frame = reader.Next();
    ASSERT_FALSE(frame.ok()) << "flip at byte " << off;
    EXPECT_TRUE(frame.status().IsInvalidArgument()) << "flip at byte " << off;
  }
}

// ---------------------------------------------------------------------------
// Protocol payload codecs

TEST(ProtocolTest, StreamingReportRoundTrip) {
  StreamingReport report;
  report.audited_from = 7;
  report.audited_to = 21;
  report.full_reaudit = true;
  report.per_template_counts = {3, 0, 5};
  report.explained_lids = {-1, 4, 9};
  report.unexplained_lids = {2};
  report.delta_explained_lids = {11, 12};
  report.per_template_delta_counts = {0, 2, 0};
  report.delta_tables = 2;
  report.delta_queries = 4;

  const std::string payload = EncodeStreamingReport(report);
  const StreamingReport decoded = UnwrapOrDie(DecodeStreamingReport(payload));
  EXPECT_EQ(decoded.audited_from, report.audited_from);
  EXPECT_EQ(decoded.audited_to, report.audited_to);
  EXPECT_EQ(decoded.full_reaudit, report.full_reaudit);
  EXPECT_EQ(decoded.per_template_counts, report.per_template_counts);
  EXPECT_EQ(decoded.explained_lids, report.explained_lids);
  EXPECT_EQ(decoded.unexplained_lids, report.unexplained_lids);
  EXPECT_EQ(decoded.delta_explained_lids, report.delta_explained_lids);
  EXPECT_EQ(decoded.per_template_delta_counts,
            report.per_template_delta_counts);
  EXPECT_EQ(decoded.delta_tables, report.delta_tables);
  EXPECT_EQ(decoded.delta_queries, report.delta_queries);
  // Re-encoding the decoded report reproduces the bytes: the encoding is
  // canonical, which is what the served-equivalence check relies on.
  EXPECT_EQ(EncodeStreamingReport(decoded), payload);

  // Truncations of a valid payload must all fail cleanly.
  for (size_t cut = 0; cut < payload.size(); ++cut) {
    EXPECT_FALSE(DecodeStreamingReport(payload.substr(0, cut)).ok())
        << "cut at " << cut;
  }
}

TEST(ProtocolTest, ErrorAndExplainAndServerReportRoundTrip) {
  ErrorBody error;
  error.code = kErrBusy;
  error.retryable = true;
  error.message = "ingest queue full";
  const ErrorBody decoded_error = UnwrapOrDie(DecodeError(EncodeError(error)));
  EXPECT_EQ(decoded_error.code, kErrBusy);
  EXPECT_TRUE(decoded_error.retryable);
  EXPECT_EQ(decoded_error.message, "ingest queue full");

  ExplainResult explain;
  explain.explained = true;
  explain.template_names = {"appt_with_doctor", "repeat_access"};
  const ExplainResult decoded_explain =
      UnwrapOrDie(DecodeExplainResult(EncodeExplainResult(explain)));
  EXPECT_TRUE(decoded_explain.explained);
  EXPECT_EQ(decoded_explain.template_names, explain.template_names);

  ServerReport report;
  report.rows_appended = 100;
  report.audited_rows = 50;
  report.appends_rejected_busy = 3;
  const ServerReport decoded_report =
      UnwrapOrDie(DecodeServerReport(EncodeServerReport(report)));
  EXPECT_EQ(decoded_report.rows_appended, 100u);
  EXPECT_EQ(decoded_report.audited_rows, 50u);
  EXPECT_EQ(decoded_report.appends_rejected_busy, 3u);
}

// ---------------------------------------------------------------------------
// Auth

TEST(AuditServerTest, AuthRequiredAndReplayAfterDisconnectRejected) {
  ServerOptions options;
  options.auth_token = "secret-token";
  ServerHarness h = MakeHarness(options);

  // The authenticated client (harness) works.
  EBA_ASSERT_OK(h.client().AppendAccessBatch({SharedFixture().backlog[0]}));

  // A command before auth is rejected and the connection dropped.
  {
    auto raw = RawConnect(h);
    EBA_ASSERT_OK(raw->WriteAll(EncodeFrame(kReqReport, "")));
    const Frame resp = UnwrapOrDie(ReadResponse(raw.get()));
    EXPECT_EQ(resp.type, kRespError);
    EXPECT_EQ(UnwrapOrDie(DecodeError(resp.payload)).code, kErrUnauthorized);
    EXPECT_TRUE(ReadResponse(raw.get()).status().IsNotFound());  // dropped
  }
  // A wrong token is rejected.
  {
    auto raw = RawConnect(h);
    EBA_ASSERT_OK(raw->WriteAll(EncodeFrame(kReqAuth, "wrong")));
    const Frame resp = UnwrapOrDie(ReadResponse(raw.get()));
    EXPECT_EQ(resp.type, kRespError);
    EXPECT_EQ(UnwrapOrDie(DecodeError(resp.payload)).code, kErrUnauthorized);
  }
  // Disconnecting does not leave any session behind: a new connection that
  // skips auth (replaying only post-auth traffic) is rejected again.
  {
    auto raw = RawConnect(h);
    EBA_ASSERT_OK(raw->WriteAll(
        EncodeFrame(kReqAppendBatch,
                    EncodeAppendPayload("", {SharedFixture().backlog[1]}))));
    const Frame resp = UnwrapOrDie(ReadResponse(raw.get()));
    EXPECT_EQ(resp.type, kRespError);
    EXPECT_EQ(UnwrapOrDie(DecodeError(resp.payload)).code, kErrUnauthorized);
  }
  // A full reconnect with the token works.
  auto again = UnwrapOrDie(AuditClient::Connect(
      h.net.get(), "local", h.server->port(), "secret-token"));
  EBA_ASSERT_OK(again->AppendAccessBatch({SharedFixture().backlog[2]}));
}

// ---------------------------------------------------------------------------
// Malformed frames

TEST(AuditServerTest, MalformedFramesGetCleanErrorOrDropNeverCrash) {
  ServerHarness h = MakeHarness(ServerOptions{});

  // Truncated length prefix: close mid-header.
  {
    auto raw = RawConnect(h);
    EBA_ASSERT_OK(raw->WriteAll("\x05\x00"));
    raw->ShutdownBoth();
  }
  // Truncated payload: frame promises more bytes than it sends.
  {
    auto raw = RawConnect(h);
    const std::string good = EncodeFrame(kReqReport, "some payload");
    EBA_ASSERT_OK(raw->WriteAll(good.substr(0, good.size() - 3)));
    raw->ShutdownBoth();
  }
  // CRC mismatch: flip a payload bit.
  {
    auto raw = RawConnect(h);
    std::string bad = EncodeFrame(kReqExplain, EncodeLid(1));
    bad[bad.size() - 1] = static_cast<char>(bad[bad.size() - 1] ^ 0x01);
    EBA_ASSERT_OK(raw->WriteAll(bad));
    const Frame resp = UnwrapOrDie(ReadResponse(raw.get()));
    EXPECT_EQ(resp.type, kRespError);
    EXPECT_EQ(UnwrapOrDie(DecodeError(resp.payload)).code, kErrBadFrame);
    EXPECT_TRUE(ReadResponse(raw.get()).status().IsNotFound());  // dropped
  }
  // Oversized frame: length field far beyond the server's limit. The server
  // must reject on the header alone, not try to buffer it.
  {
    auto raw = RawConnect(h);
    std::string huge;
    huge.push_back('\xFF');
    huge.push_back('\xFF');
    huge.push_back('\xFF');
    huge.push_back('\x7F');
    huge.append(5, '\0');
    EBA_ASSERT_OK(raw->WriteAll(huge));
    const Frame resp = UnwrapOrDie(ReadResponse(raw.get()));
    EXPECT_EQ(resp.type, kRespError);
    EXPECT_EQ(UnwrapOrDie(DecodeError(resp.payload)).code, kErrBadFrame);
  }
  // Unknown command: clean error, connection stays usable.
  {
    auto raw = RawConnect(h);
    EBA_ASSERT_OK(raw->WriteAll(EncodeFrame(0x3F, "")));
    const Frame resp = UnwrapOrDie(ReadResponse(raw.get()));
    EXPECT_EQ(resp.type, kRespError);
    EXPECT_EQ(UnwrapOrDie(DecodeError(resp.payload)).code,
              kErrUnknownCommand);
    EBA_ASSERT_OK(raw->WriteAll(EncodeFrame(kReqReport, "")));
    EXPECT_EQ(UnwrapOrDie(ReadResponse(raw.get())).type, kRespOk);
  }
  // Well-formed frame, garbage payload: decode error, connection stays.
  {
    auto raw = RawConnect(h);
    EBA_ASSERT_OK(raw->WriteAll(EncodeFrame(kReqExplain, "not-a-lid")));
    const Frame resp = UnwrapOrDie(ReadResponse(raw.get()));
    EXPECT_EQ(resp.type, kRespError);
    EXPECT_EQ(UnwrapOrDie(DecodeError(resp.payload)).code, kErrBadRequest);
  }

  // After all of the above the server still serves.
  const ServerReport report = UnwrapOrDie(h.client().Report());
  EXPECT_GT(report.connections_accepted, 5u);
}

TEST(AuditServerTest, SeededAdversarialFrameFuzz) {
  ServerHarness h = MakeHarness(ServerOptions{});
  Random rng(20260807);

  const std::string templates[] = {
      EncodeFrame(kReqReport, ""),
      EncodeFrame(kReqExplain, EncodeLid(3)),
      EncodeFrame(kReqAppendBatch,
                  EncodeAppendPayload("", {SharedFixture().backlog[0]})),
      EncodeFrame(kReqExplainNew, ""),
  };
  for (int round = 0; round < 200; ++round) {
    auto raw = RawConnect(h);
    std::string bytes;
    switch (rng.Uniform(4)) {
      case 0: {  // pure random bytes
        const size_t n = rng.Uniform(64) + 1;
        for (size_t i = 0; i < n; ++i) {
          bytes.push_back(static_cast<char>(rng.Uniform(256)));
        }
        break;
      }
      case 1: {  // valid frame, one byte mutated
        bytes = templates[rng.Uniform(4)];
        bytes[rng.Uniform(bytes.size())] ^=
            static_cast<char>(1 + rng.Uniform(255));
        break;
      }
      case 2: {  // valid frame truncated
        bytes = templates[rng.Uniform(4)];
        bytes.resize(rng.Uniform(bytes.size()));
        break;
      }
      default: {  // valid frame then garbage tail
        bytes = templates[rng.Uniform(4)];
        for (int i = 0; i < 8; ++i) {
          bytes.push_back(static_cast<char>(rng.Uniform(256)));
        }
        break;
      }
    }
    (void)raw->WriteAll(bytes);
    // Drain whatever the server answers until it drops or goes idle; the
    // requirement is no crash and no hang (the suite timeout enforces it).
    raw->ShutdownBoth();
  }

  // Wait until every adversarial connection was accepted and its handler
  // finished; only the harness client's handler stays live. A handler still
  // winding down holds a connection slot, so without the wait the
  // connection limit could turn the fresh client below away.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  auto settled = [&h] {
    return h.server->ReportNow().connections_accepted > 200 &&
           h.server->LiveConnectionsForTest() <= 1;
  };
  while (!settled() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(settled()) << "adversarial connection handlers never finished";

  // The server survived 200 adversarial connections and still works. A
  // fresh client connected after the loop sits behind all 200 in the accept
  // queue, so a successful round trip on it proves every one was accepted
  // and handled (the counter assertion is race-free only then).
  auto fresh = UnwrapOrDie(
      AuditClient::Connect(h.net.get(), "local", h.server->port(), ""));
  EBA_ASSERT_OK(fresh->AppendAccessBatch({SharedFixture().backlog[1]}));
  const ServerReport report = UnwrapOrDie(fresh->Report());
  EXPECT_GT(report.connections_accepted, 200u);
}

// ---------------------------------------------------------------------------
// Quotas and backpressure

TEST(AuditServerTest, PerConnectionQuotaDropsAtLimit) {
  ServerOptions options;
  options.max_requests_per_connection = 3;
  ServerHarness h = MakeHarness(options);

  for (int i = 0; i < 3; ++i) {
    EBA_ASSERT_OK(h.client().Report().status());
  }
  const Status over = h.client().Report().status();
  ASSERT_FALSE(over.ok());
  EXPECT_NE(over.message().find("quota"), std::string::npos)
      << over.ToString();
  // The connection is dropped; a fresh one gets a fresh quota.
  auto again = UnwrapOrDie(
      AuditClient::Connect(h.net.get(), "local", h.server->port(), ""));
  EBA_ASSERT_OK(again->Report().status());
}

TEST(AuditServerTest, FullIngestQueueRejectsRetryablyThenRecovers) {
  ServerOptions options;
  options.max_pending_appends = 1;
  ServerHarness h = MakeHarness(options);
  const NetFixture& f = SharedFixture();

  h.server->PauseIngestForTest();
  // First append occupies the single queue slot; run it from a second
  // client so this thread is free to observe the rejection.
  auto filler = UnwrapOrDie(
      AuditClient::Connect(h.net.get(), "local", h.server->port(), ""));
  std::thread fill([&] {
    EBA_ASSERT_OK(filler->AppendAccessBatch({f.backlog[0]}));
  });
  // Probe only once the filler's job holds the slot: a probe that took it
  // first would wait for an ACK that only a resumed ingest thread sends.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (h.server->IngestQueueDepthForTest() == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  if (h.server->IngestQueueDepthForTest() == 0) {
    h.server->ResumeIngestForTest();
    fill.join();
    FAIL() << "the filler's append never reached the ingest queue";
  }
  const Status busy_probe = h.client().AppendAccessBatch({f.backlog[1]});
  EXPECT_TRUE(AuditClient::IsRetryableBusy(busy_probe))
      << busy_probe.ToString();
  h.server->ResumeIngestForTest();
  fill.join();

  // After the queue drains, the same append succeeds on retry.
  Status retried = h.client().AppendAccessBatch({f.backlog[2]});
  for (int attempt = 0; !retried.ok() && attempt < 100; ++attempt) {
    ASSERT_TRUE(AuditClient::IsRetryableBusy(retried)) << retried.ToString();
    retried = h.client().AppendAccessBatch({f.backlog[2]});
  }
  EBA_ASSERT_OK(retried);
  const ServerReport report = UnwrapOrDie(h.client().Report());
  EXPECT_GT(report.appends_rejected_busy, 0u);
}

// ---------------------------------------------------------------------------
// Served audits == in-process audits

TEST(AuditServerTest, ServedReportsAreByteIdenticalToInProcess) {
  const NetFixture& f = SharedFixture();
  ServerHarness h = MakeHarness(ServerOptions{});

  // The in-process twin: same data, same templates, same audit options,
  // driven directly.
  Database twin_db = CloneDatabase(f.data.db);
  StreamingAuditor twin =
      UnwrapOrDie(StreamingAuditor::Create(&twin_db, "LogStream"));
  for (const auto& t : f.templates) EBA_ASSERT_OK(twin.AddTemplate(t));

  size_t pos = 0;
  auto batch = [&](size_t n) {
    std::vector<Row> rows;
    for (; n > 0 && pos < f.backlog.size(); --n) {
      rows.push_back(f.backlog[pos++]);
    }
    return rows;
  };
  for (int round = 0; round < 3; ++round) {
    const std::vector<Row> rows = batch(4);
    EBA_ASSERT_OK(h.client().AppendAccessBatch(rows));
    EBA_ASSERT_OK(twin.AppendAccessBatch(rows));
    const std::string served = UnwrapOrDie(h.client().ExplainNewRaw());
    const StreamingReport expected =
        UnwrapOrDie(twin.ExplainNew());
    EXPECT_EQ(served, EncodeStreamingReport(expected)) << "round " << round;
  }

  // Per-access explains agree with the in-process engine for every audited
  // access.
  const Table* stream = UnwrapOrDie(
      static_cast<const Database&>(twin_db).GetTable("LogStream"));
  AccessLog log = UnwrapOrDie(AccessLog::Wrap(stream));
  for (size_t r = 0; r < stream->num_rows(); ++r) {
    const int64_t lid = log.Get(r).lid;
    const ExplainResult served = UnwrapOrDie(h.client().Explain(lid));
    const auto instances = UnwrapOrDie(twin.engine().Explain(lid));
    ASSERT_EQ(served.explained, !instances.empty()) << "lid " << lid;
    ASSERT_EQ(served.template_names.size(), instances.size())
        << "lid " << lid;
    for (size_t i = 0; i < instances.size(); ++i) {
      EXPECT_EQ(served.template_names[i], instances[i].tmpl().name())
          << "lid " << lid << " instance " << i;
    }
  }

  // The report counters reflect the served traffic.
  const ServerReport report = UnwrapOrDie(h.client().Report());
  EXPECT_EQ(report.rows_appended, pos);
  EXPECT_EQ(report.batches_appended, 3u);
  EXPECT_EQ(report.audited_rows, twin.audited_rows());
  EXPECT_EQ(report.explained_count, twin.explained_count());
}

// ---------------------------------------------------------------------------
// Concurrency: explains fan out while appends stream through the writer

TEST(AuditServerTest, ConcurrentClientsExplainWhileAppending) {
  const NetFixture& f = SharedFixture();
  ServerHarness h = MakeHarness(ServerOptions{});

  const Table* source = UnwrapOrDie(
      static_cast<const Database&>(f.data.db).GetTable("LogStream"));
  AccessLog log = UnwrapOrDie(AccessLog::Wrap(source));
  const int64_t probe_lid = log.Get(0).lid;

  std::thread appender([&] {
    auto client = UnwrapOrDie(
        AuditClient::Connect(h.net.get(), "local", h.server->port(), ""));
    for (size_t i = 0; i < f.backlog.size(); ++i) {
      Status s = client->AppendAccessBatch({f.backlog[i]});
      while (AuditClient::IsRetryableBusy(s)) {
        s = client->AppendAccessBatch({f.backlog[i]});
      }
      EBA_ASSERT_OK(s);
    }
  });
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&, t] {
      auto client = UnwrapOrDie(
          AuditClient::Connect(h.net.get(), "local", h.server->port(), ""));
      for (int i = 0; i < 10; ++i) {
        if (t == 0) {
          (void)UnwrapOrDie(client->ExplainNew());
        } else {
          (void)UnwrapOrDie(client->Explain(probe_lid));
          (void)UnwrapOrDie(client->Report());
        }
      }
    });
  }
  appender.join();
  for (auto& r : readers) r.join();

  // Every appended row arrived exactly once, and a final audit converges.
  const ServerReport report = UnwrapOrDie(h.client().Report());
  EXPECT_EQ(report.rows_appended, f.backlog.size());
  (void)UnwrapOrDie(h.client().ExplainNew());
  const ServerReport after = UnwrapOrDie(h.client().Report());
  EXPECT_EQ(after.audited_rows, source->num_rows() + f.backlog.size());
}

// ---------------------------------------------------------------------------
// Durability through the served append path

TEST(AuditServerTest, ServedAppendsSurviveRestart) {
  const NetFixture& f = SharedFixture();
  // Per process: parallel copies of this suite must not share a store.
  const std::string dir = ::testing::TempDir() + "/net_served_durable-" +
                          std::to_string(::getpid());
  EBA_ASSERT_OK(RealEnv()->RemoveAll(dir));
  EBA_ASSERT_OK(RealEnv()->CreateDirs(dir));
  DurabilityOptions dopts;
  dopts.dir = dir;
  dopts.sync = WalSync::kNone;
  dopts.checkpoint_after_wal_bytes = 0;

  size_t acked = 0;
  {
    Database db = CloneDatabase(f.data.db);
    StreamingAuditor auditor =
        UnwrapOrDie(StreamingAuditor::Create(&db, "LogStream"));
    for (const auto& t : f.templates) EBA_ASSERT_OK(auditor.AddTemplate(t));
    EBA_ASSERT_OK(auditor.EnableDurability(dopts));
    auto net = NewInMemoryNetEnv();
    ServerOptions options;
    options.net = net.get();
      auto server = UnwrapOrDie(AuditServer::Start(&auditor, options));
    auto client =
        UnwrapOrDie(AuditClient::Connect(net.get(), "local", server->port(), ""));
    for (size_t i = 0; i < 8 && i < f.backlog.size(); ++i) {
      EBA_ASSERT_OK(client->AppendAccessBatch({f.backlog[i]}));
      ++acked;
    }
    server->Stop();
  }  // the process "dies": server, auditor, database all gone

  Database db = CloneDatabase(f.data.db);
  RecoveryStats stats;
  EBA_ASSERT_OK_AND_ASSIGN(
      StreamingAuditor recovered,
      StreamingAuditor::RecoverFrom(&db, "LogStream", dopts, &stats));
  EXPECT_TRUE(stats.recovered);
  const size_t seeded = UnwrapOrDie(static_cast<const Database&>(f.data.db)
                                        .GetTable("LogStream"))
                            ->num_rows();
  const Table* stream =
      UnwrapOrDie(static_cast<const Database&>(db).GetTable("LogStream"));
  EXPECT_EQ(stream->num_rows(), seeded + acked);
  (void)RealEnv()->RemoveAll(dir);
}

// ---------------------------------------------------------------------------
// Real TCP loopback

TEST(AuditServerTest, RealTcpLoopbackSmoke) {
  const NetFixture& f = SharedFixture();
  Database db = CloneDatabase(f.data.db);
  StreamingAuditor auditor =
      UnwrapOrDie(StreamingAuditor::Create(&db, "LogStream"));
  for (const auto& t : f.templates) EBA_ASSERT_OK(auditor.AddTemplate(t));

  ServerOptions options;
  options.auth_token = "tcp-token";
  StatusOr<std::unique_ptr<AuditServer>> server =
      AuditServer::Start(&auditor, options);
  if (!server.ok()) {
    GTEST_SKIP() << "loopback TCP unavailable in this sandbox: "
                 << server.status().ToString();
  }
  StatusOr<std::unique_ptr<AuditClient>> client = AuditClient::Connect(
      RealNetEnv(), "127.0.0.1", (*server)->port(), "tcp-token");
  if (!client.ok()) {
    GTEST_SKIP() << "loopback TCP connect unavailable: "
                 << client.status().ToString();
  }
  EBA_ASSERT_OK((*client)->AppendAccessBatch({f.backlog[0]}));
  const StreamingReport report = UnwrapOrDie((*client)->ExplainNew());
  EXPECT_GT(report.audited_to, 0u);
  const ServerReport counters = UnwrapOrDie((*client)->Report());
  EXPECT_EQ(counters.rows_appended, 1u);
}

}  // namespace
}  // namespace eba
