#include "net/server.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"
#include "net/frame.h"
#include "storage/wal.h"

namespace eba {

AuditServer::AuditServer(StreamingAuditor* auditor,
                         const ServerOptions& options)
    : auditor_(auditor), options_(options) {}

StatusOr<std::unique_ptr<AuditServer>> AuditServer::Start(
    StreamingAuditor* auditor, const ServerOptions& options) {
  if (auditor == nullptr) return Status::InvalidArgument("null auditor");
  if (options.max_pending_appends == 0) {
    return Status::InvalidArgument("max_pending_appends must be >= 1");
  }
  std::unique_ptr<AuditServer> server(new AuditServer(auditor, options));
  NetEnv* net = options.net != nullptr ? options.net : RealNetEnv();
  EBA_ASSIGN_OR_RETURN(server->listener_,
                       net->Listen(options.host, options.port));
  server->port_ = server->listener_->port();
  server->ingest_thread_ = std::thread([s = server.get()] { s->IngestLoop(); });
  server->accept_thread_ = std::thread([s = server.get()] { s->AcceptLoop(); });
  return server;
}

AuditServer::~AuditServer() { Stop(); }

void AuditServer::Stop() {
  {
    MutexLock lock(mu_);
    if (stopping_) return;
    stopping_ = true;
  }
  listener_->Close();
  if (accept_thread_.joinable()) accept_thread_.join();

  // Stop ingest BEFORE joining handlers: a handler blocked on its append
  // promise only unblocks once the ingest thread runs or rejects the job
  // (the drain below fulfills every queued promise), so the other order
  // would deadlock — especially with the test pause engaged.
  {
    MutexLock lock(ingest_mu_);
    ingest_stop_ = true;
    ingest_paused_ = false;
    ingest_cv_.NotifyAll();
  }
  if (ingest_thread_.joinable()) ingest_thread_.join();

  // Unblock and join every handler; the handlers own their connections.
  std::vector<std::unique_ptr<ConnState>> conns;
  {
    MutexLock lock(mu_);
    conns.swap(conns_);
  }
  for (auto& c : conns) {
    c->conn->ShutdownBoth();
    if (c->thread.joinable()) c->thread.join();
  }
}

void AuditServer::PauseIngestForTest() {
  MutexLock lock(ingest_mu_);
  ingest_paused_ = true;
}

void AuditServer::ResumeIngestForTest() {
  MutexLock lock(ingest_mu_);
  ingest_paused_ = false;
  ingest_cv_.NotifyAll();
}

size_t AuditServer::IngestQueueDepthForTest() const {
  MutexLock lock(ingest_mu_);
  return ingest_queue_.size();
}

size_t AuditServer::LiveConnectionsForTest() const {
  MutexLock lock(mu_);
  return static_cast<size_t>(
      std::count_if(conns_.begin(), conns_.end(),
                    [](const auto& c) { return !c->done.load(); }));
}

ServerReport AuditServer::ReportNow() const {
  ServerReport report;
  report.rows_appended = auditor_->rows_appended();
  report.batches_appended = auditor_->batches_appended();
  report.foreign_rows_appended = auditor_->foreign_rows_appended();
  report.audited_rows = auditor_->audited_rows();
  report.explained_count = auditor_->explained_count();
  report.requests_served = requests_served_.Load();
  report.appends_rejected_busy = appends_rejected_busy_.Load();
  report.connections_accepted = connections_accepted_.Load();
  return report;
}

void AuditServer::AcceptLoop() {
  for (;;) {
    StatusOr<std::unique_ptr<Connection>> accepted = listener_->Accept();
    if (!accepted.ok()) return;  // listener closed: shutting down
    connections_accepted_.Increment();

    MutexLock lock(mu_);
    if (stopping_) return;  // Stop() owns the swap-out and joins
    // Reap finished handlers so long-lived servers don't accumulate one
    // thread object per connection ever accepted.
    for (auto it = conns_.begin(); it != conns_.end();) {
      if ((*it)->done.load(std::memory_order_acquire)) {
        if ((*it)->thread.joinable()) (*it)->thread.join();
        it = conns_.erase(it);
      } else {
        ++it;
      }
    }
    if (conns_.size() >= options_.max_connections) {
      Connection* conn = accepted->get();
      (void)SendError(conn, kErrBusy, /*retryable=*/true,
                      "connection limit reached");
      continue;  // accepted connection closes as it goes out of scope
    }
    auto state = std::make_unique<ConnState>();
    state->conn = std::move(*accepted);
    ConnState* raw = state.get();
    state->thread = std::thread([this, raw] {
      HandleConnection(raw->conn.get());
      // Drop semantics: the peer must observe EOF as soon as the handler
      // exits, not when the ConnState is eventually reaped.
      raw->conn->ShutdownBoth();
      raw->done.store(true, std::memory_order_release);
    });
    conns_.push_back(std::move(state));
  }
}

void AuditServer::IngestLoop() {
  for (;;) {
    IngestJob job;
    {
      MutexLock lock(ingest_mu_);
      while ((ingest_queue_.empty() || ingest_paused_) && !ingest_stop_) {
        ingest_cv_.Wait(ingest_mu_);
      }
      if (ingest_queue_.empty() && ingest_stop_) return;
      if (ingest_stop_) {
        // Drain: reject every undelivered append so no client blocks on a
        // promise that will never be fulfilled.
        while (!ingest_queue_.empty()) {
          ingest_queue_.front().result.set_value(
              Status::FailedPrecondition("server stopped"));
          ingest_queue_.pop_front();
        }
        return;
      }
      job = std::move(ingest_queue_.front());
      ingest_queue_.pop_front();
      // Admission reopens the moment a slot frees up.
      ingest_cv_.NotifyAll();
    }
    // The single-writer contract: this thread is the only caller of the
    // auditor's append path (and so the only WAL committer) server-wide.
    const Status applied =
        job.table.empty()
            ? auditor_->AppendAccessBatch(job.rows)
            : auditor_->AppendRows(job.table, job.rows);
    job.result.set_value(applied);
  }
}

Status AuditServer::RunAppend(std::string table, std::vector<Row> rows) {
  std::future<Status> done;
  {
    MutexLock lock(ingest_mu_);
    if (ingest_stop_) return Status::FailedPrecondition("server stopped");
    if (ingest_queue_.size() >= options_.max_pending_appends) {
      appends_rejected_busy_.Increment();
      return Status::FailedPrecondition("ingest queue full");
    }
    IngestJob job;
    job.table = std::move(table);
    job.rows = std::move(rows);
    done = job.result.get_future();
    ingest_queue_.push_back(std::move(job));
    ingest_cv_.NotifyAll();
  }
  return done.get();
}

Status AuditServer::SendOk(Connection* conn, std::string_view payload) {
  return conn->WriteAll(EncodeFrame(kRespOk, payload));
}

Status AuditServer::SendError(Connection* conn, uint8_t code, bool retryable,
                              std::string message) {
  ErrorBody error;
  error.code = code;
  error.retryable = retryable;
  error.message = std::move(message);
  return conn->WriteAll(EncodeFrame(kRespError, EncodeError(error)));
}

void AuditServer::HandleConnection(Connection* conn) {
  FrameReader reader(conn, options_.max_frame_payload_bytes);

  // Token auth is the first frame when configured: anything else — another
  // command, a bad token, a malformed frame — is answered (best-effort) and
  // the connection dropped. A reconnect starts over from here; there is no
  // session resumption to replay auth into.
  if (!options_.auth_token.empty()) {
    StatusOr<Frame> first = reader.Next();
    if (!first.ok()) {
      if (first.status().IsInvalidArgument()) {
        (void)SendError(conn, kErrBadFrame, false,
                        first.status().message());
      }
      return;
    }
    if (first->type != kReqAuth || first->payload != options_.auth_token) {
      (void)SendError(conn, kErrUnauthorized, false, "authentication failed");
      return;
    }
    if (!SendOk(conn, "").ok()) return;
  }

  uint64_t served = 0;
  for (;;) {
    StatusOr<Frame> frame = reader.Next();
    if (!frame.ok()) {
      // Clean close (NotFound) ends the connection silently; a malformed
      // frame gets a best-effort error first — the stream is no longer
      // synchronized, so dropping is the only safe continuation.
      if (frame.status().IsInvalidArgument()) {
        (void)SendError(conn, kErrBadFrame, false, frame.status().message());
      }
      return;
    }
    if (options_.max_requests_per_connection > 0 &&
        served >= options_.max_requests_per_connection) {
      (void)SendError(conn, kErrQuotaExceeded, false,
                      "per-connection request quota exceeded");
      return;
    }
    ++served;
    requests_served_.Increment();
    if (!HandleRequest(conn, frame->type, frame->payload)) return;
  }
}

bool AuditServer::HandleRequest(Connection* conn, uint8_t type,
                                std::string& payload) {
  switch (type) {
    case kReqAuth: {
      // Re-auth on a live connection is validated like the first.
      if (!options_.auth_token.empty() && payload != options_.auth_token) {
        (void)SendError(conn, kErrUnauthorized, false,
                        "authentication failed");
        return false;
      }
      return SendOk(conn, "").ok();
    }
    case kReqAppendBatch:
    case kReqAppendRows: {
      StatusOr<WalAppendBatch> batch = DecodeAppendPayload(payload);
      if (!batch.ok()) {
        return SendError(conn, kErrBadRequest, false,
                         batch.status().message())
            .ok();
      }
      if (type == kReqAppendBatch && !batch->table_name.empty()) {
        return SendError(conn, kErrBadRequest, false,
                         "append-access-batch must not name a table")
            .ok();
      }
      if (type == kReqAppendRows && batch->table_name.empty()) {
        return SendError(conn, kErrBadRequest, false,
                         "append-rows requires a table name")
            .ok();
      }
      const uint64_t n = batch->rows.size();
      const Status applied =
          RunAppend(std::move(batch->table_name), std::move(batch->rows));
      if (!applied.ok()) {
        const bool busy = applied.message() == "ingest queue full";
        return SendError(conn, busy ? kErrBusy : kErrBadRequest, busy,
                         applied.message())
            .ok();
      }
      std::string ok;
      ok.reserve(8);
      for (int i = 0; i < 8; ++i) {
        ok.push_back(static_cast<char>((n >> (8 * i)) & 0xFF));
      }
      return SendOk(conn, ok).ok();
    }
    case kReqExplainNew: {
      StatusOr<StreamingReport> report = auditor_->ExplainNew(options_.audit);
      if (!report.ok()) {
        return SendError(conn, kErrInternal, false,
                         report.status().message())
            .ok();
      }
      return SendOk(conn, EncodeStreamingReport(*report)).ok();
    }
    case kReqExplain: {
      StatusOr<int64_t> lid = DecodeLid(payload);
      if (!lid.ok()) {
        return SendError(conn, kErrBadRequest, false, lid.status().message())
            .ok();
      }
      // Snapshot-pinned const read surface: safe on this handler thread
      // while the ingest thread appends.
      StatusOr<std::vector<ExplanationInstance>> instances =
          auditor_->engine().Explain(*lid);
      if (!instances.ok()) {
        return SendError(conn, kErrBadRequest, false,
                         instances.status().message())
            .ok();
      }
      ExplainResult result;
      result.explained = !instances->empty();
      result.template_names.reserve(instances->size());
      for (const ExplanationInstance& instance : *instances) {
        result.template_names.push_back(instance.tmpl().name());
      }
      return SendOk(conn, EncodeExplainResult(result)).ok();
    }
    case kReqReport: {
      return SendOk(conn, EncodeServerReport(ReportNow())).ok();
    }
    default:
      return SendError(conn, kErrUnknownCommand, false,
                       "unknown command type " + std::to_string(type))
          .ok();
  }
}

}  // namespace eba
