// The auditing server: a framed network front-end over StreamingAuditor.
//
// Threading model — the single-writer / multi-reader split of the auditor's
// writer_mu_/audit_mu_ architecture, mapped onto connections:
//
//   * ONE ingest thread owns the append path. Every append request from
//     every connection is enqueued onto a bounded queue; the ingest thread
//     drains it in arrival order and is the only caller of
//     AppendAccessBatch/AppendRows (and therefore the only WAL committer).
//     A request is acknowledged only after its batch returns from the
//     auditor — i.e. after the WAL commit when durability is on — so a
//     server-acked append survives a crash exactly like an in-process one.
//   * Explain requests (per-access Explain, ExplainNew, Report) run
//     directly on the per-connection handler threads against the engine's
//     concurrency-safe snapshot-pinned read surface, fanning out across
//     connections while appends stream through the writer.
//
// Admission control: when the ingest queue is full the append is rejected
// immediately with kErrBusy (retryable=true) — the client backs off and
// retries; nothing is silently dropped or unboundedly buffered. Token auth
// is the first frame of every connection (when configured), and an optional
// per-connection request quota bounds what one client can issue.

#ifndef EBA_NET_SERVER_H_
#define EBA_NET_SERVER_H_

#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "core/ingest.h"
#include "net/protocol.h"
#include "net/socket.h"

namespace eba {

struct ServerOptions {
  std::string host = "127.0.0.1";
  /// 0 = pick a free port; read it back via AuditServer::port().
  int port = 0;
  /// Required as the first frame of every connection when non-empty; empty
  /// disables auth (in-process tests, trusted loopback).
  std::string auth_token;
  /// Requests one connection may issue after auth; 0 = unlimited. The
  /// request hitting the quota is answered with kErrQuotaExceeded and the
  /// connection is dropped.
  uint64_t max_requests_per_connection = 0;
  /// Bound of the ingest queue (append admission control): a full queue
  /// rejects with kErrBusy, retryable.
  size_t max_pending_appends = 64;
  /// Concurrent connections; one past the bound is answered with kErrBusy
  /// (retryable) and closed.
  size_t max_connections = 64;
  /// Frames above this payload size are rejected and the connection
  /// dropped. Bounds per-connection memory against adversarial lengths.
  uint32_t max_frame_payload_bytes = 4u << 20;
  /// Options for server-run ExplainNew audits.
  StreamingOptions audit;
  /// Transport seam; nullptr = the real TCP stack.
  NetEnv* net = nullptr;
};

/// Serves one StreamingAuditor. The auditor (and its database) must outlive
/// the server; nothing else may append to the auditor while the server is
/// running (the single-writer contract) — concurrent reads of the engine's
/// const surface are fine.
class AuditServer {
 public:
  /// Binds, then starts the accept and ingest threads.
  static StatusOr<std::unique_ptr<AuditServer>> Start(
      StreamingAuditor* auditor, const ServerOptions& options);

  ~AuditServer();

  /// Stops accepting, unblocks and joins every connection handler, drains
  /// the ingest queue (rejecting undelivered appends), and joins the ingest
  /// thread. Idempotent.
  void Stop();

  /// The bound port.
  int port() const { return port_; }

  /// The serving counters + the auditor's audit-state accessors now.
  ServerReport ReportNow() const;

  /// Test hooks: hold the ingest thread so the queue fills deterministically
  /// (backpressure tests), then release it; read how many appends wait in
  /// the ingest queue, and how many connection handlers are still running.
  void PauseIngestForTest();
  void ResumeIngestForTest();
  size_t IngestQueueDepthForTest() const;
  size_t LiveConnectionsForTest() const;

 private:
  /// An append waiting for the ingest thread. `table` empty = the log.
  struct IngestJob {
    std::string table;
    std::vector<Row> rows;
    std::promise<Status> result;
  };

  /// One accepted connection: the handler thread plus the connection it
  /// owns (raw pointer retained so Stop can unblock the handler's read).
  struct ConnState {
    std::thread thread;
    std::unique_ptr<Connection> conn;
    std::atomic<bool> done{false};
  };

  AuditServer(StreamingAuditor* auditor, const ServerOptions& options);

  void AcceptLoop();
  void IngestLoop();
  void HandleConnection(Connection* conn);
  /// Dispatches one authenticated request frame; returns false when the
  /// connection must be dropped.
  bool HandleRequest(Connection* conn, uint8_t type, std::string& payload);

  /// Enqueues an append; immediate kErrBusy ErrorBody when the queue is
  /// full, otherwise blocks until the ingest thread ran the batch.
  Status RunAppend(std::string table, std::vector<Row> rows);

  Status SendOk(Connection* conn, std::string_view payload);
  Status SendError(Connection* conn, uint8_t code, bool retryable,
                   std::string message);

  StreamingAuditor* const auditor_;
  const ServerOptions options_;
  std::unique_ptr<Listener> listener_;
  int port_ = 0;

  std::thread accept_thread_;
  std::thread ingest_thread_;

  mutable Mutex mu_;
  bool stopping_ EBA_GUARDED_BY(mu_) = false;
  std::vector<std::unique_ptr<ConnState>> conns_ EBA_GUARDED_BY(mu_);

  mutable Mutex ingest_mu_;
  CondVar ingest_cv_;
  std::deque<IngestJob> ingest_queue_ EBA_GUARDED_BY(ingest_mu_);
  bool ingest_stop_ EBA_GUARDED_BY(ingest_mu_) = false;
  bool ingest_paused_ EBA_GUARDED_BY(ingest_mu_) = false;

  AtomicCounter requests_served_;
  AtomicCounter appends_rejected_busy_;
  AtomicCounter connections_accepted_;
};

}  // namespace eba

#endif  // EBA_NET_SERVER_H_
