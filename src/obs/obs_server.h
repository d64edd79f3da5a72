// ObsServer: an embedded HTTP/1.1 scrape endpoint for live inspection.
//
// Until now the obs layer was batch-only: metrics, trace, and bench JSON
// appear on disk after the process exits. ObsServer makes a *running*
// experiment observable: a tiny blocking-socket HTTP server (no third-party
// dependency — one acceptor thread plus a bounded pool of handler threads)
// that serves
//
//   GET /metrics   Prometheus text exposition (format 0.0.4) rendered from
//                  MetricsRegistry::Collect() via src/obs/prometheus.h
//   GET /status    live run status JSON from obs::RunStatus (phase, epoch
//                  progress, HE op counts, fault/channel counters)
//   GET /trace     snapshot of the TraceRecorder as Chrome trace JSON —
//                  loadable in Perfetto mid-run, with both the simulated
//                  and the "host.wall" clock domains
//   GET /healthz   liveness probe ("ok")
//
// Startup is env-gated: any binary that calls Platform::Run (or constructs
// a bench ObsExporter) starts the server when FLB_OBS_PORT is set
// (FLB_OBS_PORT=0 picks an ephemeral port, printed to stderr). Starting the
// server also enables the HostProfiler wall plane.
//
// Determinism contract: the scrape path only *reads* snapshots (registry
// collect, status JSON, trace JSON) and writes obs-only gauges/counters —
// it never touches the SimClock, charged accounting, or any trainer state,
// so a hammered server cannot change run results (enforced bit-for-bit by
// ObsServerScrapeTest).

#ifndef FLB_OBS_OBS_SERVER_H_
#define FLB_OBS_OBS_SERVER_H_

#include <atomic>
#include <deque>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/common/annotations.h"
#include "src/common/mutex.h"
#include "src/common/result.h"
#include "src/common/status.h"

namespace flb::obs {

class ObsServer {
 public:
  struct Options {
    int port = 0;  // 0 = kernel-assigned ephemeral port (see port())
    std::string bind_address = "127.0.0.1";  // loopback by default
    int num_handlers = 2;                    // handler thread pool size
    int max_pending = 64;  // accepted-but-unserved connection cap
  };

  // Binds, listens, and spawns the acceptor + handler threads. On error
  // (port in use, bad address) returns the Status instead of dying — the
  // obs plane must never take down an experiment.
  static Result<std::unique_ptr<ObsServer>> Start(const Options& options);

  // Starts the process-global server once on the FLB_OBS_PORT port (unset =
  // no server). Safe to call from every Platform::Run. Returns the global
  // server or nullptr.
  static ObsServer* EnsureGlobalFromEnv();
  static ObsServer* Global();

  // FLB_OBS_LINGER=<seconds>: keeps the process alive that long after its
  // runs finish (phase "linger") so a scraper can take final snapshots.
  // No-op unless the global server is running. Called by the bench
  // ObsExporter and at the end of example_flb_cli.
  static void LingerFromEnv();

  ~ObsServer();
  ObsServer(const ObsServer&) = delete;
  ObsServer& operator=(const ObsServer&) = delete;

  // The actually-bound port (resolves Options::port == 0).
  int port() const { return port_; }

  // Idempotent; joins all threads and closes every socket.
  void Stop();

  // The request → response mapping, socket-free for unit tests. `path` may
  // carry a query string (ignored).
  struct Response {
    int status = 200;
    std::string content_type;
    std::string body;
  };
  static Response Handle(const std::string& method, const std::string& path);

 private:
  explicit ObsServer(const Options& options);

  Status Listen();
  void AcceptorLoop();
  void HandlerLoop();
  void ServeConnection(int fd);
  static std::string RenderResponse(const Response& response);

  const Options options_;
  int listen_fd_ = -1;
  int port_ = 0;
  std::atomic<bool> stop_{false};
  std::thread acceptor_;
  std::vector<std::thread> handlers_;

  common::Mutex queue_mu_;
  common::CondVar queue_cv_;
  std::deque<int> pending_ FLB_GUARDED_BY(queue_mu_);
};

}  // namespace flb::obs

#endif  // FLB_OBS_OBS_SERVER_H_
