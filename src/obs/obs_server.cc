#include "src/obs/obs_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <utility>

#include "src/common/env.h"
#include "src/obs/host_profiler.h"
#include "src/obs/metrics.h"
#include "src/obs/prometheus.h"
#include "src/obs/run_status.h"
#include "src/obs/trace.h"

namespace flb::obs {

namespace {

// The process-global server, started at most once per process (leaked
// deliberately: scrapers may still be connected during static teardown).
std::atomic<ObsServer*> g_global{nullptr};

}  // namespace

ObsServer::ObsServer(const Options& options) : options_(options) {}

ObsServer::~ObsServer() { Stop(); }

Result<std::unique_ptr<ObsServer>> ObsServer::Start(const Options& options) {
  if (options.port < 0 || options.port > 65535) {
    return Status::InvalidArgument("obs server: port out of range: " +
                                   std::to_string(options.port));
  }
  std::unique_ptr<ObsServer> server(new ObsServer(options));
  FLB_RETURN_IF_ERROR(server->Listen());
  server->acceptor_ = std::thread([s = server.get()] { s->AcceptorLoop(); });
  const int num_handlers = std::max(1, options.num_handlers);
  server->handlers_.reserve(static_cast<size_t>(num_handlers));
  for (int i = 0; i < num_handlers; ++i) {
    server->handlers_.emplace_back([s = server.get()] { s->HandlerLoop(); });
  }
  return server;
}

ObsServer* ObsServer::Global() {
  return g_global.load(std::memory_order_acquire);
}

ObsServer* ObsServer::EnsureGlobalFromEnv() {
  static common::Mutex init_mu;
  common::MutexLock lock(init_mu);
  if (ObsServer* existing = Global()) return existing;

  const char* v = common::Env::Raw("FLB_OBS_PORT");
  if (v == nullptr || *v == '\0') return nullptr;

  Options options;
  options.port = common::Env::Int("FLB_OBS_PORT", 0, 0, 65535);
  auto result = Start(options);
  if (!result.ok()) {
    std::fprintf(stderr, "[obs] server not started: %s\n",
                 result.status().ToString().c_str());
    return nullptr;
  }
  ObsServer* server = result.value().release();
  // A live-inspected process always gets the wall profiling plane too.
  HostProfiler::Global().Enable();
  std::fprintf(stderr,
               "[obs] serving /metrics /status /trace /healthz on "
               "http://%s:%d\n",
               server->options_.bind_address.c_str(), server->port());
  g_global.store(server, std::memory_order_release);
  return server;
}

void ObsServer::LingerFromEnv() {
  if (Global() == nullptr) return;
  const int seconds = common::Env::Int("FLB_OBS_LINGER", 0, 0, 86400);
  if (seconds <= 0) return;
  RunStatus::Global().SetPhase("linger");
  std::fprintf(stderr, "[obs] lingering %d s for final scrapes\n", seconds);
  std::this_thread::sleep_for(std::chrono::seconds(seconds));
}

Status ObsServer::Listen() {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) {
    return Status::IoError(std::string("obs server: socket(): ") +
                           std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(options_.port));
  if (::inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    return Status::InvalidArgument("obs server: bad bind address: " +
                                   options_.bind_address);
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    return Status::IoError("obs server: cannot bind " +
                           options_.bind_address + ":" +
                           std::to_string(options_.port) + ": " +
                           std::strerror(errno));
  }
  if (::listen(listen_fd_, 16) != 0) {
    return Status::IoError(std::string("obs server: listen(): ") +
                           std::strerror(errno));
  }
  sockaddr_in actual{};
  socklen_t len = sizeof(actual);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&actual), &len) ==
      0) {
    port_ = ntohs(actual.sin_port);
  }
  return Status::OK();
}

void ObsServer::AcceptorLoop() {
  // Short poll timeout so Stop() is honored promptly without signals.
  while (!stop_.load(std::memory_order_acquire)) {
    pollfd pfd{};
    pfd.fd = listen_fd_;
    pfd.events = POLLIN;
    if (::poll(&pfd, 1, 200) <= 0) continue;
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    bool enqueued = false;
    {
      common::MutexLock lock(queue_mu_);
      if (static_cast<int>(pending_.size()) < options_.max_pending) {
        pending_.push_back(fd);
        enqueued = true;
      }
    }
    if (enqueued) {
      queue_cv_.notify_one();
    } else {
      // Overloaded: shed instead of blocking the acceptor. The client sees
      // a reset and retries; the experiment is unaffected either way.
      ::close(fd);
    }
  }
}

void ObsServer::HandlerLoop() {
  for (;;) {
    int fd = -1;
    {
      common::MutexLock lock(queue_mu_);
      while (pending_.empty() && !stop_.load(std::memory_order_acquire)) {
        queue_cv_.wait(lock);
      }
      if (pending_.empty()) return;  // stopping and drained
      fd = pending_.front();
      pending_.pop_front();
    }
    ServeConnection(fd);
  }
}

void ObsServer::ServeConnection(int fd) {
  // Read the request head: until a blank line, capped at 8 KB and ~2 s
  // (10 x 200 ms polls) so a stalled client can't pin a handler.
  std::string request;
  int idle_polls = 0;
  while (request.find("\r\n\r\n") == std::string::npos &&
         request.find("\n\n") == std::string::npos && request.size() < 8192) {
    pollfd pfd{};
    pfd.fd = fd;
    pfd.events = POLLIN;
    if (::poll(&pfd, 1, 200) <= 0) {
      if (++idle_polls >= 10 || stop_.load(std::memory_order_acquire)) {
        ::close(fd);
        return;
      }
      continue;
    }
    char buf[2048];
    const ssize_t r = ::recv(fd, buf, sizeof(buf), 0);
    if (r <= 0) {
      ::close(fd);
      return;
    }
    request.append(buf, static_cast<size_t>(r));
  }

  size_t eol = request.find("\r\n");
  if (eol == std::string::npos) eol = request.find('\n');
  const std::string line = request.substr(0, eol);
  const size_t sp1 = line.find(' ');
  const size_t sp2 =
      sp1 == std::string::npos ? std::string::npos : line.find(' ', sp1 + 1);
  Response response;
  if (sp1 == std::string::npos || sp2 == std::string::npos) {
    RunStatus::Global().NoteScrape("other");
    response.status = 400;
    response.content_type = "text/plain; charset=utf-8";
    response.body = "bad request\n";
  } else {
    response = Handle(line.substr(0, sp1), line.substr(sp1 + 1, sp2 - sp1 - 1));
  }

  const std::string wire = RenderResponse(response);
  size_t off = 0;
  idle_polls = 0;
  while (off < wire.size() && idle_polls < 25) {
    pollfd pfd{};
    pfd.fd = fd;
    pfd.events = POLLOUT;
    if (::poll(&pfd, 1, 200) <= 0) {
      ++idle_polls;
      continue;
    }
    const ssize_t w =
        ::send(fd, wire.data() + off, wire.size() - off, MSG_NOSIGNAL);
    if (w < 0) break;
    off += static_cast<size_t>(w);
  }
  ::close(fd);
}

ObsServer::Response ObsServer::Handle(const std::string& method,
                                      const std::string& path) {
  RunStatus& run_status = RunStatus::Global();
  Response r;
  r.content_type = "text/plain; charset=utf-8";
  if (method != "GET") {
    run_status.NoteScrape("other");
    r.status = 405;
    r.body = "method not allowed\n";
    return r;
  }
  const std::string p = path.substr(0, path.find('?'));
  if (p == "/healthz") {
    run_status.NoteScrape("healthz");
    r.body = "ok\n";
    return r;
  }
  if (p == "/metrics") {
    run_status.NoteScrape("metrics");
    // Fold the trace drop counter into the snapshot (obs-only gauge; the
    // scrape path never mutates charged accounting).
    PublishDropMetrics();
    r.content_type = "text/plain; version=0.0.4; charset=utf-8";
    r.body = RenderPrometheus(MetricsRegistry::Global().Collect());
    return r;
  }
  if (p == "/status") {
    run_status.NoteScrape("status");
    r.content_type = "application/json";
    r.body = run_status.ToJson();
    return r;
  }
  if (p == "/trace") {
    run_status.NoteScrape("trace");
    r.content_type = "application/json";
    r.body = TraceRecorder::Global().ToJson();
    return r;
  }
  run_status.NoteScrape("other");
  r.status = 404;
  r.body = "not found; endpoints: /metrics /status /trace /healthz\n";
  return r;
}

std::string ObsServer::RenderResponse(const Response& response) {
  const char* reason = "OK";
  switch (response.status) {
    case 200:
      reason = "OK";
      break;
    case 400:
      reason = "Bad Request";
      break;
    case 404:
      reason = "Not Found";
      break;
    case 405:
      reason = "Method Not Allowed";
      break;
    default:
      reason = "Error";
  }
  std::string out = "HTTP/1.1 " + std::to_string(response.status) + " " +
                    reason + "\r\n";
  out += "Content-Type: " + response.content_type + "\r\n";
  out += "Content-Length: " + std::to_string(response.body.size()) + "\r\n";
  out += "Connection: close\r\n";
  out += "\r\n";
  out += response.body;
  return out;
}

void ObsServer::Stop() {
  if (stop_.exchange(true, std::memory_order_acq_rel)) return;
  queue_cv_.notify_all();
  if (acceptor_.joinable()) acceptor_.join();
  for (auto& t : handlers_) {
    if (t.joinable()) t.join();
  }
  {
    common::MutexLock lock(queue_mu_);
    for (int fd : pending_) ::close(fd);
    pending_.clear();
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

}  // namespace flb::obs
