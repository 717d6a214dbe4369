// Minimal loopback HTTP/1.0 admin endpoint for a running engine.
//
// A long-running ExplanationEngine is invisible without a hole to look
// through: this server makes it inspectable while it serves. It is
// deliberately NOT a web framework — one acceptor thread, HTTP/1.0 only
// (no keep-alive, no chunking, Connection: close on every response),
// loopback-bound (127.0.0.1; exposing it beyond the host is a proxy's
// job), GET-only, two routes:
//
//   /healthz  -> "ok\n" (liveness: the acceptor thread is responsive)
//   /statusz  -> engine status JSON (uptime, queue depth, in-flight,
//                batch stats, ISA, last error, SLO burn rates)
//
// The /statusz body comes from an injected callback, so the server knows
// nothing about the engine. Requests are handled sequentially on the
// acceptor thread: a status check is a few kilobytes once in a while, and
// sequential handling keeps the server trivially race-free — the callback
// must be thread-safe only against the process it observes.
//
// Off by default: the engine starts one only when ServeConfig::admin_port
// is >= 0. Port 0 binds an ephemeral port; port() reports the bound port
// (that is what the tests print for curl).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>

namespace cfgx::serve {

class AdminServer {
 public:
  using Handler = std::function<std::string()>;

  // Binds and starts the acceptor thread immediately; throws
  // std::runtime_error when the port cannot be bound. `statusz` returns
  // the /statusz JSON body; a throwing handler yields a 500 response,
  // never a crash.
  AdminServer(int port, Handler statusz);
  ~AdminServer();  // stop()

  AdminServer(const AdminServer&) = delete;
  AdminServer& operator=(const AdminServer&) = delete;

  // The actually bound port (resolves port 0).
  std::uint16_t port() const noexcept { return port_; }

  // Closes the listener and joins the acceptor thread; idempotent. An
  // in-flight request finishes; queued connections are reset by the OS.
  void stop();

 private:
  void serve_loop();
  void handle_connection(int client_fd);

  Handler statusz_;
  int listen_fd_ = -1;
  int wake_fds_[2] = {-1, -1};  // self-pipe unblocking poll() on stop
  std::uint16_t port_ = 0;
  std::atomic<bool> stopped_{false};
  std::mutex stop_mutex_;  // serializes concurrent stop() joins
  std::thread acceptor_;
};

}  // namespace cfgx::serve
