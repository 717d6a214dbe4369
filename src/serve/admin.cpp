#include "serve/admin.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <utility>

namespace cfgx::serve {
namespace {

void close_fd(int& fd) {
  if (fd >= 0) {
    ::close(fd);
    fd = -1;
  }
}

// Blocking write of the whole buffer; gives up on error (client gone).
void write_all(int fd, const std::string& data) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n = ::write(fd, data.data() + sent, data.size() - sent);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return;
    }
    sent += static_cast<std::size_t>(n);
  }
}

std::string http_response(int code, const char* reason,
                          const char* content_type, const std::string& body) {
  std::string out = "HTTP/1.0 ";
  out += std::to_string(code);
  out += ' ';
  out += reason;
  out += "\r\nContent-Type: ";
  out += content_type;
  out += "\r\nContent-Length: ";
  out += std::to_string(body.size());
  out += "\r\nConnection: close\r\n\r\n";
  out += body;
  return out;
}

}  // namespace

AdminServer::AdminServer(int port, Handler statusz)
    : statusz_(std::move(statusz)) {
  if (port < 0 || port > 65535) {
    throw std::runtime_error("AdminServer: port outside [0, 65535]");
  }
  if (::pipe(wake_fds_) != 0) {
    throw std::runtime_error("AdminServer: pipe() failed");
  }
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    close_fd(wake_fds_[0]);
    close_fd(wake_fds_[1]);
    throw std::runtime_error("AdminServer: socket() failed");
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof addr) != 0 ||
      ::listen(listen_fd_, 16) != 0) {
    const std::string what =
        std::string("AdminServer: cannot bind 127.0.0.1:") +
        std::to_string(port) + " (" + std::strerror(errno) + ")";
    close_fd(listen_fd_);
    close_fd(wake_fds_[0]);
    close_fd(wake_fds_[1]);
    throw std::runtime_error(what);
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof bound;
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &bound_len);
  port_ = ntohs(bound.sin_port);

  acceptor_ = std::thread([this] { serve_loop(); });
}

AdminServer::~AdminServer() { stop(); }

void AdminServer::stop() {
  // Serializing the whole body means every stop() returns only after the
  // acceptor has exited and the fds are closed.
  std::lock_guard lock(stop_mutex_);
  if (stopped_.exchange(true)) return;
  // Wake the poll(); the acceptor exits before any fd is closed.
  if (wake_fds_[1] >= 0) {
    const char byte = 'q';
    [[maybe_unused]] const ssize_t n = ::write(wake_fds_[1], &byte, 1);
  }
  if (acceptor_.joinable()) acceptor_.join();
  close_fd(listen_fd_);
  close_fd(wake_fds_[0]);
  close_fd(wake_fds_[1]);
}

void AdminServer::serve_loop() {
  for (;;) {
    pollfd fds[2];
    fds[0].fd = listen_fd_;
    fds[0].events = POLLIN;
    fds[1].fd = wake_fds_[0];
    fds[1].events = POLLIN;
    const int ready = ::poll(fds, 2, -1);
    if (ready < 0) {
      if (errno == EINTR) continue;
      return;
    }
    if ((fds[1].revents & POLLIN) != 0) return;  // stop() woke us
    if ((fds[0].revents & POLLIN) == 0) continue;
    const int client = ::accept(listen_fd_, nullptr, nullptr);
    if (client < 0) continue;
    handle_connection(client);
    ::close(client);
  }
}

void AdminServer::handle_connection(int client_fd) {
  // Read until the end of headers (or a small cap — admin requests have
  // no body worth reading). A stalled client cannot wedge the acceptor
  // forever: 5s receive timeout, then the connection is dropped.
  timeval timeout{};
  timeout.tv_sec = 5;
  ::setsockopt(client_fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout);

  std::string request;
  char buf[1024];
  while (request.size() < 8192 &&
         request.find("\r\n\r\n") == std::string::npos) {
    const ssize_t n = ::read(client_fd, buf, sizeof buf);
    if (n <= 0) break;
    request.append(buf, static_cast<std::size_t>(n));
  }
  const std::size_t line_end = request.find("\r\n");
  if (line_end == std::string::npos) return;  // not HTTP; drop silently

  // "GET /path HTTP/1.x"
  const std::string line = request.substr(0, line_end);
  const std::size_t sp1 = line.find(' ');
  const std::size_t sp2 = sp1 == std::string::npos
                              ? std::string::npos
                              : line.find(' ', sp1 + 1);
  const std::string method =
      sp1 == std::string::npos ? line : line.substr(0, sp1);
  std::string path = sp2 == std::string::npos
                         ? std::string()
                         : line.substr(sp1 + 1, sp2 - sp1 - 1);
  const std::size_t query = path.find('?');
  if (query != std::string::npos) path.resize(query);

  std::string response;
  if (method != "GET") {
    response = http_response(405, "Method Not Allowed", "text/plain",
                             "only GET is supported\n");
  } else if (path == "/healthz") {
    response = http_response(200, "OK", "text/plain", "ok\n");
  } else if (path == "/statusz") {
    try {
      response = http_response(200, "OK", "application/json",
                               statusz_ ? statusz_() : std::string());
    } catch (const std::exception& e) {
      response = http_response(500, "Internal Server Error", "text/plain",
                               std::string(e.what()) + "\n");
    } catch (...) {
      response = http_response(500, "Internal Server Error", "text/plain",
                               "handler failed\n");
    }
  } else {
    response = http_response(404, "Not Found", "text/plain",
                             "routes: /healthz /statusz\n");
  }
  write_all(client_fd, response);
}

}  // namespace cfgx::serve
