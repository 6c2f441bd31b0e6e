#include "obs/http_endpoint.hpp"

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

namespace omega::obs {

http_endpoint::~http_endpoint() { stop(); }

bool http_endpoint::start(std::uint16_t port) {
  if (listen_fd_ >= 0) return false;  // already running
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return false;
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd, 8) != 0) {
    ::close(fd);
    return false;
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    ::close(fd);
    return false;
  }
  port_ = ntohs(addr.sin_port);
  listen_fd_ = fd;
  thread_ = std::thread([this] { serve_loop(); });
  return true;
}

void http_endpoint::stop() {
  if (listen_fd_ < 0) return;
  // shutdown() wakes the blocked accept(); close() alone does not reliably
  // on all platforms. Close only after the join: closing first would let a
  // newly opened fd reuse the number under the still-blocked accept thread.
  ::shutdown(listen_fd_, SHUT_RDWR);
  if (thread_.joinable()) thread_.join();
  ::close(listen_fd_);
  listen_fd_ = -1;
  port_ = 0;
}

void http_endpoint::set_handler(handler h) {
  std::lock_guard lock(mu_);
  handler_ = std::move(h);
}

void http_endpoint::publish(std::string path, std::string body,
                            std::string content_type) {
  std::lock_guard lock(mu_);
  snapshots_[std::move(path)] = {std::move(body), std::move(content_type)};
}

void http_endpoint::serve_loop() {
  const int listen_fd = listen_fd_;
  while (true) {
    const int conn = ::accept(listen_fd, nullptr, nullptr);
    if (conn < 0) {
      if (errno == EINTR) continue;
      return;  // listen socket closed by stop()
    }
    handle_connection(conn);
    ::close(conn);
  }
}

namespace {

void send_all(int fd, std::string_view data) {
  while (!data.empty()) {
    const ssize_t n = ::send(fd, data.data(), data.size(), MSG_NOSIGNAL);
    if (n <= 0) return;
    data.remove_prefix(static_cast<std::size_t>(n));
  }
}

void send_response(int fd, std::string_view status, std::string_view type,
                   std::string_view body) {
  std::string head;
  head.reserve(128);
  head += "HTTP/1.0 ";
  head += status;
  head += "\r\nContent-Type: ";
  head += type;
  head += "\r\nContent-Length: ";
  head += std::to_string(body.size());
  head += "\r\nConnection: close\r\n\r\n";
  send_all(fd, head);
  send_all(fd, body);
}

}  // namespace

void http_endpoint::handle_connection(int fd) {
  // Read until the end of the request head (or 4 KiB — scrapes send tiny
  // requests; anything bigger is not our client).
  char buf[4096];
  std::size_t used = 0;
  while (used < sizeof(buf)) {
    const ssize_t n = ::recv(fd, buf + used, sizeof(buf) - used, 0);
    if (n <= 0) return;
    used += static_cast<std::size_t>(n);
    if (std::string_view(buf, used).find("\r\n\r\n") != std::string_view::npos)
      break;
  }
  const std::string_view req(buf, used);

  // Request line: METHOD SP PATH SP VERSION.
  const std::size_t m_end = req.find(' ');
  if (m_end == std::string_view::npos) {
    send_response(fd, "400 Bad Request", "text/plain", "bad request\n");
    return;
  }
  if (req.substr(0, m_end) != "GET") {
    send_response(fd, "405 Method Not Allowed", "text/plain",
                  "GET only\n");
    return;
  }
  const std::size_t p_end = req.find(' ', m_end + 1);
  if (p_end == std::string_view::npos) {
    send_response(fd, "400 Bad Request", "text/plain", "bad request\n");
    return;
  }
  std::string_view path = req.substr(m_end + 1, p_end - m_end - 1);
  if (const std::size_t q = path.find('?'); q != std::string_view::npos) {
    path = path.substr(0, q);  // scrape params are ignored
  }

  {
    std::lock_guard lock(mu_);
    if (handler_) {
      // The callback may render on another thread and block; holding mu_
      // keeps handler replacement safe and serializes requests, which is
      // fine at scrape rates.
      if (auto body = handler_(path)) {
        const std::string_view type = path == "/trace"
                                          ? trace_content_type
                                          : metrics_content_type;
        send_response(fd, "200 OK", type, *body);
        return;
      }
    }
    auto it = snapshots_.find(path);
    if (it != snapshots_.end()) {
      send_response(fd, "200 OK", it->second.content_type, it->second.body);
      return;
    }
  }
  send_response(fd, "404 Not Found", "text/plain", "not found\n");
}

}  // namespace omega::obs
