#include "poi360/obs/metrics_http.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <utility>

namespace poi360::obs {

namespace {

// Receive and send timeout of each accepted connection. The accept thread
// serves one connection at a time, so without it a client that connects and
// never sends (or never reads) would block stop() for as long as it stays
// connected.
constexpr timeval kConnectionIoTimeout{1, 0};

void send_all(int fd, const std::string& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::send(fd, data.data() + off, data.size() - off,
#ifdef MSG_NOSIGNAL
                             MSG_NOSIGNAL
#else
                             0
#endif
    );
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return;  // peer went away mid-scrape; nothing to salvage
    }
    off += static_cast<std::size_t>(n);
  }
}

std::string http_response(const std::string& status,
                          const std::string& content_type,
                          const std::string& body) {
  return "HTTP/1.1 " + status +
         "\r\n"
         "Content-Type: " +
         content_type +
         "\r\n"
         "Content-Length: " +
         std::to_string(body.size()) +
         "\r\n"
         "Connection: close\r\n"
         "\r\n" +
         body;
}

}  // namespace

MetricsHttpServer::MetricsHttpServer(const Config& config)
    : text_(std::make_shared<const std::string>()) {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    throw std::runtime_error("MetricsHttpServer: socket() failed");
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(config.port));
  if (::inet_pton(AF_INET, config.bind_address.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    throw std::runtime_error("MetricsHttpServer: bad bind address '" +
                             config.bind_address + "'");
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    const int err = errno;
    ::close(listen_fd_);
    throw std::runtime_error("MetricsHttpServer: bind(" + config.bind_address +
                             ":" + std::to_string(config.port) +
                             ") failed: " + std::strerror(err));
  }
  if (::listen(listen_fd_, 16) < 0) {
    ::close(listen_fd_);
    throw std::runtime_error("MetricsHttpServer: listen() failed");
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len) ==
      0) {
    port_ = static_cast<int>(ntohs(bound.sin_port));
  } else {
    port_ = config.port;
  }
  thread_ = std::thread([this] { serve_loop(); });
}

MetricsHttpServer::~MetricsHttpServer() { stop(); }

void MetricsHttpServer::publish(std::string metrics_text) {
  auto next = std::make_shared<const std::string>(std::move(metrics_text));
  std::lock_guard<std::mutex> lock(text_mu_);
  text_ = std::move(next);
}

std::shared_ptr<const std::string> MetricsHttpServer::current_text() const {
  std::lock_guard<std::mutex> lock(text_mu_);
  return text_;
}

void MetricsHttpServer::stop() {
  if (stopping_.exchange(true)) {
    if (thread_.joinable()) thread_.join();
    return;
  }
  // shutdown() wakes the blocking accept(); close() then releases the fd.
  ::shutdown(listen_fd_, SHUT_RDWR);
  ::close(listen_fd_);
  if (thread_.joinable()) thread_.join();
}

void MetricsHttpServer::serve_loop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // listen socket closed by stop()
    }
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &kConnectionIoTimeout,
                 sizeof(kConnectionIoTimeout));
    ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &kConnectionIoTimeout,
                 sizeof(kConnectionIoTimeout));
    handle_connection(fd);
    ::close(fd);
  }
}

void MetricsHttpServer::handle_connection(int fd) {
  // Read the request head only (bounded); scrape requests have no body.
  std::string head;
  char buf[1024];
  while (head.find("\r\n") == std::string::npos && head.size() < 4096 &&
         !stopping_.load(std::memory_order_acquire)) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      break;
    }
    head.append(buf, static_cast<std::size_t>(n));
    if (head.find("\r\n\r\n") != std::string::npos) break;
  }
  const std::size_t line_end = head.find("\r\n");
  if (line_end == std::string::npos) return;
  const std::string request_line = head.substr(0, line_end);

  const std::size_t sp1 = request_line.find(' ');
  const std::size_t sp2 =
      sp1 == std::string::npos ? std::string::npos
                               : request_line.find(' ', sp1 + 1);
  const std::string method =
      sp1 == std::string::npos ? request_line : request_line.substr(0, sp1);
  const std::string target =
      sp2 == std::string::npos ? std::string()
                               : request_line.substr(sp1 + 1, sp2 - sp1 - 1);

  requests_.fetch_add(1, std::memory_order_relaxed);

  if (method != "GET") {
    send_all(fd, http_response("405 Method Not Allowed", "text/plain",
                               "method not allowed\n"));
    return;
  }
  if (target == "/metrics") {
    const auto text = current_text();
    send_all(fd,
             http_response("200 OK",
                           "text/plain; version=0.0.4; charset=utf-8", *text));
  } else if (target == "/healthz") {
    send_all(fd, http_response("200 OK", "text/plain", "ok\n"));
  } else {
    send_all(fd, http_response("404 Not Found", "text/plain", "not found\n"));
  }
}

}  // namespace poi360::obs
