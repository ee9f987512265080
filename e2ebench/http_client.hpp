#pragma once

/// \file http_client.hpp
/// Minimal HTTP/1.1 keep-alive client for the load generator, plus
/// scrapers for the Prometheus text page. One connection per client;
/// Content-Length framing, so a connection is reused across requests.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <string>

namespace e2e {

struct HttpReply {
  int status = 0;  ///< 0 = transport failure
  std::string body;
};

class KeepAliveClient {
 public:
  explicit KeepAliveClient(int port) : port_(port) {}
  ~KeepAliveClient() { closeConn(); }

  KeepAliveClient(const KeepAliveClient&) = delete;
  KeepAliveClient& operator=(const KeepAliveClient&) = delete;

  /// One request/response exchange. A failure on a reused connection is
  /// retried once on a fresh one (the server may have closed the idle
  /// connection as the request went out); a fresh-connection failure
  /// returns status 0.
  HttpReply call(const char* method, const std::string& path,
                 const std::string& body) {
    for (int attempt = 0; attempt < 2; ++attempt) {
      const bool fresh = fd_ < 0;
      if (fresh && !open()) return {};
      HttpReply reply;
      bool closeAfter = false;
      if (send(method, path, body) && read(&reply, &closeAfter)) {
        if (closeAfter) closeConn();
        return reply;
      }
      closeConn();
      if (fresh) return {};
    }
    return {};
  }

  void closeConn() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
    in_.clear();
  }

 private:
  bool open() {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port_));
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
      ::close(fd_);
      fd_ = -1;
      return false;
    }
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    return true;
  }

  bool send(const char* method, const std::string& path,
            const std::string& body) {
    std::string req = std::string(method) + " " + path +
                      " HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                      "Connection: keep-alive\r\n"
                      "Content-Type: application/json\r\n"
                      "Content-Length: " +
                      std::to_string(body.size()) + "\r\n\r\n" + body;
    std::size_t sent = 0;
    while (sent < req.size()) {
      const ssize_t n =
          ::send(fd_, req.data() + sent, req.size() - sent, MSG_NOSIGNAL);
      if (n <= 0) return false;
      sent += static_cast<std::size_t>(n);
    }
    return true;
  }

  bool fill() {
    char chunk[16384];
    const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
    if (n <= 0) return false;
    in_.append(chunk, static_cast<std::size_t>(n));
    return true;
  }

  bool read(HttpReply* reply, bool* closeAfter) {
    std::size_t headEnd;
    while ((headEnd = in_.find("\r\n\r\n")) == std::string::npos)
      if (!fill()) return false;
    if (in_.compare(0, 9, "HTTP/1.1 ") != 0) return false;
    reply->status = std::atoi(in_.c_str() + 9);
    std::size_t length = 0;
    std::size_t pos = in_.find("\r\n");
    while (pos < headEnd) {
      const std::size_t eol = in_.find("\r\n", pos + 2);
      const std::string line = in_.substr(pos + 2, eol - pos - 2);
      pos = eol;
      const std::size_t colon = line.find(':');
      if (colon == std::string::npos) continue;
      std::string key = line.substr(0, colon);
      for (char& c : key)
        c = static_cast<char>(c >= 'A' && c <= 'Z' ? c - 'A' + 'a' : c);
      const char* value = line.c_str() + colon + 1;
      while (*value == ' ' || *value == '\t') ++value;
      if (key == "content-length")
        length = static_cast<std::size_t>(std::strtoul(value, nullptr, 10));
      else if (key == "connection" && std::strncmp(value, "close", 5) == 0)
        *closeAfter = true;
    }
    const std::size_t bodyStart = headEnd + 4;
    while (in_.size() - bodyStart < length)
      if (!fill()) return false;
    reply->body = in_.substr(bodyStart, length);
    in_.erase(0, bodyStart + length);
    return true;
  }

  int port_;
  int fd_ = -1;
  std::string in_;
};

/// Value of the first sample line of a Prometheus page that starts
/// with `needle` (name plus labels, matched from the line start); -1
/// when absent.
inline double metricValue(const std::string& page, const std::string& needle) {
  std::size_t pos = 0;
  while ((pos = page.find(needle, pos)) != std::string::npos) {
    if (pos == 0 || page[pos - 1] == '\n') break;
    pos += needle.size();
  }
  if (pos == std::string::npos) return -1.0;
  const std::size_t eol = page.find('\n', pos);
  const std::string line = page.substr(pos, eol - pos);
  return std::atof(line.c_str() + line.rfind(' ') + 1);
}

/// Sum over every sample line starting with `prefix` (a counter family
/// across the worker="N" labels the load balancer injects); 0 when
/// absent.
inline double sumMetricLines(const std::string& page,
                             const std::string& prefix) {
  double total = 0.0;
  std::size_t pos = 0;
  while ((pos = page.find(prefix, pos)) != std::string::npos) {
    if (pos == 0 || page[pos - 1] == '\n') {
      const std::size_t eol = page.find('\n', pos);
      const std::string line = page.substr(pos, eol - pos);
      total += std::atof(line.c_str() + line.rfind(' ') + 1);
    }
    pos += prefix.size();
  }
  return total;
}

}  // namespace e2e
