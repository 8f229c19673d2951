#include "http_client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>

namespace perfbench {

HttpClient::HttpClient(uint16_t port) : port_(port) {}

HttpClient::~HttpClient() { Close(); }

void HttpClient::Close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
  inbuf_.clear();
}

bool HttpClient::Connect() {
  fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) return false;
  int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port_);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    Close();
    return false;
  }
  return true;
}

HttpReply HttpClient::Post(std::string_view path, std::string_view body) {
  return Exchange("POST", path, body);
}

HttpReply HttpClient::Get(std::string_view path) {
  return Exchange("GET", path, {});
}

HttpReply HttpClient::Exchange(std::string_view method, std::string_view path,
                               std::string_view body) {
  std::string request;
  request.reserve(128 + body.size());
  request.append(method).append(" ").append(path).append(
      " HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Type: text/plain\r\n"
      "Content-Length: ");
  request.append(std::to_string(body.size())).append("\r\n\r\n").append(body);
  for (int attempt = 0; attempt < 2; ++attempt) {
    if (fd_ < 0 && !Connect()) return {};
    size_t sent = 0;
    bool ok = true;
    while (sent < request.size()) {
      ssize_t n = ::send(fd_, request.data() + sent, request.size() - sent,
                         MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) {
        ok = false;
        break;
      }
      sent += static_cast<size_t>(n);
    }
    HttpReply reply;
    if (ok && ReadReply(&reply)) return reply;
    // A kept-alive connection the server closed (idle sweep) fails on
    // first use; retry once on a fresh one.
    Close();
  }
  return {};
}

bool HttpClient::ReadReply(HttpReply* reply) {
  size_t header_end = std::string::npos;
  char buf[16384];
  while ((header_end = inbuf_.find("\r\n\r\n")) == std::string::npos) {
    ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    inbuf_.append(buf, static_cast<size_t>(n));
  }
  const std::string head = inbuf_.substr(0, header_end);
  if (head.compare(0, 9, "HTTP/1.1 ") != 0 &&
      head.compare(0, 9, "HTTP/1.0 ") != 0) {
    return false;
  }
  reply->status = std::atoi(head.c_str() + 9);
  size_t length = 0;
  bool have_length = false;
  size_t line = head.find("\r\n");
  while (line != std::string::npos) {
    const size_t next = head.find("\r\n", line + 2);
    std::string field = head.substr(line + 2, next == std::string::npos
                                                  ? std::string::npos
                                                  : next - line - 2);
    for (size_t i = 0; i < field.size() && field[i] != ':'; ++i) {
      field[i] = static_cast<char>(std::tolower(field[i]));
    }
    if (field.compare(0, 15, "content-length:") == 0) {
      length = std::strtoull(field.c_str() + 15, nullptr, 10);
      have_length = true;
    }
    line = next;
  }
  if (!have_length) return false;
  const size_t body_begin = header_end + 4;
  while (inbuf_.size() < body_begin + length) {
    ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    inbuf_.append(buf, static_cast<size_t>(n));
  }
  reply->body = inbuf_.substr(body_begin, length);
  inbuf_.erase(0, body_begin + length);
  return true;
}

}  // namespace perfbench
