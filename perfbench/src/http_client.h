// Blocking keep-alive HTTP/1.1 client for loopback load. Written against
// the protocol, not the program's parser, and kept to what the /v1 routes
// answer: Content-Length bodies.
#ifndef PERFBENCH_HTTP_CLIENT_H_
#define PERFBENCH_HTTP_CLIENT_H_

#include <cstdint>
#include <string>
#include <string_view>

namespace perfbench {

struct HttpReply {
  int status = 0;  ///< 0 when the exchange failed at the socket level
  std::string body;
};

class HttpClient {
 public:
  explicit HttpClient(uint16_t port);
  ~HttpClient();
  HttpClient(const HttpClient&) = delete;
  HttpClient& operator=(const HttpClient&) = delete;

  /// POST `body` to `path`; reconnects once if the kept-alive connection
  /// was closed by the server.
  HttpReply Post(std::string_view path, std::string_view body);
  HttpReply Get(std::string_view path);

 private:
  HttpReply Exchange(std::string_view method, std::string_view path,
                     std::string_view body);
  bool Connect();
  void Close();
  bool ReadReply(HttpReply* reply);

  uint16_t port_;
  int fd_ = -1;
  std::string inbuf_;
};

}  // namespace perfbench

#endif  // PERFBENCH_HTTP_CLIENT_H_
