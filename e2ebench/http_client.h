// Blocking HTTP/1.1 client over one keep-alive loopback connection.

#ifndef E2EBENCH_HTTP_CLIENT_H_
#define E2EBENCH_HTTP_CLIENT_H_

#include <string>

namespace e2ebench {

struct HttpReply {
  int status = 0;  // 0: the connection failed or closed mid-response.
  std::string body;
};

class HttpClient {
 public:
  explicit HttpClient(int port) : port_(port) {}
  ~HttpClient() { Close(); }

  HttpClient(const HttpClient&) = delete;
  HttpClient& operator=(const HttpClient&) = delete;

  /// Sends one request and waits for its full response. Reconnects once
  /// if the server had closed the keep-alive socket.
  HttpReply Request(const std::string& method, const std::string& target,
                    const std::string& body = std::string());

 private:
  bool Connect();
  void Close();
  bool SendAll(const std::string& data);
  bool ReadReply(HttpReply& reply);

  int port_;
  int fd_ = -1;
  std::string buf_;
};

/// Encodes a query-string value: spaces become '+', bytes outside
/// [A-Za-z0-9._-] become %XX.
std::string UrlEncode(const std::string& in);

}  // namespace e2ebench

#endif  // E2EBENCH_HTTP_CLIENT_H_
