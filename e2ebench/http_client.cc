#include "http_client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cctype>
#include <cstdint>
#include <cstdlib>
#include <cstring>

namespace e2ebench {

HttpReply HttpClient::Request(const std::string& method,
                              const std::string& target,
                              const std::string& body) {
  std::string request = method + " " + target + " HTTP/1.1\r\n";
  if (!body.empty()) {
    request += "Content-Length: " + std::to_string(body.size()) + "\r\n";
  }
  request += "\r\n";
  request += body;
  HttpReply reply;
  for (int attempt = 0; attempt < 2; ++attempt) {
    if (fd_ < 0 && !Connect()) return reply;
    if (SendAll(request) && ReadReply(reply)) return reply;
    Close();
    reply = HttpReply{};
  }
  return reply;
}

bool HttpClient::Connect() {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) return false;
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port_));
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    Close();
    return false;
  }
  return true;
}

void HttpClient::Close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
  buf_.clear();
}

bool HttpClient::SendAll(const std::string& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n =
        ::send(fd_, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n <= 0) return false;
    off += static_cast<std::size_t>(n);
  }
  return true;
}

bool HttpClient::ReadReply(HttpReply& reply) {
  while (true) {
    const std::size_t head_end = buf_.find("\r\n\r\n");
    if (head_end != std::string::npos) {
      std::size_t body_len = 0;
      const std::size_t cl = buf_.find("Content-Length: ");
      if (cl != std::string::npos && cl < head_end) {
        body_len = std::strtoull(buf_.c_str() + cl + 16, nullptr, 10);
      }
      const std::size_t total = head_end + 4 + body_len;
      if (buf_.size() >= total) {
        // "HTTP/1.1 200 OK": the status code follows the first space.
        const std::size_t sp = buf_.find(' ');
        reply.status = sp != std::string::npos && sp < head_end
                           ? std::atoi(buf_.c_str() + sp + 1)
                           : 0;
        reply.body = buf_.substr(head_end + 4, body_len);
        const bool close =
            buf_.substr(0, head_end).find("Connection: close") !=
            std::string::npos;
        buf_.erase(0, total);
        if (close) Close();
        return reply.status != 0;
      }
    }
    char chunk[16384];
    const ssize_t n = ::read(fd_, chunk, sizeof(chunk));
    if (n <= 0) return false;
    buf_.append(chunk, static_cast<std::size_t>(n));
  }
}

std::string UrlEncode(const std::string& in) {
  static const char* kHex = "0123456789ABCDEF";
  std::string out;
  out.reserve(in.size());
  for (const char c : in) {
    const auto u = static_cast<unsigned char>(c);
    if (std::isalnum(u) || c == '.' || c == '_' || c == '-') {
      out.push_back(c);
    } else if (c == ' ') {
      out.push_back('+');
    } else {
      out.push_back('%');
      out.push_back(kHex[u >> 4]);
      out.push_back(kHex[u & 15]);
    }
  }
  return out;
}

}  // namespace e2ebench
