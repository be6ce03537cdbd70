#include "wire.h"

#include <cstdlib>
#include <cstring>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

namespace perfbench {
namespace {

int ConnectLoopback(uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

bool SendAll(int fd, const std::string& data) {
  size_t sent = 0;
  while (sent < data.size()) {
    ssize_t n = ::send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) return false;
    sent += static_cast<size_t>(n);
  }
  return true;
}

/// Value of `key=` in a space-separated header line, or "".
std::string HeaderField(const std::string& header, const char* key) {
  const std::string needle = std::string(" ") + key + "=";
  size_t pos = header.find(needle);
  if (pos == std::string::npos) return "";
  pos += needle.size();
  size_t end = header.find(' ', pos);
  return header.substr(pos, end == std::string::npos ? end : end - pos);
}

/// Raw text of JSON member `key` (up to the next ',' or '}'), or "".
std::string JsonField(const std::string& json, const char* key) {
  const std::string needle = std::string("\"") + key + "\":";
  size_t pos = json.find(needle);
  if (pos == std::string::npos) return "";
  pos += needle.size();
  size_t end = json.find_first_of(",}", pos);
  return json.substr(pos, end == std::string::npos ? end : end - pos);
}

}  // namespace

LineConnection::~LineConnection() { Close(); }

void LineConnection::Close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
  buffer_.clear();
}

bool LineConnection::Connect(uint16_t port) {
  Close();
  fd_ = ConnectLoopback(port);
  return fd_ >= 0;
}

bool LineConnection::Roundtrip(const std::string& line, std::string* reply) {
  if (fd_ < 0 || !SendAll(fd_, line + "\n")) {
    Close();
    return false;
  }
  // A reply always starts with a header line, so its terminator is the
  // first "\nEND\n"; body rows are N-Triples terms and never read "END".
  static constexpr char kTerminator[] = "\nEND\n";
  size_t scanned = 0;
  char chunk[65536];
  for (;;) {
    size_t end = buffer_.find(kTerminator, scanned);
    if (end != std::string::npos) {
      const size_t length = end + sizeof(kTerminator) - 1;
      reply->assign(buffer_, 0, length);
      buffer_.erase(0, length);
      return true;
    }
    scanned = buffer_.size() < 4 ? 0 : buffer_.size() - 4;
    ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n <= 0) {
      Close();
      return false;
    }
    buffer_.append(chunk, static_cast<size_t>(n));
  }
}

bool HttpPostQuery(uint16_t port, const std::string& sparql,
                   std::string* response) {
  int fd = ConnectLoopback(port);
  if (fd < 0) return false;
  const std::string request = "POST /query HTTP/1.0\r\nContent-Length: " +
                              std::to_string(sparql.size()) + "\r\n\r\n" +
                              sparql;
  bool ok = SendAll(fd, request);
  response->clear();
  char chunk[65536];
  while (ok) {
    ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n < 0) ok = false;
    if (n <= 0) break;
    response->append(chunk, static_cast<size_t>(n));
  }
  ::close(fd);
  return ok && !response->empty();
}

QueryReply ParseLineReply(const std::string& reply) {
  QueryReply out;
  const std::string header = reply.substr(0, reply.find('\n'));
  if (header.rfind("BUSY", 0) == 0) {
    out.status = ReplyStatus::kBusy;
    return out;
  }
  if (header.rfind("OK QUERY", 0) != 0) return out;
  out.status = ReplyStatus::kOk;
  out.rows = std::strtoull(HeaderField(header, "rows").c_str(), nullptr, 10);
  out.cached = HeaderField(header, "cached") == "1";
  out.routed = HeaderField(header, "view") != "-";
  out.micros = std::strtod(HeaderField(header, "micros").c_str(), nullptr);
  return out;
}

QueryReply ParseHttpReply(const std::string& response) {
  QueryReply out;
  if (response.rfind("HTTP/1.0 503", 0) == 0) {
    out.status = ReplyStatus::kBusy;
    return out;
  }
  if (response.rfind("HTTP/1.0 200", 0) != 0) return out;
  const size_t body = response.find("\r\n\r\n");
  if (body == std::string::npos) return out;
  const std::string json = response.substr(body + 4);
  out.status = ReplyStatus::kOk;
  out.rows = std::strtoull(JsonField(json, "rows").c_str(), nullptr, 10);
  out.cached = JsonField(json, "cached") == "true";
  out.routed = JsonField(json, "view") != "\"-\"";
  out.micros = std::strtod(JsonField(json, "micros").c_str(), nullptr);
  return out;
}

}  // namespace perfbench
