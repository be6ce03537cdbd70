// Minimal HTTP/1.0 helpers for the server's HTTP port: parse
// "<METHOD> <path>[?query] HTTP/1.x" plus headers and an optional
// Content-Length body, and render a Connection: close response. Enough
// for the observability GETs and the `GET /query?q=` / `POST /query`
// JSON adapter — one request per connection, no keep-alive, no chunked
// encoding; the line-protocol port remains the high-throughput client
// interface.
//
// `HttpRequestParser` is incremental so the epoll event loop can feed it
// whatever bytes recv() produced and resume later.
#ifndef SOFOS_SERVER_HTTP_H_
#define SOFOS_SERVER_HTTP_H_

#include <cstddef>
#include <map>
#include <string>

namespace sofos {
namespace server {

/// A parsed request: "GET /history?window=60 HTTP/1.1" becomes
/// {method "GET", path "/history", params {{"window","60"}}}. Header
/// names are lowercased; `body` is raw bytes (Content-Length framed).
struct HttpRequest {
  std::string method;
  std::string path;  // without the query string
  std::map<std::string, std::string> params;
  std::map<std::string, std::string> headers;
  std::string body;
};

/// Parses the request line only. False on anything that is not
/// "<METHOD> <target> HTTP/...". Leaves headers/body untouched.
bool ParseHttpRequestLine(const std::string& line, HttpRequest* request);

/// Incremental request parser over an append-only byte buffer. Feed with
/// Consume() after every read; it reports kNeedMore until the head
/// (request line + headers, terminated by a blank line) and the
/// Content-Length body have fully arrived, then fills *request and
/// erases the consumed prefix from the buffer.
class HttpRequestParser {
 public:
  enum class State { kNeedMore, kComplete, kError };

  /// `max_bytes` bounds both the head and the body independently;
  /// exceeding either is kError (oversized/looping clients).
  explicit HttpRequestParser(size_t max_bytes) : max_bytes_(max_bytes) {}

  State Consume(std::string* buffer, HttpRequest* request);

  /// Human-readable reason after kError.
  const std::string& error() const { return error_; }

 private:
  size_t max_bytes_;
  std::string error_;
};

/// Renders a full HTTP/1.0 response with Content-Length and
/// Connection: close. `status` is e.g. "200 OK", "404 Not Found";
/// `extra_headers` (may be empty) is raw pre-formatted header lines,
/// each terminated by "\r\n" (e.g. "Retry-After: 1\r\n").
std::string FormatHttpResponse(const std::string& status,
                               const std::string& content_type,
                               const std::string& body,
                               const std::string& extra_headers = "");

/// Escapes a string for embedding inside a JSON string literal (quotes,
/// backslash, control characters).
std::string JsonEscape(const std::string& in);

}  // namespace server
}  // namespace sofos

#endif  // SOFOS_SERVER_HTTP_H_
