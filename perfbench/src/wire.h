// Minimal blocking clients for the server's two query surfaces — the line
// protocol and HTTP POST /query — that keep every reply byte, plus parsers
// for the reply fields the benchmark reads (status, rows, cached, view,
// engine micros).
#ifndef SOFOS_PERFBENCH_WIRE_H_
#define SOFOS_PERFBENCH_WIRE_H_

#include <cstdint>
#include <string>

namespace perfbench {

/// One persistent line-protocol connection to 127.0.0.1.
class LineConnection {
 public:
  LineConnection() = default;
  ~LineConnection();
  LineConnection(const LineConnection&) = delete;
  LineConnection& operator=(const LineConnection&) = delete;

  bool Connect(uint16_t port);
  /// Sends `line` plus a newline and reads one framed reply, header through
  /// the terminating END line inclusive, into *reply. False on a transport
  /// error (the connection is closed then).
  bool Roundtrip(const std::string& line, std::string* reply);

 private:
  void Close();

  int fd_ = -1;
  std::string buffer_;
};

/// `POST /query` with `sparql` as the body on a fresh connection; reads the
/// whole response until the server closes. False on a transport error.
bool HttpPostQuery(uint16_t port, const std::string& sparql,
                   std::string* response);

enum class ReplyStatus : uint8_t { kOk, kBusy, kError };

/// The fields of one QUERY reply the benchmark uses, from either surface.
struct QueryReply {
  ReplyStatus status = ReplyStatus::kError;
  uint64_t rows = 0;
  bool cached = false;
  bool routed = false;     // view != "-"
  double micros = 0.0;     // engine time the server reports (0 on a hit)
};

/// Parses a line-protocol reply ("OK QUERY rows=.. view=.. micros=..",
/// "BUSY ..." or "ERR ...").
QueryReply ParseLineReply(const std::string& reply);

/// Parses an HTTP /query response (200 JSON, 503 overload, else error).
QueryReply ParseHttpReply(const std::string& response);

}  // namespace perfbench

#endif  // SOFOS_PERFBENCH_WIRE_H_
