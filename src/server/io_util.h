#ifndef SOFOS_SERVER_IO_UTIL_H_
#define SOFOS_SERVER_IO_UTIL_H_

#include <cstddef>
#include <string>

namespace sofos {
namespace server {

/// Sends the whole buffer over a blocking socket, absorbing partial writes
/// and EINTR (MSG_NOSIGNAL: a dead peer returns false instead of raising
/// SIGPIPE). Shared by both protocol ends.
bool SendAll(int fd, const std::string& data);

/// Buffered newline-framed reader over a blocking socket (BlockingClient's
/// response framer): CR stripping, a length cap, EINTR retries.
class LineReader {
 public:
  enum class ReadResult {
    kLine,     // *line holds one complete line (terminator stripped)
    kEof,      // orderly close before a complete line
    kError,    // recv failed (connection reset)
    kTooLong,  // buffered more than max_line bytes with no newline
  };

  LineReader(int fd, size_t max_line) : fd_(fd), max_line_(max_line) {}

  /// Blocks until one '\n'-terminated line is buffered. Strips the '\n'
  /// and one trailing '\r'.
  ReadResult ReadLine(std::string* line);

 private:
  int fd_;
  size_t max_line_;
  std::string buffer_;
};

}  // namespace server
}  // namespace sofos

#endif  // SOFOS_SERVER_IO_UTIL_H_
