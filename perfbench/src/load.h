// Traffic generation for one timed window: closed-loop line-protocol
// clients, or open-loop HTTP senders following a fixed arrival schedule.
// Every request's raw latency is kept.
#ifndef SOFOS_PERFBENCH_LOAD_H_
#define SOFOS_PERFBENCH_LOAD_H_

#include <cstdint>
#include <string>
#include <vector>

#include "wire.h"

namespace perfbench {

struct LoadPlan {
  double seconds = 10.0;
  /// Closed loop (line protocol): this many connections, each sending its
  /// next request when the previous reply arrives, cycling through
  /// `closed_order` from its own offset. Zero selects the open loop below.
  int closed_connections = 0;
  std::vector<uint32_t> closed_order;
  /// Open loop (HTTP POST /query): arrival i is due at arrival_us[i] (from
  /// window start) and asks query arrival_query[i]. `senders` threads take
  /// arrivals in order, one request each in flight — the in-flight cap.
  std::vector<double> arrival_us;
  std::vector<uint32_t> arrival_query;
  int senders = 0;

  bool closed() const { return closed_connections > 0; }
};

enum class Outcome : uint8_t { kOk, kBusy, kError };

struct ReadRecord {
  double start_us = 0.0;    // closed: send; open: scheduled arrival
  double latency_us = 0.0;  // start -> reply
  double rtt_us = 0.0;      // actual send -> reply
  double lag_us = 0.0;      // open loop: send lateness the cap did not cause
  double engine_us = 0.0;   // engine micros the reply reports
  uint64_t rows = 0;
  uint32_t query = 0;
  Outcome outcome = Outcome::kError;
  bool cached = false;
  bool routed = false;
  bool cap_wait = false;    // open loop: every sender was busy when due
};

struct WindowResult {
  std::vector<ReadRecord> reads;  // in start order
  double wall_seconds = 0.0;      // window start -> last read reply
  /// First raw reply served for each query (empty when never asked).
  std::vector<std::string> first_reply;
};

/// Drives `plan` against the server at `line_port` / `http_port`.
/// `queries` holds the SPARQL text of the distinct query pool.
WindowResult RunWindow(const LoadPlan& plan,
                       const std::vector<std::string>& queries,
                       uint16_t line_port, uint16_t http_port);

/// Sends one request over a fresh line connection; the raw reply, or ""
/// on a transport error.
std::string RequestOnce(uint16_t line_port, const std::string& line);

}  // namespace perfbench

#endif  // SOFOS_PERFBENCH_LOAD_H_
