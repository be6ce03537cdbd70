#include "load.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double MicrosBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}

Clock::time_point At(Clock::time_point origin, double micros) {
  return origin + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double, std::micro>(micros));
}

/// Sleeps through most of the gap to `due`, then yields for the last
/// stretch, so timer overshoot does not push sends off their schedule.
void WaitUntil(Clock::time_point due) {
  constexpr auto kYieldWindow = std::chrono::microseconds(200);
  if (due - Clock::now() > kYieldWindow) {
    std::this_thread::sleep_until(due - kYieldWindow);
  }
  while (Clock::now() < due) std::this_thread::yield();
}

/// One sending thread's connection: a persistent line-protocol connection
/// in the closed loop, a fresh HTTP connection per request in the open loop.
class Sender {
 public:
  Sender(bool http, uint16_t line_port, uint16_t http_port)
      : http_(http), line_port_(line_port), http_port_(http_port) {}

  /// Sends `request` (the "QUERY ..." line, or the bare SPARQL for HTTP).
  QueryReply Send(const std::string& request, std::string* raw) {
    if (http_) {
      if (!HttpPostQuery(http_port_, request, raw)) return QueryReply{};
      return ParseHttpReply(*raw);
    }
    if (!connected_) connected_ = conn_.Connect(line_port_);
    if (!connected_ || !conn_.Roundtrip(request, raw)) {
      connected_ = false;  // reconnect on the next request
      return QueryReply{};
    }
    return ParseLineReply(*raw);
  }

 private:
  bool http_;
  uint16_t line_port_;
  uint16_t http_port_;
  LineConnection conn_;
  bool connected_ = false;
};

/// Fills the reply fields of `record` and keeps the first OK reply per
/// query in `first`.
void Book(const QueryReply& reply, std::string* raw, ReadRecord* record,
          std::vector<std::string>* first) {
  record->outcome = reply.status == ReplyStatus::kOk     ? Outcome::kOk
                    : reply.status == ReplyStatus::kBusy ? Outcome::kBusy
                                                         : Outcome::kError;
  record->engine_us = reply.micros;
  record->rows = reply.rows;
  record->cached = reply.cached;
  record->routed = reply.routed;
  if (record->outcome == Outcome::kOk && (*first)[record->query].empty()) {
    (*first)[record->query] = std::move(*raw);
  }
}

}  // namespace

WindowResult RunWindow(const LoadPlan& plan,
                       const std::vector<std::string>& queries,
                       uint16_t line_port, uint16_t http_port) {
  const bool closed = plan.closed();
  std::vector<std::string> requests;
  requests.reserve(queries.size());
  for (const std::string& q : queries) {
    requests.push_back(closed ? "QUERY " + q : q);
  }

  const int threads = closed ? plan.closed_connections : plan.senders;
  std::vector<std::vector<ReadRecord>> thread_reads(threads);
  std::vector<std::vector<std::string>> thread_first(
      threads, std::vector<std::string>(queries.size()));
  std::vector<Clock::time_point> thread_end(threads);

  WindowResult result;
  result.reads.resize(closed ? 0 : plan.arrival_us.size());

  // Threads connect first; traffic starts at a common origin.
  const Clock::time_point origin = Clock::now() + std::chrono::milliseconds(50);
  const Clock::time_point deadline = At(origin, plan.seconds * 1e6);
  std::atomic<size_t> next_arrival{0};
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      Sender sender(!closed, line_port, http_port);
      std::string raw;
      if (closed) {
        const size_t n = plan.closed_order.size();
        size_t i = static_cast<size_t>(t) * n / static_cast<size_t>(threads);
        WaitUntil(origin);
        while (Clock::now() < deadline) {
          ReadRecord record;
          record.query = plan.closed_order[i++ % n];
          const Clock::time_point sent = Clock::now();
          QueryReply reply = sender.Send(requests[record.query], &raw);
          const Clock::time_point done = Clock::now();
          record.start_us = MicrosBetween(origin, sent);
          record.latency_us = record.rtt_us = MicrosBetween(sent, done);
          Book(reply, &raw, &record, &thread_first[t]);
          thread_reads[t].push_back(record);
        }
      } else {
        for (size_t i = next_arrival++; i < plan.arrival_us.size();
             i = next_arrival++) {
          ReadRecord& record = result.reads[i];
          record.query = plan.arrival_query[i];
          record.start_us = plan.arrival_us[i];
          const Clock::time_point picked = Clock::now();
          const Clock::time_point due = At(origin, plan.arrival_us[i]);
          record.cap_wait = picked > due;
          WaitUntil(due);
          const Clock::time_point sent = Clock::now();
          QueryReply reply = sender.Send(requests[record.query], &raw);
          const Clock::time_point done = Clock::now();
          record.latency_us = MicrosBetween(due, done);
          record.rtt_us = MicrosBetween(sent, done);
          record.lag_us = MicrosBetween(std::max(due, picked), sent);
          Book(reply, &raw, &record, &thread_first[t]);
        }
      }
      thread_end[t] = Clock::now();
    });
  }
  for (std::thread& t : pool) t.join();

  Clock::time_point end = origin;
  for (const Clock::time_point& t : thread_end) end = std::max(end, t);
  result.wall_seconds = MicrosBetween(origin, end) / 1e6;
  if (closed) {
    for (auto& reads : thread_reads) {
      result.reads.insert(result.reads.end(), reads.begin(), reads.end());
    }
    std::sort(result.reads.begin(), result.reads.end(),
              [](const ReadRecord& a, const ReadRecord& b) {
                return a.start_us < b.start_us;
              });
  }
  result.first_reply.resize(queries.size());
  for (auto& first : thread_first) {
    for (size_t q = 0; q < first.size(); ++q) {
      if (result.first_reply[q].empty()) result.first_reply[q] = std::move(first[q]);
    }
  }
  return result;
}

std::string RequestOnce(uint16_t line_port, const std::string& line) {
  LineConnection conn;
  std::string reply;
  if (!conn.Connect(line_port) || !conn.Roundtrip(line, &reply)) return "";
  return reply;
}

}  // namespace perfbench
