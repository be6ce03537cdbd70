/// Event-driven serve path tests: the M/M/c admission estimator (Erlang-C
/// math, cold start, shed/recover), the epoll event loop's connection
/// handling (slow-loris dribble, mid-write disconnect, idle connections
/// far beyond the worker pool, accept back-off when descriptors run
/// out), per-request BUSY shedding and the /healthz flip under
/// saturation, the HTTP/JSON query adapter, client retry pushback, and a
/// scripted line-protocol transcript. Runs under the TSan lane
/// (scripts/run_tsan.sh, label `server`).

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/timer.h"
#include "core/engine.h"
#include "core/facet.h"
#include "datagen/registry.h"
#include "gtest/gtest.h"
#include "server/admission.h"
#include "server/client.h"
#include "server/http.h"
#include "server/server.h"
#include "tests/test_util.h"

namespace sofos {
namespace {

using server::AdmissionController;
using server::AdmissionOptions;
using server::BlockingClient;
using server::ErlangC;
using server::HttpRequest;
using server::HttpRequestParser;
using server::ServerOptions;
using server::SofosServer;

// ---- Erlang-C -------------------------------------------------------------

TEST(ErlangCTest, KnownValuesAndDomain) {
  // c=1: C(1, a) = a (an M/M/1 arrival queues iff the server is busy).
  EXPECT_NEAR(ErlangC(1, 0.5), 0.5, 1e-9);
  EXPECT_NEAR(ErlangC(1, 0.9), 0.9, 1e-9);
  // No offered load: nobody queues.
  EXPECT_EQ(ErlangC(4, 0.0), 0.0);
  // At/past saturation the formula's domain ends: pinned to 1.
  EXPECT_EQ(ErlangC(2, 2.0), 1.0);
  EXPECT_EQ(ErlangC(2, 5.0), 1.0);
  // c=2, a=1 (rho=0.5): C = (a^2/2!)·(2/(2-a)) / (1 + a + a^2/2!·2/(2-a))
  //                       = 1 / 3.
  EXPECT_NEAR(ErlangC(2, 1.0), 1.0 / 3.0, 1e-9);
  // Monotone in offered load, and more servers queue less.
  EXPECT_LT(ErlangC(4, 1.0), ErlangC(4, 3.0));
  EXPECT_LT(ErlangC(8, 3.0), ErlangC(4, 3.0));
}

// ---- AdmissionController --------------------------------------------------

TEST(AdmissionControllerTest, ColdStartAdmitsWithFallbackHint) {
  AdmissionOptions options;
  options.servers = 2;
  options.fallback_retry_ms = 42;
  AdmissionController controller(options);
  auto decision = controller.Decide(100);  // huge queue, but no model yet
  EXPECT_TRUE(decision.admit);
  EXPECT_EQ(decision.retry_ms, 42);
  EXPECT_EQ(controller.Stats().admitted, 1u);
}

TEST(AdmissionControllerTest, QueueDepthShedsOnceServiceTimeKnown) {
  AdmissionOptions options;
  options.servers = 2;
  options.slo_budget_micros = 10'000.0;  // 10ms
  options.min_retry_ms = 5;
  options.max_retry_ms = 2000;
  options.service_ewma_alpha = 1.0;  // adopt the observation immediately
  AdmissionController controller(options);
  controller.OnComplete(8'000.0);  // S = 8ms

  // Idle: instantaneous wait 0 -> admit.
  EXPECT_TRUE(controller.Decide(0).admit);
  // 2 busy servers + 4 queued: wait = (4+1)*8ms/2 = 20ms > 10ms budget.
  auto shed = controller.Decide(6);
  EXPECT_FALSE(shed.admit);
  EXPECT_NEAR(shed.estimated_wait_micros, 20'000.0, 1.0);
  EXPECT_EQ(shed.retry_ms, 20);  // ceil(20ms), inside [5, 2000]
  // Recovery: the backlog drained -> admitted again.
  EXPECT_TRUE(controller.Decide(1).admit);

  auto stats = controller.Stats();
  EXPECT_EQ(stats.admitted, 2u);
  EXPECT_EQ(stats.shed, 1u);
  EXPECT_EQ(stats.estimated_wait.count, 3u);
}

TEST(AdmissionControllerTest, PeekHasNoSideEffects) {
  AdmissionOptions options;
  options.servers = 1;
  options.slo_budget_micros = 1'000.0;
  options.service_ewma_alpha = 1.0;
  AdmissionController controller(options);
  controller.OnComplete(5'000.0);
  EXPECT_FALSE(controller.Peek(10).admit);
  EXPECT_TRUE(controller.Peek(0).admit);
  auto stats = controller.Stats();
  EXPECT_EQ(stats.admitted, 0u);
  EXPECT_EQ(stats.shed, 0u);
  EXPECT_EQ(stats.estimated_wait.count, 0u);
}

TEST(AdmissionControllerTest, RetryHintClampedAndFloored) {
  AdmissionOptions options;
  options.servers = 1;
  options.slo_budget_micros = 1.0;
  options.min_retry_ms = 5;
  options.max_retry_ms = 100;
  options.fallback_retry_ms = 50;
  options.service_ewma_alpha = 1.0;
  AdmissionController controller(options);
  controller.OnComplete(10'000'000.0);  // 10s service: hint would be huge
  auto decision = controller.Decide(4);
  EXPECT_FALSE(decision.admit);
  EXPECT_EQ(decision.retry_ms, 100);  // clamped to max
  // The connection-level hint never drops below the configured floor,
  // even when the load-derived figure is small.
  AdmissionController idle(options);
  EXPECT_EQ(idle.ConnectionRetryHintMs(0), 50);
}

// ---- Loopback fixture -----------------------------------------------------

class EventLoopServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    TripleStore store;
    auto spec = datagen::GenerateByName("geopop", datagen::Scale::kTiny, 42,
                                        &store);
    ASSERT_TRUE(spec.ok()) << spec.status().ToString();
    auto facet = core::Facet::FromSparql(spec->facet_sparql, spec->name,
                                         spec->dim_labels);
    ASSERT_TRUE(facet.ok()) << facet.status().ToString();
    SOFOS_ASSERT_OK(engine_.LoadStore(std::move(store)));
    SOFOS_ASSERT_OK(engine_.SetFacet(std::move(facet).value()));
    SOFOS_ASSERT_OK(engine_.Profile().status());
    core::TripleCountCostModel model;
    SOFOS_ASSERT_OK_AND_ASSIGN(auto selection, engine_.SelectViews(model, 2));
    SOFOS_ASSERT_OK(engine_.MaterializeSelection(selection).status());
  }

  core::SofosEngine engine_;
};

/// Raw loopback socket helper for tests that need byte-level control
/// (partial writes, abrupt close) the BlockingClient hides.
int RawConnect(uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
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

std::string RawHttp(uint16_t port, const std::string& request) {
  int fd = RawConnect(port);
  if (fd < 0) return "";
  size_t sent = 0;
  while (sent < request.size()) {
    ssize_t n = ::send(fd, request.data() + sent, request.size() - sent, 0);
    if (n <= 0) break;
    sent += static_cast<size_t>(n);
  }
  std::string response;
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    response.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return response;
}

std::string UrlEncode(const std::string& in) {
  static const char* hex = "0123456789ABCDEF";
  std::string out;
  for (char c : in) {
    unsigned char u = static_cast<unsigned char>(c);
    if (std::isalnum(u) || c == '-' || c == '_' || c == '.' || c == '~') {
      out += c;
    } else {
      out += '%';
      out += hex[u >> 4];
      out += hex[u & 15];
    }
  }
  return out;
}

// ---- Idle-connection capacity (the tentpole's headline claim) -------------

TEST_F(EventLoopServerTest, IdleConnectionsFarBeyondPoolAllServed) {
  ServerOptions options;
  options.max_sessions = 4;
  options.io_threads = 2;
  SofosServer server(&engine_, options);
  SOFOS_ASSERT_OK(server.Start());

  // 4x max_sessions concurrent connections (the acceptance floor), all
  // held open at once; the event loop parks them for the price of a
  // buffer each.
  constexpr int kConnections = 16;
  std::vector<std::unique_ptr<BlockingClient>> clients;
  for (int i = 0; i < kConnections; ++i) {
    auto client = std::make_unique<BlockingClient>();
    SOFOS_ASSERT_OK(client->Connect(server.port()));
    clients.push_back(std::move(client));
  }
  // Connections are registered asynchronously via the loop mailbox;
  // the first roundtrip below forces each one through.

  // /healthz stays green while all of them sit connected...
  std::string health = RawHttp(
      server.http_port(), "GET /healthz HTTP/1.0\r\n\r\n");
  EXPECT_NE(health.find("HTTP/1.0 200"), std::string::npos) << health;

  // ...and every single connection still gets answered.
  std::string sparql = engine_.facet().CanonicalQuerySparql(1);
  std::string expected_body;
  for (int i = 0; i < kConnections; ++i) {
    SOFOS_ASSERT_OK_AND_ASSIGN(auto response,
                               clients[i]->Roundtrip("QUERY " + sparql));
    ASSERT_TRUE(response.ok()) << "conn " << i << ": " << response.header;
    if (i == 0) expected_body = response.BodyText();
    EXPECT_EQ(response.BodyText(), expected_body) << "conn " << i;
  }
  EXPECT_GE(server.open_connections(),
            static_cast<size_t>(4 * options.max_sessions));

  for (auto& client : clients) client->Roundtrip("QUIT");
  server.Stop();
}

// ---- Hostile / unlucky clients --------------------------------------------

TEST_F(EventLoopServerTest, SlowLorisDribbleDoesNotStallOthers) {
  ServerOptions options;
  options.max_sessions = 2;
  options.io_threads = 1;  // one loop: the dribbler and victim share it
  SofosServer server(&engine_, options);
  SOFOS_ASSERT_OK(server.Start());

  int loris = RawConnect(server.port());
  ASSERT_GE(loris, 0);
  // Dribble a request one byte at a time, never finishing the line.
  const std::string partial = "STATS";
  std::atomic<bool> done{false};
  std::thread dribbler([&] {
    for (char c : partial) {
      ::send(loris, &c, 1, 0);
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    // Request still has no terminating newline here.
    while (!done) std::this_thread::sleep_for(std::chrono::milliseconds(5));
  });

  // A well-behaved client on the same loop is served while the dribble
  // is in progress.
  BlockingClient victim;
  SOFOS_ASSERT_OK(victim.Connect(server.port()));
  for (int i = 0; i < 5; ++i) {
    SOFOS_ASSERT_OK_AND_ASSIGN(auto response, victim.Roundtrip("STATS"));
    EXPECT_TRUE(response.ok()) << response.header;
  }
  done = true;
  dribbler.join();

  // Completing the dribbled request late still yields a full response:
  // partial input was buffered, not dropped.
  std::string rest = "\n";
  ::send(loris, rest.data(), rest.size(), 0);
  std::string answer;
  char buf[4096];
  ssize_t n;
  while (answer.find("\nEND\n") == std::string::npos &&
         (n = ::recv(loris, buf, sizeof(buf), 0)) > 0) {
    answer.append(buf, static_cast<size_t>(n));
  }
  EXPECT_EQ(answer.rfind("OK STATS", 0), 0u) << answer;
  ::close(loris);

  victim.Roundtrip("QUIT");
  server.Stop();
}

TEST_F(EventLoopServerTest, MidResponseDisconnectIsHarmless) {
  ServerOptions options;
  options.max_sessions = 2;
  options.io_threads = 1;
  SofosServer server(&engine_, options);
  SOFOS_ASSERT_OK(server.Start());

  std::string sparql = engine_.facet().CanonicalQuerySparql(3);
  // Fire a query and slam the connection shut without reading the
  // response: the loop's write hits a dead socket mid-flush.
  for (int i = 0; i < 8; ++i) {
    int fd = RawConnect(server.port());
    ASSERT_GE(fd, 0);
    std::string request = "QUERY " + sparql + "\n";
    ::send(fd, request.data(), request.size(), 0);
    if (i % 2 == 0) {
      // RST rather than FIN: forces ECONNRESET on the server's send.
      struct linger hard {1, 0};
      ::setsockopt(fd, SOL_SOCKET, SO_LINGER, &hard, sizeof(hard));
    }
    ::close(fd);
  }

  // The server shrugged it all off: a fresh client gets a clean answer.
  BlockingClient survivor;
  SOFOS_ASSERT_OK(survivor.Connect(server.port()));
  SOFOS_ASSERT_OK_AND_ASSIGN(auto response,
                             survivor.Roundtrip("QUERY " + sparql));
  EXPECT_TRUE(response.ok()) << response.header;
  survivor.Roundtrip("QUIT");
  server.Stop();
}

// ---- Saturation: per-request BUSY, then recovery --------------------------

TEST_F(EventLoopServerTest, OverloadShedsWithBusyThenRecovers) {
  ServerOptions options;
  options.max_sessions = 1;  // one worker: trivial to saturate
  options.io_threads = 1;
  options.enable_cache = false;  // every query pays full execution
  options.admission.slo_budget_micros = 1.0;  // any backlog is over budget
  // Leave only the live queue + EWMA as model inputs: the windowed
  // arrival rate would keep reporting flood-era load for seconds after
  // the flood ends, making the recovery half of this test timing-bound.
  options.enable_telemetry = false;
  SofosServer server(&engine_, options);
  SOFOS_ASSERT_OK(server.Start());

  std::string sparql = engine_.facet().ToSparql();  // the widest query
  // The flood runs kRequests per client, and longer (up to kMaxRequests)
  // until the /healthz poller below has seen the 503.
  constexpr int kClients = 6, kRequests = 20, kMaxRequests = 1000;
  std::atomic<uint64_t> busy{0}, served{0}, errors{0};
  std::atomic<bool> flood_done{false}, saw_503{false};
  std::string overloaded_health;
  // /healthz is answered on the loop thread, never queued behind the one
  // busy worker, so it reports the saturation while the flood lasts.
  std::thread poller([&] {
    while (!flood_done && !saw_503) {
      std::string health =
          RawHttp(server.http_port(), "GET /healthz HTTP/1.0\r\n\r\n");
      if (health.find("HTTP/1.0 503") != std::string::npos) {
        overloaded_health = health;
        saw_503 = true;
      } else {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
    }
  });
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&] {
      BlockingClient client;
      if (!client.Connect(server.port()).ok()) {
        ++errors;
        return;
      }
      for (int i = 0; i < kRequests || (!saw_503 && i < kMaxRequests); ++i) {
        auto response = client.Roundtrip("QUERY " + sparql);
        if (!response.ok()) {
          ++errors;
          return;
        }
        if (response->busy()) {
          // Shed responses carry a parseable load-derived hint and leave
          // the connection usable (this same client keeps going).
          EXPECT_NE(response->header.find("retry_ms="), std::string::npos);
          ++busy;
        } else if (response->ok()) {
          ++served;
        }
      }
      client.Roundtrip("QUIT");
    });
  }
  for (auto& t : threads) t.join();
  flood_done = true;
  poller.join();

  EXPECT_EQ(errors, 0u);
  EXPECT_GT(served, 0u);
  EXPECT_TRUE(saw_503);
  EXPECT_NE(overloaded_health.find("\"status\":\"overloaded\""),
            std::string::npos)
      << overloaded_health;
  // 6 closed-loop clients against 1 worker with a ~zero SLO budget: the
  // queue model must have shed something.
  EXPECT_GT(busy, 0u);
  EXPECT_EQ(server.admission()->Stats().shed, busy);
  EXPECT_GE(server.metrics().rejected(), busy);

  // Recovery: with the flood gone the backlog is empty, so a plain
  // retry loop gets admitted promptly.
  BlockingClient after;
  SOFOS_ASSERT_OK(after.Connect(server.port()));
  SOFOS_ASSERT_OK_AND_ASSIGN(auto response,
                             after.SendWithRetry("QUERY " + sparql, 10));
  EXPECT_TRUE(response.ok() && !response.busy()) << response.header;
  // ...and /healthz is green again.
  std::string health;
  for (int i = 0; i < 100; ++i) {
    health = RawHttp(server.http_port(), "GET /healthz HTTP/1.0\r\n\r\n");
    if (health.find("HTTP/1.0 200") != std::string::npos) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_NE(health.find("HTTP/1.0 200"), std::string::npos) << health;
  EXPECT_NE(health.find("\"status\":\"ok\""), std::string::npos) << health;
  after.Roundtrip("QUIT");
  server.Stop();
}

TEST_F(EventLoopServerTest, SendWithRetryObeysBusyPushback) {
  ServerOptions options;
  options.max_sessions = 1;
  options.io_threads = 1;
  options.enable_cache = false;
  options.admission.slo_budget_micros = 1.0;
  options.enable_telemetry = false;  // live-queue model only (see above)
  SofosServer server(&engine_, options);
  SOFOS_ASSERT_OK(server.Start());

  std::string sparql = engine_.facet().ToSparql();
  std::atomic<bool> stop{false};
  // Background pressure so the foreground client actually sees BUSY.
  std::thread pressure([&] {
    BlockingClient client;
    if (!client.Connect(server.port()).ok()) return;
    while (!stop) {
      if (!client.Roundtrip("QUERY " + sparql).ok()) break;
      // A sliver of think time so admit windows exist at all — a zero
      // think-time closed loop over one worker is busy ~always.
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });

  BlockingClient client;
  SOFOS_ASSERT_OK(client.Connect(server.port()));
  int eventually_ok = 0;
  for (int i = 0; i < 10; ++i) {
    auto response = client.SendWithRetry("QUERY " + sparql, 20);
    if (response.ok() && response->ok()) ++eventually_ok;
  }
  stop = true;
  pressure.join();
  // Retrying with the server's own hint must beat one-shot odds: most
  // requests land even under sustained contention (one-shot sends
  // against a mostly-busy single worker would frequently shed).
  EXPECT_GE(eventually_ok, 8);
  client.Roundtrip("QUIT");
  server.Stop();
}

// ---- HTTP/JSON query adapter ----------------------------------------------

TEST_F(EventLoopServerTest, HttpQuerySharesExecutionAndCache) {
  ServerOptions options;
  SofosServer server(&engine_, options);
  SOFOS_ASSERT_OK(server.Start());

  std::string sparql = engine_.facet().CanonicalQuerySparql(1);

  // Line protocol first: populates the shared result cache.
  BlockingClient client;
  SOFOS_ASSERT_OK(client.Connect(server.port()));
  SOFOS_ASSERT_OK_AND_ASSIGN(auto line, client.Roundtrip("QUERY " + sparql));
  ASSERT_TRUE(line.ok()) << line.header;
  EXPECT_NE(line.header.find("cached=0"), std::string::npos);

  // GET with the query URL-encoded: same execution path -> cache hit.
  std::string get = RawHttp(server.http_port(),
                            "GET /query?q=" + UrlEncode(sparql) +
                                " HTTP/1.0\r\n\r\n");
  EXPECT_NE(get.find("HTTP/1.0 200"), std::string::npos) << get;
  EXPECT_NE(get.find("\"cached\":true"), std::string::npos) << get;
  EXPECT_NE(get.find("\"bindings\":["), std::string::npos);

  // POST with the raw SPARQL as body: identical answer.
  std::string post = RawHttp(
      server.http_port(),
      "POST /query HTTP/1.0\r\nContent-Length: " +
          std::to_string(sparql.size()) + "\r\n\r\n" + sparql);
  EXPECT_NE(post.find("HTTP/1.0 200"), std::string::npos) << post;
  EXPECT_NE(post.find("\"cached\":true"), std::string::npos) << post;
  // Row count in the JSON matches the line-protocol header's rows=N.
  size_t rows_at = line.header.find("rows=");
  ASSERT_NE(rows_at, std::string::npos);
  std::string rows = line.header.substr(
      rows_at + 5, line.header.find(' ', rows_at) - rows_at - 5);
  EXPECT_NE(post.find("\"rows\":" + rows), std::string::npos) << post;

  // Both surfaces hit the same cache: one miss total, two hits.
  EXPECT_EQ(server.metrics().cache_misses(), 1u);
  EXPECT_EQ(server.metrics().cache_hits(), 2u);
  // The adapter is metered on its own endpoint, not as line QUERY.
  using server::Endpoint;
  EXPECT_EQ(server.metrics()
                .ForEndpoint(Endpoint::kHttpQuery)
                .requests.load(std::memory_order_relaxed),
            2u);

  // Error surfaces: missing query and malformed SPARQL.
  std::string empty = RawHttp(server.http_port(),
                              "GET /query HTTP/1.0\r\n\r\n");
  EXPECT_NE(empty.find("HTTP/1.0 400"), std::string::npos);
  std::string bad = RawHttp(server.http_port(),
                            "GET /query?q=NONSENSE HTTP/1.0\r\n\r\n");
  EXPECT_NE(bad.find("HTTP/1.0 400"), std::string::npos) << bad;
  EXPECT_NE(bad.find("\"error\":"), std::string::npos);
  // Non-query paths keep the observability contract (GET only).
  std::string put = RawHttp(server.http_port(),
                            "PUT /query HTTP/1.0\r\n\r\n");
  EXPECT_NE(put.find("HTTP/1.0 405"), std::string::npos);

  client.Roundtrip("QUIT");
  server.Stop();
}

TEST(HttpRequestParserTest, IncrementalParseAndErrors) {
  HttpRequestParser parser(1024);
  HttpRequest request;
  std::string buffer;

  // Head split across arbitrary chunk boundaries.
  buffer = "POST /query HT";
  EXPECT_EQ(parser.Consume(&buffer, &request),
            HttpRequestParser::State::kNeedMore);
  buffer += "TP/1.0\r\nContent-Length: 5\r\n\r\nhe";
  EXPECT_EQ(parser.Consume(&buffer, &request),
            HttpRequestParser::State::kNeedMore);  // body incomplete
  buffer += "llo!extra";
  ASSERT_EQ(parser.Consume(&buffer, &request),
            HttpRequestParser::State::kComplete);
  EXPECT_EQ(request.method, "POST");
  EXPECT_EQ(request.path, "/query");
  EXPECT_EQ(request.body, "hello");
  EXPECT_EQ(buffer, "!extra");  // only the request's bytes were consumed

  // Bare-LF head, lowercased header names.
  buffer = "GET /stats?x=1 HTTP/1.0\nX-Custom: v\n\n";
  ASSERT_EQ(parser.Consume(&buffer, &request),
            HttpRequestParser::State::kComplete);
  EXPECT_EQ(request.params.at("x"), "1");
  EXPECT_EQ(request.headers.at("x-custom"), "v");

  // Oversized head and malformed length are terminal errors.
  HttpRequestParser small(16);
  buffer = std::string(64, 'A');
  EXPECT_EQ(small.Consume(&buffer, &request),
            HttpRequestParser::State::kError);
  HttpRequestParser strict(1024);
  buffer = "POST / HTTP/1.0\r\nContent-Length: nope\r\n\r\n";
  EXPECT_EQ(strict.Consume(&buffer, &request),
            HttpRequestParser::State::kError);
}

// ---- Line-protocol transcript ---------------------------------------------

TEST_F(EventLoopServerTest, LineProtocolTranscript) {
  // One scripted session; each response header must say what happened.
  const std::string q1 = "QUERY " + engine_.facet().CanonicalQuerySparql(1);
  const std::string q2 = "QUERY " + engine_.facet().CanonicalQuerySparql(2);
  struct Step {
    std::string request;
    std::string header_prefix;
    std::string header_contains;  // empty = prefix check only
  };
  const std::vector<Step> script = {
      {q1, "OK QUERY", "cached=0"},
      {q1, "OK QUERY", "cached=1"},  // cache hit
      {q2, "OK QUERY", "cached=0"},
      {"EXPLAIN", "OK EXPLAIN", ""},
      {"QUERY", "ERR", ""},          // usage error
      {"NOPE", "ERR", ""},           // protocol error
      {"UPDATE 1 junk", "ERR", ""},  // strict-parse error
      {"HISTORY -1", "ERR", ""},     // usage error
  };

  ServerOptions options;
  options.enable_http = false;
  SofosServer server(&engine_, options);
  SOFOS_ASSERT_OK(server.Start());
  BlockingClient client;
  SOFOS_ASSERT_OK(client.Connect(server.port()));
  std::vector<server::ClientResponse> responses;
  for (const Step& step : script) {
    SOFOS_ASSERT_OK_AND_ASSIGN(auto response, client.Roundtrip(step.request));
    EXPECT_EQ(response.header.rfind(step.header_prefix, 0), 0u)
        << step.request << " -> " << response.header;
    EXPECT_NE(response.header.find(step.header_contains), std::string::npos)
        << step.request << " -> " << response.header;
    if (step.header_prefix == "ERR") {
      EXPECT_TRUE(response.body.empty()) << step.request;
    }
    responses.push_back(std::move(response));
  }
  // The hit replays the miss's body byte for byte; the rejected UPDATE
  // applied nothing.
  EXPECT_EQ(responses[1].BodyText(), responses[0].BodyText());
  EXPECT_EQ(server.update_batches_applied(), 0u);
  client.Roundtrip("QUIT");
  server.Stop();
}

// ---- Descriptor exhaustion ------------------------------------------------

double ProcessCpuSeconds() {
  timespec ts{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

TEST_F(EventLoopServerTest, AcceptBacksOffWhileOutOfDescriptors) {
  ServerOptions options;
  options.io_threads = 1;
  options.enable_http = false;
  options.enable_telemetry = false;  // no sampler thread in the CPU figure
  SofosServer server(&engine_, options);
  SOFOS_ASSERT_OK(server.Start());

  // Client sockets for the connections that will wait in the backlog,
  // created while descriptors are still available: connect() needs none.
  constexpr int kPending = 4;
  std::vector<int> pending;
  for (int i = 0; i < kPending; ++i) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    pending.push_back(fd);
  }
  rlimit saved{};
  ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &saved), 0);
  struct RestoreLimit {
    rlimit limit;
    ~RestoreLimit() { ::setrlimit(RLIMIT_NOFILE, &limit); }
  } restore{saved};
  // dup() returns the lowest free descriptor, so every number below it is
  // taken: with the soft limit there, the server's accept() gets EMFILE.
  const int lowest_free = ::dup(pending[0]);
  ASSERT_GE(lowest_free, 0);
  ::close(lowest_free);
  rlimit lowered = saved;
  lowered.rlim_cur = static_cast<rlim_t>(lowest_free);
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &lowered), 0);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server.port());
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  for (int fd : pending) {
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
              0);
  }

  // The queued connections keep the listener readable for the whole
  // window; a loop that retries accept() at once spins a core.
  WallTimer wall;
  const double cpu_before = ProcessCpuSeconds();
  std::this_thread::sleep_for(std::chrono::milliseconds(500));
  const double cpu_seconds = ProcessCpuSeconds() - cpu_before;
  const double wall_seconds = wall.ElapsedSeconds();
  const uint64_t accepted_while_exhausted = server.metrics().accepted();
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &saved), 0);

  EXPECT_EQ(accepted_while_exhausted, 0u);  // accept() failed throughout
  EXPECT_LT(cpu_seconds, 0.25 * wall_seconds)
      << "cpu " << cpu_seconds << " s over " << wall_seconds << " s wall";

  // With descriptors back, the queued connections and a fresh one are
  // accepted, and the fresh one is served.
  BlockingClient fresh;
  SOFOS_ASSERT_OK(fresh.Connect(server.port()));
  SOFOS_ASSERT_OK_AND_ASSIGN(auto response, fresh.Roundtrip("STATS"));
  EXPECT_TRUE(response.ok()) << response.header;
  EXPECT_GE(server.metrics().accepted(), static_cast<uint64_t>(kPending + 1));
  for (int fd : pending) ::close(fd);
  fresh.Roundtrip("QUIT");
  server.Stop();
}

}  // namespace
}  // namespace sofos
