#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cmath>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/pipeline.h"
#include "core/trainer.h"
#include "net/listener.h"
#include "net/server.h"
#include "net/shedder.h"
#include "obs/metrics.h"
#include "serve/json.h"
#include "serve/registry.h"
#include "serve/server.h"
#include "serve_test_util.h"

namespace kdsel::net {
namespace {

using serve_test::Lines;
using serve_test::RunAdoptedSession;
using serve_test::SessionFds;

// ---------------------------------------------------------------------------
// Shedder state machine (deterministic, fake clock: time is just the
// int64 passed to Admit()).

ShedderOptions TestShedder(double slo_us) {
  ShedderOptions opts;
  opts.slo_us = slo_us;
  opts.exit_fraction = 0.5;
  opts.eval_interval_us = 1000;
  opts.min_samples = 4;
  return opts;
}

TEST(ShedderTest, DisabledShedderAdmitsEverything) {
  Shedder shedder(TestShedder(0.0));
  for (int i = 0; i < 100; ++i) shedder.RecordLatency(1e9);
  for (int64_t t = 0; t < 100000; t += 500) {
    EXPECT_TRUE(shedder.Admit(t));
  }
  EXPECT_FALSE(shedder.shedding());
  EXPECT_EQ(shedder.shed_count(), 0u);
  EXPECT_EQ(shedder.evaluations(), 0u);
}

TEST(ShedderTest, EntersSheddingWhenWindowP99ExceedsSlo) {
  Shedder shedder(TestShedder(1000.0));
  // t=0: first evaluation sees an empty window -> keep admitting.
  EXPECT_TRUE(shedder.Admit(0));
  EXPECT_FALSE(shedder.shedding());
  // A window of latencies far above the SLO (far enough that the ~19%
  // geometric-bucket quantile error cannot blur the comparison).
  for (int i = 0; i < 16; ++i) shedder.RecordLatency(10000.0);
  // Still inside the eval interval: the state cannot change yet.
  EXPECT_TRUE(shedder.Admit(500));
  // Next interval: evaluation flips to shedding, the request is refused.
  EXPECT_FALSE(shedder.Admit(1000));
  EXPECT_TRUE(shedder.shedding());
  EXPECT_EQ(shedder.shed_count(), 1u);
}

TEST(ShedderTest, MinSamplesGateStopsColdStartOutliers) {
  Shedder shedder(TestShedder(1000.0));
  EXPECT_TRUE(shedder.Admit(0));
  // Fewer than min_samples (4) slow requests: not enough evidence.
  shedder.RecordLatency(50000.0);
  shedder.RecordLatency(50000.0);
  EXPECT_TRUE(shedder.Admit(1000));
  EXPECT_FALSE(shedder.shedding());
}

TEST(ShedderTest, HysteresisHoldsBetweenExitAndEnterThresholds) {
  Shedder shedder(TestShedder(1000.0));
  EXPECT_TRUE(shedder.Admit(0));
  for (int i = 0; i < 16; ++i) shedder.RecordLatency(10000.0);
  EXPECT_FALSE(shedder.Admit(1000));  // Enter shedding.
  ASSERT_TRUE(shedder.shedding());

  // Draining backlog lands between exit (500us) and enter (1000us)
  // thresholds: the shedder must HOLD, not flap.
  for (int i = 0; i < 16; ++i) shedder.RecordLatency(700.0);
  EXPECT_FALSE(shedder.Admit(2000));
  EXPECT_TRUE(shedder.shedding());

  // Clearly below the exit threshold: recover.
  for (int i = 0; i < 16; ++i) shedder.RecordLatency(100.0);
  EXPECT_TRUE(shedder.Admit(3000));
  EXPECT_FALSE(shedder.shedding());
}

TEST(ShedderTest, EmptyWindowMeansDrainedBacklogAndRecovers) {
  Shedder shedder(TestShedder(1000.0));
  EXPECT_TRUE(shedder.Admit(0));
  for (int i = 0; i < 16; ++i) shedder.RecordLatency(10000.0);
  EXPECT_FALSE(shedder.Admit(1000));
  ASSERT_TRUE(shedder.shedding());
  // Nothing completed during the shed interval (backlog fully drained
  // before it could record): no latency evidence left, so admit again.
  EXPECT_TRUE(shedder.Admit(2000));
  EXPECT_FALSE(shedder.shedding());
}

TEST(ShedderTest, ShedCounterCountsEveryRefusal) {
  Shedder shedder(TestShedder(1000.0));
  EXPECT_TRUE(shedder.Admit(0));
  for (int i = 0; i < 16; ++i) shedder.RecordLatency(10000.0);
  for (int i = 0; i < 5; ++i) {
    EXPECT_FALSE(shedder.Admit(1000 + i));
  }
  EXPECT_EQ(shedder.shed_count(), 5u);
}

TEST(ShedderTest, WindowResetsBetweenEvaluations) {
  Shedder shedder(TestShedder(1000.0));
  EXPECT_TRUE(shedder.Admit(0));
  for (int i = 0; i < 16; ++i) shedder.RecordLatency(10000.0);
  EXPECT_FALSE(shedder.Admit(1000));  // Shedding; window reset here.
  // Old samples must not leak into the next window: with only fast
  // completions since the reset, the shedder recovers.
  for (int i = 0; i < 16; ++i) shedder.RecordLatency(50.0);
  EXPECT_TRUE(shedder.Admit(2000));
  EXPECT_FALSE(shedder.shedding());
}

// ---------------------------------------------------------------------------
// Line peek (the shed fast path's structural scan).

TEST(PeekTest, DefaultsToSelectWithoutOp) {
  const LinePeek peek =
      PeekRequestLine(R"({"id":42,"selector":"s","values":[1,2]})");
  EXPECT_TRUE(peek.is_select);
  EXPECT_EQ(peek.id, 42);
}

TEST(PeekTest, ReadsExplicitOpAndId) {
  EXPECT_TRUE(PeekRequestLine(R"({"op":"select","id":7})").is_select);
  EXPECT_FALSE(PeekRequestLine(R"({"op":"stats","id":7})").is_select);
  EXPECT_FALSE(PeekRequestLine(R"({"op":"quit"})").is_select);
  EXPECT_EQ(PeekRequestLine(R"({"op":"stats","id":7})").id, 7);
  EXPECT_EQ(PeekRequestLine(R"({"id":-3,"op":"select"})").id, -3);
  EXPECT_EQ(PeekRequestLine(R"({"op":"quit"})").id, -1);
}

TEST(PeekTest, ToleratesWhitespace) {
  const LinePeek peek =
      PeekRequestLine(R"({ "op" : "stats" , "id" : 19 })");
  EXPECT_FALSE(peek.is_select);
  EXPECT_EQ(peek.id, 19);
}

// Longer ids would overflow the int64_t accumulator: past 18 digits the
// peek treats the id as absent.
TEST(PeekTest, IdLongerThan18DigitsIsAbsent) {
  EXPECT_EQ(PeekRequestLine(R"({"id":123456789012345678})").id,
            123456789012345678);
  EXPECT_EQ(PeekRequestLine(R"({"id":-123456789012345678})").id,
            -123456789012345678);
  const LinePeek peek =
      PeekRequestLine(R"({"id":1234567890123456789012345,"op":"bogus"})");
  EXPECT_EQ(peek.id, -1);
  EXPECT_FALSE(peek.is_select);
}

TEST(PeekTest, IgnoresNestedLookalikeKeys) {
  // "op" here is not preceded by '{' or ',' at top level-ish positions
  // (it is a value, not a key), so the default (select) holds.
  const LinePeek peek = PeekRequestLine(R"({"name":"op","id":5})");
  EXPECT_TRUE(peek.is_select);
  EXPECT_EQ(peek.id, 5);
}

// ---------------------------------------------------------------------------
// Host:port parsing.

TEST(ListenerTest, ParsesHostPort) {
  auto hp = ParseHostPort("127.0.0.1:7070");
  ASSERT_TRUE(hp.ok()) << hp.status();
  EXPECT_EQ(hp->host, "127.0.0.1");
  EXPECT_EQ(hp->port, 7070);

  hp = ParseHostPort(":0");
  ASSERT_TRUE(hp.ok()) << hp.status();
  EXPECT_EQ(hp->host, "");
  EXPECT_EQ(hp->port, 0);

  EXPECT_FALSE(ParseHostPort("nope").ok());
  EXPECT_FALSE(ParseHostPort("h:99999").ok());
  EXPECT_FALSE(ParseHostPort("h:12x").ok());
}

// ---------------------------------------------------------------------------
// Loopback integration.

/// Trains a small ConvNet selector on separable synthetic windows
/// (mirrors serve_test's helper; window length 16).
std::unique_ptr<core::TrainedSelector> TrainTinySelector(uint64_t seed = 1) {
  core::SelectorTrainingData data;
  data.num_classes = 2;
  Rng rng(seed);
  for (int i = 0; i < 60; ++i) {
    const int c = i % 2;
    std::vector<float> w(16);
    for (size_t t = 0; t < 16; ++t) {
      w[t] = std::sin((0.3 + 0.9 * c) * static_cast<double>(t)) +
             0.05f * static_cast<float>(rng.Normal());
    }
    data.windows.push_back(std::move(w));
    data.labels.push_back(c);
  }
  core::TrainerOptions opts;
  opts.backbone = "ConvNet";
  opts.epochs = 2;
  opts.seed = seed;
  auto selector = core::TrainSelector(data, opts, nullptr);
  KDSEL_CHECK(selector.ok());
  return std::move(selector).value();
}

/// Blocking loopback NDJSON client.
class TestClient {
 public:
  explicit TestClient(uint16_t port) {
    fd_ = socket(AF_INET, SOCK_STREAM, 0);  // kdsel-lint: allow(raw-socket)
    KDSEL_CHECK(fd_ >= 0);
    sockaddr_in addr = {};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    KDSEL_CHECK(connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                        sizeof(addr)) == 0);
  }
  ~TestClient() {
    if (fd_ >= 0) close(fd_);
  }

  void Send(const std::string& line) {
    std::string framed = line;
    framed.push_back('\n');
    size_t off = 0;
    while (off < framed.size()) {
      const ssize_t n = write(fd_, framed.data() + off, framed.size() - off);
      KDSEL_CHECK(n > 0);
      off += static_cast<size_t>(n);
    }
  }

  /// Reads one '\n'-terminated line; empty optional-ish "" on EOF.
  std::string ReadLine() {
    for (;;) {
      const size_t newline = buffer_.find('\n');
      if (newline != std::string::npos) {
        std::string line = buffer_.substr(0, newline);
        buffer_.erase(0, newline + 1);
        return line;
      }
      char chunk[4096];
      const ssize_t n = read(fd_, chunk, sizeof(chunk));
      if (n <= 0) return "";  // EOF/error: tests treat as closed.
      buffer_.append(chunk, static_cast<size_t>(n));
    }
  }

  /// True when the peer closed the connection (after buffered lines).
  bool AtEof() { return ReadLine().empty(); }

 private:
  int fd_ = -1;
  std::string buffer_;
};

std::string SelectLine(int id, bool detect = false) {
  std::string line = "{\"id\":" + std::to_string(id) +
                     ",\"op\":\"select\",\"selector\":\"tiny\",\"detect\":";
  line += detect ? "true" : "false";
  line += ",\"values\":[";
  for (int t = 0; t < 16; ++t) {
    if (t > 0) line.push_back(',');
    line += std::to_string(0.1 * t);
  }
  line += "]}";
  return line;
}

struct LoopbackServer {
  explicit LoopbackServer(NetServerOptions net_opts = {},
                          serve::ServerOptions opts = {}) {
    registry = std::make_unique<serve::SelectorRegistry>(
        core::SelectorManager("/nonexistent-net-test"));
    KDSEL_CHECK(registry->Register("tiny", TrainTinySelector()).ok());
    opts.num_workers = 2;
    server = std::make_unique<serve::InferenceServer>(registry.get(), opts);
    KDSEL_CHECK(server->Start().ok());
    net_opts.listen = "127.0.0.1:0";
    net = std::make_unique<NetServer>(server.get(), net_opts);
    KDSEL_CHECK(net->Start().ok());
  }
  ~LoopbackServer() {
    net->Stop();
    server->Stop();
  }

  std::unique_ptr<serve::SelectorRegistry> registry;
  std::unique_ptr<serve::InferenceServer> server;
  std::unique_ptr<NetServer> net;
};

// An empty listen address means "serve only the adopted fd pair"; with
// nothing adopted there is nothing to serve, so Start() must refuse it
// (`kdsel serve --listen` given without a value lands here).
TEST(NetServerTest, EmptyListenWithNothingAdoptedIsRejected) {
  serve::SelectorRegistry registry(
      core::SelectorManager("/nonexistent-net-test"));
  serve::InferenceServer server(&registry, serve::ServerOptions{});
  NetServerOptions options;
  options.listen = "";
  NetServer net(&server, options);
  const Status started = net.Start();
  EXPECT_EQ(started.code(), StatusCode::kInvalidArgument) << started;
  EXPECT_EQ(net.adopted_done_fd(), -1);
}

TEST(NetServerTest, SelectRoundTripOverLoopback) {
  LoopbackServer loopback;
  TestClient client(loopback.net->port());
  client.Send(SelectLine(7));
  auto reply = serve::Json::Parse(client.ReadLine());
  ASSERT_TRUE(reply.ok()) << reply.status();
  EXPECT_EQ(reply->GetNumber("id", -1), 7);
  EXPECT_TRUE(reply->GetBool("ok", false));
  EXPECT_EQ(reply->GetNumber("num_windows", 0), 1);
  EXPECT_FALSE(reply->GetString("model", "").empty());
}

TEST(NetServerTest, PipelinedRepliesKeepSubmissionOrder) {
  LoopbackServer loopback;
  TestClient client(loopback.net->port());
  constexpr int kRequests = 32;
  for (int i = 0; i < kRequests; ++i) client.Send(SelectLine(1000 + i));
  for (int i = 0; i < kRequests; ++i) {
    auto reply = serve::Json::Parse(client.ReadLine());
    ASSERT_TRUE(reply.ok()) << reply.status();
    EXPECT_EQ(reply->GetNumber("id", -1), 1000 + i);
    EXPECT_TRUE(reply->GetBool("ok", false));
  }
}

TEST(NetServerTest, ShardsServeConcurrentClients) {
  NetServerOptions net_opts;
  net_opts.shards = 2;
  LoopbackServer loopback(net_opts);
  std::vector<std::unique_ptr<TestClient>> clients;
  for (int c = 0; c < 6; ++c) {
    clients.push_back(std::make_unique<TestClient>(loopback.net->port()));
  }
  for (int c = 0; c < 6; ++c) clients[c]->Send(SelectLine(c));
  for (int c = 0; c < 6; ++c) {
    auto reply = serve::Json::Parse(clients[c]->ReadLine());
    ASSERT_TRUE(reply.ok()) << reply.status();
    EXPECT_EQ(reply->GetNumber("id", -1), c);
  }
  EXPECT_GE(loopback.net->connections_accepted(), 6u);
}

TEST(NetServerTest, MalformedLineRepliesAndSessionContinues) {
  LoopbackServer loopback;
  TestClient client(loopback.net->port());
  // Invalid JSON: no id recoverable.
  client.Send("this is not json");
  auto reply = serve::Json::Parse(client.ReadLine());
  ASSERT_TRUE(reply.ok()) << reply.status();
  EXPECT_EQ(reply->GetNumber("id", 0), -1);
  EXPECT_FALSE(reply->GetBool("ok", true));

  // Valid JSON object, invalid request: the error echoes the id.
  client.Send(R"({"id":55,"op":"select","selector":"tiny","values":[]})");
  reply = serve::Json::Parse(client.ReadLine());
  ASSERT_TRUE(reply.ok()) << reply.status();
  EXPECT_EQ(reply->GetNumber("id", 0), 55);
  EXPECT_FALSE(reply->GetBool("ok", true));

  // The session is still alive.
  client.Send(SelectLine(56));
  reply = serve::Json::Parse(client.ReadLine());
  ASSERT_TRUE(reply.ok()) << reply.status();
  EXPECT_EQ(reply->GetNumber("id", 0), 56);
  EXPECT_TRUE(reply->GetBool("ok", false));
}

TEST(NetServerTest, StatsReportShedCounterOverTheWire) {
  LoopbackServer loopback;
  TestClient client(loopback.net->port());
  client.Send(SelectLine(1));
  ASSERT_FALSE(client.ReadLine().empty());
  client.Send(R"({"op":"stats","id":2})");
  auto reply = serve::Json::Parse(client.ReadLine());
  ASSERT_TRUE(reply.ok()) << reply.status();
  EXPECT_EQ(reply->GetNumber("id", -1), 2);
  const serve::Json* stats = reply->Find("stats");
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->GetNumber("shed", -1), 0);
  EXPECT_GE(stats->GetNumber("completed", -1), 1);
  // The stats reply is the ops snapshot: it carries the shedder too.
  const serve::Json* shedder = reply->Find("shedder");
  ASSERT_NE(shedder, nullptr);
  EXPECT_TRUE(shedder->is_object());
}

TEST(NetServerTest, QuitDrainsRepliesThenCloses) {
  LoopbackServer loopback;
  TestClient client(loopback.net->port());
  client.Send(SelectLine(9));
  client.Send(R"({"op":"quit"})");
  client.Send(SelectLine(10));  // After quit: must be dropped.
  auto reply = serve::Json::Parse(client.ReadLine());
  ASSERT_TRUE(reply.ok()) << reply.status();
  EXPECT_EQ(reply->GetNumber("id", -1), 9);
  EXPECT_TRUE(client.AtEof());
}

TEST(NetServerTest, OversizedLineGetsErrorAndClose) {
  NetServerOptions net_opts;
  net_opts.max_line_bytes = 256;
  LoopbackServer loopback(net_opts);
  TestClient client(loopback.net->port());
  std::string huge = "{\"id\":1,\"values\":[";
  huge.append(4096, '1');  // No newline until way past the cap.
  client.Send(huge);
  auto reply = serve::Json::Parse(client.ReadLine());
  ASSERT_TRUE(reply.ok()) << reply.status();
  EXPECT_FALSE(reply->GetBool("ok", true));
  EXPECT_NE(reply->GetString("error", "").find("exceeds"), std::string::npos);
  EXPECT_TRUE(client.AtEof());
}

TEST(NetServerTest, StopDrainsInFlightRequests) {
  auto loopback = std::make_unique<LoopbackServer>();
  TestClient client(loopback->net->port());
  client.Send(SelectLine(77));
  // Race Stop() against the in-flight request: the reply must still be
  // delivered before the connection closes.
  auto reply_line = client.ReadLine();
  loopback->net->Stop();
  auto reply = serve::Json::Parse(reply_line);
  ASSERT_TRUE(reply.ok()) << reply.status();
  EXPECT_EQ(reply->GetNumber("id", -1), 77);
  EXPECT_TRUE(client.AtEof());  // Stop closed the connection cleanly.
  loopback.reset();
}

TEST(NetServerTest, ShedsUnderSloPressureAndRecovers) {
  // slo_us is microscopic and evaluation is continuous, so the state
  // machine is driven deterministically by the request sequence: the
  // first request's (real, >1us) latency makes the next evaluation shed
  // the second request; with nothing accepted after that, the following
  // evaluation sees an empty window and recovers.
  NetServerOptions net_opts;
  net_opts.slo_ms = 1e-3;  // 1 microsecond p99 target.
  net_opts.shedder.eval_interval_us = 0;
  net_opts.shedder.min_samples = 1;
  LoopbackServer loopback(net_opts);
  TestClient client(loopback.net->port());

  client.Send(SelectLine(1));
  auto reply = serve::Json::Parse(client.ReadLine());
  ASSERT_TRUE(reply.ok()) << reply.status();
  EXPECT_TRUE(reply->GetBool("ok", false));

  client.Send(SelectLine(2));
  reply = serve::Json::Parse(client.ReadLine());
  ASSERT_TRUE(reply.ok()) << reply.status();
  EXPECT_FALSE(reply->GetBool("ok", true));
  EXPECT_EQ(reply->GetString("error", ""), "overloaded");
  EXPECT_EQ(reply->GetNumber("id", -1), 2);

  // Recovery: the shed request recorded no latency, so the next window
  // is empty and admission resumes.
  client.Send(SelectLine(3));
  reply = serve::Json::Parse(client.ReadLine());
  ASSERT_TRUE(reply.ok()) << reply.status();
  EXPECT_TRUE(reply->GetBool("ok", false));
  EXPECT_EQ(reply->GetNumber("id", -1), 3);

  EXPECT_GE(loopback.net->shedder().shed_count(), 1u);
  EXPECT_EQ(loopback.server->stats().shed(), 1u);
}

/// SelectLine with a client-supplied trace id spliced in.
std::string TracedSelectLine(int id, const std::string& trace) {
  std::string line = SelectLine(id);
  line.insert(1, "\"trace\":\"" + trace + "\",");
  return line;
}

TEST(NetServerTest, TraceEchoRoundTripsOnOkAndErrorReplies) {
  LoopbackServer loopback;
  TestClient client(loopback.net->port());

  // Client trace comes back on the ok reply verbatim.
  client.Send(TracedSelectLine(7, "req-abc.1:2"));
  auto reply = serve::Json::Parse(client.ReadLine());
  ASSERT_TRUE(reply.ok()) << reply.status();
  EXPECT_TRUE(reply->GetBool("ok", false));
  EXPECT_EQ(reply->GetString("trace", ""), "req-abc.1:2");

  // Error replies echo it too (empty values -> InvalidArgument).
  client.Send(
      R"({"id":55,"trace":"err-9","op":"select","selector":"tiny","values":[]})");
  reply = serve::Json::Parse(client.ReadLine());
  ASSERT_TRUE(reply.ok()) << reply.status();
  EXPECT_FALSE(reply->GetBool("ok", true));
  EXPECT_EQ(reply->GetString("trace", ""), "err-9");

  // A trace outside the sanitized charset is dropped, not echoed; the
  // server substitutes a generated `s<shard>-<seq>` id instead.
  client.Send(TracedSelectLine(8, "bad trace"));
  reply = serve::Json::Parse(client.ReadLine());
  ASSERT_TRUE(reply.ok()) << reply.status();
  EXPECT_TRUE(reply->GetBool("ok", false));
  EXPECT_EQ(reply->GetString("trace", "").rfind("s0-", 0), 0u);

  // No trace at all: same generated-id scheme.
  client.Send(SelectLine(9));
  reply = serve::Json::Parse(client.ReadLine());
  ASSERT_TRUE(reply.ok()) << reply.status();
  EXPECT_EQ(reply->GetString("trace", "").rfind("s0-", 0), 0u);
}

TEST(NetServerTest, TraceEchoedOnShedRepliesAndFlightRecorded) {
  // Same deterministic shed sequence as ShedsUnderSloPressureAndRecovers:
  // request 1 is served, request 2 is refused by admission control.
  NetServerOptions net_opts;
  net_opts.slo_ms = 1e-3;
  net_opts.shedder.eval_interval_us = 0;
  net_opts.shedder.min_samples = 1;
  LoopbackServer loopback(net_opts);
  TestClient client(loopback.net->port());

  client.Send(TracedSelectLine(1, "warm-1"));
  auto reply = serve::Json::Parse(client.ReadLine());
  ASSERT_TRUE(reply.ok()) << reply.status();
  EXPECT_TRUE(reply->GetBool("ok", false));

  client.Send(TracedSelectLine(2, "shed-me"));
  reply = serve::Json::Parse(client.ReadLine());
  ASSERT_TRUE(reply.ok()) << reply.status();
  EXPECT_FALSE(reply->GetBool("ok", true));
  EXPECT_EQ(reply->GetString("error", ""), "overloaded");
  EXPECT_EQ(reply->GetString("trace", ""), "shed-me");

  // Flight records land after the reply bytes go out (RecordFlushed
  // runs at the tail of FlushConn), so a later round-trip on the same
  // connection is the barrier that makes both records visible.
  client.Send(R"({"op":"stats","id":99})");
  ASSERT_FALSE(client.ReadLine().empty());

  // Both requests are in the flight recorder with their verdicts; the
  // shed record still carries an end-to-end total.
  const auto recent = loopback.net->flight_recorder().RecentSnapshot();
  bool saw_ok = false;
  bool saw_shed = false;
  for (const auto& record : recent) {
    if (std::string(record.trace) == "warm-1") {
      saw_ok = true;
      EXPECT_EQ(record.verdict, obs::FlightRecord::Verdict::kOk);
      EXPECT_GT(record.total_us, 0.0);
      EXPECT_GT(record.compute_us, 0.0);
      // The stages decompose the end-to-end total (queue is the
      // residual); 1 us covers the float rounding of stored stages.
      EXPECT_NEAR(record.parse_us + record.queue_us + record.batch_wait_us +
                      record.compute_us + record.write_us,
                  record.total_us, 1.0);
    }
    if (std::string(record.trace) == "shed-me") {
      saw_shed = true;
      EXPECT_EQ(record.verdict, obs::FlightRecord::Verdict::kShed);
      EXPECT_EQ(record.compute_us, 0.0);  // Never ran.
    }
  }
  EXPECT_TRUE(saw_ok);
  EXPECT_TRUE(saw_shed);
  EXPECT_EQ(loopback.net->flight_recorder().recorded(), 2u);
}

TEST(NetServerTest, OpsSnapshotExportsStatsShedderAndStageHistograms) {
  obs::MetricsRegistry::Global().ResetValuesForTesting();
  NetServerOptions net_opts;
  net_opts.slo_ms = 250.0;  // Enabled but never binding.
  LoopbackServer loopback(net_opts);
  TestClient client(loopback.net->port());
  client.Send(SelectLine(1));
  ASSERT_FALSE(client.ReadLine().empty());

  client.Send(R"({"op":"ops","id":2,"view":"snapshot"})");
  auto reply = serve::Json::Parse(client.ReadLine());
  ASSERT_TRUE(reply.ok()) << reply.status();
  EXPECT_EQ(reply->GetNumber("id", -1), 2);
  EXPECT_TRUE(reply->GetBool("ok", false));

  const serve::Json* stats = reply->Find("stats");
  ASSERT_NE(stats, nullptr);
  EXPECT_GE(stats->GetNumber("completed", -1), 1);
  EXPECT_EQ(stats->GetNumber("shed_rate", -1), 0);

  const serve::Json* shedder = reply->Find("shedder");
  ASSERT_NE(shedder, nullptr);
  ASSERT_TRUE(shedder->is_object());
  EXPECT_TRUE(shedder->GetBool("enabled", false));
  EXPECT_EQ(shedder->GetString("state", ""), "admit");
  EXPECT_EQ(shedder->GetNumber("shed", -1), 0);

  // Every request stage histogram is populated once one reply flushed.
  const serve::Json* metrics = reply->Find("metrics");
  ASSERT_NE(metrics, nullptr);
  const serve::Json* histograms = metrics->Find("histograms");
  ASSERT_NE(histograms, nullptr);
  for (const char* name :
       {"kdsel.net.stage.parse", "kdsel.net.stage.queue",
        "kdsel.net.stage.batch_wait", "kdsel.net.stage.compute",
        "kdsel.net.stage.write", "kdsel.net.e2e"}) {
    const serve::Json* hist = histograms->Find(name);
    ASSERT_NE(hist, nullptr) << name;
    EXPECT_GE(hist->GetNumber("samples", -1), 1) << name;
  }
}

TEST(NetServerTest, OpsFlightAndPrometheusViewsOverTheWire) {
  LoopbackServer loopback;
  TestClient client(loopback.net->port());
  client.Send(TracedSelectLine(4, "fl-1"));
  ASSERT_FALSE(client.ReadLine().empty());

  client.Send(R"({"op":"ops","id":5,"view":"flight"})");
  auto reply = serve::Json::Parse(client.ReadLine());
  ASSERT_TRUE(reply.ok()) << reply.status();
  const serve::Json* flight = reply->Find("flight");
  ASSERT_NE(flight, nullptr);
  EXPECT_GE(flight->GetNumber("recorded", 0), 1);
  const serve::Json* recent = flight->Find("recent");
  ASSERT_NE(recent, nullptr);
  ASSERT_TRUE(recent->is_array());
  ASSERT_FALSE(recent->items().empty());
  EXPECT_EQ(recent->items().back().GetString("trace", ""), "fl-1");

  client.Send(R"({"op":"ops","id":6,"view":"prometheus"})");
  reply = serve::Json::Parse(client.ReadLine());
  ASSERT_TRUE(reply.ok()) << reply.status();
  const serve::Json* text = reply->Find("prometheus");
  ASSERT_NE(text, nullptr);
  ASSERT_TRUE(text->is_string());
  EXPECT_NE(text->as_string().find("# TYPE kdsel_net_requests counter"),
            std::string::npos);
  EXPECT_NE(text->as_string().find("kdsel_net_e2e_count"), std::string::npos);

  // An unknown view is a structured error, not a dropped connection.
  client.Send(R"({"op":"ops","id":7,"view":"bogus"})");
  reply = serve::Json::Parse(client.ReadLine());
  ASSERT_TRUE(reply.ok()) << reply.status();
  EXPECT_FALSE(reply->GetBool("ok", true));
  EXPECT_EQ(reply->GetNumber("id", -1), 7);
}

// A lazily formatted "ops" reply must count every reply released ahead
// of it, including the selects that leave in the same flush.
TEST(NetServerTest, OpsCountsEveryReplyBeforeIt) {
  LoopbackServer loopback;
  TestClient client(loopback.net->port());
  constexpr int kSelects = 4;
  for (int trial = 0; trial < 5; ++trial) {
    obs::MetricsRegistry::Global().ResetValuesForTesting();
    std::string burst;
    for (int i = 0; i < kSelects; ++i) burst += SelectLine(i) + "\n";
    client.Send(burst + R"({"op":"ops","id":99})");
    for (int i = 0; i < kSelects; ++i) ASSERT_FALSE(client.ReadLine().empty());
    auto reply = serve::Json::Parse(client.ReadLine());
    ASSERT_TRUE(reply.ok()) << reply.status();
    const serve::Json* metrics = reply->Find("metrics");
    ASSERT_NE(metrics, nullptr);
    const serve::Json* e2e = metrics->Find("histograms")->Find("kdsel.net.e2e");
    ASSERT_NE(e2e, nullptr);
    EXPECT_EQ(e2e->GetNumber("count", -1), kSelects) << "trial " << trial;
  }
}

/// Server side of one fd-pair or TCP session: a registry over `dir`
/// (tiny + tiny.int8 on disk) and an InferenceServer, both fresh.
struct SessionServer {
  explicit SessionServer(const std::string& dir, serve::ServerOptions opts = {})
      : registry(core::SelectorManager(dir)) {
    opts.num_workers = 2;
    server = std::make_unique<serve::InferenceServer>(&registry, opts);
    KDSEL_CHECK(server->Start().ok());
  }
  ~SessionServer() { server->Stop(); }

  serve::SelectorRegistry registry;
  std::unique_ptr<serve::InferenceServer> server;
};

/// Saves a tiny selector and its int8 sibling into a fresh directory.
std::string SaveTinyPair(const std::string& name) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / name).string();
  std::filesystem::remove_all(dir);
  core::SelectorManager manager(dir);
  auto trained = TrainTinySelector();
  std::vector<std::vector<float>> calibration;
  for (int i = 0; i < 8; ++i) {
    std::vector<float> w(16);
    for (size_t t = 0; t < 16; ++t) {
      w[t] = std::sin((0.3 + 0.9 * (i % 2)) * static_cast<double>(t));
    }
    calibration.push_back(std::move(w));
  }
  auto quantized = trained->QuantizeInt8(calibration);
  KDSEL_CHECK(quantized.ok());
  KDSEL_CHECK(manager.Save(*trained, "tiny").ok());
  KDSEL_CHECK(manager.Save(**quantized, "tiny.int8").ok());
  return dir;
}

/// Sends `input` over one loopback connection and returns everything
/// read back until the server closes it.
std::string RunTcpSession(NetServer& net, const std::string& input) {
  TestClient client(net.port());
  std::string payload = input;
  payload.pop_back();  // Send() appends the final '\n'.
  client.Send(payload);
  std::string output;
  for (std::string line; !(line = client.ReadLine()).empty();) {
    output += line + "\n";
  }
  return output;
}

/// Drops the per-request timing fields, the only reply bytes that
/// depend on scheduling.
std::string StripTimings(std::string output) {
  for (const char* key :
       {"queue_us", "select_us", "detect_us", "total_us", "batch_size"}) {
    const std::string needle = std::string(",\"") + key + "\":";
    for (size_t pos; (pos = output.find(needle)) != std::string::npos;) {
      output.erase(pos, output.find_first_of(",}", pos + 1) - pos);
    }
  }
  return output;
}

// One golden session gives byte-identical replies over an adopted fd
// pair (the stdin transport) and over TCP, each on a fresh server.
TEST(NetServerTest, GoldenSessionIsIdenticalOverFdPairAndTcp) {
  const std::string dir = SaveTinyPair("kdsel_net_golden");
  std::string values = "[", labels = "[";
  for (int i = 0; i < 64; ++i) {
    if (i > 0) {
      values += ',';
      labels += ',';
    }
    values += std::to_string(std::sin(0.4 * i));
    labels += (i >= 40 && i < 44) ? '1' : '0';
  }
  values += "]";
  labels += "]";
  const std::string series = R"("selector":"tiny","values":)" + values;
  const std::string input =
      R"({"op":"list","id":1})" "\n"
      R"({"op":"select","id":2,)" + series + "}\n" +
      R"({"op":"select","id":3,"variant":"int8",)" + series + "}\n" +
      R"({"op":"select","id":4,"scores":true,"labels":)" + labels + "," +
      series + "}\n" +
      R"({"op":"select","id":5,"detect":false,)" + series + "}\n" +
      "this is not json\n"
      R"({"op":"frobnicate","id":6})" "\n"
      R"({"op":"reload","id":7,"selector":"tiny"})" "\n"
      R"({"op":"reload","id":8,"selector":"ghost"})" "\n"
      R"({"op":"quit"})" "\n";

  std::string over_fds;
  {
    SessionServer session(dir);
    over_fds = RunAdoptedSession(*session.server, input).output;
  }
  std::string over_tcp;
  {
    SessionServer session(dir);
    NetServerOptions opts;
    opts.listen = "127.0.0.1:0";
    NetServer net(session.server.get(), opts);
    ASSERT_TRUE(net.Start().ok());
    over_tcp = RunTcpSession(net, input);
    net.Stop();
  }
  std::filesystem::remove_all(dir);

  const std::vector<std::string> lines = Lines(over_fds);
  ASSERT_EQ(lines.size(), 9u) << over_fds;
  for (size_t i : {1, 2, 3, 4}) {
    auto reply = serve::Json::Parse(lines[i]);
    ASSERT_TRUE(reply.ok()) << lines[i];
    EXPECT_TRUE(reply->GetBool("ok", false)) << lines[i];
  }
  EXPECT_NE(lines[3].find("\"auc_pr\""), std::string::npos);
  EXPECT_NE(lines[3].find("\"scores\""), std::string::npos);
  EXPECT_EQ(StripTimings(over_fds), StripTimings(over_tcp));
}

// stdin is a full connection: trace ids, stage histograms, the shedder
// and the flight recorder all cover it.
TEST(NetServerTest, AdoptedSessionOpsShowsStagesShedderAndFlight) {
  obs::MetricsRegistry::Global().ResetValuesForTesting();
  LoopbackServer loopback;
  const std::string input = TracedSelectLine(1, "st-1") + "\n" +
                            TracedSelectLine(2, "st-2") + "\n" +
                            SelectLine(3) + "\n" +
                            R"({"op":"ops","id":4})" "\n"
                            R"({"op":"ops","id":5,"view":"flight"})" "\n";
  const std::vector<std::string> lines =
      Lines(RunAdoptedSession(*loopback.server, input).output);
  ASSERT_EQ(lines.size(), 5u);
  EXPECT_NE(lines[2].find("\"trace\":\"s0-1\""), std::string::npos)
      << lines[2];

  auto snapshot = serve::Json::Parse(lines[3]);
  ASSERT_TRUE(snapshot.ok()) << snapshot.status();
  const serve::Json* shedder = snapshot->Find("shedder");
  ASSERT_NE(shedder, nullptr);
  EXPECT_TRUE(shedder->is_object());
  const serve::Json* histograms =
      snapshot->Find("metrics")->Find("histograms");
  for (const char* name :
       {"kdsel.net.stage.parse", "kdsel.net.stage.queue",
        "kdsel.net.stage.batch_wait", "kdsel.net.stage.compute",
        "kdsel.net.stage.write", "kdsel.net.e2e"}) {
    const serve::Json* hist = histograms->Find(name);
    ASSERT_NE(hist, nullptr) << name;
    EXPECT_EQ(hist->GetNumber("count", -1), 3) << name;
  }
  // All three selects took the select scanner, none the strict parser.
  EXPECT_EQ(snapshot->Find("metrics")->Find("counters")->GetNumber(
                "kdsel.serve.select_fallbacks", -1),
            0);

  auto flight = serve::Json::Parse(lines[4]);
  ASSERT_TRUE(flight.ok()) << flight.status();
  std::vector<std::string> traces;
  for (const serve::Json& record :
       flight->Find("flight")->Find("recent")->items()) {
    traces.push_back(record.GetString("trace", ""));
  }
  EXPECT_EQ(traces, (std::vector<std::string>{"st-1", "st-2", "s0-1"}));
}

// Precision comes from the model that served the request, not from a
// name suffix: a quantized selector registered as "plain" is int8.
TEST(NetServerTest, FlightRecordsPrecisionOfTheServingModel) {
  LoopbackServer loopback;
  std::vector<std::vector<float>> calibration(4, std::vector<float>(16));
  for (size_t i = 0; i < calibration.size(); ++i) {
    for (size_t t = 0; t < 16; ++t) {
      calibration[i][t] = std::sin((0.3 + 0.9 * (i % 2)) * t);
    }
  }
  auto quantized = TrainTinySelector()->QuantizeInt8(calibration);
  ASSERT_TRUE(quantized.ok()) << quantized.status();
  ASSERT_TRUE(
      loopback.registry->Register("plain", std::move(quantized).value()).ok());
  std::string line = TracedSelectLine(1, "q-1");
  line.replace(line.find("\"tiny\""), 6, "\"plain\"");
  const std::vector<std::string> lines = Lines(
      RunAdoptedSession(*loopback.server,
                        line + "\n" + TracedSelectLine(2, "f-1") + "\n" +
                            R"({"op":"ops","id":3,"view":"flight"})" "\n")
          .output);
  ASSERT_EQ(lines.size(), 3u);
  auto flight = serve::Json::Parse(lines[2]);
  ASSERT_TRUE(flight.ok()) << flight.status();
  const auto& recent = flight->Find("flight")->Find("recent")->items();
  ASSERT_GE(recent.size(), 2u);
  EXPECT_EQ(recent[recent.size() - 2].GetString("trace", ""), "q-1");
  EXPECT_EQ(recent[recent.size() - 2].GetString("variant", ""), "int8");
  EXPECT_EQ(recent.back().GetString("trace", ""), "f-1");
  EXPECT_EQ(recent.back().GetString("variant", ""), "fp32");
}

// 500 selects read in one go from a regular file or through a pipe all
// come back ok and in order, also when the submission queue holds only
// 8 and the input is many times the line cap: the connection pauses
// instead of overflowing either. The adopted fds stay open and keep
// their flags.
TEST(NetServerTest, AdoptedInputFromFileOrPipeIsThrottledNotShed) {
  constexpr int kSelects = 500;
  std::string input;
  for (int i = 0; i < kSelects; ++i) input += SelectLine(i) + "\n";
  for (const bool small : {false, true}) {
    for (const SessionFds kind : {SessionFds::kFiles, SessionFds::kPipes}) {
      serve::ServerOptions opts;
      NetServerOptions net_opts;
      if (small) {
        opts.queue_capacity = 8;
        net_opts.max_line_bytes = 4096;
        ASSERT_GT(input.size(), 10 * net_opts.max_line_bytes);
      }
      LoopbackServer loopback({}, opts);
      const auto session =
          RunAdoptedSession(*loopback.server, input, kind, net_opts);
      const std::vector<std::string> lines = Lines(session.output);
      ASSERT_EQ(lines.size(), static_cast<size_t>(kSelects));
      for (int i = 0; i < kSelects; ++i) {
        auto reply = serve::Json::Parse(lines[static_cast<size_t>(i)]);
        ASSERT_TRUE(reply.ok()) << lines[static_cast<size_t>(i)];
        ASSERT_TRUE(reply->GetBool("ok", false))
            << lines[static_cast<size_t>(i)];
        ASSERT_EQ(reply->GetNumber("id", -1), i);
      }
      EXPECT_TRUE(session.fds_untouched);
      EXPECT_EQ(loopback.server->stats().shed(), 0u);
    }
  }
}

}  // namespace
}  // namespace kdsel::net
