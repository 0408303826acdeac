// ProbeServer semantics under a deterministic, fault-free in-memory
// transport: end-to-end reports byte-identical to the in-process pipeline,
// admission control and per-tenant quotas, deadline expiry (resilient and
// not), detach/resume with zero duplicate peer probes, completed-report
// re-delivery until the Ack, graceful drain, the posix loopback path, and
// the readiness wait that keeps an idle server and client off the clock.
//
// The chaos grid (network_chaos_test.cc) layers randomized transport
// faults on top of the same harness; this file pins down the intended
// behaviour when the network itself is blameless.

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "consentdb/consent/oracle.h"
#include "consentdb/core/consent_manager.h"
#include "consentdb/core/session_engine.h"
#include "consentdb/net/chaos_transport.h"
#include "consentdb/net/frame.h"
#include "consentdb/net/posix_transport.h"
#include "consentdb/net/probe_client.h"
#include "consentdb/net/probe_server.h"
#include "consentdb/net/protocol.h"
#include "consentdb/obs/metrics.h"
#include "consentdb/util/clock.h"
#include "gtest/gtest.h"
#include "test_fixtures.h"

namespace consentdb::net {
namespace {

using consent::ProbeOracle;
using consent::ValuationOracle;
using core::ConsentManager;
using core::EngineOptions;
using core::RetryPolicy;
using core::SessionEngine;
using core::SessionOptions;
using provenance::PartialValuation;
using provenance::VarId;

PartialValuation FullValuation(const consent::SharedDatabase& sdb,
                               bool value) {
  return PartialValuation::FromBools(
      std::vector<bool>(sdb.pool().size(), value));
}

// The report the blocking in-process pipeline produces for `sql` — a fresh
// manager, a fresh ledger, the same oracle answers. Client-observed reports
// must match this byte for byte.
std::string BaselineJson(const consent::SharedDatabase& sdb,
                         const std::string& sql, ProbeOracle& oracle,
                         std::optional<RetryPolicy> retry = std::nullopt) {
  ConsentManager manager(sdb);
  consent::ConsentLedger ledger;
  SessionOptions options;
  options.ledger = &ledger;
  options.retry = retry;
  Result<core::SessionReport> report = manager.DecideAll(sql, oracle, options);
  CONSENTDB_CHECK(report.ok(), report.status().ToString());
  return report->ToJson();
}

// A hand-driven client connection: sends protocol messages and decodes
// whatever the server has flushed so far. Lets tests observe individual
// ProbeRequests, withhold answers, and drop connections at exact points —
// things ProbeClient deliberately hides.
class RawConn {
 public:
  RawConn(Transport& transport, const std::string& address) {
    Result<std::unique_ptr<Connection>> conn = transport.Connect(address);
    CONSENTDB_CHECK(conn.ok(), conn.status().ToString());
    conn_ = std::move(*conn);
  }

  void Send(const Message& msg) {
    std::string out = EncodeMessage(msg);
    while (!out.empty()) {
      Result<size_t> n = conn_->Write(out);
      CONSENTDB_CHECK(n.ok(), n.status().ToString());
      CONSENTDB_CHECK(*n > 0, "fault-free transport refused bytes");
      out.erase(0, *n);
    }
  }

  void SendBytes(const std::string& bytes) {
    Result<size_t> n = conn_->Write(bytes);
    CONSENTDB_CHECK(n.ok(), n.status().ToString());
  }

  // Everything decodable that has arrived (may be empty).
  std::vector<Message> Drain() {
    std::vector<Message> out;
    while (true) {
      Result<std::string> data = conn_->Read();
      if (!data.ok() || data->empty()) break;
      parser_.Feed(*data);
    }
    Frame f;
    while (parser_.Next(&f) == FrameParser::Event::kFrame) {
      Result<Message> msg = DecodeMessage(f.type, f.body);
      CONSENTDB_CHECK(msg.ok(), msg.status().ToString());
      out.push_back(std::move(*msg));
    }
    return out;
  }

  void Close() { conn_->Close(); }

 private:
  std::unique_ptr<Connection> conn_;
  FrameParser parser_;
};

// Cooperative test harness: one engine, one fault-free in-memory transport,
// one server, all on a virtual clock.
struct Harness {
  explicit Harness(EngineOptions eopts = {}, ServerOptions sopts = {},
                   double probability = 0.5)
      : sdb(testing::RecruitmentDatabase(probability)),
        clock(1'000'000'000),
        transport(ChaosPlan{}, &clock) {
    eopts.num_threads = 1;
    engine = std::make_unique<SessionEngine>(sdb, eopts);
    sopts.clock = &clock;
    server = std::make_unique<ProbeServer>(*engine, transport, sopts);
    Status s = server->Listen("srv");
    CONSENTDB_CHECK(s.ok(), s.ToString());
  }

  // Polls until `pred` holds, advancing virtual time each sweep.
  template <typename Pred>
  bool PumpUntil(Pred pred, int max_sweeps = 200) {
    for (int i = 0; i < max_sweeps; ++i) {
      server->Poll();
      clock.Advance(100'000);  // 100us per sweep
      if (pred()) return true;
    }
    return false;
  }

  // Runs a raw-conn session to its terminal message, answering every
  // ProbeRequest from `oracle` and recording which variables were
  // requested. Returns the SessionReportMsg json or the ErrorMsg status.
  Result<std::string> DriveToCompletion(RawConn& conn, uint64_t sid,
                                        ProbeOracle& oracle,
                                        std::vector<VarId>* requested) {
    Result<std::string> outcome = Status::Unavailable("no terminal message");
    bool done = false;
    PumpUntil([&] {
      for (Message& msg : conn.Drain()) {
        if (const auto* probe = std::get_if<ProbeRequest>(&msg)) {
          if (requested != nullptr) {
            requested->push_back(static_cast<VarId>(probe->variable));
          }
          conn.Send(ProbeAnswer{
              sid, probe->variable,
              oracle.Probe(static_cast<VarId>(probe->variable)) ? uint8_t{1}
                                                                : uint8_t{0}});
        } else if (const auto* report = std::get_if<SessionReportMsg>(&msg)) {
          outcome = report->report_json;
          done = true;
        } else if (const auto* error = std::get_if<ErrorMsg>(&msg)) {
          outcome = StatusFromWire(error->code, error->message);
          done = true;
        }
      }
      return done;
    });
    CONSENTDB_CHECK(done, "session reached no terminal message");
    return outcome;
  }

  consent::SharedDatabase sdb;
  VirtualClock clock;
  ChaosTransport transport;
  std::unique_ptr<SessionEngine> engine;
  std::unique_ptr<ProbeServer> server;
};

OpenSession MakeOpen(uint64_t sid, const std::string& tenant,
                     const std::string& sql, int64_t deadline_nanos = 0) {
  OpenSession open;
  open.session_id = sid;
  open.tenant = tenant;
  open.sql = sql;
  open.deadline_nanos = deadline_nanos;
  return open;
}

TEST(ProbeServer, EndToEndReportMatchesInProcessBaseline) {
  Harness h;
  ValuationOracle server_side(FullValuation(h.sdb, true));

  RawConn conn(h.transport, "srv");
  conn.Send(MakeOpen(7, "acme", testing::RecruitmentQuerySql()));
  Result<std::string> json = h.DriveToCompletion(conn, 7, server_side, nullptr);
  ASSERT_TRUE(json.ok()) << json.status().ToString();

  ValuationOracle baseline_oracle(FullValuation(h.sdb, true));
  EXPECT_EQ(*json, BaselineJson(h.sdb, testing::RecruitmentQuerySql(),
                                baseline_oracle));

  ServerStats stats = h.server->stats();
  EXPECT_EQ(stats.opened_sessions, 1u);
  EXPECT_EQ(stats.completed_sessions, 1u);
  EXPECT_EQ(stats.inflight_sessions, 0u);
  EXPECT_EQ(stats.shed_sessions, 0u);
}

TEST(ProbeServer, ProbeClientDecidesAgainstServer) {
  Harness h;
  ValuationOracle oracle(FullValuation(h.sdb, false));

  ProbeClientOptions copts;
  copts.clock = &h.clock;
  copts.idle = [&h] {
    h.server->Poll();
    h.clock.Advance(100'000);
  };
  ProbeClient client(h.transport, "srv", &oracle, copts);
  Result<std::string> json = client.Decide(testing::RecruitmentQuerySql());
  ASSERT_TRUE(json.ok()) << json.status().ToString();

  ValuationOracle baseline_oracle(FullValuation(h.sdb, false));
  EXPECT_EQ(*json, BaselineJson(h.sdb, testing::RecruitmentQuerySql(),
                                baseline_oracle));
  EXPECT_EQ(client.stats().sessions, 1u);
  EXPECT_EQ(client.stats().reconnects, 0u);

  // The Ack released the completed session server-side.
  h.PumpUntil([] { return false; }, 3);
  EXPECT_EQ(h.server->stats().completed_sessions, 1u);
}

TEST(ProbeServer, AdmissionControlShedsBeyondInflightCap) {
  ServerOptions sopts;
  sopts.max_inflight_sessions = 1;
  sopts.retry_after_nanos = 250'000'000;
  Harness h({}, sopts);

  // Session 1 parks on its first ProbeRequest and pins the only slot.
  RawConn first(h.transport, "srv");
  first.Send(MakeOpen(1, "acme", testing::RecruitmentQuerySql()));
  ASSERT_TRUE(h.PumpUntil([&h] { return h.server->stats().inflight_sessions == 1; }));

  RawConn second(h.transport, "srv");
  second.Send(MakeOpen(2, "acme", testing::RecruitmentQuerySql()));
  std::optional<ErrorMsg> shed;
  ASSERT_TRUE(h.PumpUntil([&] {
    for (Message& msg : second.Drain()) {
      if (auto* error = std::get_if<ErrorMsg>(&msg)) shed = *error;
    }
    return shed.has_value();
  }));
  EXPECT_EQ(shed->session_id, 2u);
  EXPECT_EQ(shed->code, WireStatusCode(StatusCode::kUnavailable));
  EXPECT_EQ(shed->retry_after_nanos, 250'000'000);

  ServerStats stats = h.server->stats();
  EXPECT_EQ(stats.shed_sessions, 1u);
  EXPECT_EQ(stats.inflight_sessions, 1u);
  EXPECT_EQ(stats.opened_sessions, 1u);  // the shed open never counted
}

TEST(ProbeServer, TenantQuotaShedsWithResourceExhausted) {
  ServerOptions sopts;
  sopts.max_inflight_sessions = 8;
  sopts.max_sessions_per_tenant = 1;
  Harness h({}, sopts);

  RawConn first(h.transport, "srv");
  first.Send(MakeOpen(1, "greedy", testing::RecruitmentQuerySql()));
  ASSERT_TRUE(h.PumpUntil([&h] { return h.server->stats().inflight_sessions == 1; }));

  // Same tenant: over quota. Another tenant: admitted.
  RawConn second(h.transport, "srv");
  second.Send(MakeOpen(2, "greedy", testing::RecruitmentQuerySql()));
  RawConn third(h.transport, "srv");
  third.Send(MakeOpen(3, "modest", testing::RecruitmentQuerySql()));

  std::optional<ErrorMsg> quota;
  ASSERT_TRUE(h.PumpUntil([&] {
    for (Message& msg : second.Drain()) {
      if (auto* error = std::get_if<ErrorMsg>(&msg)) quota = *error;
    }
    return quota.has_value() && h.server->stats().inflight_sessions == 2;
  }));
  EXPECT_EQ(quota->code, WireStatusCode(StatusCode::kResourceExhausted));
  EXPECT_EQ(h.server->stats().shed_sessions, 1u);
}

TEST(ProbeServer, NonResilientSessionFailsAtDeadline) {
  Harness h;  // engine without a retry policy: sessions are non-resilient
  RawConn conn(h.transport, "srv");
  conn.Send(MakeOpen(5, "acme", testing::RecruitmentQuerySql(),
                     /*deadline_nanos=*/5'000'000));

  // Let the first ProbeRequest arrive, then never answer it.
  std::optional<ErrorMsg> error;
  ASSERT_TRUE(h.PumpUntil([&] {
    for (Message& msg : conn.Drain()) {
      if (auto* e = std::get_if<ErrorMsg>(&msg)) error = *e;
    }
    return error.has_value();
  }));
  EXPECT_EQ(error->code, WireStatusCode(StatusCode::kDeadlineExceeded));
  ServerStats stats = h.server->stats();
  EXPECT_EQ(stats.expired_sessions, 1u);
  EXPECT_EQ(stats.inflight_sessions, 0u);
  // A failed session is not a completed one.
  EXPECT_EQ(stats.completed_sessions, 0u);
}

TEST(ProbeServer, ResilientSessionExpiresToUnresolvedReport) {
  EngineOptions eopts;
  eopts.session.retry = RetryPolicy{};  // resilient sessions
  Harness h(eopts);
  RawConn conn(h.transport, "srv");
  conn.Send(MakeOpen(6, "acme", testing::RecruitmentQuerySql(),
                     /*deadline_nanos=*/5'000'000));

  std::optional<std::string> json;
  ASSERT_TRUE(h.PumpUntil([&] {
    for (Message& msg : conn.Drain()) {
      if (auto* report = std::get_if<SessionReportMsg>(&msg)) {
        json = report->report_json;
      }
    }
    return json.has_value();
  }));
  // The session expired rather than failed: verdicts degrade to unresolved.
  EXPECT_NE(json->find("num_unresolved"), std::string::npos) << *json;
  EXPECT_NE(json->find("\"unresolved\""), std::string::npos) << *json;
  EXPECT_EQ(h.server->stats().expired_sessions, 1u);
  EXPECT_EQ(h.server->stats().completed_sessions, 1u);
}

TEST(ProbeServer, ResumeAfterDropReprobesNothing) {
  Harness h;
  ValuationOracle oracle(FullValuation(h.sdb, true));
  const uint64_t sid = 9;

  // Answer exactly one probe on the first connection, then drop it.
  RawConn first(h.transport, "srv");
  first.Send(MakeOpen(sid, "acme", testing::RecruitmentQuerySql()));
  std::optional<VarId> answered_var;
  ASSERT_TRUE(h.PumpUntil([&] {
    for (Message& msg : first.Drain()) {
      if (auto* probe = std::get_if<ProbeRequest>(&msg)) {
        if (!answered_var.has_value()) {
          answered_var = static_cast<VarId>(probe->variable);
          first.Send(ProbeAnswer{sid, probe->variable,
                                 oracle.Probe(*answered_var) ? uint8_t{1}
                                                             : uint8_t{0}});
        }
      }
    }
    // Wait until the *second* ProbeRequest is outstanding, so the drop
    // leaves a parked session with an unanswered probe in flight.
    ServerStats s = h.server->stats();
    return answered_var.has_value() && s.inflight_sessions == 1;
  }));
  first.Close();
  ASSERT_TRUE(h.PumpUntil([&h] { return h.server->stats().connections == 0; }));
  // The session survived the drop, detached.
  EXPECT_EQ(h.server->stats().inflight_sessions, 1u);

  // Resume from a new connection: same id, same spec.
  RawConn second(h.transport, "srv");
  second.Send(MakeOpen(sid, "acme", testing::RecruitmentQuerySql()));
  std::vector<VarId> requested;
  Result<std::string> json =
      h.DriveToCompletion(second, sid, oracle, &requested);
  ASSERT_TRUE(json.ok()) << json.status().ToString();

  // The variable answered before the drop was never re-requested: the
  // ledger replayed it. Nothing was requested twice at all.
  std::set<VarId> unique(requested.begin(), requested.end());
  EXPECT_EQ(unique.size(), requested.size());
  EXPECT_EQ(unique.count(*answered_var), 0u);
  EXPECT_EQ(h.server->stats().resumed_sessions, 1u);

  // And the client-observed report is still byte-identical to in-process.
  ValuationOracle baseline_oracle(FullValuation(h.sdb, true));
  EXPECT_EQ(*json, BaselineJson(h.sdb, testing::RecruitmentQuerySql(),
                                baseline_oracle));
}

TEST(ProbeServer, MismatchedResumeRejected) {
  Harness h;
  RawConn first(h.transport, "srv");
  first.Send(MakeOpen(4, "acme", testing::RecruitmentQuerySql()));
  ASSERT_TRUE(h.PumpUntil([&h] { return h.server->stats().inflight_sessions == 1; }));

  RawConn second(h.transport, "srv");
  second.Send(MakeOpen(4, "acme", "SELECT name FROM Companies"));
  std::optional<ErrorMsg> error;
  ASSERT_TRUE(h.PumpUntil([&] {
    for (Message& msg : second.Drain()) {
      if (auto* e = std::get_if<ErrorMsg>(&msg)) error = *e;
    }
    return error.has_value();
  }));
  EXPECT_EQ(error->code, WireStatusCode(StatusCode::kFailedPrecondition));
  // The original session is untouched.
  EXPECT_EQ(h.server->stats().inflight_sessions, 1u);
}

TEST(ProbeServer, CompletedReportRedeliveredUntilAck) {
  Harness h;
  ValuationOracle oracle(FullValuation(h.sdb, true));
  const uint64_t sid = 11;

  RawConn first(h.transport, "srv");
  first.Send(MakeOpen(sid, "acme", testing::RecruitmentQuerySql()));
  Result<std::string> json1 = h.DriveToCompletion(first, sid, oracle, nullptr);
  ASSERT_TRUE(json1.ok());
  first.Close();  // no Ack: the server must retain the report
  ASSERT_TRUE(h.PumpUntil([&h] { return h.server->stats().connections == 0; }));

  // Re-open re-delivers the stored report verbatim, without re-running.
  RawConn second(h.transport, "srv");
  second.Send(MakeOpen(sid, "acme", testing::RecruitmentQuerySql()));
  std::optional<std::string> json2;
  ASSERT_TRUE(h.PumpUntil([&] {
    for (Message& msg : second.Drain()) {
      if (auto* report = std::get_if<SessionReportMsg>(&msg)) {
        json2 = report->report_json;
      }
    }
    return json2.has_value();
  }));
  EXPECT_EQ(*json1, *json2);
  EXPECT_EQ(h.server->stats().opened_sessions, 1u);  // never re-ran

  // After the Ack the session is gone: the same id now opens fresh.
  second.Send(AckMsg{sid});
  ASSERT_TRUE(h.PumpUntil(
      [&h] { return h.server->stats().opened_sessions == 1; }, 5));
  second.Send(MakeOpen(sid, "acme", testing::RecruitmentQuerySql()));
  ASSERT_TRUE(
      h.PumpUntil([&h] { return h.server->stats().opened_sessions == 2; }));
}

TEST(ProbeServer, GracefulDrainFinishesInflightAndShedsNew) {
  Harness h;
  ValuationOracle oracle(FullValuation(h.sdb, true));
  const uint64_t sid = 21;

  RawConn conn(h.transport, "srv");
  conn.Send(MakeOpen(sid, "acme", testing::RecruitmentQuerySql()));
  ASSERT_TRUE(h.PumpUntil([&h] { return h.server->stats().inflight_sessions == 1; }));
  // The parked session is checkpointable while it runs.
  ASSERT_EQ(h.engine->pending_sessions().size(), 1u);
  EXPECT_EQ(h.engine->pending_sessions()[0].sql,
            testing::RecruitmentQuerySql());

  h.server->BeginDrain();
  EXPECT_TRUE(h.server->stats().draining);

  // New sessions are refused...
  RawConn late(h.transport, "srv");
  late.Send(MakeOpen(22, "acme", testing::RecruitmentQuerySql()));
  std::optional<ErrorMsg> shed;
  ASSERT_TRUE(h.PumpUntil([&] {
    for (Message& msg : late.Drain()) {
      if (auto* e = std::get_if<ErrorMsg>(&msg)) shed = *e;
    }
    return shed.has_value();
  }));
  EXPECT_EQ(shed->code, WireStatusCode(StatusCode::kUnavailable));

  // ...while the in-flight one runs to completion and delivers its report.
  Result<std::string> json = h.DriveToCompletion(conn, sid, oracle, nullptr);
  ASSERT_TRUE(json.ok()) << json.status().ToString();

  // No leaked checkpoint spec, and every network answer reached the
  // journal-backed ledger.
  EXPECT_TRUE(h.engine->pending_sessions().empty());
  EXPECT_GT(h.engine->ledger().size(), 0u);
  EXPECT_EQ(h.engine->ledger().size(), oracle.probe_count());
}

TEST(ProbeServer, ShutdownParksUnfinishedSessionsForCheckpoint) {
  Harness h;
  RawConn conn(h.transport, "srv");
  conn.Send(MakeOpen(31, "acme", testing::RecruitmentQuerySql()));
  ASSERT_TRUE(h.PumpUntil([&h] { return h.server->stats().inflight_sessions == 1; }));

  h.server->Shutdown(/*drain_deadline_nanos=*/2'000'000);

  // The unanswered session stays registered with the engine: a checkpoint
  // taken after shutdown captures its spec for resume.
  std::vector<core::CheckpointedSession> pending = h.engine->pending_sessions();
  ASSERT_EQ(pending.size(), 1u);
  EXPECT_EQ(pending[0].sql, testing::RecruitmentQuerySql());
  EXPECT_FALSE(pending[0].single_csv.has_value());
  EXPECT_EQ(h.server->stats().connections, 0u);
}

TEST(ProbeServer, OverloadStatsAndMetricsReconcile) {
  obs::MetricsRegistry metrics;
  EngineOptions eopts;
  eopts.session.metrics = &metrics;
  ServerOptions sopts;
  sopts.max_inflight_sessions = 2;
  Harness h(eopts, sopts);

  std::vector<std::unique_ptr<RawConn>> conns;
  for (uint64_t sid = 1; sid <= 5; ++sid) {
    conns.push_back(std::make_unique<RawConn>(h.transport, "srv"));
    conns.back()->Send(MakeOpen(sid, "acme", testing::RecruitmentQuerySql()));
    h.PumpUntil([] { return true; }, 2);
  }
  ASSERT_TRUE(h.PumpUntil([&] {
    for (auto& conn : conns) conn->Drain();
    return h.server->stats().shed_sessions == 3;
  }));

  ServerStats stats = h.server->stats();
  EXPECT_EQ(stats.inflight_sessions, 2u);
  EXPECT_EQ(stats.opened_sessions, 2u);
  EXPECT_EQ(stats.shed_sessions, 3u);
  // The obs registry tells the same story as the struct.
  EXPECT_EQ(metrics.GetCounter("server.sessions")->value(), 2u);
  EXPECT_EQ(metrics.GetCounter("server.shed")->value(), 3u);
  EXPECT_EQ(metrics.GetGauge("server.inflight")->value(), 2);
  EXPECT_EQ(metrics.GetGauge("server.connections")->value(), 5);
}

TEST(ProbeServer, CorruptBytesDropTheConnection) {
  Harness h;
  RawConn conn(h.transport, "srv");
  conn.SendBytes("garbage that is certainly not a frame");
  ASSERT_TRUE(h.PumpUntil([&h] {
    return h.server->stats().corrupt_frames == 1 &&
           h.server->stats().connections == 0;
  }));
}

TEST(ProbeServer, ClientExhaustsReconnectsWhenServerUnreachable) {
  VirtualClock clock(0);
  ChaosPlan plan;
  plan.connect_fail_prob = 1.0;
  ChaosTransport transport(plan, &clock);

  consent::SharedDatabase sdb = testing::RecruitmentDatabase();
  ValuationOracle oracle(FullValuation(sdb, true));
  ProbeClientOptions copts;
  copts.clock = &clock;
  copts.reconnect.max_attempts = 4;
  ProbeClient client(transport, "nowhere", &oracle, copts);

  Result<std::string> json = client.Decide(testing::RecruitmentQuerySql());
  ASSERT_FALSE(json.ok());
  EXPECT_TRUE(json.status().IsUnavailable()) << json.status().ToString();
  EXPECT_EQ(client.stats().reconnects, 3u);  // backoffs between 4 attempts
  EXPECT_EQ(oracle.probe_count(), 0u);
}

TEST(ProbeServer, PosixLoopbackEndToEnd) {
  consent::SharedDatabase sdb = testing::RecruitmentDatabase();
  EngineOptions eopts;
  eopts.num_threads = 1;
  SessionEngine engine(sdb, eopts);
  PosixTransport posix;
  ProbeServer server(engine, posix);
  ASSERT_TRUE(server.Listen("0").ok());
  server.Start();

  ValuationOracle oracle(FullValuation(sdb, true));
  ProbeClient client(posix, server.address(), &oracle);
  Result<std::string> json = client.Decide(testing::RecruitmentQuerySql());
  ASSERT_TRUE(json.ok()) << json.status().ToString();

  ValuationOracle baseline_oracle(FullValuation(sdb, true));
  EXPECT_EQ(*json, BaselineJson(sdb, testing::RecruitmentQuerySql(),
                                baseline_oracle));
  server.Shutdown(/*drain_deadline_nanos=*/1'000'000'000);
}

// --- Readiness waits -------------------------------------------------------
// Timing is never asserted: a wait that should end on readiness gets a
// bound the test never approaches, and one that should time out only has
// to return.

constexpr int64_t kNeverNanos = 60'000'000'000;  // 60s

// The server end of a fresh loopback connection to `listener`.
std::unique_ptr<Connection> AcceptOne(PosixTransport& posix,
                                      Listener& listener) {
  while (true) {
    CONSENTDB_CHECK(posix.WaitReady(&listener, {}, kNeverNanos),
                    "posix transport refused to wait on its listener");
    Result<std::unique_ptr<Connection>> conn = listener.Accept();
    CONSENTDB_CHECK(conn.ok(), conn.status().ToString());
    if (*conn != nullptr) return std::move(*conn);
  }
}

TEST(TransportWait, PosixWaitReturnsOnceThePeerWrites) {
  PosixTransport posix;
  Result<std::unique_ptr<Listener>> listener = posix.Listen("0");
  ASSERT_TRUE(listener.ok()) << listener.status().ToString();
  Result<std::unique_ptr<Connection>> client =
      posix.Connect((*listener)->address());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  std::unique_ptr<Connection> server = AcceptOne(posix, **listener);

  Result<size_t> sent = (*client)->Write("ping");
  ASSERT_TRUE(sent.ok());
  ASSERT_EQ(*sent, 4u);
  const WaitInterest interest{server.get(), false};
  std::string got;
  while (got.size() < 4) {
    ASSERT_TRUE(posix.WaitReady(nullptr, {&interest, 1}, kNeverNanos));
    Result<std::string> data = server->Read();
    ASSERT_TRUE(data.ok()) << data.status().ToString();
    got += *data;
  }
  EXPECT_EQ(got, "ping");

  // A closed peer is readiness too: the wait ends and Read reports it.
  (*client)->Close();
  ASSERT_TRUE(posix.WaitReady(nullptr, {&interest, 1}, kNeverNanos));
  EXPECT_FALSE(server->Read().ok());
}

TEST(TransportWait, PosixWaitReturnsAfterTheTimeoutWhenNothingArrives) {
  PosixTransport posix;
  Result<std::unique_ptr<Listener>> listener = posix.Listen("0");
  ASSERT_TRUE(listener.ok()) << listener.status().ToString();
  Result<std::unique_ptr<Connection>> client =
      posix.Connect((*listener)->address());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  std::unique_ptr<Connection> server = AcceptOne(posix, **listener);

  // Both ends idle, the client's send queue empty but watched for room.
  const WaitInterest interest{server.get(), false};
  EXPECT_TRUE(posix.WaitReady(listener->get(), {&interest, 1}, 1'000'000));
  Result<std::string> data = server->Read();
  ASSERT_TRUE(data.ok());
  EXPECT_TRUE(data->empty());
  const WaitInterest writable{client->get(), true};
  EXPECT_TRUE(posix.WaitReady(nullptr, {&writable, 1}, kNeverNanos));
}

TEST(TransportWait, ForeignEndpointsAndTheBaseTransportCannotWait) {
  VirtualClock clock(0);
  ChaosTransport chaos(ChaosPlan{}, &clock);
  Result<std::unique_ptr<Listener>> listener = chaos.Listen("srv");
  ASSERT_TRUE(listener.ok());
  Result<std::unique_ptr<Connection>> conn = chaos.Connect("srv");
  ASSERT_TRUE(conn.ok());
  const WaitInterest interest{conn->get(), false};
  EXPECT_FALSE(chaos.WaitReady(listener->get(), {&interest, 1}, 1'000'000));
  PosixTransport posix;
  EXPECT_FALSE(posix.WaitReady(listener->get(), {}, 1'000'000));
  EXPECT_FALSE(posix.WaitReady(nullptr, {&interest, 1}, 1'000'000));
}

// Forwards Listen/Connect and keeps the base WaitReady, like a decorator
// written without the wait: its callers must fall back to the clock nap.
class PassThroughTransport : public Transport {
 public:
  explicit PassThroughTransport(Transport& inner) : inner_(inner) {}
  Result<std::unique_ptr<Listener>> Listen(
      const std::string& address) override {
    return inner_.Listen(address);
  }
  Result<std::unique_ptr<Connection>> Connect(
      const std::string& address) override {
    return inner_.Connect(address);
  }

 private:
  Transport& inner_;
};

TEST(ProbeServer, ClientOverTransportWithoutWaitFallsBackToNap) {
  consent::SharedDatabase sdb = testing::RecruitmentDatabase();
  EngineOptions eopts;
  eopts.num_threads = 1;
  SessionEngine engine(sdb, eopts);
  PosixTransport posix;
  ProbeServer server(engine, posix);
  ASSERT_TRUE(server.Listen("0").ok());
  server.Start();

  PassThroughTransport plain(posix);
  ValuationOracle oracle(FullValuation(sdb, false));
  ProbeClient client(plain, server.address(), &oracle);
  Result<std::string> json = client.Decide(testing::RecruitmentQuerySql());
  ASSERT_TRUE(json.ok()) << json.status().ToString();

  ValuationOracle baseline_oracle(FullValuation(sdb, false));
  EXPECT_EQ(*json, BaselineJson(sdb, testing::RecruitmentQuerySql(),
                                baseline_oracle));
  EXPECT_EQ(client.stats().reconnects, 0u);
  EXPECT_EQ(client.stats().stalls, 0u);
  server.Shutdown(/*drain_deadline_nanos=*/1'000'000'000);
}

TEST(ProbeServer, ShutdownJoinsThePumpWhileItWaits) {
  consent::SharedDatabase sdb = testing::RecruitmentDatabase();
  EngineOptions eopts;
  eopts.num_threads = 1;
  SessionEngine engine(sdb, eopts);
  PosixTransport posix;
  ProbeServer server(engine, posix);
  ASSERT_TRUE(server.Listen("0").ok());
  server.Start();

  // An accepted connection that never sends keeps the pump in its wait.
  RawConn idle(posix, server.address());
  const int64_t give_up = RealClock()->NowNanos() + kNeverNanos;
  while (server.stats().connections == 0) {
    ASSERT_LT(RealClock()->NowNanos(), give_up);
  }
  server.Shutdown(/*drain_deadline_nanos=*/0);
  EXPECT_EQ(server.stats().connections, 0u);
  EXPECT_EQ(server.stats().accepted_connections, 1u);
}

}  // namespace
}  // namespace consentdb::net
