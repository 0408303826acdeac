// The transport chaos grid: >= 200 randomized fault schedules over the
// probe service, each fully determined by its seed (ChaosTransport draws
// every fault from SplitMix64 hashes of (seed, op index), and the driver
// pumps client and server cooperatively on one thread).
//
// Invariants held for every schedule:
//   * the client-observed SessionReport is byte-identical to the report
//     the blocking in-process pipeline produces from the same hidden
//     valuation — drops, torn writes, corruption, duplicates and delays
//     are invisible in the outcome;
//   * no consent variable ever reaches the oracle twice (the client's
//     session answer cache plus the server-side ledger make resume
//     probe-free), enforced by a strict oracle that aborts on a repeat;
//   * a draining server sheds new sessions fast with kUnavailable even
//     while the transport is misbehaving.

#include <cstdint>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "consentdb/consent/oracle.h"
#include "consentdb/core/consent_manager.h"
#include "consentdb/core/session_engine.h"
#include "consentdb/net/chaos_transport.h"
#include "consentdb/net/probe_client.h"
#include "consentdb/net/probe_server.h"
#include "consentdb/util/clock.h"
#include "consentdb/util/rng.h"
#include "gtest/gtest.h"
#include "test_fixtures.h"

namespace consentdb::net {
namespace {

using consent::ValuationOracle;
using core::ConsentManager;
using core::EngineOptions;
using core::SessionEngine;
using core::SessionOptions;
using provenance::PartialValuation;
using provenance::VarId;

// Aborts the test if any variable is probed twice: across connection drops
// and resumes, each peer must be asked at most once.
class StrictOracle : public consent::ProbeOracle {
 public:
  explicit StrictOracle(PartialValuation hidden)
      : inner_(std::move(hidden)) {}

  bool Probe(VarId x) override {
    CONSENTDB_CHECK(seen_.insert(x).second,
                    "variable x" + std::to_string(x) + " probed twice");
    return inner_.Probe(x);
  }
  size_t probe_count() const override { return inner_.probe_count(); }

 private:
  ValuationOracle inner_;
  std::set<VarId> seen_;
};

// The five fault mixtures the grid cycles through. Each stresses a
// different recovery path; the last mixes everything.
ChaosPlan PlanShape(size_t shape, uint64_t seed) {
  ChaosPlan plan;
  plan.seed = seed;
  plan.delay_nanos = 400'000;  // under the driver's idle advance rate
  switch (shape) {
    case 0:  // flaky connects + dropped connections
      plan.connect_fail_prob = 0.30;
      plan.drop_prob = 0.08;
      break;
    case 1:  // torn writes: frames sheared mid-byte-stream
      plan.torn_write_prob = 0.15;
      break;
    case 2:  // corruption: the CRC layer must catch every flip
      plan.corrupt_prob = 0.12;
      break;
    case 3:  // duplicates and delays (no losses at all)
      plan.duplicate_prob = 0.20;
      plan.delay_prob = 0.25;
      break;
    default:  // everything at once
      plan.connect_fail_prob = 0.10;
      plan.drop_prob = 0.05;
      plan.torn_write_prob = 0.05;
      plan.corrupt_prob = 0.05;
      plan.duplicate_prob = 0.10;
      plan.delay_prob = 0.10;
      break;
  }
  return plan;
}

struct RunOutcome {
  std::string report_json;
  uint64_t reconnects = 0;
  ChaosStats transport;
};

// One chaos run: a fresh engine + server + client over a faulty transport,
// returning the client-observed report. The hidden valuation is drawn from
// the seed, so the matching baseline is reproducible.
RunOutcome RunOnce(const consent::SharedDatabase& sdb, ChaosPlan plan,
                   PartialValuation hidden) {
  VirtualClock clock(1'000'000'000);
  ChaosTransport transport(plan, &clock);
  EngineOptions eopts;
  eopts.num_threads = 1;
  SessionEngine engine(sdb, eopts);
  ServerOptions sopts;
  sopts.clock = &clock;
  ProbeServer server(engine, transport, sopts);
  Status listen = server.Listen("srv");
  CONSENTDB_CHECK(listen.ok(), listen.ToString());

  StrictOracle oracle(std::move(hidden));
  ProbeClientOptions copts;
  copts.clock = &clock;
  copts.client_id = static_cast<uint32_t>(plan.seed | 1);
  // Generous but bounded: a livelocked schedule fails the test instead of
  // hanging it. Backoff sleeps advance the virtual clock, not real time.
  copts.reconnect.max_attempts = 500;
  // Short virtual stall timeout, so a stream that stops mid-frame recovers
  // within the virtual time the schedule gives it.
  copts.stall_timeout_nanos = 50'000'000;
  copts.idle = [&server, &clock] {
    server.Poll();
    clock.Advance(200'000);
  };
  ProbeClient client(transport, "srv", &oracle, copts);

  Result<std::string> json = client.Decide(testing::RecruitmentQuerySql());
  CONSENTDB_CHECK(json.ok(), json.status().ToString());

  RunOutcome outcome;
  outcome.report_json = *json;
  outcome.reconnects = client.stats().reconnects;
  outcome.transport = transport.stats();
  return outcome;
}

TEST(NetworkChaos, GridOf200SchedulesPreservesReportsExactly) {
  const consent::SharedDatabase sdb = testing::RecruitmentDatabase();
  const ConsentManager manager(sdb);

  ChaosStats totals;
  uint64_t total_reconnects = 0;
  for (uint64_t seed = 0; seed < 200; ++seed) {
    // The hidden valuation varies with the seed; the baseline is computed
    // from the same one, through the blocking in-process pipeline.
    Rng rng(seed * 0x9e3779b97f4a7c15ull + 1);
    PartialValuation hidden = sdb.pool().SampleValuation(rng);

    ValuationOracle baseline_oracle(hidden);
    consent::ConsentLedger baseline_ledger;
    SessionOptions options;
    options.ledger = &baseline_ledger;
    Result<core::SessionReport> baseline =
        manager.DecideAll(testing::RecruitmentQuerySql(), baseline_oracle,
                          options);
    ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();

    RunOutcome outcome = RunOnce(sdb, PlanShape(seed % 5, seed), hidden);
    ASSERT_EQ(outcome.report_json, baseline->ToJson()) << "seed " << seed;

    totals.connect_fails += outcome.transport.connect_fails;
    totals.drops += outcome.transport.drops;
    totals.torn_writes += outcome.transport.torn_writes;
    totals.corruptions += outcome.transport.corruptions;
    totals.duplicates += outcome.transport.duplicates;
    totals.delays += outcome.transport.delays;
    total_reconnects += outcome.reconnects;
  }

  // The grid exercised every fault class and forced real recoveries; a
  // schedule generator gone inert would pass the equality checks for free.
  EXPECT_GT(totals.connect_fails, 0u);
  EXPECT_GT(totals.drops, 0u);
  EXPECT_GT(totals.torn_writes, 0u);
  EXPECT_GT(totals.corruptions, 0u);
  EXPECT_GT(totals.duplicates, 0u);
  EXPECT_GT(totals.delays, 0u);
  EXPECT_GT(total_reconnects, 0u);
}

TEST(NetworkChaos, SameSeedSameSchedule) {
  // Determinism spot check: the whole client-visible outcome — including
  // the injected-fault tallies — is a pure function of the seed.
  const consent::SharedDatabase sdb = testing::RecruitmentDatabase();
  for (uint64_t seed : {3u, 57u, 104u}) {
    Rng rng_a(seed), rng_b(seed);
    RunOutcome a =
        RunOnce(sdb, PlanShape(4, seed), sdb.pool().SampleValuation(rng_a));
    RunOutcome b =
        RunOnce(sdb, PlanShape(4, seed), sdb.pool().SampleValuation(rng_b));
    EXPECT_EQ(a.report_json, b.report_json) << "seed " << seed;
    EXPECT_EQ(a.reconnects, b.reconnects) << "seed " << seed;
    EXPECT_EQ(a.transport.writes, b.transport.writes) << "seed " << seed;
    EXPECT_EQ(a.transport.drops, b.transport.drops) << "seed " << seed;
    EXPECT_EQ(a.transport.corruptions, b.transport.corruptions)
        << "seed " << seed;
  }
}

TEST(NetworkChaos, ListenerClosesWithAnUnacceptedConnection) {
  // The pending server end closes itself as the listener drops it; that
  // must not re-take the transport lock Close() holds.
  VirtualClock clock(0);
  ChaosTransport transport(ChaosPlan{}, &clock);
  Result<std::unique_ptr<Listener>> listener = transport.Listen("srv");
  ASSERT_TRUE(listener.ok());
  Result<std::unique_ptr<Connection>> client = transport.Connect("srv");
  ASSERT_TRUE(client.ok());
  (*listener)->Close();
  EXPECT_FALSE((*listener)->Accept().ok());
  EXPECT_FALSE((*client)->Read().ok());
}

TEST(NetworkChaos, DrainingServerShedsFastUnderChaos) {
  const consent::SharedDatabase sdb = testing::RecruitmentDatabase();
  VirtualClock clock(1'000'000'000);
  ChaosPlan plan = PlanShape(3, 99);  // duplicates + delays, no losses
  ChaosTransport transport(plan, &clock);
  EngineOptions eopts;
  eopts.num_threads = 1;
  SessionEngine engine(sdb, eopts);
  ServerOptions sopts;
  sopts.clock = &clock;
  sopts.retry_after_nanos = 750'000'000;
  ProbeServer server(engine, transport, sopts);
  ASSERT_TRUE(server.Listen("srv").ok());
  server.BeginDrain();

  Rng rng(99);
  StrictOracle oracle(sdb.pool().SampleValuation(rng));
  ProbeClientOptions copts;
  copts.clock = &clock;
  copts.reconnect.max_attempts = 100;
  copts.idle = [&server, &clock] {
    server.Poll();
    clock.Advance(200'000);
  };
  ProbeClient client(transport, "srv", &oracle, copts);

  Result<std::string> json = client.Decide(testing::RecruitmentQuerySql());
  ASSERT_FALSE(json.ok());
  EXPECT_TRUE(json.status().IsUnavailable()) << json.status().ToString();
  // Shed before any probing happened, with the advertised retry-after.
  EXPECT_EQ(oracle.probe_count(), 0u);
  EXPECT_EQ(client.stats().last_retry_after_nanos, 750'000'000);
  EXPECT_EQ(server.stats().shed_sessions, 1u);
  EXPECT_EQ(server.stats().opened_sessions, 0u);
}

}  // namespace
}  // namespace consentdb::net
