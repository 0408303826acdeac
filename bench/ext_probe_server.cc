// Extension experiment: the networked probe service's overhead over the
// in-process engine, and its latency under concurrent clients. The same
// session workload (repeated join queries, one consistent hidden valuation,
// a shared consent ledger) runs three ways:
//
//   * in-process    — SessionEngine::Submit per session, shared ledger;
//   * served (mem)  — ProbeServer + ProbeClient over the fault-free
//     in-memory transport, client pumping the server cooperatively: the
//     full frame/protocol/session-machinery cost with zero network cost;
//   * served (tcp)  — the same over localhost TCP with the server on its
//     background thread, at 1, 8 and 64 client connections (one client
//     thread each): framing, loopback round trips and the readiness waits
//     of server and client.
//
// Every served report is checked byte-identical to the in-process report
// of its query as it arrives. The table gives sessions/s and the p50/p99
// session latency of every mode.

#include <algorithm>
#include <chrono>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "consentdb/consent/oracle.h"
#include "consentdb/core/consent_manager.h"
#include "consentdb/core/session_engine.h"
#include "consentdb/net/chaos_transport.h"
#include "consentdb/net/posix_transport.h"
#include "consentdb/net/probe_client.h"
#include "consentdb/net/probe_server.h"
#include "consentdb/util/rng.h"

using namespace consentdb;

namespace {

consent::SharedDatabase BuildDatabase(size_t rows) {
  using relational::Column;
  using relational::Schema;
  using relational::Tuple;
  using relational::Value;
  using relational::ValueType;

  consent::SharedDatabase sdb;
  auto check = [](const Status& s) { CONSENTDB_CHECK(s.ok(), s.ToString()); };
  check(sdb.CreateRelation("R", Schema({Column{"a", ValueType::kInt64},
                                        Column{"b", ValueType::kInt64}})));
  check(sdb.CreateRelation("S", Schema({Column{"b", ValueType::kInt64},
                                        Column{"c", ValueType::kInt64}})));
  const int64_t b_domain = 10;
  const int64_t a_domain = 24;
  for (size_t i = 0; i < rows; ++i) {
    auto r = sdb.InsertTuple(
        "R", Tuple{Value(static_cast<int64_t>(i) % a_domain),
                   Value(static_cast<int64_t>(i) % b_domain)},
        "owner" + std::to_string(i % 5), 0.5);
    CONSENTDB_CHECK(r.ok(), r.status().ToString());
    auto s = sdb.InsertTuple(
        "S", Tuple{Value(static_cast<int64_t>(i * 3 + 1) % b_domain),
                   Value(static_cast<int64_t>(i) % 4)},
        "owner" + std::to_string(i % 5), 0.5);
    CONSENTDB_CHECK(s.ok(), s.status().ToString());
  }
  return sdb;
}

double Seconds(std::chrono::steady_clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

// One mode's timing: wall seconds over all its sessions, and each
// session's latency.
struct Timing {
  double wall_s = 0;
  std::vector<double> latency_us;

  double SessionsPerSecond() const {
    return static_cast<double>(latency_us.size()) / wall_s;
  }
  double MeanUs() const { return wall_s * 1e6 / latency_us.size(); }
  // Nearest-rank percentile, q in (0, 1].
  double PercentileUs(double q) {
    std::sort(latency_us.begin(), latency_us.end());
    size_t rank = static_cast<size_t>(q * latency_us.size() + 0.999999);
    return latency_us[std::clamp<size_t>(rank, 1, latency_us.size()) - 1];
  }
};

// Runs `sessions` client sessions against `address`, session i asking
// query (offset + i) % |sqls|, and appends each latency to `latency_us`.
// Every report must match `expected` for its query.
void ServeLoop(Transport& transport, const std::string& address,
               const std::vector<std::string>& sqls,
               const std::vector<std::string>& expected,
               consent::ProbeOracle& oracle, size_t sessions, size_t offset,
               uint32_t client_id, const std::function<void()>& idle,
               std::vector<double>* latency_us) {
  net::ProbeClientOptions copts;
  copts.client_id = client_id;
  copts.idle = idle;
  net::ProbeClient client(transport, address, &oracle, copts);
  for (size_t i = 0; i < sessions; ++i) {
    const size_t q = (offset + i) % sqls.size();
    auto t0 = std::chrono::steady_clock::now();
    Result<std::string> json = client.Decide(sqls[q]);
    latency_us->push_back(Seconds(std::chrono::steady_clock::now() - t0) *
                          1e6);
    CONSENTDB_CHECK(json.ok(), json.status().ToString());
    CONSENTDB_CHECK(*json == expected[q],
                    "served report diverged from the in-process baseline");
  }
  CONSENTDB_CHECK(client.stats().reconnects == 0 && client.stats().stalls == 0,
                  "a fault-free loopback session reconnected");
}

// Served over localhost TCP: `clients` threads, each with its own
// connection, oracle and `per_client` sessions, against one server.
Timing ServeTcp(const consent::SharedDatabase& sdb,
                const provenance::PartialValuation& hidden,
                const std::vector<std::string>& sqls,
                const std::vector<std::string>& expected, size_t clients,
                size_t per_client) {
  core::EngineOptions eopts;
  eopts.num_threads = 1;
  core::SessionEngine engine(sdb, eopts);
  net::PosixTransport transport;
  net::ServerOptions sopts;
  // One tenant runs every client: let it use the whole in-flight budget.
  sopts.max_sessions_per_tenant = sopts.max_inflight_sessions;
  net::ProbeServer server(engine, transport, sopts);
  Status s = server.Listen("0");
  CONSENTDB_CHECK(s.ok(), s.ToString());
  server.Start();

  std::vector<std::vector<double>> latencies(clients);
  std::vector<std::thread> threads;
  threads.reserve(clients);
  auto t0 = std::chrono::steady_clock::now();
  for (size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      consent::ValuationOracle oracle(hidden);
      ServeLoop(transport, server.address(), sqls, expected, oracle,
                per_client, c, static_cast<uint32_t>(100 + c), {},
                &latencies[c]);
    });
  }
  for (std::thread& t : threads) t.join();
  Timing timing;
  timing.wall_s = Seconds(std::chrono::steady_clock::now() - t0);
  server.Shutdown(1'000'000'000);
  for (const std::vector<double>& l : latencies) {
    timing.latency_us.insert(timing.latency_us.end(), l.begin(), l.end());
  }
  return timing;
}

}  // namespace

int main() {
  bench::BenchReport report("ext_probe_server");
  const size_t rows = bench::Scaled(80);
  // Sessions are cheap (~tens of us); keep enough of them that the timed
  // sections stay in the milliseconds even in quick mode, or the trajectory
  // comparison drowns in scheduler noise. At full scale every mode has
  // ~1000 samples, so p99 has ten beyond it.
  const size_t mem_sessions = bench::Scaled(1000);
  const size_t tcp_sessions = bench::Scaled(1000);
  const size_t tcp_clients[] = {1, 8, 64};

  std::vector<std::string> sqls;
  for (int k = 0; k < 4; ++k) {
    sqls.push_back(
        "SELECT DISTINCT r.a FROM R r, S s WHERE r.b = s.b AND s.c = " +
        std::to_string(k));
  }

  consent::SharedDatabase sdb = BuildDatabase(rows);
  Rng rng(4242);
  const provenance::PartialValuation hidden = sdb.pool().SampleValuation(rng);
  std::cout << "=== Extension: probe server overhead (rows=" << rows
            << " per relation, mem sessions=" << mem_sessions
            << ", tcp sessions per client count=" << tcp_sessions
            << ") ===\n\n";

  // --- In-process baseline: shared ledger, full pipeline per session ------
  core::ConsentManager manager(sdb);
  consent::ConsentLedger baseline_ledger;
  std::vector<std::string> expected;
  {
    // The expected per-query reports (first wave, also warms the ledger).
    consent::ValuationOracle oracle(hidden);
    for (const std::string& sql : sqls) {
      core::SessionOptions options;
      options.ledger = &baseline_ledger;
      Result<core::SessionReport> r = manager.DecideAll(sql, oracle, options);
      CONSENTDB_CHECK(r.ok(), r.status().ToString());
      expected.push_back(r.value().ToJson());
    }
  }
  // The timed in-process mode is the engine itself (plan + provenance
  // caches, shared ledger) — the same machinery the server drives — so the
  // served deltas isolate the protocol and transport, not caching.
  Timing inproc;
  {
    core::EngineOptions eopts;
    eopts.num_threads = 1;
    core::SessionEngine engine(sdb, eopts);
    consent::ValuationOracle oracle(hidden);
    auto t0 = std::chrono::steady_clock::now();
    for (size_t i = 0; i < mem_sessions; ++i) {
      auto s0 = std::chrono::steady_clock::now();
      core::SessionRequest request;
      request.sql = sqls[i % sqls.size()];
      request.oracle = &oracle;
      Result<core::SessionReport> r = engine.Submit(std::move(request)).get();
      CONSENTDB_CHECK(r.ok(), r.status().ToString());
      CONSENTDB_CHECK(r.value().ToJson() == expected[i % sqls.size()],
                      "engine report diverged from the manager baseline");
      inproc.latency_us.push_back(
          Seconds(std::chrono::steady_clock::now() - s0) * 1e6);
    }
    inproc.wall_s = Seconds(std::chrono::steady_clock::now() - t0);
  }

  // --- Served, in-memory transport (protocol cost, no network) ------------
  Timing mem;
  {
    core::EngineOptions eopts;
    eopts.num_threads = 1;
    core::SessionEngine engine(sdb, eopts);
    net::ChaosTransport transport(net::ChaosPlan{}, RealClock());
    net::ProbeServer server(engine, transport);
    Status s = server.Listen("bench");
    CONSENTDB_CHECK(s.ok(), s.ToString());
    consent::ValuationOracle oracle(hidden);
    auto t0 = std::chrono::steady_clock::now();
    ServeLoop(transport, "bench", sqls, expected, oracle, mem_sessions, 0,
              /*client_id=*/1, [&server] { server.Poll(); }, &mem.latency_us);
    mem.wall_s = Seconds(std::chrono::steady_clock::now() - t0);
    server.Shutdown();
  }

  // --- Served, localhost TCP, background server thread --------------------
  std::vector<Timing> tcp;
  for (size_t clients : tcp_clients) {
    const size_t per_client =
        std::max<size_t>(4, (tcp_sessions + clients - 1) / clients);
    tcp.push_back(ServeTcp(sdb, hidden, sqls, expected, clients, per_client));
  }

  bench::Table table(
      {"mode", "sessions", "wall ms", "sess/s", "p50 us", "p99 us"});
  table.PrintHeader();
  auto row = [&table](const std::string& mode, Timing& t) {
    table.PrintRow(mode, {std::to_string(t.latency_us.size()),
                          bench::FormatMean(t.wall_s * 1e3),
                          bench::FormatMean(t.SessionsPerSecond()),
                          bench::FormatMean(t.PercentileUs(0.5)),
                          bench::FormatMean(t.PercentileUs(0.99))});
  };
  row("in-process", inproc);
  row("served (mem)", mem);
  for (size_t i = 0; i < tcp.size(); ++i) {
    row("served (tcp) x" + std::to_string(tcp_clients[i]), tcp[i]);
  }

  report.AddResult("inprocess/wall", inproc.wall_s, "seconds");
  report.AddResult("served_mem/wall", mem.wall_s, "seconds");
  report.AddResult("served_mem/overhead_us_per_session",
                   mem.MeanUs() - inproc.MeanUs(), "us");
  for (size_t i = 0; i < tcp.size(); ++i) {
    const std::string prefix = "served_tcp/c" + std::to_string(tcp_clients[i]);
    report.AddResult(prefix + "/wall", tcp[i].wall_s, "seconds");
    report.AddResult(prefix + "/sessions_per_s", tcp[i].SessionsPerSecond(),
                     "sessions/s");
    report.AddResult(prefix + "/p50_us", tcp[i].PercentileUs(0.5), "us");
    report.AddResult(prefix + "/p99_us", tcp[i].PercentileUs(0.99), "us");
  }
  report.Emit();
  std::cout << "\nexpected shape: served (mem) tracks in-process closely — "
               "the frame codec and\nsession machinery cost microseconds — "
               "and one tcp client adds a few loopback\nround trips per "
               "session; more clients raise sessions/s until the one server\n"
               "thread saturates, and latency then grows with the queue.\n";
  return 0;
}
