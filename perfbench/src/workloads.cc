#include "workloads.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <memory>
#include <utility>

#include "consentdb/consent/oracle.h"
#include "consentdb/consent/shared_database.h"
#include "consentdb/consent/wal.h"
#include "consentdb/core/consent_manager.h"
#include "consentdb/core/session_engine.h"
#include "consentdb/eval/evaluate.h"
#include "consentdb/eval/provenance_profile.h"
#include "consentdb/net/posix_transport.h"
#include "consentdb/net/probe_client.h"
#include "consentdb/net/probe_server.h"
#include "consentdb/query/classify.h"
#include "consentdb/query/optimize.h"
#include "consentdb/query/parser.h"
#include "consentdb/strategy/evaluation_state.h"
#include "consentdb/strategy/runner.h"
#include "consentdb/util/io.h"
#include "consentdb/util/transport.h"
#include "datasets.h"
#include "ref_kernel.h"
#include "reference_eval.h"

namespace perfbench {

namespace cdb = consentdb;
using cdb::consent::SharedDatabase;
using cdb::core::SessionEngine;
using cdb::core::SessionReport;

namespace {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Linear-interpolation quantile (the "inclusive" method).
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

const char* kWalPath = "ledger.wal";

// Every run measures at least this many rounds; probes_per_session is taken
// over exactly these.
constexpr uint64_t kProbeRounds = 64;

// Sums of what the traced rounds measured, turned into per-layer metrics at
// the end of the run. Stage times are per session; counts per session too.
struct TraceAcc {
  uint64_t staged = 0;  // sessions driven stage by stage
  double insert_ns = 0, resolve_ns = 0, state_ns = 0, select_ns = 0,
         loop_ns = 0, report_ns = 0;
  // Miss-path stages, called directly on the session's query and database
  // state (what the provenance cache saves on a hit).
  double parse_ns = 0, optimize_ns = 0, annotate_ns = 0, profile_ns = 0,
         classify_ns = 0;
  double output_tuples = 0, dnf_literals = 0;
  uint64_t staged_probes = 0;
  uint64_t prov_hits = 0, prov_lookups = 0;
  // Untraced sessions run in the same process, paired index by index with
  // the staged ones.
  uint64_t plain = 0;
  double plain_ns = 0;
  double plain_wait_ns = 0;  // time the client waited for the result
  uint64_t ledger_hits = 0, ledger_probes = 0;
  uint64_t net_bytes = 0, idle_reads = 0;
  double wal_bytes = 0, wal_answers = 0, recover_ns = 0;
  uint64_t recovers = 0;
};

// Shared state of one benchmark run.
struct Ctx {
  RefKernel kernel;
  uint64_t kernel_checksum = 0;
  bool measuring = false;  // false during the warm-up
  bool trace = false;
  std::vector<double> session_ns;
  std::vector<double> kernel_ns;
  // Per measured round: mean session time over the round's query mix and
  // the median kernel time measured between those sessions.
  std::vector<double> round_session_ns;
  std::vector<double> round_kernel_ns;
  // Every measured session over the median kernel time of its round.
  std::vector<double> session_norm;
  size_t round_begin = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  // probes_per_session covers the first kProbeRounds measured rounds only,
  // so it is exact for a seed whatever the run length.
  uint64_t rounds = 0;
  uint64_t probes = 0;
  uint64_t probe_sessions = 0;
  bool correct = true;
  std::string first_error;
  TraceAcc acc;

  void CheckFailed(const std::string& what) {
    if (correct) first_error = what;
    correct = false;
  }
  void SessionFailed(const std::string& what) {
    if (measuring) ++failed;
    if (first_error.empty()) first_error = what;
  }
  // Records a finished session and runs the reference kernel beside it.
  void Record(int64_t ns, size_t num_probes) {
    const int64_t k = kernel.TimeOnce();
    if (kernel_checksum == 0) kernel_checksum = kernel.checksum();
    if (kernel.checksum() != kernel_checksum) {
      CheckFailed("reference kernel checksum changed");
    }
    if (!measuring) return;
    session_ns.push_back(static_cast<double>(ns));
    kernel_ns.push_back(static_cast<double>(k));
    if (rounds < kProbeRounds) {
      probes += num_probes;
      ++probe_sessions;
    }
  }
  void BeginRound() { round_begin = session_ns.size(); }
  void EndRound() {
    if (!measuring) return;
    ++rounds;
    if (session_ns.size() == round_begin) return;
    const auto b = session_ns.begin() + static_cast<ptrdiff_t>(round_begin);
    double sum = 0;
    for (auto it = b; it != session_ns.end(); ++it) sum += *it;
    const double kernel = Quantile(
        std::vector<double>(
            kernel_ns.begin() + static_cast<ptrdiff_t>(round_begin),
            kernel_ns.end()),
        0.5);
    round_session_ns.push_back(
        sum / static_cast<double>(session_ns.size() - round_begin));
    round_kernel_ns.push_back(kernel);
    for (auto it = b; it != session_ns.end(); ++it) {
      session_norm.push_back(*it / kernel);
    }
  }
};

// --- Stage-by-stage session, timed from outside the engine -----------------

struct Staged {
  SessionReport report;
  int64_t resolve_ns = 0, state_ns = 0, select_ns = 0, loop_ns = 0,
          report_ns = 0;
  std::string json;
};

// Drives one session through the engine's public serving hooks and the
// strategy layer, timing each call: PrepareForServe, EvaluationState,
// SelectSessionStrategy, RunToCompletion, AssembleReport + ToJson.
bool RunStaged(SessionEngine& engine, const SharedDatabase& sdb,
               const std::string& sql, cdb::consent::ProbeOracle& oracle,
               TraceAcc* acc, Staged* out, std::string* error) {
  const SessionEngine::CacheStats before = engine.cache_stats();
  cdb::core::SessionRequest request;
  request.sql = sql;
  int64_t t0 = NowNs();
  auto prepared = engine.PrepareForServe(request);
  int64_t t1 = NowNs();
  if (!prepared.ok()) {
    *error = prepared.status().ToString();
    return false;
  }
  out->resolve_ns = t1 - t0;
  const SessionEngine::CacheStats after = engine.cache_stats();
  acc->prov_hits += after.provenance_hits - before.provenance_hits;
  acc->prov_lookups += (after.provenance_hits + after.provenance_misses) -
                       (before.provenance_hits + before.provenance_misses);

  const cdb::core::SessionOptions& options = engine.base_session_options();
  const cdb::core::PreparedSession& ps = **prepared;
  t0 = NowNs();
  std::vector<double> pi = sdb.pool().Probabilities();
  cdb::strategy::EvaluationState state(ps.provenance.dnfs, pi);
  t1 = NowNs();
  out->state_ns = t1 - t0;

  t0 = NowNs();
  auto sel = cdb::core::internal::SelectSessionStrategy(
      options.algorithm, ps.provenance, ps.single, options, pi, &state);
  t1 = NowNs();
  if (!sel.ok()) {
    *error = sel.status().ToString();
    return false;
  }
  out->select_ns = t1 - t0;

  cdb::consent::ConsentLedger* ledger = engine.shared_ledger();
  if (ledger == nullptr) {
    *error = "engine has no shared ledger";
    return false;
  }
  cdb::consent::LedgerOracle via(*ledger, oracle);
  t0 = NowNs();
  cdb::strategy::ProbeRun run = cdb::strategy::RunToCompletion(
      state, *sel->strategy,
      [&via](cdb::provenance::VarId x) { return via.Probe(x); });
  t1 = NowNs();
  out->loop_ns = t1 - t0;

  cdb::core::internal::ProbePhase phase;
  phase.num_probes = run.num_probes;
  phase.outcomes = std::move(run.outcomes);
  phase.trace = std::move(run.trace);
  t0 = NowNs();
  out->report = cdb::core::internal::AssembleReport(sdb, ps, *sel,
                                                    std::move(phase), options);
  out->json = out->report.ToJson();
  t1 = NowNs();
  out->report_ns = t1 - t0;

  acc->resolve_ns += static_cast<double>(out->resolve_ns);
  acc->state_ns += static_cast<double>(out->state_ns);
  acc->select_ns += static_cast<double>(out->select_ns);
  acc->loop_ns += static_cast<double>(out->loop_ns);
  acc->report_ns += static_cast<double>(out->report_ns);
  acc->staged_probes += out->report.num_probes;
  ++acc->staged;
  return true;
}

// The miss path of a session, called stage by stage on the current database
// state: parse, optimize, annotated evaluation, DNF profile, classify.
bool RunMissPath(const SharedDatabase& sdb, const std::string& sql,
                 TraceAcc* acc, std::string* error) {
  int64_t t0 = NowNs();
  auto plan = cdb::query::ParseQuery(sql);
  int64_t t1 = NowNs();
  if (!plan.ok()) {
    *error = plan.status().ToString();
    return false;
  }
  acc->parse_ns += static_cast<double>(t1 - t0);
  t0 = NowNs();
  auto effective = cdb::query::Optimize(*plan, sdb.database());
  t1 = NowNs();
  if (!effective.ok()) {
    *error = effective.status().ToString();
    return false;
  }
  acc->optimize_ns += static_cast<double>(t1 - t0);
  t0 = NowNs();
  auto annotated = cdb::eval::EvaluateAnnotated(*effective, sdb);
  t1 = NowNs();
  if (!annotated.ok()) {
    *error = annotated.status().ToString();
    return false;
  }
  acc->annotate_ns += static_cast<double>(t1 - t0);
  t0 = NowNs();
  auto profile = cdb::eval::ProfileProvenance(*annotated);
  t1 = NowNs();
  if (!profile.ok()) {
    *error = profile.status().ToString();
    return false;
  }
  acc->profile_ns += static_cast<double>(t1 - t0);
  t0 = NowNs();
  cdb::query::QueryProfile cls = cdb::query::Classify(**effective);
  if (*effective != *plan) cls = cdb::query::Classify(**plan);
  t1 = NowNs();
  acc->classify_ns += static_cast<double>(t1 - t0);
  acc->output_tuples += static_cast<double>(annotated->size());
  acc->dnf_literals += static_cast<double>(profile->total_dnf_literals);
  return true;
}

// Replays the in-memory WAL into a fresh ledger and checks it against the
// engine's ledger and the hidden valuation.
void CheckWal(cdb::CrashingEnv& env, const SessionEngine& engine,
              const HiddenValuation& hidden, Ctx* ctx) {
  cdb::consent::ConsentLedger fresh;
  const int64_t t0 = NowNs();
  auto stats = cdb::consent::RecoverLedger(&env, kWalPath, &fresh);
  const int64_t t1 = NowNs();
  if (!stats.ok()) {
    ctx->CheckFailed("WAL recovery failed: " + stats.status().ToString());
    return;
  }
  const auto recovered = fresh.Answers();
  if (recovered != engine.ledger().Answers()) {
    ctx->CheckFailed("recovered ledger differs from the engine ledger");
  }
  for (const auto& [x, answer] : recovered) {
    if (answer != hidden(static_cast<uint32_t>(x))) {
      ctx->CheckFailed("recovered answer for x" + std::to_string(x) +
                       " disagrees with the hidden valuation");
      break;
    }
  }
  auto bytes = env.ReadFileToString(kWalPath);
  if (bytes.ok() && stats->wal_records > 0) {
    ctx->acc.wal_bytes += static_cast<double>(bytes->size());
    ctx->acc.wal_answers += static_cast<double>(stats->wal_records);
  }
  ctx->acc.recover_ns += static_cast<double>(t1 - t0);
  ++ctx->acc.recovers;
}

// --- Workloads --------------------------------------------------------------

class Workload {
 public:
  virtual ~Workload() = default;
  // Builds the database, opens engine / WAL / server and runs the warm-up
  // (with every check). False when set-up itself failed.
  virtual bool Setup(Ctx* ctx, std::string* error) = 0;
  // One whole round of untraced sessions.
  virtual void Round(Ctx* ctx) = 0;
  // One whole round of the same sessions, driven stage by stage.
  virtual void TracedRound(Ctx* ctx) = 0;
  // End-of-run checks.
  virtual void Finish(Ctx* ctx) = 0;
};

// sql-cold: every session writes a small seeded batch, then runs one of the
// recruitment queries, so each session misses both caches and re-runs
// annotated evaluation. A round is one epoch: a fresh copy of the base
// database with a fresh engine and WAL, then kSessionsPerEpoch sessions, so
// growth is bounded. Epochs cycle through kVariants seeded variants, each
// with its own base database, write batches and hidden valuation, so the
// figures average over many wirings and answer patterns while a variant's
// epochs always repeat the same operations.
class ColdWorkload : public Workload {
 public:
  explicit ColdWorkload(uint64_t seed) : seed_(seed) {}

  bool Setup(Ctx* ctx, std::string* error) override {
    variants_.resize(kVariants);
    for (uint64_t v = 0; v < kVariants; ++v) {
      const uint64_t vseed = seed_ * kVariants + v;
      if (!BuildRecruitment(vseed, kScale, &variants_[v].base, error)) {
        return false;
      }
      variants_[v].batches =
          RecruitmentBatches(vseed, kScale, kSessionsPerEpoch);
    }
    queries_ = RecruitmentQueries();
    // Reference results of every session of every variant, each from the
    // database state that session will see (every epoch of a variant
    // repeats the same writes), so the measured epochs all do the same work.
    for (Variant& variant : variants_) {
      SharedDatabase sdb = variant.base;
      for (size_t i = 0; i < kSessionsPerEpoch; ++i) {
        Snapshot snap;
        if (!Insert(sdb, variant.batches[i], error) ||
            !snap.Read(sdb, RecruitmentRelations(), error)) {
          return false;
        }
        const QueryDef& q = queries_[i % queries_.size()];
        variant.expected.push_back(q.reference(snap));
      }
    }
    for (uint64_t v = 0; v < kWarmupEpochs; ++v) {
      if (!RunEpoch(ctx, v, /*traced=*/false, error)) return false;
    }
    return ctx->correct && ctx->first_error.empty();
  }

  void Round(Ctx* ctx) override {
    std::string error;
    if (!RunEpoch(ctx, epoch_++ % kVariants, false, &error)) {
      ctx->SessionFailed(error);
    }
  }
  // Reruns the variant of the round before, so the traced and untraced
  // sessions are the same ones.
  void TracedRound(Ctx* ctx) override {
    std::string error;
    if (!RunEpoch(ctx, (epoch_ - 1) % kVariants, true, &error)) {
      ctx->SessionFailed(error);
    }
  }
  void Finish(Ctx*) override {}

 private:
  static constexpr size_t kScale = 8;
  static constexpr size_t kSessionsPerEpoch = 12;
  static constexpr uint64_t kVariants = kProbeRounds;
  static constexpr uint64_t kWarmupEpochs = 4;

  struct Variant {
    SharedDatabase base;
    std::vector<std::vector<SeededInsert>> batches;
    std::vector<Expected> expected;  // reference result of session i
  };

  struct Epoch {
    SharedDatabase sdb;
    cdb::CrashingEnv env;
    std::unique_ptr<cdb::consent::WalWriter> wal;
    std::unique_ptr<SessionEngine> engine;
  };

  bool RunEpoch(Ctx* ctx, uint64_t v, bool traced, std::string* error) {
    Variant& variant = variants_[v];
    const HiddenValuation hidden(seed_ * kVariants + v);
    Epoch e;
    e.sdb = variant.base;
    auto wal = cdb::consent::WalWriter::Open(&e.env, kWalPath);
    if (!wal.ok()) {
      *error = wal.status().ToString();
      return false;
    }
    e.wal = std::move(*wal);
    cdb::core::EngineOptions eo;
    eo.num_threads = 1;
    eo.wal = e.wal.get();
    e.engine = std::make_unique<SessionEngine>(e.sdb, eo);
    HiddenOracle oracle(hidden);
    const uint64_t hits0 = e.engine->ledger().hits();
    const uint64_t probes0 = e.engine->ledger().oracle_probes() + hits0;
    for (size_t i = 0; i < kSessionsPerEpoch; ++i) {
      const QueryDef& q = queries_[i % queries_.size()];
      if (ctx->measuring) ++ctx->attempted;
      SessionReport report;
      bool ok = true;
      if (!traced) {
        const int64_t t0 = NowNs();
        ok = Insert(e.sdb, variant.batches[i], error);
        int64_t t_sub = 0, t1 = 0;
        if (ok) {
          cdb::core::SessionRequest request;
          request.sql = q.sql;
          request.oracle = &oracle;
          auto future = e.engine->Submit(std::move(request));
          t_sub = NowNs();
          auto r = future.get();
          t1 = NowNs();
          if (r.ok()) {
            report = std::move(*r);
          } else {
            ok = false;
            *error = r.status().ToString();
          }
        }
        if (!ok) {
          ctx->SessionFailed(*error);
          continue;
        }
        ctx->Record(t1 - t0, report.num_probes);
        if (ctx->measuring && ctx->trace) {
          ++ctx->acc.plain;
          ctx->acc.plain_ns += static_cast<double>(t1 - t0);
          ctx->acc.plain_wait_ns += static_cast<double>(t1 - t_sub);
        }
      } else {
        const int64_t t0 = NowNs();
        ok = Insert(e.sdb, variant.batches[i], error);
        const int64_t t1 = NowNs();
        Staged staged;
        ok = ok && RunStaged(*e.engine, e.sdb, q.sql, oracle, &ctx->acc,
                             &staged, error) &&
             RunMissPath(e.sdb, q.sql, &ctx->acc, error);
        if (!ok) {
          ctx->SessionFailed(*error);
          continue;
        }
        ctx->acc.insert_ns += static_cast<double>(t1 - t0);
        report = std::move(staged.report);
      }
      const std::string why = CheckReport(report, variant.expected[i], hidden);
      if (!why.empty()) {
        ctx->CheckFailed("sql-cold session " + std::to_string(i) + ": " + why);
        return true;
      }
    }
    if (ctx->measuring && !traced && ctx->trace) {
      ctx->acc.ledger_hits += e.engine->ledger().hits() - hits0;
      ctx->acc.ledger_probes +=
          e.engine->ledger().oracle_probes() + e.engine->ledger().hits() -
          probes0;
    }
    CheckWal(e.env, *e.engine, hidden, ctx);
    return true;
  }

  bool Insert(SharedDatabase& sdb, const std::vector<SeededInsert>& batch,
              std::string* error) {
    for (const SeededInsert& ins : batch) {
      auto var = sdb.InsertTuple(ins.relation, ins.tuple, ins.owner,
                                 ins.probability);
      if (!var.ok()) {
        *error = var.status().ToString();
        return false;
      }
    }
    return true;
  }

  uint64_t seed_;
  uint64_t epoch_ = 0;
  std::vector<Variant> variants_;
  std::vector<QueryDef> queries_;
};

// The in-process warm workload: one engine over an unchanged database.
class WarmWorkload : public Workload {
 public:
  explicit WarmWorkload(uint64_t seed) : seed_(seed), hidden_(seed) {}

  bool Setup(Ctx* ctx, std::string* error) override {
    if (!Open(error)) return false;
    Round(ctx);
    Round(ctx);
    return ctx->correct && ctx->first_error.empty();
  }

  void Round(Ctx* ctx) override {
    const uint64_t hits0 = engine_->ledger().hits();
    const uint64_t probes0 = engine_->ledger().oracle_probes() + hits0;
    for (size_t qi = 0; qi < queries_.size(); ++qi) {
      if (ctx->measuring) ++ctx->attempted;
      cdb::core::SessionRequest request;
      request.sql = queries_[qi].sql;
      request.oracle = oracle_.get();
      const int64_t t0 = NowNs();
      auto future = engine_->Submit(std::move(request));
      const int64_t t_sub = NowNs();
      auto r = future.get();
      const int64_t t1 = NowNs();
      if (!r.ok()) {
        ctx->SessionFailed(r.status().ToString());
        continue;
      }
      ctx->Record(t1 - t0, r->num_probes);
      if (ctx->measuring && ctx->trace) {
        ++ctx->acc.plain;
        ctx->acc.plain_ns += static_cast<double>(t1 - t0);
        ctx->acc.plain_wait_ns += static_cast<double>(t1 - t_sub);
      }
      const std::string why = CheckReport(*r, expected_[qi], hidden_);
      if (!why.empty()) ctx->CheckFailed("sql-warm: " + why);
    }
    if (ctx->measuring && ctx->trace) {
      ctx->acc.ledger_hits += engine_->ledger().hits() - hits0;
      ctx->acc.ledger_probes += engine_->ledger().oracle_probes() +
                                engine_->ledger().hits() - probes0;
    }
  }

  void TracedRound(Ctx* ctx) override {
    // Staged sessions first, back to back like the untraced ones; the
    // miss-path calls come after, so their evaluation work does not sit
    // between two timed sessions.
    std::string error;
    for (size_t qi = 0; qi < queries_.size(); ++qi) {
      Staged staged;
      if (!RunStaged(*engine_, sdb_, queries_[qi].sql, *oracle_, &ctx->acc,
                     &staged, &error)) {
        ctx->SessionFailed(error);
        continue;
      }
      const std::string why = CheckReport(staged.report, expected_[qi],
                                          oracle_->hidden());
      if (!why.empty()) ctx->CheckFailed(name() + " (staged): " + why);
    }
    for (size_t qi = 0; qi < queries_.size(); ++qi) {
      if (!RunMissPath(sdb_, queries_[qi].sql, &ctx->acc, &error) ||
          !TimeDuplicateInsert(qi, ctx, &error)) {
        ctx->SessionFailed(error);
      }
    }
  }

  void Finish(Ctx* ctx) override {
    CheckWal(env_, *engine_, hidden_, ctx);
  }

 protected:
  virtual std::string name() const { return "sql-warm"; }
  virtual JoinShape WarmShape() const { return WarmJoinShape(); }

  // The set-up both warm workloads share: the join database with its
  // queries and reference results, the WAL, the engine and the oracle.
  bool Open(std::string* error) {
    if (!BuildJoinDatabase(seed_, WarmShape(), &sdb_, error)) return false;
    queries_ = JoinQueries(WarmShape());
    Snapshot snap;
    if (!snap.Read(sdb_, JoinRelations(), error)) return false;
    for (const QueryDef& q : queries_) expected_.push_back(q.reference(snap));
    auto wal = cdb::consent::WalWriter::Open(&env_, kWalPath);
    if (!wal.ok()) {
      *error = wal.status().ToString();
      return false;
    }
    wal_ = std::move(*wal);
    cdb::core::EngineOptions eo;
    eo.num_threads = 1;
    eo.wal = wal_.get();
    engine_ = std::make_unique<SessionEngine>(sdb_, eo);
    oracle_ = std::make_unique<HiddenOracle>(hidden_);
    return true;
  }

  // A read-only workload makes no write, so its consent.insert_ns is the
  // write path's duplicate check: re-inserting a stored tuple, which keeps
  // the tuple's annotation and leaves the database version (and with it
  // every cache entry) unchanged.
  bool TimeDuplicateInsert(size_t qi, Ctx* ctx, std::string* error) {
    const std::string relation = "R";
    auto rel = sdb_.database().GetRelation(relation);
    if (!rel.ok() || (*rel)->size() == 0) {
      *error = "no stored tuple to re-insert";
      return false;
    }
    const uint64_t version = sdb_.version();
    const cdb::relational::Tuple t = (*rel)->tuple(qi % (*rel)->size());
    const int64_t t0 = NowNs();
    auto var = sdb_.InsertTuple(relation, t);
    const int64_t t1 = NowNs();
    if (!var.ok() || sdb_.version() != version) {
      *error = "re-inserting a stored tuple changed the database";
      return false;
    }
    ctx->acc.insert_ns += static_cast<double>(t1 - t0);
    return true;
  }

  uint64_t seed_;
  HiddenValuation hidden_;
  SharedDatabase sdb_;
  std::vector<QueryDef> queries_;
  std::vector<Expected> expected_;
  cdb::CrashingEnv env_;
  std::unique_ptr<cdb::consent::WalWriter> wal_;
  std::unique_ptr<SessionEngine> engine_;
  std::unique_ptr<HiddenOracle> oracle_;
};

// What the client moved over the Transport seam: bytes both ways, reads
// that found nothing (each followed by one idle nap today), and the time
// from such an empty read to the client's next read.
struct NetCounters {
  uint64_t bytes = 0;
  uint64_t idle_reads = 0;
  double wait_ns = 0;
};

class CountingConnection : public cdb::Connection {
 public:
  CountingConnection(std::unique_ptr<cdb::Connection> inner, NetCounters* net)
      : inner_(std::move(inner)), net_(net) {}
  cdb::Result<size_t> Write(std::string_view data) override {
    auto n = inner_->Write(data);
    if (n.ok()) net_->bytes += *n;
    return n;
  }
  cdb::Result<std::string> Read() override {
    if (idle_since_ != 0) {
      net_->wait_ns += static_cast<double>(NowNs() - idle_since_);
      idle_since_ = 0;
    }
    auto r = inner_->Read();
    if (r.ok()) {
      net_->bytes += r->size();
      if (r->empty()) {
        ++net_->idle_reads;
        idle_since_ = NowNs();
      }
    }
    return r;
  }
  void Close() override { inner_->Close(); }

 private:
  std::unique_ptr<cdb::Connection> inner_;
  NetCounters* net_;
  int64_t idle_since_ = 0;
};

class CountingTransport : public cdb::Transport {
 public:
  CountingTransport(cdb::Transport& inner, NetCounters* net)
      : inner_(inner), net_(net) {}
  cdb::Result<std::unique_ptr<cdb::Listener>> Listen(
      const std::string& address) override {
    return inner_.Listen(address);
  }
  cdb::Result<std::unique_ptr<cdb::Connection>> Connect(
      const std::string& address) override {
    auto conn = inner_.Connect(address);
    if (!conn.ok()) return conn.status();
    return std::unique_ptr<cdb::Connection>(
        new CountingConnection(std::move(*conn), net_));
  }

 private:
  cdb::Transport& inner_;
  NetCounters* net_;
};

// served-tcp: warm-cache sessions served by ProbeServer on its own thread
// over loopback TCP; one ProbeClient on this thread answers probes from a
// local oracle with the default idle behaviour.
class ServedWorkload : public WarmWorkload {
 public:
  explicit ServedWorkload(uint64_t seed) : WarmWorkload(seed) {}
  ~ServedWorkload() override { Stop(); }

  bool Setup(Ctx* ctx, std::string* error) override {
    if (!Open(error)) return false;
    // The in-process reports every served report must equal, one per
    // (campaign valuation, query).
    cdb::core::ConsentManager manager(sdb_);
    for (uint64_t v = 0; v < kValuations; ++v) {
      valuations_.emplace_back(seed_ * kValuations + v);
    }
    for (const HiddenValuation& hidden : valuations_) {
      expected_json_.emplace_back();
      expected_probes_.emplace_back();
      for (size_t qi = 0; qi < queries_.size(); ++qi) {
        HiddenOracle oracle(hidden);
        auto r = manager.DecideAll(queries_[qi].sql, oracle);
        if (!r.ok()) {
          *error = r.status().ToString();
          return false;
        }
        const std::string why = CheckReport(*r, expected_[qi], hidden);
        if (!why.empty()) {
          *error = "in-process reference report: " + why;
          return false;
        }
        expected_json_.back().push_back(r->ToJson());
        expected_probes_.back().push_back(r->num_probes);
      }
    }
    counting_ = std::make_unique<CountingTransport>(tcp_, &net_);
    cdb::Transport& transport =
        ctx->trace ? static_cast<cdb::Transport&>(*counting_) : tcp_;
    server_ = std::make_unique<cdb::net::ProbeServer>(*engine_, tcp_);
    cdb::Status s = server_->Listen("0");
    if (!s.ok()) {
      *error = s.ToString();
      return false;
    }
    server_->Start();
    server_started_ = true;
    cdb::net::ProbeClientOptions co;
    co.client_id = 1;
    client_ = std::make_unique<cdb::net::ProbeClient>(
        transport, server_->address(), oracle_.get(), co);
    Round(ctx);
    Round(ctx);
    return ctx->correct && ctx->first_error.empty();
  }

  void Round(Ctx* ctx) override {
    // Each round is a fresh consent campaign with its own valuation: the
    // shared ledger forgets its answers and the WAL is compacted to an empty
    // snapshot, so every probe crosses the wire to the client again while
    // plans and provenance stay cached.
    engine_->shared_ledger()->Clear();
    const cdb::Status compacted = wal_->CompactTo({});
    if (!compacted.ok()) {
      ctx->CheckFailed("WAL compaction failed: " + compacted.ToString());
    }
    const size_t v = campaign_++ % kValuations;
    oracle_->Use(valuations_[v]);
    const uint64_t hits0 = engine_->ledger().hits();
    const uint64_t probes0 = engine_->ledger().oracle_probes() + hits0;
    for (size_t qi = 0; qi < queries_.size(); ++qi) {
      if (ctx->measuring) ++ctx->attempted;
      const int64_t t0 = NowNs();
      auto json = client_->Decide(queries_[qi].sql);
      const int64_t t1 = NowNs();
      if (!json.ok()) {
        ctx->SessionFailed(json.status().ToString());
        continue;
      }
      ctx->Record(t1 - t0, expected_probes_[v][qi]);
      if (ctx->measuring && ctx->trace) {
        ++ctx->acc.plain;
        ctx->acc.plain_ns += static_cast<double>(t1 - t0);
      }
      if (*json != expected_json_[v][qi]) {
        ctx->CheckFailed("served report differs from the in-process report");
      }
    }
    if (ctx->measuring && ctx->trace) {
      ctx->acc.ledger_hits += engine_->ledger().hits() - hits0;
      ctx->acc.ledger_probes += engine_->ledger().oracle_probes() +
                                engine_->ledger().hits() - probes0;
      ctx->acc.net_bytes += net_.bytes;
      ctx->acc.idle_reads += net_.idle_reads;
      ctx->acc.plain_wait_ns += net_.wait_ns;
    }
    net_ = NetCounters{};
  }

  void Finish(Ctx* ctx) override {
    Stop();
    const auto& st = client_->stats();
    if (st.reconnects != 0 || st.stalls != 0) {
      ctx->CheckFailed("client saw " + std::to_string(st.reconnects) +
                       " reconnects and " + std::to_string(st.stalls) +
                       " stalls");
    }
    CheckWal(env_, *engine_, oracle_->hidden(), ctx);
  }

 private:
  static constexpr uint64_t kValuations = kProbeRounds;

  std::string name() const override { return "served-tcp"; }
  JoinShape WarmShape() const override { return ServedJoinShape(); }

  void Stop() {
    if (server_started_) {
      server_->Shutdown(1'000'000'000);
      server_started_ = false;
    }
  }

  std::vector<HiddenValuation> valuations_;
  uint64_t campaign_ = 0;
  std::vector<std::vector<std::string>> expected_json_;
  std::vector<std::vector<size_t>> expected_probes_;
  cdb::net::PosixTransport tcp_;
  NetCounters net_;
  std::unique_ptr<CountingTransport> counting_;
  std::unique_ptr<cdb::net::ProbeServer> server_;
  bool server_started_ = false;
  std::unique_ptr<cdb::net::ProbeClient> client_;
};

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       uint64_t seed) {
  if (name == "sql-cold") return std::make_unique<ColdWorkload>(seed);
  if (name == "sql-warm") return std::make_unique<WarmWorkload>(seed);
  if (name == "served-tcp") return std::make_unique<ServedWorkload>(seed);
  return nullptr;
}

}  // namespace

bool IsWorkload(const std::string& name) {
  return name == "sql-cold" || name == "sql-warm" || name == "served-tcp";
}

RunOutcome RunWorkload(const RunOptions& options) {
  RunOutcome out;
  std::unique_ptr<Workload> w = MakeWorkload(options.workload, options.seed);
  if (w == nullptr) {
    out.error = "unknown workload " + options.workload;
    return out;
  }
  auto ctx = std::make_unique<Ctx>();
  ctx->trace = options.trace;
  std::string error;
  if (!w->Setup(ctx.get(), &error)) {
    out.error = "set-up failed: " + (error.empty() ? ctx->first_error : error);
    return out;
  }
  const double setup_s =
      static_cast<double>(NowNs() - options.process_start_ns) * 1e-9;
  ctx->measuring = true;
  const int64_t deadline =
      NowNs() + static_cast<int64_t>(options.seconds) * 1'000'000'000;
  while (ctx->rounds < kProbeRounds || NowNs() < deadline) {
    ctx->BeginRound();
    w->Round(ctx.get());
    ctx->EndRound();
    if (options.trace) w->TracedRound(ctx.get());
  }
  w->Finish(ctx.get());

  out.ok = true;
  out.correct = ctx->correct;
  out.error = ctx->first_error;
  out.attempted = ctx->attempted;
  out.failed = ctx->failed;
  if (ctx->round_session_ns.empty()) {
    out.ok = false;
    out.error = "no session completed";
    return out;
  }
  auto add = [&out](const char* name, double value, const char* unit) {
    out.metrics.push_back(Metric{name, value, unit});
  };
  // A round runs the workload's whole query mix, so a round's mean session
  // time weighs every query alike; the medians are over rounds.
  std::vector<double> round_norm;
  for (size_t i = 0; i < ctx->round_session_ns.size(); ++i) {
    round_norm.push_back(ctx->round_session_ns[i] / ctx->round_kernel_ns[i]);
  }
  const double session_ms = Quantile(ctx->round_session_ns, 0.5) * 1e-6;
  const double kernel_ns = Quantile(ctx->round_kernel_ns, 0.5);
  if (!options.trace) {
    add("session_norm", Quantile(round_norm, 0.5), "ref");
    add("probes_per_session",
        static_cast<double>(ctx->probes) /
            static_cast<double>(std::max<uint64_t>(1, ctx->probe_sessions)),
        "probes");
    add("setup_s", setup_s, "s");
    // The p99 is printed here, not gated: ten runs do not show it steady.
    out.note = "raw session_ms " + std::to_string(session_ms) +
               ", ref.kernel_ns " + std::to_string(kernel_ns) +
               ", session_p99_norm " +
               std::to_string(Quantile(ctx->session_norm, 0.99)) +
               ", rounds " + std::to_string(ctx->round_session_ns.size());
    return out;
  }
  const TraceAcc& a = ctx->acc;
  const double staged = std::max<double>(1, static_cast<double>(a.staged));
  const double plain = std::max<double>(1, static_cast<double>(a.plain));
  const bool cold = options.workload == "sql-cold";
  const double staged_sum =
      (cold ? a.insert_ns : 0) + a.resolve_ns + a.state_ns + a.select_ns +
      a.loop_ns + a.report_ns;
  add("query.parse_ns", a.parse_ns / staged, "ns");
  add("query.optimize_ns", a.optimize_ns / staged, "ns");
  add("query.classify_ns", a.classify_ns / staged, "ns");
  add("eval.annotate_ns", a.annotate_ns / staged, "ns");
  add("eval.profile_ns", a.profile_ns / staged, "ns");
  add("eval.output_tuples", a.output_tuples / staged, "tuples");
  add("eval.dnf_literals", a.dnf_literals / staged, "literals");
  add("consent.insert_ns", a.insert_ns / staged, "ns");
  add("ledger.hits", static_cast<double>(a.ledger_hits) / plain, "probes");
  add("ledger.probes", static_cast<double>(a.ledger_probes) / plain,
      "probes");
  add("wal.bytes_per_answer",
      a.wal_answers > 0 ? a.wal_bytes / a.wal_answers : 0, "B");
  add("wal.recover_ns",
      a.recovers > 0 ? a.recover_ns / static_cast<double>(a.recovers) : 0,
      "ns");
  add("strategy.state_build_ns", a.state_ns / staged, "ns");
  add("strategy.select_ns", a.select_ns / staged, "ns");
  add("strategy.probe_loop_ns", a.loop_ns / staged, "ns");
  add("strategy.ns_per_probe",
      a.loop_ns / std::max<double>(1, static_cast<double>(a.staged_probes)),
      "ns");
  add("engine.resolve_ns", a.resolve_ns / staged, "ns");
  add("engine.prov_hits", static_cast<double>(a.prov_hits) / staged,
      "lookups");
  add("engine.prov_lookups", static_cast<double>(a.prov_lookups) / staged,
      "lookups");
  add("core.report_ns", a.report_ns / staged, "ns");
  add("core.unattributed_ns", a.plain_ns / plain - staged_sum / staged, "ns");
  add("net.bytes_per_session", static_cast<double>(a.net_bytes) / plain, "B");
  add("net.client_idle_reads_per_session",
      static_cast<double>(a.idle_reads) / plain, "reads");
  add("net.client_wait_ns_per_session", a.plain_wait_ns / plain, "ns");
  add("session_ms", session_ms, "ms");
  add("session_p99_ms", Quantile(ctx->session_ns, 0.99) * 1e-6, "ms");
  add("ref.kernel_ns", kernel_ns, "ns");
  return out;
}

}  // namespace perfbench
