// Self-test of the correctness checks: each check must reject a report that
// was deliberately altered in the way it guards against.

#include <iostream>

#include "consentdb/core/consent_manager.h"
#include "consentdb/core/session_engine.h"
#include "datasets.h"
#include "reference_eval.h"
#include "workloads.h"

namespace perfbench {

namespace cdb = consentdb;

namespace {

// The union query over vacancies: a hire at a vacancy no branch returned
// before is a new output tuple, so a cached pre-insert report is visibly
// stale.
constexpr size_t kUnionQuery = 1;

bool Expect(bool fired, const std::string& what, const std::string& why,
            int* misses) {
  std::cout << (fired ? "ok    " : "MISSED") << "  " << what;
  if (!why.empty()) std::cout << "  [" << why << "]";
  std::cout << "\n";
  if (!fired) ++*misses;
  return fired;
}

}  // namespace

int RunSelfTest() {
  int misses = 0;
  const uint64_t seed = 7;
  cdb::consent::SharedDatabase sdb;
  std::string error;
  if (!BuildRecruitment(seed, 6, &sdb, &error)) {
    std::cout << "set-up failed: " << error << "\n";
    return 1;
  }
  const HiddenValuation hidden(seed);
  const QueryDef q = RecruitmentQueries()[kUnionQuery];
  Snapshot snap;
  if (!snap.Read(sdb, RecruitmentRelations(), &error)) {
    std::cout << "snapshot failed: " << error << "\n";
    return 1;
  }
  const Expected expected = q.reference(snap);

  cdb::core::EngineOptions eo;
  eo.num_threads = 1;
  cdb::core::SessionEngine engine(sdb, eo);
  HiddenOracle oracle(hidden);
  auto run = [&]() -> cdb::Result<cdb::core::SessionReport> {
    cdb::core::SessionRequest request;
    request.sql = q.sql;
    request.oracle = &oracle;
    return engine.Submit(std::move(request)).get();
  };
  auto report = run();
  if (!report.ok() || report->tuples.empty() || report->trace.empty()) {
    std::cout << "baseline session failed or is empty\n";
    return 1;
  }
  std::string why = CheckReport(*report, expected, hidden);
  Expect(why.empty(), "unaltered report passes", why, &misses);

  {
    cdb::core::SessionReport r = *report;
    auto& t = r.tuples.front();
    t.shareable = !t.shareable;
    t.verdict = t.shareable ? cdb::core::TupleConsent::Verdict::kShareable
                            : cdb::core::TupleConsent::Verdict::kNotShareable;
    why = CheckReport(r, expected, hidden);
    Expect(!why.empty(), "flipped verdict is rejected", why, &misses);
  }
  {
    cdb::core::SessionReport r = *report;
    r.tuples.erase(r.tuples.begin());
    why = CheckReport(r, expected, hidden);
    Expect(!why.empty(), "dropped tuple is rejected", why, &misses);
  }
  {
    cdb::core::SessionReport r = *report;
    r.trace.front().answer = !r.trace.front().answer;
    why = CheckReport(r, expected, hidden);
    Expect(!why.empty(), "trace answer off the hidden valuation is rejected",
           why, &misses);
  }
  {
    cdb::core::SessionReport r = *report;
    r.trace.push_back(r.trace.front());
    r.num_probes = r.trace.size();
    why = CheckReport(r, expected, hidden);
    Expect(!why.empty(), "variable probed twice is rejected", why, &misses);
  }
  {
    // Stale cached result: the report from before an insert, checked
    // against the database after it, must fail; the engine's own report
    // after the insert must pass (its cache was invalidated).
    const int64_t vid = 1000;
    auto var = sdb.InsertTuple(
        "Assignment",
        cdb::relational::Tuple{cdb::relational::Value(int64_t{0}),
                               cdb::relational::Value(vid),
                               cdb::relational::Value("hired")},
        "agency0", 0.5);
    Snapshot after;
    if (!var.ok() || !after.Read(sdb, RecruitmentRelations(), &error)) {
      std::cout << "insert failed\n";
      return misses + 1;
    }
    const Expected expected_after = q.reference(after);
    why = CheckReport(*report, expected_after, hidden);
    Expect(!why.empty(), "stale pre-insert report is rejected", why, &misses);
    auto fresh = run();
    why = fresh.ok() ? CheckReport(*fresh, expected_after, hidden)
                     : fresh.status().ToString();
    Expect(why.empty(), "engine report after the insert passes", why,
           &misses);
  }
  std::cout << (misses == 0 ? "self-test passed" : "self-test FAILED") << "\n";
  return misses;
}

}  // namespace perfbench
