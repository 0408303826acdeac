#include "datasets.h"

#include <algorithm>
#include <numeric>

namespace perfbench {

namespace cdb = consentdb;
using cdb::relational::Column;
using cdb::relational::Schema;
using cdb::relational::Tuple;
using cdb::relational::Value;
using cdb::relational::ValueType;

namespace {

const char* kEnvStudies = "Env. studies";
const char* kHistory = "History";

double Prior(Gen& g) {
  return 0.3 + 0.5 * static_cast<double>(g.Below(1000)) / 1000.0;
}

bool Insert(cdb::consent::SharedDatabase* sdb, const std::string& relation,
            Tuple t, std::string owner, double p, std::string* error) {
  auto var = sdb->InsertTuple(relation, std::move(t), std::move(owner), p);
  if (!var.ok()) {
    *error = var.status().ToString();
    return false;
  }
  return true;
}

bool Create(cdb::consent::SharedDatabase* sdb, const std::string& name,
            Schema schema, std::string* error) {
  cdb::Status s = sdb->CreateRelation(name, std::move(schema));
  if (!s.ok()) *error = s.ToString();
  return s.ok();
}

int64_t Int(const Cell& c) { return std::get<int64_t>(c); }
const std::string& Str(const Cell& c) { return std::get<std::string>(c); }

// k distinct values below n, in seeded order.
std::vector<size_t> Distinct(Gen& g, size_t n, size_t k) {
  std::vector<size_t> all(n);
  std::iota(all.begin(), all.end(), 0);
  for (size_t i = 0; i < k && i < n; ++i) {
    std::swap(all[i], all[i + g.Below(n - i)]);
  }
  all.resize(std::min(k, n));
  return all;
}

}  // namespace

uint64_t Gen::Next() {
  uint64_t z = (s_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

bool BuildRecruitment(uint64_t seed, size_t scale,
                      cdb::consent::SharedDatabase* sdb, std::string* error) {
  Gen g(seed * 0x100000001b3ull + 1);
  if (!Create(sdb, "Companies",
              Schema({Column{"cid", ValueType::kInt64},
                      Column{"name", ValueType::kString}}),
              error) ||
      !Create(sdb, "Vacancies",
              Schema({Column{"vid", ValueType::kInt64},
                      Column{"cid", ValueType::kInt64}}),
              error) ||
      !Create(sdb, "JobSeekers",
              Schema({Column{"sid", ValueType::kInt64},
                      Column{"education", ValueType::kString}}),
              error) ||
      !Create(sdb, "Assignment",
              Schema({Column{"sid", ValueType::kInt64},
                      Column{"vid", ValueType::kInt64},
                      Column{"status", ValueType::kString}}),
              error)) {
    return false;
  }
  // Fan-outs are fixed and only the wiring is seeded, so the join sizes and
  // with them the evaluation cost are the same for every seed: every company
  // has two vacancies, every seeker two assignments, every vacancy two
  // applicants, half the seekers studied Env. studies and 40% of the
  // assignments are hires.
  const auto n = [](size_t v) { return static_cast<int64_t>(v); };
  const size_t seekers = 2 * scale;
  for (size_t c = 0; c < scale; ++c) {
    if (!Insert(sdb, "Companies",
                Tuple{Value(n(c)), Value("corp" + std::to_string(c))},
                "platform", Prior(g), error)) {
      return false;
    }
  }
  const std::vector<size_t> owner_of = Distinct(g, 2 * scale, 2 * scale);
  for (size_t v = 0; v < 2 * scale; ++v) {
    if (!Insert(sdb, "Vacancies",
                Tuple{Value(n(v)), Value(n(owner_of[v] % scale))}, "platform",
                Prior(g), error)) {
      return false;
    }
  }
  const std::vector<size_t> env = Distinct(g, seekers, seekers);
  for (size_t s = 0; s < seekers; ++s) {
    if (!Insert(sdb, "JobSeekers",
                Tuple{Value(n(s)),
                      Value(env[s] < seekers / 2 ? kEnvStudies : kHistory)},
                "agency" + std::to_string(s % 3), Prior(g), error)) {
      return false;
    }
  }
  // Two rounds of a seeded perfect matching seekers -> vacancies; the
  // second is a shifted copy of the first, so no seeker applies twice to
  // one vacancy.
  const std::vector<size_t> match = Distinct(g, seekers, seekers);
  const std::vector<size_t> hired = Distinct(g, 2 * seekers, 2 * seekers);
  for (size_t round = 0; round < 2; ++round) {
    for (size_t s = 0; s < seekers; ++s) {
      const size_t row = round * seekers + s;
      const size_t vid = (match[s] + round) % seekers;
      const bool hire = hired[row] * 10 < 4 * 2 * seekers;
      if (!Insert(sdb, "Assignment",
                  Tuple{Value(n(s)), Value(n(vid)),
                        Value(hire ? "hired" : "rejected")},
                  "agency" + std::to_string(s % 3), Prior(g), error)) {
        return false;
      }
    }
  }
  return true;
}

std::vector<std::vector<SeededInsert>> RecruitmentBatches(uint64_t seed,
                                                          size_t scale,
                                                          size_t sessions) {
  Gen g(seed * 0x9e3779b97f4a7c15ull + 2);
  std::vector<std::vector<SeededInsert>> out;
  for (size_t i = 0; i < sessions; ++i) {
    // Degree and hire pattern are fixed; the vacancy is seeded.
    const int64_t sid = static_cast<int64_t>(2 * scale + i);
    const std::string owner = "agency" + std::to_string(i % 3);
    std::vector<SeededInsert> batch;
    batch.push_back(SeededInsert{
        "JobSeekers",
        Tuple{Value(sid), Value(i % 2 == 0 ? kEnvStudies : kHistory)}, owner,
        Prior(g)});
    batch.push_back(SeededInsert{
        "Assignment",
        Tuple{Value(sid), Value(static_cast<int64_t>(g.Below(2 * scale))),
              Value(i % 5 < 3 ? "hired" : "rejected")},
        owner, Prior(g)});
    out.push_back(std::move(batch));
  }
  return out;
}

std::vector<std::string> RecruitmentRelations() {
  return {"Companies", "Vacancies", "JobSeekers", "Assignment"};
}

std::vector<QueryDef> RecruitmentQueries() {
  std::vector<QueryDef> out;
  // The paper's running example: companies that hired an environmental
  // studies graduate.
  out.push_back(QueryDef{
      "SELECT DISTINCT c.name "
      "FROM Companies c, JobSeekers s, Vacancies v, Assignment a "
      "WHERE c.cid = v.cid AND v.vid = a.vid AND a.status = 'hired' "
      "AND a.sid = s.sid AND s.education = 'Env. studies'",
      [](const Snapshot& db) {
        Expected e;
        for (const StoredRow& a : db.table("Assignment")) {
          if (Str(a.values[2]) != "hired") continue;
          for (const StoredRow& v : db.table("Vacancies")) {
            if (Int(v.values[0]) != Int(a.values[1])) continue;
            for (const StoredRow& c : db.table("Companies")) {
              if (Int(c.values[0]) != Int(v.values[1])) continue;
              for (const StoredRow& s : db.table("JobSeekers")) {
                if (Int(s.values[0]) != Int(a.values[0]) ||
                    Str(s.values[1]) != kEnvStudies) {
                  continue;
                }
                AddDerivation(&e, Row{c.values[1]},
                              {c.var, v.var, a.var, s.var});
              }
            }
          }
        }
        return e;
      }});
  // A union whose branches share no tuple: vacancies of the first four
  // companies, or vacancies with a hire. Its provenance is read-once, so
  // Auto picks RO here and Q-value on the two joins.
  out.push_back(QueryDef{
      "SELECT v.vid FROM Vacancies v WHERE v.cid < 4 "
      "UNION SELECT a.vid FROM Assignment a WHERE a.status = 'hired'",
      [](const Snapshot& db) {
        Expected e;
        for (const StoredRow& v : db.table("Vacancies")) {
          if (Int(v.values[1]) < 4) {
            AddDerivation(&e, Row{v.values[0]}, {v.var});
          }
        }
        for (const StoredRow& a : db.table("Assignment")) {
          if (Str(a.values[2]) == "hired") {
            AddDerivation(&e, Row{a.values[1]}, {a.var});
          }
        }
        return e;
      }});
  // Vacancies with their company, for every hire.
  out.push_back(QueryDef{
      "SELECT c.name, v.vid FROM Companies c, Vacancies v, Assignment a "
      "WHERE c.cid = v.cid AND v.vid = a.vid AND a.status = 'hired'",
      [](const Snapshot& db) {
        Expected e;
        for (const StoredRow& a : db.table("Assignment")) {
          if (Str(a.values[2]) != "hired") continue;
          for (const StoredRow& v : db.table("Vacancies")) {
            if (Int(v.values[0]) != Int(a.values[1])) continue;
            for (const StoredRow& c : db.table("Companies")) {
              if (Int(c.values[0]) != Int(v.values[1])) continue;
              AddDerivation(&e, Row{c.values[1], v.values[0]},
                            {c.var, v.var, a.var});
            }
          }
        }
        return e;
      }});
  return out;
}

JoinShape WarmJoinShape() { return JoinShape{16, 48, 32, 5}; }
JoinShape ServedJoinShape() { return JoinShape{3, 16, 3, 2}; }

bool BuildJoinDatabase(uint64_t seed, const JoinShape& shape,
                       cdb::consent::SharedDatabase* sdb, std::string* error) {
  Gen g(seed * 0xd6e8feb86659fd93ull + 3);
  if (!Create(sdb, "R",
              Schema({Column{"a", ValueType::kInt64},
                      Column{"b", ValueType::kInt64}}),
              error) ||
      !Create(sdb, "S",
              Schema({Column{"b", ValueType::kInt64},
                      Column{"c", ValueType::kInt64}}),
              error)) {
    return false;
  }
  const auto n = [](size_t v) { return static_cast<int64_t>(v); };
  for (size_t a = 0; a < shape.a_values; ++a) {
    for (size_t k = 0; k < shape.c_values; ++k) {
      for (size_t j : Distinct(g, shape.b_per_c, shape.terms)) {
        const size_t b = k * shape.b_per_c + j;
        if (!Insert(sdb, "R", Tuple{Value(n(a)), Value(n(b))},
                    "peer" + std::to_string(a % 5), Prior(g), error)) {
          return false;
        }
      }
    }
  }
  for (size_t b = 0; b < shape.c_values * shape.b_per_c; ++b) {
    if (!Insert(sdb, "S", Tuple{Value(n(b)), Value(n(b / shape.b_per_c))},
                "peer" + std::to_string(b % 5), Prior(g), error)) {
      return false;
    }
  }
  return true;
}

std::vector<std::string> JoinRelations() { return {"R", "S"}; }

std::vector<QueryDef> JoinQueries(const JoinShape& shape) {
  std::vector<QueryDef> out;
  for (size_t k = 0; k < shape.c_values; ++k) {
    const int64_t key = static_cast<int64_t>(k);
    // The range on r.b is implied by the join (S maps b to b / b_per_c), so
    // it changes no result; it binds on R alone, so the optimizer pushes it
    // below the product and the one cold evaluation per query in set-up
    // does not enumerate all of R against the selected S rows.
    const int64_t lo = key * static_cast<int64_t>(shape.b_per_c);
    const int64_t hi = lo + static_cast<int64_t>(shape.b_per_c);
    out.push_back(QueryDef{
        "SELECT DISTINCT r.a FROM R r, S s WHERE r.b = s.b AND s.c = " +
            std::to_string(key) + " AND r.b >= " + std::to_string(lo) +
            " AND r.b < " + std::to_string(hi),
        [key, lo, hi](const Snapshot& db) {
          Expected e;
          for (const StoredRow& s : db.table("S")) {
            if (Int(s.values[1]) != key) continue;
            for (const StoredRow& r : db.table("R")) {
              const int64_t b = Int(r.values[1]);
              if (b == Int(s.values[0]) && b >= lo && b < hi) {
                AddDerivation(&e, Row{r.values[0]}, {r.var, s.var});
              }
            }
          }
          return e;
        }});
  }
  return out;
}

}  // namespace perfbench
