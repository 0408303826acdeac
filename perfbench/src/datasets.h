// Seeded inputs of the benchmark: the databases, the per-session write
// batches and the queries, each query paired with its reference.

#ifndef PERFBENCH_DATASETS_H_
#define PERFBENCH_DATASETS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "consentdb/consent/shared_database.h"
#include "reference_eval.h"

namespace perfbench {

// SplitMix64: the benchmark's only source of randomness.
class Gen {
 public:
  explicit Gen(uint64_t seed) : s_(seed) {}
  uint64_t Next();
  size_t Below(size_t n) { return static_cast<size_t>(Next() % n); }

 private:
  uint64_t s_;
};

struct SeededInsert {
  std::string relation;
  consentdb::relational::Tuple tuple;
  std::string owner;
  double probability = 0.5;
};

// The recruitment-agency database of the paper's running example:
// Companies(cid, name), Vacancies(vid, cid), JobSeekers(sid, education),
// Assignment(sid, vid, status) with scale, 2*scale, 2*scale and 3*scale rows.
bool BuildRecruitment(uint64_t seed, size_t scale,
                      consentdb::consent::SharedDatabase* sdb,
                      std::string* error);
// One write batch per session of an epoch: a new job seeker and an
// assignment of that seeker, both fresh tuples, so each batch bumps the
// database version.
std::vector<std::vector<SeededInsert>> RecruitmentBatches(uint64_t seed,
                                                          size_t scale,
                                                          size_t sessions);
std::vector<QueryDef> RecruitmentQueries();
std::vector<std::string> RecruitmentRelations();

// R(a, b) joined with S(b, c). The b values fall into c_values classes of
// b_per_c each, and S maps every b to its class. Every a takes `terms`
// seeded b values from every class, so query k (s.c = k, projecting r.a)
// gives every a exactly `terms` two-variable terms, whatever the seed; S's
// variables are shared between the tuples whose a picked the same b.
struct JoinShape {
  size_t a_values = 0;
  size_t c_values = 0;
  size_t b_per_c = 0;
  size_t terms = 0;
};
JoinShape WarmJoinShape();
JoinShape ServedJoinShape();
bool BuildJoinDatabase(uint64_t seed, const JoinShape& shape,
                       consentdb::consent::SharedDatabase* sdb,
                       std::string* error);
std::vector<QueryDef> JoinQueries(const JoinShape& shape);
std::vector<std::string> JoinRelations();

}  // namespace perfbench

#endif  // PERFBENCH_DATASETS_H_
