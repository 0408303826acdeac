// Independent correctness oracle for the consent-session benchmark.
//
// Nothing here calls into the library's eval, provenance or strategy
// modules. Base tuples are read back from the SharedDatabase (so the
// reference sees exactly the set-semantics content the engine evaluated),
// each query's result and per-tuple derivations are computed by hand-written
// joins, and every session report is checked against them under the hidden
// valuation the probe oracle answers from.

#ifndef PERFBENCH_REFERENCE_EVAL_H_
#define PERFBENCH_REFERENCE_EVAL_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <unordered_map>
#include <variant>
#include <vector>

#include "consentdb/consent/oracle.h"
#include "consentdb/consent/shared_database.h"
#include "consentdb/core/consent_manager.h"

namespace perfbench {

using Cell = std::variant<int64_t, std::string>;
using Row = std::vector<Cell>;

struct StoredRow {
  Row values;
  uint32_t var = 0;  // the tuple's consent variable, L(t)
};

// The base relations as stored, with their annotations.
class Snapshot {
 public:
  // Reads every tuple of `relations` back from `sdb`; annotations come from
  // SharedDatabase::AnnotationOf. Returns false (with `error`) on a value
  // type the reference does not model.
  bool Read(const consentdb::consent::SharedDatabase& sdb,
            const std::vector<std::string>& relations, std::string* error);

  const std::vector<StoredRow>& table(const std::string& relation) const;

 private:
  std::unordered_map<std::string, std::vector<StoredRow>> tables_;
};

// One derivation of an output tuple: the sorted, distinct consent variables
// of the base tuples it was joined from.
using Derivation = std::vector<uint32_t>;

// A query result with the derivations of every output tuple.
using Expected = std::map<Row, std::vector<Derivation>>;

// Adds one derivation of `row` (variables sorted and deduplicated here).
void AddDerivation(Expected* out, Row row, Derivation vars);

struct QueryDef {
  std::string sql;
  std::function<Expected(const Snapshot&)> reference;
};

// The hidden consent of every variable: a pure function of (seed, variable),
// so any number of oracles and checks agree without sharing state.
class HiddenValuation {
 public:
  explicit HiddenValuation(uint64_t seed) : seed_(seed) {}
  // True for about half of the variables.
  bool operator()(uint32_t var) const;

 private:
  uint64_t seed_;
};

// Answers probes from a HiddenValuation and counts them. Use() switches the
// valuation between consent campaigns (never while a session runs).
class HiddenOracle : public consentdb::consent::ProbeOracle {
 public:
  explicit HiddenOracle(const HiddenValuation& hidden) : hidden_(&hidden) {}
  bool Probe(consentdb::provenance::VarId x) override {
    ++probes_;
    return (*hidden_)(static_cast<uint32_t>(x));
  }
  size_t probe_count() const override { return probes_; }
  void Use(const HiddenValuation& hidden) { hidden_ = &hidden; }
  const HiddenValuation& hidden() const { return *hidden_; }

 private:
  const HiddenValuation* hidden_;
  size_t probes_ = 0;
};

// Checks one session report against the reference result:
//   * the reported tuples equal the reference result;
//   * every verdict is the tuple's derivation DNF under the hidden valuation;
//   * the probed answers alone decide every DNF under Kleene evaluation;
//   * every trace answer is the hidden value of its variable;
//   * no variable is probed twice, and num_probes matches the trace;
//   * the probe count is at most the number of distinct provenance
//     variables, and every probed variable occurs in the provenance.
// Returns an empty string when every check holds, else the first failure.
std::string CheckReport(const consentdb::core::SessionReport& report,
                        const Expected& expected,
                        const HiddenValuation& hidden);

}  // namespace perfbench

#endif  // PERFBENCH_REFERENCE_EVAL_H_
