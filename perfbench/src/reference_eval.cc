#include "reference_eval.h"

#include <algorithm>
#include <set>
#include <unordered_set>

namespace perfbench {

namespace {

uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

bool ToRow(const consentdb::relational::Tuple& t, Row* row,
           std::string* error) {
  using consentdb::relational::ValueType;
  row->clear();
  for (const consentdb::relational::Value& v : t.values()) {
    if (v.type() == ValueType::kInt64) {
      row->emplace_back(v.AsInt64());
    } else if (v.type() == ValueType::kString) {
      row->emplace_back(v.AsString());
    } else {
      *error = "unexpected value type in tuple " + t.ToString();
      return false;
    }
  }
  return true;
}

std::string RowText(const Row& row) {
  std::string s = "(";
  for (size_t i = 0; i < row.size(); ++i) {
    if (i > 0) s += ", ";
    if (const int64_t* n = std::get_if<int64_t>(&row[i])) {
      s += std::to_string(*n);
    } else {
      s += "'" + std::get<std::string>(row[i]) + "'";
    }
  }
  return s + ")";
}

// Kleene value of a monotone DNF under a partial valuation: 1 true, 0 false,
// -1 unknown.
int KleeneDnf(const std::vector<Derivation>& dnf,
              const std::unordered_map<uint32_t, bool>& known) {
  bool any_unknown = false;
  for (const Derivation& term : dnf) {
    bool term_false = false;
    bool term_unknown = false;
    for (uint32_t v : term) {
      auto it = known.find(v);
      if (it == known.end()) {
        term_unknown = true;
      } else if (!it->second) {
        term_false = true;
        break;
      }
    }
    if (term_false) continue;
    if (!term_unknown) return 1;
    any_unknown = true;
  }
  return any_unknown ? -1 : 0;
}

}  // namespace

bool Snapshot::Read(const consentdb::consent::SharedDatabase& sdb,
                    const std::vector<std::string>& relations,
                    std::string* error) {
  tables_.clear();
  for (const std::string& name : relations) {
    auto rel = sdb.database().GetRelation(name);
    if (!rel.ok()) {
      *error = rel.status().ToString();
      return false;
    }
    std::vector<StoredRow>& rows = tables_[name];
    const auto& tuples = (*rel)->tuples();
    rows.reserve(tuples.size());
    for (size_t i = 0; i < tuples.size(); ++i) {
      StoredRow stored;
      if (!ToRow(tuples[i], &stored.values, error)) return false;
      auto var = sdb.AnnotationOf(name, i);
      if (!var.ok()) {
        *error = var.status().ToString();
        return false;
      }
      stored.var = static_cast<uint32_t>(*var);
      rows.push_back(std::move(stored));
    }
  }
  return true;
}

const std::vector<StoredRow>& Snapshot::table(
    const std::string& relation) const {
  static const std::vector<StoredRow> kEmpty;
  auto it = tables_.find(relation);
  return it == tables_.end() ? kEmpty : it->second;
}

void AddDerivation(Expected* out, Row row, Derivation vars) {
  std::sort(vars.begin(), vars.end());
  vars.erase(std::unique(vars.begin(), vars.end()), vars.end());
  (*out)[std::move(row)].push_back(std::move(vars));
}

bool HiddenValuation::operator()(uint32_t var) const {
  const uint64_t h = Mix(seed_ ^ Mix(var));
  return (h >> 63) == 0;  // probability 1/2
}

std::string CheckReport(const consentdb::core::SessionReport& report,
                        const Expected& expected,
                        const HiddenValuation& hidden) {
  using Verdict = consentdb::core::TupleConsent::Verdict;
  // Trace: answers match the hidden valuation, no variable twice.
  std::unordered_map<uint32_t, bool> known;
  for (const auto& rec : report.trace) {
    const uint32_t v = static_cast<uint32_t>(rec.variable);
    if (rec.answer != hidden(v)) {
      return "trace answer for x" + std::to_string(v) +
             " disagrees with the hidden valuation";
    }
    if (!known.emplace(v, rec.answer).second) {
      return "variable x" + std::to_string(v) + " probed twice";
    }
  }
  if (report.num_probes != report.trace.size()) {
    return "num_probes " + std::to_string(report.num_probes) +
           " != trace length " + std::to_string(report.trace.size());
  }
  std::unordered_set<uint32_t> provenance_vars;
  for (const auto& [row, dnf] : expected) {
    for (const Derivation& d : dnf) {
      provenance_vars.insert(d.begin(), d.end());
    }
  }
  if (report.num_probes > provenance_vars.size()) {
    return "probes " + std::to_string(report.num_probes) +
           " exceed the distinct provenance variables " +
           std::to_string(provenance_vars.size());
  }
  for (const auto& [v, answer] : known) {
    if (provenance_vars.count(v) == 0) {
      return "probed x" + std::to_string(v) + " occurs in no derivation";
    }
  }
  // Tuples and verdicts.
  if (report.tuples.size() != expected.size()) {
    return "reported " + std::to_string(report.tuples.size()) +
           " tuples, reference has " + std::to_string(expected.size());
  }
  std::set<Row> seen;
  Row row;
  std::string error;
  for (const consentdb::core::TupleConsent& tc : report.tuples) {
    if (!ToRow(tc.tuple, &row, &error)) return error;
    auto it = expected.find(row);
    if (it == expected.end()) {
      return "reported tuple " + RowText(row) + " is not in the reference";
    }
    if (!seen.insert(row).second) {
      return "tuple " + RowText(row) + " reported twice";
    }
    if (tc.verdict == Verdict::kUnresolved) {
      return "tuple " + RowText(row) + " left unresolved";
    }
    bool truth = false;
    for (const Derivation& d : it->second) {
      bool all = true;
      for (uint32_t v : d) all = all && hidden(v);
      if (all) {
        truth = true;
        break;
      }
    }
    const bool shareable = tc.verdict == Verdict::kShareable;
    if (shareable != truth || tc.shareable != truth) {
      return "verdict for " + RowText(row) +
             " disagrees with its provenance under the hidden valuation";
    }
    const int decided = KleeneDnf(it->second, known);
    if (decided < 0) {
      return "probed answers leave " + RowText(row) + " undecided";
    }
    if ((decided == 1) != truth) {
      return "probed answers decide " + RowText(row) + " the wrong way";
    }
  }
  return "";
}

}  // namespace perfbench
