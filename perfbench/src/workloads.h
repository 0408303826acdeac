// The three consent-session workloads and their traced variants.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct RunOptions {
  std::string workload;  // sql-cold | sql-warm | served-tcp
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  // Monotonic nanoseconds at process start; set-up time counts from here.
  int64_t process_start_ns = 0;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct RunOutcome {
  bool ok = false;         // false: the run could not be set up at all
  std::string error;       // why, when !ok, or the first failed check
  bool correct = true;     // every session passed every check
  uint64_t attempted = 0;  // sessions attempted in the measured phase
  uint64_t failed = 0;     // sessions that returned an error
  std::vector<Metric> metrics;
  std::string note;  // raw figures behind the metrics, for standard error
};

bool IsWorkload(const std::string& name);

RunOutcome RunWorkload(const RunOptions& options);

// Shows that every correctness check rejects a deliberately altered
// report. Returns the number of checks that failed to fire (0 = pass).
int RunSelfTest();

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
