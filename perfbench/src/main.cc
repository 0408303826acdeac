// consent_bench: closed-loop, single-client consent sessions over SQL.
//
//   consent_bench --workload <sql-cold|sql-warm|served-tcp> --seed <n>
//                 --seconds <s> --trace <0|1>
//   consent_bench --self-test
//
// The last line of standard output is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// with the end-to-end metrics (--trace 0) or the per-layer ones (--trace 1).

#include <malloc.h>
#include <sched.h>

#include <charconv>
#include <chrono>
#include <cstdlib>
#include <iostream>
#include <string>

#include "workloads.h"

namespace {

const int64_t kProcessStartNs =
    std::chrono::duration_cast<std::chrono::nanoseconds>(
        std::chrono::steady_clock::now().time_since_epoch())
        .count();

std::string Number(double v) {
  char buf[64];
  auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

int Usage(const std::string& why) {
  std::cerr << "consent_bench: " << why << "\n"
            << "usage: consent_bench --workload <sql-cold|sql-warm|served-tcp>"
               " --seed <n> --seconds <s> --trace <0|1>\n"
            << "       consent_bench --self-test\n";
  return 2;
}

bool ParseUint(const std::string& s, uint64_t* out) {
  if (s.empty()) return false;
  auto res = std::from_chars(s.data(), s.data() + s.size(), *out);
  return res.ec == std::errc() && res.ptr == s.data() + s.size();
}

}  // namespace

int main(int argc, char** argv) {
  // Keep freed heap memory mapped. By default glibc trims the heap and the
  // arenas of exited threads, and the next allocations fault the pages back
  // in; what a fault costs is host state no reference kernel tracks, and it
  // moved raw sql-cold session times of identical code by about 15%
  // between runs. These settings change no allocation the program makes.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  // Run every thread (client, engine worker, server) on the CPU the process
  // started on, so the sessions and the reference kernel share one core and
  // whatever else loads it. Unpinned, the engine worker and the kernel ran
  // on different cores and sql-warm's normalized medians moved by up to 2x
  // between runs of identical code.
  const int cpu = sched_getcpu();
  if (cpu >= 0) {
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpu, &set);
    if (sched_setaffinity(0, sizeof(set), &set) != 0) {
      std::cerr << "consent_bench: could not pin to cpu " << cpu << "\n";
    }
  }
  perfbench::RunOptions options;
  options.process_start_ns = kProcessStartNs;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--self-test") return perfbench::RunSelfTest() == 0 ? 0 : 1;
    if (i + 1 >= argc) return Usage("missing value for " + arg);
    const std::string value = argv[++i];
    uint64_t n = 0;
    if (arg == "--workload") {
      if (!perfbench::IsWorkload(value)) {
        return Usage("unknown workload " + value);
      }
      options.workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      if (!ParseUint(value, &n)) return Usage("bad --seed " + value);
      options.seed = n;
    } else if (arg == "--seconds") {
      if (!ParseUint(value, &n) || n < 1 || n > 3600) {
        return Usage("bad --seconds " + value);
      }
      options.seconds = static_cast<int>(n);
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") return Usage("bad --trace " + value);
      options.trace = value == "1";
    } else {
      return Usage("unknown argument " + arg);
    }
  }
  if (!have_workload) return Usage("--workload is required");

  perfbench::RunOutcome out = perfbench::RunWorkload(options);
  if (!out.ok) {
    std::cerr << "consent_bench: " << out.error << "\n";
    return 1;
  }
  if (!out.correct || out.failed > 0) {
    std::cerr << "consent_bench: " << out.error << "\n";
  }
  if (!out.note.empty()) std::cerr << "consent_bench: " << out.note << "\n";
  std::string json = "{\"correct\": ";
  json += out.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(out.attempted);
  json += ", \"failed\": " + std::to_string(out.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < out.metrics.size(); ++i) {
    const perfbench::Metric& m = out.metrics[i];
    if (i > 0) json += ", ";
    json += "\"" + m.name + "\": {\"value\": " + Number(m.value) +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::cout << json << std::endl;
  return 0;
}
