// The reference kernel: a fixed, pointer-heavy workload that session times
// are divided by, so the gated session metrics are in units of "what this
// host does with small linked structures right now" rather than in raw
// nanoseconds, which move with host state between runs.
//
// The kernel owns its memory (one mapping made at construction) and runs its
// own free-list allocator inside it: it never calls into the library or the
// global allocator, so no change to the program under test can move it.

#ifndef PERFBENCH_REF_KERNEL_H_
#define PERFBENCH_REF_KERNEL_H_

#include <cstddef>
#include <cstdint>

namespace perfbench {

class RefKernel {
 public:
  RefKernel();
  ~RefKernel();
  RefKernel(const RefKernel&) = delete;
  RefKernel& operator=(const RefKernel&) = delete;

  // One fixed unit of work; returns its wall time in nanoseconds.
  int64_t TimeOnce();

  // Checksum of the last run (identical on every run; checked by callers so
  // the work cannot be optimised away).
  uint64_t checksum() const { return checksum_; }

 private:
  uint64_t RunOnce();

  std::byte* arena_ = nullptr;
  size_t arena_bytes_ = 0;
  uint64_t checksum_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_REF_KERNEL_H_
