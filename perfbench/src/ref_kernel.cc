#include "ref_kernel.h"

#include <sys/mman.h>

#include <chrono>
#include <cstdlib>
#include <new>

namespace perfbench {

namespace {

// Sizes fixed once: changing any of them changes the unit every normalized
// figure is expressed in.
constexpr size_t kArenaBytes = 1u << 20;
constexpr size_t kBuckets = 2048;
constexpr size_t kKeys = 1500;
constexpr size_t kRounds = 3;

struct Node {
  Node* next;
  uint64_t key;
  uint64_t value;
  uint64_t pad;
};

// A bump allocator with a free list, living entirely in the arena.
class Pool {
 public:
  Pool(std::byte* base, size_t bytes) : cur_(base), end_(base + bytes) {}
  Node* Get() {
    if (free_ != nullptr) {
      Node* n = free_;
      free_ = n->next;
      return n;
    }
    if (cur_ + sizeof(Node) > end_) std::abort();
    Node* n = new (cur_) Node{};
    cur_ += sizeof(Node);
    return n;
  }
  void Put(Node* n) {
    n->next = free_;
    free_ = n;
  }

 private:
  std::byte* cur_;
  std::byte* end_;
  Node* free_ = nullptr;
};

uint64_t Next(uint64_t* s) {
  *s ^= *s << 13;
  *s ^= *s >> 7;
  *s ^= *s << 17;
  return *s;
}

}  // namespace

RefKernel::RefKernel() {
  void* p = mmap(nullptr, kArenaBytes, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) std::abort();
  arena_ = static_cast<std::byte*>(p);
  arena_bytes_ = kArenaBytes;
}

RefKernel::~RefKernel() { munmap(arena_, arena_bytes_); }

uint64_t RefKernel::RunOnce() {
  Node** buckets = reinterpret_cast<Node**>(arena_);
  for (size_t b = 0; b < kBuckets; ++b) buckets[b] = nullptr;
  Pool pool(arena_ + kBuckets * sizeof(Node*),
            arena_bytes_ - kBuckets * sizeof(Node*));
  uint64_t state = 0x243f6a8885a308d3ull;
  uint64_t sum = 0;
  for (size_t round = 0; round < kRounds; ++round) {
    // Insert.
    for (size_t i = 0; i < kKeys; ++i) {
      const uint64_t key = Next(&state);
      Node* n = pool.Get();
      n->key = key;
      n->value = i;
      Node*& head = buckets[key % kBuckets];
      n->next = head;
      head = n;
    }
    // Probe with a replayed key stream.
    uint64_t replay = 0x243f6a8885a308d3ull;
    for (size_t i = 0; i < round * kKeys; ++i) Next(&replay);
    for (size_t i = 0; i < kKeys; ++i) {
      const uint64_t key = Next(&replay);
      for (Node* n = buckets[key % kBuckets]; n != nullptr; n = n->next) {
        if (n->key == key) {
          sum += n->value;
          break;
        }
      }
    }
    // Delete every node whose key is odd; the free list then feeds the
    // next round's inserts, so nodes get scattered over the arena.
    for (size_t b = 0; b < kBuckets; ++b) {
      Node** link = &buckets[b];
      while (*link != nullptr) {
        Node* n = *link;
        if (n->key & 1) {
          *link = n->next;
          pool.Put(n);
        } else {
          link = &n->next;
        }
      }
    }
  }
  // Walk what remains as one list, reversing it on the way.
  Node* list = nullptr;
  for (size_t b = 0; b < kBuckets; ++b) {
    Node* n = buckets[b];
    while (n != nullptr) {
      Node* next = n->next;
      n->next = list;
      list = n;
      n = next;
    }
  }
  for (Node* n = list; n != nullptr; n = n->next) sum = sum * 31 + n->key;
  return sum;
}

int64_t RefKernel::TimeOnce() {
  const auto t0 = std::chrono::steady_clock::now();
  checksum_ = RunOnce();
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count();
}

}  // namespace perfbench
