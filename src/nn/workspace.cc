#include "nn/workspace.h"

#include <atomic>
#include <memory>
#include <vector>

#include "obs/metrics.h"

namespace kdsel::nn {
namespace {

obs::Counter& PoolHits() {
  static obs::Counter& counter =
      obs::MetricsRegistry::Global().GetCounter("kdsel.nn.workspace.pool_hits");
  return counter;
}

obs::Counter& PoolMisses() {
  static obs::Counter& counter = obs::MetricsRegistry::Global().GetCounter(
      "kdsel.nn.workspace.pool_misses");
  return counter;
}

// Buckets are powers of two: bucket b holds buffers of exactly
// kMinCapacity << b floats. 32 buckets covers 64 .. 2^37 floats, far
// beyond any tensor this library builds.
constexpr size_t kNumBuckets = 32;

std::atomic<uint64_t> g_heap_allocations{0};

size_t BucketForCapacity(size_t capacity) {
  size_t bucket = 0;
  size_t cap = Workspace::kMinCapacity;
  while (cap < capacity) {
    cap <<= 1;
    ++bucket;
  }
  return bucket;
}

float* HeapAllocate(size_t capacity) {
  g_heap_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::allocator<float>().allocate(capacity);
}

void HeapFree(float* buffer, size_t capacity) {
  std::allocator<float>().deallocate(buffer, capacity);
}

struct ThreadCache;
// Set when the calling thread's cache has already been destroyed
// (thread teardown); buffers released after that go straight back to
// the heap instead of resurrecting the cache.
thread_local bool t_cache_destroyed = false;

struct ThreadCache {
  std::vector<float*> buckets[kNumBuckets];

  ~ThreadCache() {
    for (size_t b = 0; b < kNumBuckets; ++b) {
      const size_t cap = Workspace::kMinCapacity << b;
      for (float* p : buckets[b]) HeapFree(p, cap);
      buckets[b].clear();
    }
    t_cache_destroyed = true;
  }
};

ThreadCache* Cache() {
  if (t_cache_destroyed) return nullptr;
  thread_local ThreadCache cache;
  return &cache;
}

}  // namespace

float* Workspace::Acquire(size_t n, size_t* capacity) {
  KDSEL_CHECK(n > 0);
  // Beyond the largest bucket, the bucket index would run off the
  // cache's array (and `cap` below would overflow).
  KDSEL_CHECK(n <= kMinCapacity << (kNumBuckets - 1));
  size_t cap = kMinCapacity;
  while (cap < n) cap <<= 1;
  *capacity = cap;
  ThreadCache* cache = Cache();
  if (cache != nullptr) {
    auto& bucket = cache->buckets[BucketForCapacity(cap)];
    if (!bucket.empty()) {
      float* p = bucket.back();
      bucket.pop_back();
      PoolHits().Increment();
      return p;
    }
  }
  PoolMisses().Increment();
  return HeapAllocate(cap);
}

void Workspace::Release(float* buffer, size_t capacity) {
  KDSEL_CHECK(buffer != nullptr);
  ThreadCache* cache = Cache();
  if (cache == nullptr) {
    HeapFree(buffer, capacity);
    return;
  }
  cache->buckets[BucketForCapacity(capacity)].push_back(buffer);
}

uint64_t Workspace::HeapAllocationCount() {
  return g_heap_allocations.load(std::memory_order_relaxed);
}

void Workspace::TrimThreadCache() {
  ThreadCache* cache = Cache();
  if (cache == nullptr) return;
  for (size_t b = 0; b < kNumBuckets; ++b) {
    const size_t cap = kMinCapacity << b;
    for (float* p : cache->buckets[b]) HeapFree(p, cap);
    cache->buckets[b].clear();
  }
}

}  // namespace kdsel::nn
