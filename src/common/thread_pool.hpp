#pragma once

/// \file thread_pool.hpp
/// Fixed-size thread pool and deterministic data-parallel loops — the
/// parallel execution substrate under the GEMM/convolution kernels, the
/// Algorithm-1 sensitivity probes and the massive-generation flow.
///
/// Determinism contract: parallelFor() partitions [0, n) into chunks
/// [i*grain, min((i+1)*grain, n)) whose boundaries depend ONLY on n and
/// grain — never on the thread count or on scheduling. A loop body that
/// (a) writes only state owned by its chunk and (b) reduces per-chunk
/// results in ascending chunk order therefore produces bit-identical
/// results at any DP_THREADS value, including 1. Every chunk runs under
/// its caller's floating-point control state (fp_env.hpp: rounding,
/// subnormal flushing), whichever lane runs it. Randomized parallel
/// tasks must draw from per-task Rng streams seeded with
/// taskSeed(baseSeed, taskIndex) instead of sharing one generator.
///
/// The pool size comes from the DP_THREADS environment variable
/// (default: std::thread::hardware_concurrency(); 1 restores fully
/// serial execution). Nested parallelFor() calls run inline on the
/// calling worker — parallelism never nests, which both bounds the
/// thread count and makes nested submission deadlock-free.

#include <cstdint>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

namespace dp {

/// SplitMix64 mixing function (public domain, Sebastiano Vigna).
/// Statistically strong enough to whiten consecutive task indices into
/// independent-looking 64-bit seeds.
[[nodiscard]] constexpr std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Seed of the independent Rng stream owned by parallel task
/// `taskIndex` of a loop whose caller holds `baseSeed`. A pure function
/// of (baseSeed, taskIndex), so results never depend on which thread
/// runs the task or in what order.
[[nodiscard]] constexpr std::uint64_t taskSeed(std::uint64_t baseSeed,
                                               std::uint64_t taskIndex) {
  return baseSeed ^ splitmix64(taskIndex);
}

/// Fixed-size pool of worker threads executing chunked loops.
class ThreadPool {
 public:
  /// A pool of `threads` execution lanes total: the calling thread
  /// participates in every parallelFor, so `threads - 1` workers are
  /// spawned. `threads` is clamped to >= 1; 1 means fully serial.
  explicit ThreadPool(int threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total execution lanes (workers + caller).
  [[nodiscard]] int threads() const { return threads_; }

  /// Runs body(begin, end) over every chunk of [0, n) with the
  /// deterministic chunking described in the file comment. Blocks until
  /// all chunks finish. The first exception thrown by any chunk is
  /// rethrown here (remaining chunks still run to completion). Safe to
  /// call from inside a running chunk: nested calls execute inline.
  void parallelFor(long n, long grain,
                   const std::function<void(long begin, long end)>& body);

  /// The process-wide pool used by the free parallelFor(). Built
  /// lazily with defaultThreads() lanes.
  static ThreadPool& global();

  /// Rebuilds the global pool with `threads` lanes (tests and the CLI
  /// --threads flag). Must not be called while a parallel loop runs.
  static void setGlobalThreads(int threads);

  /// DP_THREADS environment variable if set (>= 1), else
  /// hardware_concurrency(), else 1.
  [[nodiscard]] static int defaultThreads();

 private:
  struct State;
  void workerLoop();

  int threads_;
  std::unique_ptr<State> state_;
  std::vector<std::thread> workers_;
};

/// Chunked loop on the global pool; see ThreadPool::parallelFor.
void parallelFor(long n, long grain,
                 const std::function<void(long begin, long end)>& body);

}  // namespace dp
