#include "common/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <stdexcept>
#include <string>

#include "common/fp_env.hpp"
#include "common/sync.hpp"

namespace dp {

namespace {

/// Set while a thread (worker or caller) executes chunks of some batch;
/// nested parallelFor calls observe it and run inline instead of
/// re-entering the pool, which would deadlock a fully busy pool.
thread_local bool tlsInsideChunk = false;

/// One parallelFor invocation. Heap-allocated and shared between the
/// caller and every worker that joins in, so a straggler worker can
/// never observe the fields of a *later* batch through a reused slot.
struct Batch {
  // Immutable after publication (written before the release under
  // State::mutex, read-only afterwards) — not guarded.
  const std::function<void(long, long)>* body = nullptr;
  long n = 0;
  long grain = 1;
  long chunkCount = 0;
  std::uint32_t fpControl = 0;  ///< the caller's fpControlBits()
  std::atomic<long> nextChunk{0};

  Mutex mutex;
  CondVar done;  ///< signalled when chunksLeft reaches 0
  long chunksLeft DP_GUARDED_BY(mutex) = 0;
  std::exception_ptr firstError DP_GUARDED_BY(mutex);
};

/// Claims and runs chunks of `b` until none are left, under the
/// caller's floating-point control bits (restoring this lane's own
/// afterwards). Returns after reporting this thread's completions; the
/// batch is finished once chunksLeft reaches 0.
void runChunks(Batch& b) {
  tlsInsideChunk = true;
  const std::uint32_t ownFp = fpControlBits();
  const bool adoptFp = ownFp != b.fpControl;
  if (adoptFp) setFpControlBits(b.fpControl);
  long finished = 0;
  std::exception_ptr error;
  for (;;) {
    const long chunk = b.nextChunk.fetch_add(1, std::memory_order_relaxed);
    if (chunk >= b.chunkCount) break;
    const long begin = chunk * b.grain;
    const long end = std::min(b.n, begin + b.grain);
    try {
      (*b.body)(begin, end);
    } catch (...) {
      if (!error) error = std::current_exception();
    }
    ++finished;
  }
  if (adoptFp) setFpControlBits(ownFp);
  tlsInsideChunk = false;
  if (finished > 0 || error) {
    LockGuard lock(b.mutex);
    if (error && !b.firstError) b.firstError = error;
    b.chunksLeft -= finished;
    if (b.chunksLeft == 0) b.done.notifyAll();
  }
}

}  // namespace

struct ThreadPool::State {
  Mutex mutex;
  CondVar wake;     ///< workers wait here for a batch
  Mutex callMutex;  ///< serializes concurrent parallelFor calls
  std::shared_ptr<Batch> current DP_GUARDED_BY(mutex);
  /// Bumped per published batch.
  std::uint64_t generation DP_GUARDED_BY(mutex) = 0;
  bool shuttingDown DP_GUARDED_BY(mutex) = false;
};

ThreadPool::ThreadPool(int threads)
    : threads_(threads < 1 ? 1 : threads), state_(std::make_unique<State>()) {
  workers_.reserve(static_cast<std::size_t>(threads_ - 1));
  for (int i = 0; i < threads_ - 1; ++i)
    workers_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool() {
  {
    LockGuard lock(state_->mutex);
    state_->shuttingDown = true;
  }
  state_->wake.notifyAll();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::workerLoop() {
  State& s = *state_;
  std::uint64_t seen = 0;
  for (;;) {
    std::shared_ptr<Batch> batch;
    {
      UniqueLock lock(s.mutex);
      while (!s.shuttingDown && s.generation == seen) s.wake.wait(lock);
      if (s.shuttingDown) return;
      seen = s.generation;
      batch = s.current;  // may already be gone — just wait again
    }
    if (batch) runChunks(*batch);
  }
}

void ThreadPool::parallelFor(
    long n, long grain, const std::function<void(long, long)>& body) {
  if (n <= 0) return;
  if (!body) throw std::invalid_argument("parallelFor: null body");
  if (grain < 1) grain = 1;
  const long chunkCount = (n + grain - 1) / grain;

  // Serial lanes, nested calls, and single-chunk loops run inline —
  // same chunk boundaries, ascending order, so results are identical.
  if (threads_ == 1 || chunkCount == 1 || tlsInsideChunk) {
    const bool nested = tlsInsideChunk;
    tlsInsideChunk = true;
    std::exception_ptr error;
    for (long c = 0; c < chunkCount; ++c) {
      try {
        body(c * grain, std::min(n, (c + 1) * grain));
      } catch (...) {
        if (!error) error = std::current_exception();
      }
    }
    tlsInsideChunk = nested;
    if (error) std::rethrow_exception(error);
    return;
  }

  State& s = *state_;
  LockGuard callLock(s.callMutex);
  auto batch = std::make_shared<Batch>();
  batch->body = &body;
  batch->n = n;
  batch->grain = grain;
  batch->chunkCount = chunkCount;
  batch->fpControl = fpControlBits();
  {
    LockGuard lock(batch->mutex);
    batch->chunksLeft = chunkCount;
  }
  {
    LockGuard lock(s.mutex);
    s.current = batch;
    ++s.generation;
  }
  s.wake.notifyAll();
  runChunks(*batch);  // the caller is a lane too
  std::exception_ptr error;
  {
    UniqueLock lock(batch->mutex);
    while (batch->chunksLeft != 0) batch->done.wait(lock);
    error = batch->firstError;
  }
  {
    LockGuard lock(s.mutex);
    if (s.current == batch) s.current.reset();
  }
  if (error) std::rethrow_exception(error);
}

namespace {

Mutex gGlobalMutex;
std::unique_ptr<ThreadPool> gGlobalPool DP_GUARDED_BY(gGlobalMutex);

}  // namespace

int ThreadPool::defaultThreads() {
  // Read-only getenv on a startup path; no concurrent setenv in this process.
  // NOLINTNEXTLINE(concurrency-mt-unsafe)
  if (const char* env = std::getenv("DP_THREADS")) {
    try {
      const int n = std::stoi(env);
      if (n >= 1) return n;
    } catch (...) {
      // fall through to hardware concurrency
    }
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

ThreadPool& ThreadPool::global() {
  LockGuard lock(gGlobalMutex);
  if (!gGlobalPool)
    gGlobalPool = std::make_unique<ThreadPool>(defaultThreads());
  return *gGlobalPool;
}

void ThreadPool::setGlobalThreads(int threads) {
  LockGuard lock(gGlobalMutex);
  gGlobalPool = std::make_unique<ThreadPool>(threads < 1 ? 1 : threads);
}

void parallelFor(long n, long grain,
                 const std::function<void(long, long)>& body) {
  ThreadPool::global().parallelFor(n, grain, body);
}

}  // namespace dp
