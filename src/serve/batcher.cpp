#include "serve/batcher.hpp"

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include "common/fault.hpp"
#include "core/pipeline.hpp"
#include "squish/complexity.hpp"
#include "squish/packed_pattern.hpp"

namespace dp::serve {

namespace {

/// Rows [begin, begin+n) of a (N, ...) tensor as a fresh tensor.
nn::Tensor sliceLead(const nn::Tensor& t, long begin, int n) {
  std::vector<int> shape = t.shape();
  shape[0] = n;
  nn::Tensor out(shape);
  const std::size_t stride = t.numel() / static_cast<std::size_t>(t.size(0));
  const std::size_t from = static_cast<std::size_t>(begin) * stride;
  for (std::size_t i = 0; i < out.numel(); ++i) out[i] = t[from + i];
  return out;
}

/// Admission error strings, kept out of the hot submit fast path so
/// the rejection branches (the only string-building ones) stay off it.
// dp-analyze: cold
std::string validateRequest(const GenerateRequest& request,
                            const Batcher::Config& config) {
  if (request.count < 1 || request.count > config.maxCount)
    return "count must be in [1, " + std::to_string(config.maxCount) +
           "]";
  if (request.batchSize < 1 || request.batchSize > 4096)
    return "batchSize must be in [1, 4096]";
  if (request.flow != "random" && request.flow != "combine" &&
      request.flow != "guided")
    return "flow must be random, combine or guided";
  if (request.flow == "combine" &&
      (request.arity < 2 || request.arity > 16))
    return "arity must be in [2, 16]";
  if ((request.maxCx != 0 && request.maxCx < request.minCx) ||
      (request.maxCy != 0 && request.maxCy < request.minCy))
    return "empty complexity window";
  if (request.deadlineMs < 0)
    return "deadlineMs must be >= 0 (0 = unbounded)";
  return {};
}

}  // namespace

Batcher::Batcher(BundleRegistry& registry, Metrics& metrics, Config config)
    : registry_(registry), metrics_(metrics), config_(config) {
  if (config_.queueCapacity < 1 || config_.maxActive < 1 ||
      config_.decodeBatch < 1)
    throw std::invalid_argument("Batcher: config values must be >= 1");
  started_ = true;
  worker_ = std::thread([this] { workerLoop(); });
}

Batcher::~Batcher() { stop(); }

bool Batcher::running() const {
  LockGuard lock(mutex_);
  return started_ && !stopping_;
}

// dp-analyze: hot
SubmitResult Batcher::submit(const GenerateRequest& request) {
  SubmitResult out;
  const auto invalid = [&out](std::string message) {
    out.status = SubmitResult::Status::kInvalid;
    out.error = std::move(message);
    return std::move(out);
  };
  std::string err = validateRequest(request, config_);
  if (!err.empty()) return invalid(std::move(err));

  // Chaos hook: an armed admission fault sheds the request exactly as
  // a full queue would, so backpressure handling is testable on demand.
  static FaultSite admitFault("serve.batcher.admit");
  if (admitFault.shouldFail()) {
    metrics_.countShed("fault");
    out.status = SubmitResult::Status::kQueueFull;
    out.error = "injected admission fault";
    return out;
  }

  const std::shared_ptr<const Bundle> bundle =
      registry_.find(request.bundle);
  if (!bundle) return invalid("unknown bundle: " + request.bundle);
  if (request.flow == "guided" && !bundle->guide())
    return invalid("bundle " + request.bundle + " has no guide model");

  // Draw the full latent plan on this thread: fixes the seeded RNG
  // stream before any cross-request coalescing can interleave work.
  auto job = std::make_unique<Job>();
  job->request = request;
  job->bundle = bundle;
  job->rng = Rng(request.seed);
  try {
    if (request.flow == "random") {
      job->latents =
          core::planRandomLatents(bundle->sourceLatents(),
                                  bundle->perturber(), request.count,
                                  request.batchSize, job->rng)
              .latents;
    } else if (request.flow == "combine") {
      job->latents = core::planCombineLatents(bundle->sourceLatents(),
                                              request.count,
                                              request.batchSize,
                                              request.arity, job->rng)
                         .latents;
    } else {
      job->latents = core::planGuidedLatents(
          *bundle->guide(), &bundle->sourceLatents(), request.count,
          request.batchSize, job->rng);
    }
  } catch (const std::exception& e) {
    return invalid(std::string("cannot plan request: ") + e.what());
  }
  job->enqueued = std::chrono::steady_clock::now();
  if (request.deadlineMs > 0) {
    job->hasDeadline = true;
    job->deadline =
        job->enqueued + std::chrono::milliseconds(request.deadlineMs);
  }
  out.future = job->promise.get_future();

  {
    LockGuard lock(mutex_);
    if (stopping_ || !started_) {
      out.status = SubmitResult::Status::kShuttingDown;
      out.error = "server is shutting down";
      return out;
    }
    if (static_cast<int>(pending_.size()) >= config_.queueCapacity) {
      metrics_.countShed("queue_full");
      out.status = SubmitResult::Status::kQueueFull;
      out.error = "request queue is full";
      return out;
    }
    // One deque node per accepted request (not per pattern), bounded
    // by queueCapacity above.  // dp-analyze: allow(DPA103)
    pending_.push_back(std::move(job));
    metrics_.setQueueDepth(static_cast<long>(pending_.size()));
  }
  cv_.notifyOne();
  out.status = SubmitResult::Status::kAccepted;
  return out;
}

void Batcher::workerLoop() {
  for (;;) {
    {
      UniqueLock lock(mutex_);
      while (!stopping_ && pending_.empty() && active_.empty())
        cv_.wait(lock);
      if (pending_.empty() && active_.empty() && stopping_) return;
      while (!pending_.empty() &&
             static_cast<int>(active_.size()) < config_.maxActive) {
        active_.push_back(std::move(pending_.front()));
        pending_.pop_front();
      }
      metrics_.setQueueDepth(static_cast<long>(pending_.size()));
    }
    if (!active_.empty()) runBatch();
  }
}

void Batcher::shedExpired() {
  const auto now = std::chrono::steady_clock::now();
  for (auto it = active_.begin(); it != active_.end();) {
    Job& job = **it;
    if (job.hasDeadline && now >= job.deadline) {
      metrics_.countShed("deadline");
      job.promise.set_exception(
          std::make_exception_ptr(DeadlineExceeded()));
      it = active_.erase(it);
    } else {
      ++it;
    }
  }
}

void Batcher::runBatch() {
  // Shed before spending decode capacity: jobs whose budget expired
  // while queued or mid-coalescing fail fast instead of occupying
  // batch rows that cannot be delivered in time.
  shedExpired();
  if (active_.empty()) return;

  // Coalesce rows from every active job that shares the head job's
  // bundle, in arrival order, up to decodeBatch rows.
  const Bundle* headBundle = active_.front()->bundle.get();
  struct Take {
    Job* job;
    long begin;
    int rows;
  };
  std::vector<Take> takes;
  int total = 0;
  for (const auto& job : active_) {
    if (job->bundle.get() != headBundle) continue;
    const long left = job->request.count - job->offset;
    if (left <= 0) continue;
    const int n = static_cast<int>(std::min<long>(
        left, config_.decodeBatch - total));
    if (n <= 0) break;
    takes.push_back({job.get(), job->offset, n});
    total += n;
    if (total >= config_.decodeBatch) break;
  }

  try {
    static FaultSite decodeFault("serve.batcher.decode");
    decodeFault.orThrow();
    nn::Tensor batch({total, headBundle->spec().tcae.latentDim});
    {
      long row = 0;
      const int d = batch.size(1);
      for (const Take& take : takes) {
        for (int i = 0; i < take.rows; ++i)
          for (int j = 0; j < d; ++j)
            batch.at(static_cast<int>(row) + i, j) =
                take.job->latents.at(static_cast<int>(take.begin) + i, j);
        row += take.rows;
      }
    }
    // Fused route (DESIGN.md §14) when the bundle's decoder stack
    // supports it: the coalesced batch decodes straight to bit-packed
    // topologies and the per-job accounting runs on the packed words.
    // Either way the jobs see identical results for the same binarized
    // samples.
    if (const core::FusedDecodeRoute* fused = headBundle->fusedRoute()) {
      std::vector<std::uint32_t> masks;
      fused->decodeMasks(batch, masks);
      metrics_.batchOccupancy().observe(static_cast<double>(takes.size()));
      const int edge = fused->topologySize();
      long row = 0;
      for (const Take& take : takes) {
        core::accountMaskBatch(masks.data() + row * edge, take.rows, edge,
                               headBundle->checker(), take.job->result);
        take.job->offset += take.rows;
        ++take.job->decodeBatches;
        row += take.rows;
      }
    } else {
      const nn::Tensor activations = headBundle->tcae().decode(batch);
      metrics_.batchOccupancy().observe(static_cast<double>(takes.size()));
      long row = 0;
      for (const Take& take : takes) {
        const nn::Tensor slice = sliceLead(activations, row, take.rows);
        core::accountActivationBatch(slice, headBundle->checker(),
                                     take.job->result);
        take.job->offset += take.rows;
        ++take.job->decodeBatches;
        row += take.rows;
      }
    }
  } catch (...) {
    // A decode failure poisons every contributing job; fail them all
    // and keep serving the rest.
    for (const Take& take : takes) {
      take.job->offset = take.job->request.count;  // mark done
      take.job->promise.set_exception(std::current_exception());
    }
    active_.erase(
        std::remove_if(active_.begin(), active_.end(),
                       [](const std::unique_ptr<Job>& job) {
                         return job->offset >= job->request.count;
                       }),
        active_.end());
    return;
  }

  for (auto it = active_.begin(); it != active_.end();) {
    if ((*it)->offset >= (*it)->request.count) {
      finalize(**it);
      it = active_.erase(it);
    } else {
      ++it;
    }
  }
}

void Batcher::finalize(Job& job) {
  GenerateResponse res;
  res.bundle = job.bundle->name();
  res.version = job.bundle->version();
  res.flow = job.request.flow;
  res.seed = job.request.seed;
  res.generated = job.result.generated;
  res.legal = job.result.legal;
  res.uniqueTotal = static_cast<long>(job.result.unique.size());
  res.decodeBatches = job.decodeBatches;

  // Complexity-window filter on the unique set (0 = unbounded), read
  // off the packed (cx, cy) with the stored hashes. forEach runs in
  // ascending hash order, so patternHashes comes out sorted. Only a
  // materializing request needs the in-window patterns as a library.
  const GenerateRequest& req = job.request;
  const auto inWindow = [&req](const squish::Complexity& c) {
    if (req.minCx != 0 && c.cx < req.minCx) return false;
    if (req.maxCx != 0 && c.cx > req.maxCx) return false;
    if (req.minCy != 0 && c.cy < req.minCy) return false;
    if (req.maxCy != 0 && c.cy > req.maxCy) return false;
    return true;
  };
  core::PatternLibrary window;
  std::vector<squish::Complexity> windowCplx;
  job.result.unique.forEach(
      [&](std::uint64_t hash, const squish::PackedPattern& p) {
        const squish::Complexity c{p.cx(), p.cy()};
        if (!inWindow(c)) return;
        if (req.materialize) window.insertCanonical(hash, p);
        windowCplx.push_back(c);
        res.patternHashes.push_back(hash);
      });
  res.uniqueInWindow = static_cast<long>(windowCplx.size());
  res.diversity = core::shannonDiversity(windowCplx);
  double sumCx = 0.0;
  double sumCy = 0.0;
  for (const squish::Complexity& c : windowCplx) {
    sumCx += c.cx;
    sumCy += c.cy;
  }
  if (!windowCplx.empty()) {
    res.meanCx = sumCx / static_cast<double>(windowCplx.size());
    res.meanCy = sumCy / static_cast<double>(windowCplx.size());
  }

  BundleStats delta;
  delta.requests = 1;
  delta.generated = static_cast<std::uint64_t>(res.generated);
  delta.legal = static_cast<std::uint64_t>(res.legal);
  delta.unique = static_cast<std::uint64_t>(res.uniqueTotal);

  try {
    if (req.materialize && !window.empty()) {
      const core::MaterializeResult mat =
          core::materialize(window, job.bundle->solver(),
                            job.bundle->geomChecker(), job.rng,
                            req.maxClips);
      res.attempted = mat.attempted;
      res.solved = mat.solved;
      res.drcClean = mat.drcClean;
      delta.solved = static_cast<std::uint64_t>(mat.solved);
      delta.drcClean = static_cast<std::uint64_t>(mat.drcClean);
    }
  } catch (...) {
    metrics_.recordBundle(res.bundle, delta);
    job.promise.set_exception(std::current_exception());
    return;
  }

  const auto elapsed = std::chrono::steady_clock::now() - job.enqueued;
  res.latencyMs =
      std::chrono::duration<double, std::milli>(elapsed).count();
  metrics_.latencyMs().observe(res.latencyMs);
  metrics_.recordBundle(res.bundle, delta);
  job.promise.set_value(std::move(res));
}

void Batcher::stop() {
  {
    LockGuard lock(mutex_);
    if (!started_) return;
    stopping_ = true;
  }
  cv_.notifyAll();
  if (worker_.joinable()) worker_.join();
  LockGuard lock(mutex_);
  started_ = false;
}

}  // namespace dp::serve
