#include "serve/server.hpp"

#include <cstdlib>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

#include "common/fault.hpp"
#include "io/json.hpp"

namespace dp::serve {

using dp::io::Json;

namespace {

EventLoopServer::Config withMetrics(EventLoopServer::Config config,
                                    Metrics* metrics) {
  config.metrics = metrics;
  return config;
}

/// An integer request field narrowed to int: range-checked first, so
/// an out-of-range value is a 400 instead of a wrapped one.
int intField(const Json& j, const char* key) {
  const long v = j.at(key).asLong();
  if (v < std::numeric_limits<int>::min() ||
      v > std::numeric_limits<int>::max())
    throw std::runtime_error(std::string("generate request: ") + key +
                             " is out of range");
  return static_cast<int>(v);
}

}  // namespace

GenerateRequest parseGenerateRequest(const std::string& body) {
  GenerateRequest req;
  if (body.empty()) return req;
  const Json j = Json::parse(body);
  if (!j.isObject())
    throw std::runtime_error("generate request must be a JSON object");
  if (j.has("bundle")) req.bundle = j.at("bundle").asString();
  if (j.has("flow")) req.flow = j.at("flow").asString();
  if (j.has("count")) req.count = j.at("count").asLong();
  if (j.has("batchSize")) req.batchSize = intField(j, "batchSize");
  if (j.has("arity")) req.arity = intField(j, "arity");
  if (j.has("seed")) req.seed = j.at("seed").asUint64();
  if (j.has("materialize")) req.materialize = j.at("materialize").asBool();
  if (j.has("maxClips")) req.maxClips = j.at("maxClips").asLong();
  if (j.has("deadline_ms")) req.deadlineMs = j.at("deadline_ms").asLong();
  if (j.has("deadlineMs")) req.deadlineMs = j.at("deadlineMs").asLong();
  if (j.has("minCx")) req.minCx = intField(j, "minCx");
  if (j.has("maxCx")) req.maxCx = intField(j, "maxCx");
  if (j.has("minCy")) req.minCy = intField(j, "minCy");
  if (j.has("maxCy")) req.maxCy = intField(j, "maxCy");
  return req;
}

std::string generateResponseJson(const GenerateResponse& res) {
  Json j = Json::object();
  j.set("bundle", res.bundle);
  j.set("version", res.version);
  j.set("flow", res.flow);
  j.set("seed", std::to_string(res.seed));
  j.set("generated", res.generated);
  j.set("legal", res.legal);
  j.set("unique", res.uniqueTotal);
  j.set("uniqueInWindow", res.uniqueInWindow);
  j.set("diversity", res.diversity);
  j.set("meanCx", res.meanCx);
  j.set("meanCy", res.meanCy);
  Json hashes = Json::array();
  for (const std::uint64_t h : res.patternHashes)
    hashes.push(std::to_string(h));
  j.set("patternHashes", std::move(hashes));
  if (res.attempted > 0 || res.solved > 0) {
    Json mat = Json::object();
    mat.set("attempted", res.attempted);
    mat.set("solved", res.solved);
    mat.set("drcClean", res.drcClean);
    j.set("materialize", std::move(mat));
  }
  j.set("latencyMs", res.latencyMs);
  j.set("decodeBatches", res.decodeBatches);
  return j.dump();
}

PatternServer::PatternServer(Config config)
    : config_(std::move(config)),
      batcher_(registry_, metrics_, config_.batcher),
      http_(withMetrics(config_.http, &metrics_),
            [this](const HttpRequest& req) { return handle(req); }) {}

PatternServer::~PatternServer() { stop(); }

const char* PatternServer::healthName(Health health) {
  switch (health) {
    case Health::kStarting:
      return "starting";
    case Health::kReady:
      return "ready";
    case Health::kDegraded:
      return "degraded";
    case Health::kDraining:
      return "draining";
  }
  return "unknown";
}

int PatternServer::loadBundles(const std::string& root,
                               std::vector<std::string>* errors) {
  {
    LockGuard lock(rootMutex_);
    bundleRoot_ = root;
  }
  std::vector<std::string> local;
  const int loaded = registry_.loadDirectory(root, &local);
  const Health current = health();
  if (current != Health::kDraining) {
    if (!local.empty())
      setHealth(Health::kDegraded);
    else if (current == Health::kDegraded && loaded > 0)
      setHealth(Health::kReady);
  }
  if (errors)
    errors->insert(errors->end(), local.begin(), local.end());
  return loaded;
}

void PatternServer::start() {
  http_.start();
  if (health() == Health::kStarting) setHealth(Health::kReady);
}

void PatternServer::stop() {
  setHealth(Health::kDraining);
  batcher_.stop();
  http_.stop();
}

HttpResponse PatternServer::handle(const HttpRequest& request) {
  HttpResponse res;
  if (request.target == "/healthz") {
    if (request.method != "GET") {
      res.status = 405;
      res.body = "{\"error\":\"method not allowed\"}";
    } else {
      // A stopped batcher means drain regardless of the stored state.
      const Health state =
          batcher_.running() ? health() : Health::kDraining;
      Json j = Json::object();
      j.set("status", healthName(state));
      j.set("bundles", static_cast<long>(registry_.list().size()));
      j.set("shed", static_cast<long>(metrics_.shedTotal()));
      res.body = j.dump();
      if (state == Health::kStarting || state == Health::kDraining)
        res.status = 503;
    }
  } else if (request.target == "/bundles") {
    if (request.method != "GET") {
      res.status = 405;
      res.body = "{\"error\":\"method not allowed\"}";
    } else {
      res = handleBundles();
    }
  } else if (request.target == "/metrics") {
    if (request.method != "GET") {
      res.status = 405;
      res.body = "{\"error\":\"method not allowed\"}";
    } else {
      res.contentType = "text/plain; version=0.0.4";
      res.body = metrics_.renderPrometheus();
    }
  } else if (request.target == "/generate") {
    if (request.method != "POST") {
      res.status = 405;
      res.body = "{\"error\":\"method not allowed\"}";
    } else {
      res = handleGenerate(request);
    }
  } else if (request.target == "/admin/reload") {
    if (request.method != "POST") {
      res.status = 405;
      res.body = "{\"error\":\"method not allowed\"}";
    } else {
      res = handleReload();
    }
  } else {
    res.status = 404;
    res.body = "{\"error\":\"no such route\"}";
  }
  metrics_.countRequest(request.target, res.status);
  return res;
}

HttpResponse PatternServer::handleBundles() const {
  Json j = Json::object();
  Json arr = Json::array();
  for (const auto& bundle : registry_.list()) {
    Json b = Json::object();
    b.set("name", bundle->name());
    b.set("version", bundle->version());
    b.set("latentDim", bundle->spec().tcae.latentDim);
    b.set("inputSize", bundle->spec().tcae.inputSize);
    b.set("sourcePool", bundle->sourceLatents().size(0));
    if (const core::GuideModel* guide = bundle->guide())
      b.set("guide",
            guide->config().kind == core::GuideConfig::Kind::kGan
                ? "gan"
                : "vae");
    else
      b.set("guide", Json());
    b.set("maxCx", bundle->spec().rules.maxCx);
    b.set("maxCy", bundle->spec().rules.maxCy);
    arr.push(std::move(b));
  }
  j.set("bundles", std::move(arr));
  HttpResponse res;
  res.body = j.dump();
  return res;
}

HttpResponse PatternServer::handleReload() {
  std::string root;
  {
    LockGuard lock(rootMutex_);
    root = bundleRoot_;
  }
  HttpResponse res;
  if (root.empty()) {
    res.status = 400;
    res.body = "{\"error\":\"no bundle root to reload\"}";
    return res;
  }
  // Hot reload: loadDirectory re-reads every bundle generation under
  // the root and BundleRegistry::add replaces same-name bundles in
  // place (latest version wins), so in-flight requests keep their
  // shared_ptr to the old bundle and new requests see the new one —
  // zero downtime by construction.
  std::vector<std::string> errors;
  const int loaded = loadBundles(root, &errors);
  Json j = Json::object();
  j.set("loaded", loaded);
  j.set("status", healthName(health()));
  Json errs = Json::array();
  for (const std::string& e : errors) errs.push(e);
  j.set("errors", std::move(errs));
  res.body = j.dump();
  if (loaded == 0 && !errors.empty()) res.status = 500;
  return res;
}

HttpResponse PatternServer::handleGenerate(const HttpRequest& request) {
  // Chaos hook: models a worker process dying mid-request (OOM kill,
  // segfault) — the process exits without flushing anything, so the
  // client sees a truncated connection and the LB must retry the
  // in-flight request on another worker.
  static FaultSite crashFault("serve.worker.crash");
  if (crashFault.shouldFail()) std::_Exit(137);

  HttpResponse res;
  GenerateRequest req;
  try {
    req = parseGenerateRequest(request.body);
  } catch (const std::exception& e) {
    res.status = 400;
    Json err = Json::object();
    err.set("error", e.what());
    res.body = err.dump();
    return res;
  }
  SubmitResult submitted = batcher_.submit(req);
  switch (submitted.status) {
    case SubmitResult::Status::kAccepted:
      break;
    case SubmitResult::Status::kQueueFull:
      res.status = 429;
      res.extraHeaders.emplace_back("Retry-After", "1");
      res.body = "{\"error\":\"" + submitted.error + "\"}";
      return res;
    case SubmitResult::Status::kShuttingDown:
      res.status = 503;
      res.body = "{\"error\":\"" + submitted.error + "\"}";
      return res;
    case SubmitResult::Status::kInvalid:
      res.status = 400;
      res.body = "{\"error\":\"" + submitted.error + "\"}";
      return res;
  }
  try {
    const GenerateResponse generated = submitted.future.get();
    res.body = generateResponseJson(generated);
  } catch (const DeadlineExceeded& e) {
    // Shed, not failed: the client's latency budget ran out while the
    // request waited for decode capacity. Retryable.
    res.status = 503;
    res.extraHeaders.emplace_back("Retry-After", "1");
    Json err = Json::object();
    err.set("error", e.what());
    res.body = err.dump();
  } catch (const std::exception& e) {
    res.status = 500;
    Json err = Json::object();
    err.set("error", e.what());
    res.body = err.dump();
  }
  return res;
}

}  // namespace dp::serve
