/// \file serve_test.cpp
/// The serving subsystem: checkpoint round-trips (bit-identical
/// inference after save/load), loadTensors hardening, the micro-batching
/// pipeline's determinism contract (seeded server responses ==
/// in-process core flow, at any DP_THREADS), backpressure, shutdown
/// drain, and the HTTP front end.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "core/flows.hpp"
#include "core/guide.hpp"
#include "datagen/generator.hpp"
#include "io/json.hpp"
#include "models/gan.hpp"
#include "models/vae.hpp"
#include "nn/serialize.hpp"
#include "serve/server.hpp"
#include "squish/hash.hpp"
#include "testutil.hpp"

namespace dp {
namespace {

using serve::Bundle;
using serve::BundleBuildConfig;
using serve::BundleSpec;
using serve::GenerateRequest;
using serve::PatternServer;
using test::ScopedDpThreads;
using test::expectTensorsBitEqual;

/// A small trained bundle, built once and shared across tests (the
/// registry only hands out shared_ptr<const Bundle>, so sharing is
/// safe by design).
std::shared_ptr<const Bundle> testBundle(bool guided) {
  // Each variant is lazily built at most once per test process (ctest
  // runs each test in its own process, so keep the builds tiny).
  if (!guided) {
    static const std::shared_ptr<const Bundle> plain = [] {
      Rng rng(11);
      BundleSpec spec;
      spec.name = "tiny";
      spec.tcae.trainSteps = 120;
      spec.sourcePoolSize = 32;
      const auto clips = datagen::generateLibrary(
          datagen::directprintSpec(1), spec.rules, 40, rng);
      return serve::buildBundle(spec, BundleBuildConfig{},
                                datagen::extractTopologies(clips), rng);
    }();
    return plain;
  }
  static const std::shared_ptr<const Bundle> withGuide = [] {
    Rng rng(12);
    BundleSpec spec;
    spec.name = "tiny-guided";
    spec.tcae.trainSteps = 120;
    spec.sourcePoolSize = 32;
    core::GuideConfig gc;
    gc.kind = core::GuideConfig::Kind::kGan;
    gc.gan.trainSteps = 120;
    spec.guide = gc;
    BundleBuildConfig build;
    build.guideCollect.count = 600;
    const auto clips = datagen::generateLibrary(
        datagen::directprintSpec(1), spec.rules, 40, rng);
    return serve::buildBundle(spec, build,
                              datagen::extractTopologies(clips), rng);
  }();
  return withGuide;
}

std::vector<std::uint64_t> sortedHashes(const core::PatternLibrary& lib) {
  std::vector<std::uint64_t> hashes;
  for (const auto& p : lib.patterns())
    hashes.push_back(squish::hashTopology(p));
  std::sort(hashes.begin(), hashes.end());
  return hashes;
}

std::vector<std::uint64_t> hashesFromJson(const std::string& body) {
  const io::Json j = io::Json::parse(body);
  std::vector<std::uint64_t> hashes;
  const io::Json& arr = j.at("patternHashes");
  for (std::size_t i = 0; i < arr.size(); ++i)
    hashes.push_back(arr.at(i).asUint64());
  return hashes;
}

serve::HttpResponse postGenerate(PatternServer& server,
                                 const std::string& body) {
  serve::HttpRequest req;
  req.method = "POST";
  req.target = "/generate";
  req.body = body;
  return server.handle(req);
}

serve::HttpResponse get(PatternServer& server, const std::string& target) {
  serve::HttpRequest req;
  req.method = "GET";
  req.target = target;
  return server.handle(req);
}

// ---------------------------------------------------------------------
// loadTensors hardening (satellite: harden nn::loadParams).

TEST(SerializeHardening, TruncatedFileNamesParameter) {
  Rng rng(1);
  models::TcaeConfig cfg;
  models::Tcae tcae(cfg, rng);
  const test::ScopedTempDir scratch("dp_serve_trunc");
  const std::string path = scratch.file("tcae.bin");
  tcae.save(path);
  const auto size = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, size - 17);
  models::Tcae fresh(cfg, rng);
  try {
    fresh.load(path);
    FAIL() << "expected truncation to throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("parameter"), std::string::npos)
        << e.what();
  }
}

TEST(SerializeHardening, TrailingBytesRejected) {
  Rng rng(2);
  models::TcaeConfig cfg;
  models::Tcae tcae(cfg, rng);
  const test::ScopedTempDir scratch("dp_serve_trail");
  const std::string path = scratch.file("tcae.bin");
  tcae.save(path);
  {
    std::ofstream out(path, std::ios::binary | std::ios::app);
    out << "extra";
  }
  models::Tcae fresh(cfg, rng);
  EXPECT_THROW(fresh.load(path), std::runtime_error);
}

TEST(SerializeHardening, ShapeMismatchNamesParameter) {
  Rng rng(3);
  models::TcaeConfig small;
  small.latentDim = 16;
  models::Tcae a(small, rng);
  const test::ScopedTempDir scratch("dp_serve_shape");
  const std::string path = scratch.file("tcae.bin");
  a.save(path);
  models::TcaeConfig big;
  big.latentDim = 32;
  models::Tcae b(big, rng);
  try {
    b.load(path);
    FAIL() << "expected shape mismatch to throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("parameter"), std::string::npos)
        << e.what();
  }
}

// ---------------------------------------------------------------------
// Checkpoint round-trips (satellite: Gan/Vae save/load parity).

TEST(Checkpoint, GanRoundTripBitIdenticalSampling) {
  Rng rng(21);
  const nn::Tensor data = nn::Tensor::randn({96, 8}, rng);
  models::Gan gan = models::makeMlpGan(8, rng, 4, 16);
  models::GanConfig cfg;
  cfg.trainSteps = 60;
  (void)gan.train(data, cfg, rng);
  const test::ScopedTempDir scratch("dp_serve_gan");
  const std::string path = scratch.file("gan.bin");
  gan.save(path);

  Rng rng2(99);  // different stream: loader must not depend on init
  models::Gan fresh = models::makeMlpGan(8, rng2, 4, 16);
  fresh.load(path);

  // Bit-identical sampling — requires the batch-norm running stats to
  // have survived the round trip, not just the parameters.
  Rng sampleA(7);
  Rng sampleB(7);
  expectTensorsBitEqual(gan.sampleInfer(16, sampleA),
                        fresh.sampleInfer(16, sampleB));
}

TEST(Checkpoint, VaeRoundTripBitIdentical) {
  Rng rng(22);
  models::VaeConfig cfg;
  cfg.backbone = models::VaeConfig::Backbone::kVector;
  cfg.inputDim = 8;
  cfg.latentDim = 4;
  cfg.hidden = 16;
  cfg.trainSteps = 60;
  models::Vae vae(cfg, rng);
  const nn::Tensor data = nn::Tensor::randn({96, 8}, rng);
  (void)vae.train(data, rng);
  const test::ScopedTempDir scratch("dp_serve_vae");
  const std::string path = scratch.file("vae.bin");
  vae.save(path);

  Rng rng2(5);
  models::Vae fresh(cfg, rng2);
  fresh.load(path);
  Rng sampleA(3);
  Rng sampleB(3);
  expectTensorsBitEqual(vae.sampleInfer(12, sampleA),
                        fresh.sampleInfer(12, sampleB));
}

TEST(Checkpoint, GuideModelRoundTrip) {
  Rng rng(23);
  core::GuideConfig cfg;
  cfg.dataDim = 8;
  cfg.zDim = 4;
  cfg.hidden = 16;
  cfg.gan.trainSteps = 60;
  core::GuideModel guide(cfg, rng);
  const nn::Tensor data = nn::Tensor::randn({128, 8}, rng);
  guide.train(data, rng);
  const test::ScopedTempDir scratch("dp_serve_guide");
  const std::string path = scratch.file("guide.bin");
  guide.save(path);

  Rng rng2(77);
  core::GuideModel fresh(cfg, rng2);
  fresh.load(path);
  fresh.setMoments(guide.dataMoments(), guide.guideMoments());
  Rng sampleA(9);
  Rng sampleB(9);
  expectTensorsBitEqual(guide.sample(16, sampleA),
                        fresh.sample(16, sampleB));
}

TEST(Checkpoint, BundleRoundTrip) {
  const auto bundle = testBundle(/*guided=*/true);
  const test::ScopedTempDir scratch("dp_serve_bundle");
  const std::string& dir = scratch.path();
  bundle->save(dir);
  const auto loaded = serve::loadBundle(dir);

  EXPECT_EQ(loaded->name(), bundle->name());
  EXPECT_EQ(loaded->version(), bundle->version());
  EXPECT_EQ(loaded->sensitivity(), bundle->sensitivity());
  expectTensorsBitEqual(loaded->sourceLatents(), bundle->sourceLatents());
  ASSERT_NE(loaded->guide(), nullptr);

  // Decode and guided sampling reproduce bit-for-bit.
  Rng lat(4);
  const nn::Tensor z = nn::Tensor::randn(
      {8, bundle->spec().tcae.latentDim}, lat);
  expectTensorsBitEqual(bundle->tcae().decode(z),
                        loaded->tcae().decode(z));
  Rng sampleA(6);
  Rng sampleB(6);
  expectTensorsBitEqual(bundle->guide()->sample(8, sampleA),
                        loaded->guide()->sample(8, sampleB));
}

// ---------------------------------------------------------------------
// Core flow plans: the serve determinism substrate.

TEST(FlowPlans, PlanPathMatchesTcaeRandomAcrossThreadCounts) {
  const auto bundle = testBundle(false);
  const std::uint64_t seed = 42;
  std::vector<std::uint64_t> reference;
  for (const int threads : {1, 4}) {
    ScopedDpThreads scoped(threads);
    Rng rng(seed);
    const core::LatentPlan plan = core::planRandomLatents(
        bundle->sourceLatents(), bundle->perturber(), 96, 32, rng);
    const core::GenerationResult result = core::decodeLatentsAndAccount(
        bundle->tcae(), plan.latents, nullptr, bundle->checker(), 32);
    const auto hashes = sortedHashes(result.unique);
    if (reference.empty())
      reference = hashes;
    else
      EXPECT_EQ(hashes, reference) << "threads=" << threads;
    EXPECT_EQ(result.generated, 96);
  }
  EXPECT_FALSE(reference.empty());
}

TEST(FlowPlans, ArbitraryDecodeSplitPreservesResult) {
  // The batcher decodes plans in coalesced batches of its own choosing;
  // any split must yield the in-process result.
  const auto bundle = testBundle(false);
  Rng rngA(77);
  Rng rngB(77);
  const core::LatentPlan planA = core::planRandomLatents(
      bundle->sourceLatents(), bundle->perturber(), 80, 32, rngA);
  const core::LatentPlan planB = core::planRandomLatents(
      bundle->sourceLatents(), bundle->perturber(), 80, 32, rngB);
  const auto a = core::decodeLatentsAndAccount(
      bundle->tcae(), planA.latents, nullptr, bundle->checker(), 32);
  const auto b = core::decodeLatentsAndAccount(
      bundle->tcae(), planB.latents, nullptr, bundle->checker(), 13);
  EXPECT_EQ(a.generated, b.generated);
  EXPECT_EQ(a.legal, b.legal);
  EXPECT_EQ(sortedHashes(a.unique), sortedHashes(b.unique));
}

// ---------------------------------------------------------------------
// Server: determinism, backpressure, shutdown, routes.

TEST(Serve, SeededRequestMatchesInProcessFlowAtAnyThreadCount) {
  const auto bundle = testBundle(false);
  const std::uint64_t seed = 2019;
  const long count = 96;
  const int batchSize = 32;

  // In-process reference.
  Rng rng(seed);
  const core::LatentPlan plan = core::planRandomLatents(
      bundle->sourceLatents(), bundle->perturber(), count, batchSize, rng);
  const core::GenerationResult reference = core::decodeLatentsAndAccount(
      bundle->tcae(), plan.latents, nullptr, bundle->checker(), batchSize);
  const auto referenceHashes = sortedHashes(reference.unique);

  for (const int threads : {1, 4}) {
    ScopedDpThreads scoped(threads);
    PatternServer server;
    server.registry().add(bundle);
    const auto res = postGenerate(
        server, "{\"bundle\":\"tiny\",\"count\":96,\"batchSize\":32,"
                "\"seed\":2019}");
    ASSERT_EQ(res.status, 200) << res.body;
    EXPECT_EQ(hashesFromJson(res.body), referenceHashes)
        << "threads=" << threads;
    const io::Json j = io::Json::parse(res.body);
    EXPECT_EQ(j.at("generated").asLong(), reference.generated);
    EXPECT_EQ(j.at("legal").asLong(), reference.legal);
    EXPECT_EQ(j.at("unique").asLong(),
              static_cast<long>(reference.unique.size()));
  }
}

TEST(Serve, CoalescedConcurrentRequestsStaySeedDeterministic) {
  // Concurrent requests share decode batches; each response must still
  // equal its own single-request run.
  const auto bundle = testBundle(false);
  PatternServer::Config config;
  config.batcher.decodeBatch = 64;  // force cross-request coalescing
  PatternServer solo;
  solo.registry().add(bundle);
  std::vector<std::vector<std::uint64_t>> referenceHashes;
  for (int i = 0; i < 4; ++i) {
    const auto res = postGenerate(
        solo, "{\"bundle\":\"tiny\",\"count\":64,\"batchSize\":32,"
              "\"seed\":" + std::to_string(100 + i) + "}");
    ASSERT_EQ(res.status, 200);
    referenceHashes.push_back(hashesFromJson(res.body));
  }

  PatternServer server(config);
  server.registry().add(bundle);
  std::vector<std::thread> clients;
  std::vector<std::vector<std::uint64_t>> got(4);
  for (int i = 0; i < 4; ++i)
    clients.emplace_back([&server, &got, i] {
      const auto res = postGenerate(
          server, "{\"bundle\":\"tiny\",\"count\":64,\"batchSize\":32,"
                  "\"seed\":" + std::to_string(100 + i) + "}");
      ASSERT_EQ(res.status, 200);
      got[static_cast<std::size_t>(i)] = hashesFromJson(res.body);
    });
  for (auto& t : clients) t.join();
  for (int i = 0; i < 4; ++i)
    EXPECT_EQ(got[static_cast<std::size_t>(i)],
              referenceHashes[static_cast<std::size_t>(i)])
        << "seed " << 100 + i;
}

TEST(Serve, GuidedAndCombineFlowsMatchInProcessPlans) {
  const auto bundle = testBundle(/*guided=*/true);
  PatternServer server;
  server.registry().add(bundle);

  {
    Rng rng(31);
    const core::LatentPlan plan = core::planCombineLatents(
        bundle->sourceLatents(), 64, 32, 2, rng);
    const auto reference = core::decodeLatentsAndAccount(
        bundle->tcae(), plan.latents, nullptr, bundle->checker(), 32);
    const auto res = postGenerate(
        server, "{\"bundle\":\"tiny-guided\",\"flow\":\"combine\","
                "\"count\":64,\"batchSize\":32,\"seed\":31}");
    ASSERT_EQ(res.status, 200) << res.body;
    EXPECT_EQ(hashesFromJson(res.body), sortedHashes(reference.unique));
  }
  {
    Rng rng(32);
    const nn::Tensor latents = core::planGuidedLatents(
        *bundle->guide(), &bundle->sourceLatents(), 64, 32, rng);
    const auto reference = core::decodeLatentsAndAccount(
        bundle->tcae(), latents, nullptr, bundle->checker(), 32);
    const auto res = postGenerate(
        server, "{\"bundle\":\"tiny-guided\",\"flow\":\"guided\","
                "\"count\":64,\"batchSize\":32,\"seed\":32}");
    ASSERT_EQ(res.status, 200) << res.body;
    EXPECT_EQ(hashesFromJson(res.body), sortedHashes(reference.unique));
  }
}

TEST(Serve, ComplexityWindowFiltersUniqueSet) {
  const auto bundle = testBundle(false);
  PatternServer server;
  server.registry().add(bundle);
  const auto full = postGenerate(
      server, "{\"bundle\":\"tiny\",\"count\":128,\"seed\":5}");
  ASSERT_EQ(full.status, 200);
  const auto windowed = postGenerate(
      server, "{\"bundle\":\"tiny\",\"count\":128,\"seed\":5,"
              "\"minCx\":2,\"maxCx\":6}");
  ASSERT_EQ(windowed.status, 200);

  const io::Json fj = io::Json::parse(full.body);
  const io::Json wj = io::Json::parse(windowed.body);
  EXPECT_EQ(fj.at("unique").asLong(), wj.at("unique").asLong());
  EXPECT_LE(wj.at("uniqueInWindow").asLong(),
            fj.at("uniqueInWindow").asLong());
  // Windowed hashes are a subset of the full set.
  const auto fullHashes = hashesFromJson(full.body);
  for (const auto h : hashesFromJson(windowed.body))
    EXPECT_TRUE(std::binary_search(fullHashes.begin(), fullHashes.end(), h));
}

TEST(Serve, BackpressureRejectsWhenQueueFull) {
  const auto bundle = testBundle(false);
  serve::Metrics metrics;
  serve::BundleRegistry registry;
  registry.add(bundle);
  serve::Batcher::Config config;
  config.queueCapacity = 1;
  config.maxActive = 1;
  serve::Batcher batcher(registry, metrics, config);

  GenerateRequest req;
  req.bundle = "tiny";
  req.count = 256;
  req.seed = 1;
  std::vector<std::future<serve::GenerateResponse>> accepted;
  bool sawQueueFull = false;
  for (int i = 0; i < 50 && !sawQueueFull; ++i) {
    req.seed = static_cast<std::uint64_t>(i + 1);
    auto result = batcher.submit(req);
    if (result.status == serve::SubmitResult::Status::kAccepted)
      accepted.push_back(std::move(result.future));
    else if (result.status == serve::SubmitResult::Status::kQueueFull)
      sawQueueFull = true;
  }
  EXPECT_TRUE(sawQueueFull);
  EXPECT_FALSE(accepted.empty());
  for (auto& f : accepted) EXPECT_EQ(f.get().generated, 256);
}

TEST(Serve, BackpressureMapsTo429WithRetryAfter) {
  const auto bundle = testBundle(false);
  PatternServer::Config config;
  config.batcher.queueCapacity = 1;
  config.batcher.maxActive = 1;
  PatternServer server(config);
  server.registry().add(bundle);

  std::atomic<int> rejected{0};
  std::atomic<int> okCount{0};
  std::vector<std::thread> clients;
  for (int i = 0; i < 12; ++i)
    clients.emplace_back([&server, &rejected, &okCount, i] {
      const auto res = postGenerate(
          server, "{\"bundle\":\"tiny\",\"count\":256,\"seed\":" +
                      std::to_string(i + 1) + "}");
      if (res.status == 429) {
        bool hasRetryAfter = false;
        for (const auto& [name, value] : res.extraHeaders)
          if (name == "Retry-After") hasRetryAfter = true;
        EXPECT_TRUE(hasRetryAfter);
        ++rejected;
      } else {
        EXPECT_EQ(res.status, 200);
        ++okCount;
      }
    });
  for (auto& t : clients) t.join();
  EXPECT_GT(rejected.load(), 0);
  EXPECT_GT(okCount.load(), 0);
}

TEST(Serve, ShutdownDrainsAcceptedRequests) {
  const auto bundle = testBundle(false);
  serve::Metrics metrics;
  serve::BundleRegistry registry;
  registry.add(bundle);
  serve::Batcher::Config config;
  config.queueCapacity = 16;
  serve::Batcher batcher(registry, metrics, config);

  GenerateRequest req;
  req.bundle = "tiny";
  req.count = 128;
  std::vector<std::future<serve::GenerateResponse>> futures;
  for (int i = 0; i < 6; ++i) {
    req.seed = static_cast<std::uint64_t>(i + 1);
    auto result = batcher.submit(req);
    ASSERT_EQ(result.status, serve::SubmitResult::Status::kAccepted);
    futures.push_back(std::move(result.future));
  }
  batcher.stop();  // must drain, not drop
  for (auto& f : futures) EXPECT_EQ(f.get().generated, 128);
  const auto after = batcher.submit(req);
  EXPECT_EQ(after.status, serve::SubmitResult::Status::kShuttingDown);
}

TEST(Serve, RoutesAndErrors) {
  const auto bundle = testBundle(false);
  PatternServer server;
  server.registry().add(bundle);

  // Health machine: a constructed server is starting (503 from
  // /healthz) until marked ready.
  const auto starting = get(server, "/healthz");
  EXPECT_EQ(starting.status, 503);
  EXPECT_NE(starting.body.find("\"starting\""), std::string::npos);
  server.setHealth(PatternServer::Health::kReady);

  const auto health = get(server, "/healthz");
  EXPECT_EQ(health.status, 200);
  EXPECT_NE(health.body.find("\"ready\""), std::string::npos);

  const auto bundles = get(server, "/bundles");
  EXPECT_EQ(bundles.status, 200);
  EXPECT_NE(bundles.body.find("\"tiny\""), std::string::npos);

  EXPECT_EQ(get(server, "/nope").status, 404);
  serve::HttpRequest postHealth;
  postHealth.method = "POST";
  postHealth.target = "/healthz";
  EXPECT_EQ(server.handle(postHealth).status, 405);

  EXPECT_EQ(postGenerate(server, "{not json").status, 400);
  EXPECT_EQ(postGenerate(server, "{\"bundle\":\"missing\"}").status, 400);
  EXPECT_EQ(
      postGenerate(server, "{\"bundle\":\"tiny\",\"flow\":\"warp\"}")
          .status,
      400);
  EXPECT_EQ(
      postGenerate(server, "{\"bundle\":\"tiny\",\"flow\":\"guided\"}")
          .status,
      400);
  EXPECT_EQ(postGenerate(server, "{\"bundle\":\"tiny\",\"count\":0}")
                .status,
            400);
  // Numeric fields that would wrap, truncate or overflow are refused,
  // not coerced.
  const char* const badNumbers[] = {
      "{\"bundle\":\"tiny\",\"batchSize\":4294967297}",
      "{\"bundle\":\"tiny\",\"minCx\":4294967296}",
      "{\"bundle\":\"tiny\",\"seed\":\"-1\"}",
      "{\"bundle\":\"tiny\",\"seed\":\"12abc\"}",
      "{\"bundle\":\"tiny\",\"count\":1.5}",
      "{\"bundle\":\"tiny\",\"batchSize\":64.9}",
      "{\"bundle\":\"tiny\",\"count\":1e300}",
  };
  for (const char* body : badNumbers)
    EXPECT_EQ(postGenerate(server, body).status, 400) << body;

  const auto metricsRes = get(server, "/metrics");
  EXPECT_EQ(metricsRes.status, 200);
  EXPECT_NE(metricsRes.body.find("dp_requests_total"), std::string::npos);
  EXPECT_NE(metricsRes.body.find("dp_queue_depth"), std::string::npos);
  EXPECT_NE(metricsRes.body.find("dp_batch_occupancy"), std::string::npos);
}

TEST(Serve, MaterializeReportsDrcCleanClips) {
  const auto bundle = testBundle(false);
  PatternServer server;
  server.registry().add(bundle);
  const auto res = postGenerate(
      server, "{\"bundle\":\"tiny\",\"count\":96,\"seed\":8,"
              "\"materialize\":true,\"maxClips\":16}");
  ASSERT_EQ(res.status, 200) << res.body;
  const io::Json j = io::Json::parse(res.body);
  const io::Json& mat = j.at("materialize");
  EXPECT_GT(mat.at("attempted").asLong(), 0);
  EXPECT_GE(mat.at("solved").asLong(), mat.at("drcClean").asLong());
  EXPECT_GT(mat.at("drcClean").asLong(), 0);
}

// ---------------------------------------------------------------------
// HTTP over real sockets.

struct HttpReply {
  int status = 0;
  std::string body;
  std::string rawHead;
};

HttpReply httpCall(int port, const std::string& method,
                   const std::string& path, const std::string& body) {
  HttpReply reply;
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return reply;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0) {
    ::close(fd);
    return reply;
  }
  std::string req = method + " " + path + " HTTP/1.1\r\n";
  req += "Host: 127.0.0.1\r\nConnection: close\r\n";
  req += "Content-Length: " + std::to_string(body.size()) + "\r\n\r\n";
  req += body;
  std::size_t sent = 0;
  while (sent < req.size()) {
    const ssize_t n =
        ::send(fd, req.data() + sent, req.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) break;
    sent += static_cast<std::size_t>(n);
  }
  std::string raw;
  char chunk[4096];
  ssize_t n;
  while ((n = ::recv(fd, chunk, sizeof chunk, 0)) > 0)
    raw.append(chunk, static_cast<std::size_t>(n));
  ::close(fd);
  if (raw.rfind("HTTP/1.1 ", 0) == 0)
    reply.status = std::atoi(raw.c_str() + 9);
  const std::size_t split = raw.find("\r\n\r\n");
  if (split != std::string::npos) {
    reply.rawHead = raw.substr(0, split);
    reply.body = raw.substr(split + 4);
  }
  return reply;
}

TEST(ServeHttp, EphemeralPortEndToEnd) {
  const auto bundle = testBundle(false);
  PatternServer server;  // port 0 -> ephemeral
  server.registry().add(bundle);
  server.start();
  ASSERT_GT(server.port(), 0);

  const HttpReply health = httpCall(server.port(), "GET", "/healthz", "");
  EXPECT_EQ(health.status, 200);

  // Seeded determinism through real sockets, concurrent clients.
  const std::string payload =
      "{\"bundle\":\"tiny\",\"count\":64,\"batchSize\":32,\"seed\":77}";
  std::vector<std::thread> clients;
  std::vector<HttpReply> replies(4);
  for (int i = 0; i < 4; ++i)
    clients.emplace_back([&, i] {
      replies[static_cast<std::size_t>(i)] =
          httpCall(server.port(), "POST", "/generate", payload);
    });
  for (auto& t : clients) t.join();
  ASSERT_EQ(replies[0].status, 200) << replies[0].body;
  const auto expected = hashesFromJson(replies[0].body);
  EXPECT_FALSE(expected.empty());
  for (int i = 1; i < 4; ++i) {
    ASSERT_EQ(replies[static_cast<std::size_t>(i)].status, 200);
    EXPECT_EQ(hashesFromJson(replies[static_cast<std::size_t>(i)].body),
              expected);
  }

  // The metrics endpoint accounts those requests.
  const HttpReply metrics = httpCall(server.port(), "GET", "/metrics", "");
  EXPECT_EQ(metrics.status, 200);
  EXPECT_NE(
      metrics.body.find(
          "dp_requests_total{route=\"/generate\",status=\"200\"}"),
      std::string::npos);
  server.stop();
}

TEST(ServeHttp, CleanShutdownUnderLoad) {
  const auto bundle = testBundle(false);
  PatternServer server;
  server.registry().add(bundle);
  server.start();
  std::vector<std::thread> clients;
  std::atomic<int> done{0};
  for (int i = 0; i < 3; ++i)
    clients.emplace_back([&server, &done, i] {
      (void)httpCall(server.port(), "POST", "/generate",
                     "{\"bundle\":\"tiny\",\"count\":128,\"seed\":" +
                         std::to_string(i + 1) + "}");
      ++done;
    });
  // Stop while clients are likely in flight; accepted work must drain
  // and the join must not hang.
  server.stop();
  for (auto& t : clients) t.join();
  EXPECT_EQ(done.load(), 3);
}

}  // namespace
}  // namespace dp
