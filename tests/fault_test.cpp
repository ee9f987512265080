/// \file fault_test.cpp
/// Chaos layer (DESIGN.md §11): the deterministic fault-injection
/// substrate itself (seeded replayability, spec parsing, counters),
/// crash-safe checkpoint/bundle publication (atomic-writer fault
/// windows, CRC verification, last-good fallback), deadline shedding,
/// health transitions, and a torture corpus of malformed HTTP requests
/// that must be answered or closed — never hung on.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/atomic_file.hpp"
#include "common/fault.hpp"
#include "datagen/generator.hpp"
#include "io/json.hpp"
#include "nn/serialize.hpp"
#include "pipeline/massive.hpp"
#include "serve/server.hpp"
#include "testutil.hpp"

namespace dp {
namespace {

using serve::Bundle;
using serve::BundleBuildConfig;
using serve::BundleSpec;
using serve::PatternServer;
using test::ScopedDpThreads;

/// Every test starts and ends with a clean fault registry: fault state
/// is global by design (DP_FAULTS arms process-wide), so leaking an
/// armed site across tests would poison unrelated assertions.
class FaultTest : public ::testing::Test {
 protected:
  void SetUp() override { faults::disarmAll(); }
  void TearDown() override { faults::disarmAll(); }
};

std::string readFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::string out;
  char c = 0;
  while (in.get(c)) out.push_back(c);
  return out;
}

/// A minimal trained bundle (smaller than serve_test's: these tests
/// exercise publication and registry mechanics, not model quality).
std::shared_ptr<const Bundle> tinyBundle() {
  static const std::shared_ptr<const Bundle> bundle = [] {
    Rng rng(11);
    BundleSpec spec;
    spec.name = "tiny";
    spec.tcae.trainSteps = 60;
    spec.sourcePoolSize = 16;
    const auto clips = datagen::generateLibrary(
        datagen::directprintSpec(1), spec.rules, 24, rng);
    return serve::buildBundle(spec, BundleBuildConfig{},
                              datagen::extractTopologies(clips), rng);
  }();
  return bundle;
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
// The fault substrate itself.

TEST_F(FaultTest, DisabledSitesNeverFire) {
  FaultSite site("t.disabled");
  for (int i = 0; i < 1000; ++i) EXPECT_FALSE(site.shouldFail());
  EXPECT_FALSE(faults::anyArmed());
}

TEST_F(FaultTest, SeededSequenceIsReplayable) {
  FaultSite site("t.replay");
  const auto pattern = [&site] {
    std::vector<bool> fired;
    fired.reserve(200);
    for (int i = 0; i < 200; ++i) fired.push_back(site.shouldFail());
    return fired;
  };

  faults::arm("t.replay", 42, 0.3);
  const std::vector<bool> first = pattern();
  const auto counters = faults::counters().at("t.replay");
  EXPECT_EQ(counters.calls, 200U);
  std::uint64_t fires = 0;
  for (const bool f : first) fires += f ? 1 : 0;
  EXPECT_EQ(counters.fires, fires);
  EXPECT_GT(fires, 0U);
  EXPECT_LT(fires, 200U);

  // Re-arming with the same seed replays the identical sequence; a
  // different seed diverges.
  faults::arm("t.replay", 42, 0.3);
  EXPECT_EQ(pattern(), first);
  faults::arm("t.replay", 43, 0.3);
  EXPECT_NE(pattern(), first);
}

TEST_F(FaultTest, RateBoundsAlwaysAndNever) {
  FaultSite site("t.bounds");
  faults::arm("t.bounds", 1, 1.0);
  for (int i = 0; i < 50; ++i) EXPECT_TRUE(site.shouldFail());
  faults::arm("t.bounds", 1, 0.0);  // rate 0 disarms
  for (int i = 0; i < 50; ++i) EXPECT_FALSE(site.shouldFail());
  EXPECT_FALSE(faults::anyArmed());
}

TEST_F(FaultTest, OrThrowCarriesSiteName) {
  FaultSite site("t.orthrow");
  faults::arm("t.orthrow", 5, 1.0);
  try {
    site.orThrow();
    FAIL() << "expected FaultInjected";
  } catch (const FaultInjected& e) {
    EXPECT_EQ(e.site(), "t.orthrow");
  }
}

TEST_F(FaultTest, ArmFromSpecParsesAndRejects) {
  EXPECT_EQ(faults::armFromSpec("t.a:7:0.5,t.b:9:1"), 2);
  EXPECT_TRUE(faults::anyArmed());
  FaultSite b("t.b");
  EXPECT_TRUE(b.shouldFail());

  for (const char* bad :
       {"t.a", "t.a:1", "t.a:x:0.5", "t.a:1:zero", "t.a:1:0.5x",
        ":1:0.5"}) {
    EXPECT_THROW((void)faults::armFromSpec(bad), std::invalid_argument)
        << "spec: " << bad;
  }
  // Empty specs and empty segments are tolerated (DP_FAULTS="" arms
  // nothing rather than refusing to start the process).
  EXPECT_EQ(faults::armFromSpec(""), 0);
  EXPECT_EQ(faults::armFromSpec("t.a:1:0.5,,t.b:1:1"), 2);
}

// ---------------------------------------------------------------------
// Atomic file publication under injected faults.

TEST_F(FaultTest, AtomicWriterPublishesAndChecksums) {
  const test::ScopedTempDir dir("dp_fault_atomic");
  const std::string path = dir.file("data.txt");
  AtomicFileWriter out(path);
  out.append("hello ");
  out.append("world");
  const std::uint32_t crc = out.commit();
  EXPECT_EQ(readFile(path), "hello world");
  EXPECT_EQ(crc32File(path), crc);
  EXPECT_EQ(crc, crc32("hello world"));
}

TEST_F(FaultTest, ChecksumReadFaultIsInjectable) {
  const test::ScopedTempDir dir("dp_fault_crc");
  const std::string path = dir.file("data.txt");
  AtomicFileWriter out(path);
  out.append("payload");
  const std::uint32_t crc = out.commit();

  faults::arm("io.atomic.crc", 2, 1.0);
  EXPECT_THROW((void)crc32File(path), std::runtime_error);
  faults::disarm("io.atomic.crc");

  // A failed verification pass must not perturb the file itself.
  EXPECT_EQ(crc32File(path), crc);
  EXPECT_EQ(readFile(path), "payload");
}

TEST_F(FaultTest, InjectedFaultsLeavePreviousFileIntact) {
  const test::ScopedTempDir dir("dp_fault_window");
  const std::string path = dir.file("data.txt");
  {
    AtomicFileWriter out(path);
    out.append("generation one");
    (void)out.commit();
  }
  // Each crash window: the replacement write fails, the previous
  // content survives, and no temp file is left behind.
  for (const char* site :
       {"io.atomic.write", "io.atomic.fsync", "io.atomic.rename"}) {
    faults::arm(site, 1, 1.0);
    AtomicFileWriter out(path);
    out.append("generation two");
    EXPECT_THROW((void)out.commit(), std::runtime_error) << site;
    faults::disarm(site);
    EXPECT_EQ(readFile(path), "generation one") << site;
    int entries = 0;
    for (const auto& e :
         std::filesystem::directory_iterator(dir.path())) {
      (void)e;
      ++entries;
    }
    EXPECT_EQ(entries, 1) << site << ": temp file left behind";
  }
}

TEST_F(FaultTest, RenameFaultPreservesPreviousCheckpoint) {
  const test::ScopedTempDir scratch("dp_fault_ckpt");
  const std::string path = scratch.file("t.bin");
  nn::Tensor v1({2, 3});
  for (std::size_t i = 0; i < v1.numel(); ++i)
    v1[i] = static_cast<float>(i) * 0.5F;
  nn::saveTensor(v1, path);

  nn::Tensor v2({2, 3});
  for (std::size_t i = 0; i < v2.numel(); ++i) v2[i] = -1.0F;
  faults::arm("io.atomic.rename", 3, 1.0);
  EXPECT_THROW(nn::saveTensor(v2, path), std::runtime_error);
  faults::disarm("io.atomic.rename");

  EXPECT_TRUE(test::tensorsBitEqual(nn::loadTensor(path), v1));
}

TEST_F(FaultTest, LoadOpenFaultIsInjectable) {
  const test::ScopedTempDir scratch("dp_fault_open");
  const std::string path = scratch.file("t.bin");
  nn::Tensor t({2});
  t[0] = 1.0F;
  t[1] = 2.0F;
  nn::saveTensor(t, path);
  faults::arm("nn.load.open", 9, 1.0);
  EXPECT_THROW((void)nn::loadTensor(path), std::runtime_error);
  faults::disarm("nn.load.open");
  EXPECT_TRUE(test::tensorsBitEqual(nn::loadTensor(path), t));
}

// ---------------------------------------------------------------------
// Bundle publication: CRC verification, kill windows, last-good.

/// The manifest-recorded relative path of one bundle data file.
std::string manifestDataFile(const std::string& dir,
                             const std::string& key) {
  const io::Json m = io::Json::parse(readFile(dir + "/manifest.json"));
  return dir + "/" + m.at("files").at(key).at("path").asString();
}

TEST_F(FaultTest, BundleChecksumRejectsBitFlip) {
  const test::ScopedTempDir scratch("dp_fault_crc");
  const std::string dir = scratch.file("tiny");
  tinyBundle()->save(dir);
  ASSERT_NO_THROW((void)serve::loadBundle(dir));

  const std::string victim = manifestDataFile(dir, "tcae");
  {
    std::fstream f(victim,
                   std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    f.seekg(0, std::ios::end);
    const auto size = static_cast<long>(f.tellg());
    f.seekp(size / 2);
    char byte = 0;
    f.seekg(size / 2);
    f.get(byte);
    f.seekp(size / 2);
    f.put(static_cast<char>(byte ^ 0x40));
  }
  try {
    (void)serve::loadBundle(dir);
    FAIL() << "expected checksum mismatch";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("checksum mismatch"),
              std::string::npos)
        << e.what();
  }
}

TEST_F(FaultTest, BundleSizeMismatchRejectsTruncation) {
  const test::ScopedTempDir scratch("dp_fault_trunc");
  const std::string dir = scratch.file("tiny");
  tinyBundle()->save(dir);
  const std::string victim = manifestDataFile(dir, "latents");
  std::filesystem::resize_file(
      victim, std::filesystem::file_size(victim) - 8);
  try {
    (void)serve::loadBundle(dir);
    FAIL() << "expected size mismatch";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("size mismatch"),
              std::string::npos)
        << e.what();
  }
}

TEST_F(FaultTest, BundleSaveCrashWindowKeepsPreviousGeneration) {
  const test::ScopedTempDir scratch("dp_fault_gen");
  const std::string dir = scratch.file("tiny");
  const auto bundle = tinyBundle();
  bundle->save(dir);
  const auto before = serve::loadBundle(dir);

  // A save that dies at any atomic-writer stage (the manifest rename
  // is the last and decisive window) must leave generation 1 loadable.
  for (const char* site :
       {"io.atomic.write", "io.atomic.rename"}) {
    faults::arm(site, 2, 1.0);
    EXPECT_THROW(bundle->save(dir), std::runtime_error) << site;
    faults::disarm(site);
    std::shared_ptr<const Bundle> after;
    ASSERT_NO_THROW(after = serve::loadBundle(dir)) << site;
    EXPECT_TRUE(test::tensorsBitEqual(after->sourceLatents(),
                                      before->sourceLatents()))
        << site;
  }

  // A clean save advances the generation and still loads.
  bundle->save(dir);
  const io::Json m = io::Json::parse(readFile(dir + "/manifest.json"));
  EXPECT_GT(m.at("generation").asLong(), 1);
  ASSERT_NO_THROW((void)serve::loadBundle(dir));
}

TEST_F(FaultTest, RegistrySkipsCorruptDirAndKeepsLastGood) {
  const test::ScopedTempDir scratch("dp_fault_registry");
  const std::string& root = scratch.path();
  const auto bundle = tinyBundle();
  bundle->save(root + "/good");
  bundle->save(root + "/broken");
  std::filesystem::resize_file(
      manifestDataFile(root + "/broken", "tcae"), 10);

  serve::BundleRegistry registry;
  std::vector<std::string> errors;
  EXPECT_EQ(registry.loadDirectory(root, &errors), 1);
  ASSERT_EQ(errors.size(), 1U);
  EXPECT_NE(errors[0].find("broken"), std::string::npos);
  EXPECT_NE(registry.find("tiny"), nullptr);

  // An injected load fault on a reload pass must not evict the
  // last-good bundle already registered.
  const auto lastGood = registry.find("tiny");
  faults::arm("serve.bundle.load", 4, 1.0);
  errors.clear();
  EXPECT_EQ(registry.loadDirectory(root, &errors), 0);
  EXPECT_EQ(errors.size(), 2U);
  faults::disarm("serve.bundle.load");
  EXPECT_EQ(registry.find("tiny"), lastGood);
}

// ---------------------------------------------------------------------
// Deadline shedding and fault-driven shed determinism.

TEST_F(FaultTest, DeadlineExpiredRequestIsShedWith503) {
  PatternServer server;
  server.registry().add(tinyBundle());
  server.setHealth(PatternServer::Health::kReady);

  // Occupy the batcher with a long job, then keep submitting requests
  // with a 1 ms budget: one of them must land while a decode batch is
  // in flight, wait out its budget in the queue, and be shed. (A 200
  // just means that attempt was processed within its budget — retry.)
  std::atomic<bool> bigDone{false};
  std::thread big([&server, &bigDone] {
    (void)postGenerate(server,
                       "{\"bundle\":\"tiny\",\"count\":20000,\"seed\":1}");
    bigDone.store(true);
  });
  serve::HttpResponse res;
  bool shed = false;
  while (!shed && !bigDone.load()) {
    res = postGenerate(
        server,
        "{\"bundle\":\"tiny\",\"count\":8,\"seed\":2,\"deadline_ms\":1}");
    shed = res.status == 503;
  }
  big.join();
  ASSERT_TRUE(shed) << "no attempt was shed while the big job ran";
  bool retryAfter = false;
  for (const auto& [name, value] : res.extraHeaders)
    retryAfter = retryAfter || name == "Retry-After";
  EXPECT_TRUE(retryAfter);

  const auto metrics = get(server, "/metrics");
  EXPECT_NE(metrics.body.find("dp_shed_total{reason=\"deadline\"}"),
            std::string::npos);
  EXPECT_GE(server.metrics().shedTotal(), 1U);
}

TEST_F(FaultTest, InvalidDeadlineRejected) {
  PatternServer server;
  server.registry().add(tinyBundle());
  EXPECT_EQ(postGenerate(server, "{\"bundle\":\"tiny\",\"deadline_ms\":-5}")
                .status,
            400);
}

/// The acceptance criterion: identical fault seeds reproduce identical
/// shed sequences regardless of thread count (requests are submitted
/// sequentially, so per-site call order is fixed).
TEST_F(FaultTest, AdmitFaultShedSequenceIsThreadCountInvariant) {
  const auto run = [] {
    PatternServer server;
    server.registry().add(tinyBundle());
    faults::arm("serve.batcher.admit", 77, 0.5);
    std::string statuses;
    for (int i = 0; i < 16; ++i) {
      const auto res = postGenerate(
          server, "{\"bundle\":\"tiny\",\"count\":8,\"seed\":" +
                      std::to_string(i + 1) + "}");
      statuses += res.status == 200 ? 'A' : 'S';
      EXPECT_TRUE(res.status == 200 || res.status == 429) << res.status;
    }
    faults::disarm("serve.batcher.admit");
    return statuses;
  };

  std::string one;
  std::string eight;
  {
    ScopedDpThreads threads(1);
    one = run();
  }
  {
    ScopedDpThreads threads(8);
    eight = run();
  }
  EXPECT_EQ(one, eight);
  EXPECT_NE(one.find('A'), std::string::npos);
  EXPECT_NE(one.find('S'), std::string::npos);
}

TEST_F(FaultTest, DecodeFaultFailsRequestNotServer) {
  PatternServer server;
  server.registry().add(tinyBundle());
  faults::arm("serve.batcher.decode", 6, 1.0);
  const auto failed =
      postGenerate(server, "{\"bundle\":\"tiny\",\"count\":8,\"seed\":1}");
  EXPECT_EQ(failed.status, 500);
  faults::disarm("serve.batcher.decode");
  const auto ok =
      postGenerate(server, "{\"bundle\":\"tiny\",\"count\":8,\"seed\":1}");
  EXPECT_EQ(ok.status, 200) << ok.body;
}

// ---------------------------------------------------------------------
// Health state machine.

TEST_F(FaultTest, HealthTransitions) {
  PatternServer server;
  EXPECT_EQ(get(server, "/healthz").status, 503);
  EXPECT_NE(get(server, "/healthz").body.find("\"starting\""),
            std::string::npos);

  server.setHealth(PatternServer::Health::kReady);
  EXPECT_EQ(get(server, "/healthz").status, 200);

  // A partially corrupt bundle root degrades but keeps serving.
  const test::ScopedTempDir scratch2("dp_fault_health");
  const std::string& root = scratch2.path();
  tinyBundle()->save(root + "/good");
  tinyBundle()->save(root + "/broken");
  std::filesystem::resize_file(
      manifestDataFile(root + "/broken", "latents"), 4);
  std::vector<std::string> errors;
  EXPECT_EQ(server.loadBundles(root, &errors), 1);
  EXPECT_EQ(errors.size(), 1U);
  EXPECT_EQ(server.health(), PatternServer::Health::kDegraded);
  const auto degraded = get(server, "/healthz");
  EXPECT_EQ(degraded.status, 200);
  EXPECT_NE(degraded.body.find("\"degraded\""), std::string::npos);

  // A clean reload restores ready; stop() drains.
  std::filesystem::remove_all(root + "/broken");
  EXPECT_EQ(server.loadBundles(root), 1);
  EXPECT_EQ(server.health(), PatternServer::Health::kReady);
  server.stop();
  const auto draining = get(server, "/healthz");
  EXPECT_EQ(draining.status, 503);
  EXPECT_NE(draining.body.find("\"draining\""), std::string::npos);
}

TEST_F(FaultTest, MetricsExposeShedAndFaultCounters) {
  serve::Metrics metrics;
  metrics.countShed("queue_full");
  metrics.countShed("queue_full");
  metrics.countShed("deadline");
  EXPECT_EQ(metrics.shedTotal(), 3U);
  FaultSite site("t.metrics");
  faults::arm("t.metrics", 8, 1.0);
  (void)site.shouldFail();
  const std::string text = metrics.renderPrometheus();
  EXPECT_NE(text.find("dp_shed_total{reason=\"queue_full\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("dp_shed_total{reason=\"deadline\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("dp_fault_calls_total{site=\"t.metrics\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("dp_fault_fires_total{site=\"t.metrics\"} 1"),
            std::string::npos);
}

// ---------------------------------------------------------------------
// Massive-pipeline checkpoint sites (DESIGN.md §12): every
// pipeline.checkpoint.* boundary's fire/call sequence is a pure
// function of (seed, rate, call index) — bit-identical at any
// DP_THREADS, because all boundary sites fire on the coordinator
// thread — and the counters surface on the metrics endpoint like any
// other site's.

pipeline::MassiveConfig tinyMassiveConfig(const std::string& dir) {
  pipeline::MassiveConfig config;
  config.dir = dir;
  config.count = 512;
  config.batchSize = 64;
  config.checkpointEvery = 128;
  config.patternsPerSegment = 16;
  config.seed = 31;
  return config;
}

pipeline::MassiveResult runTinyMassive(const pipeline::MassiveConfig& c,
                                       serve::Metrics* metrics = nullptr) {
  const auto bundle = tinyBundle();
  return pipeline::runMassive(bundle->tcae(), bundle->sourceLatents(),
                              bundle->perturber(), bundle->checker(), c,
                              metrics);
}

TEST_F(FaultTest, PipelineCheckpointSitesReplayable) {
  const std::vector<std::string> sites = {
      "pipeline.checkpoint.plan",   "pipeline.checkpoint.decode",
      "pipeline.checkpoint.assess", "pipeline.checkpoint.dedup",
      "pipeline.checkpoint.seal",   "pipeline.checkpoint.commit",
      "pipeline.checkpoint.resume"};
  for (const std::string& site : sites) {
    SCOPED_TRACE(site);
    std::optional<FaultCounters> reference;
    for (const int threads : {1, 8}) {
      ScopedDpThreads guard(threads);
      test::ScopedTempDir dir("dp_fault_ppl_" + std::to_string(threads));
      const pipeline::MassiveConfig config =
          tinyMassiveConfig(dir.path());
      // A clean half-run commits a manifest, so the armed run below
      // also exercises the resume boundary.
      pipeline::MassiveConfig half = config;
      half.count = 256;
      (void)runTinyMassive(half);
      faults::arm(site, 29, 0.5);
      try {
        (void)runTinyMassive(config);
      } catch (const FaultInjected& e) {
        EXPECT_EQ(e.site(), site);
      }
      const FaultCounters counters = faults::counters().at(site);
      faults::disarmAll();
      EXPECT_GT(counters.calls, 0U);
      if (!reference) {
        reference = counters;
      } else {
        EXPECT_EQ(counters.calls, reference->calls)
            << "boundary call sequence depends on DP_THREADS";
        EXPECT_EQ(counters.fires, reference->fires)
            << "boundary fire sequence depends on DP_THREADS";
      }
    }
  }
}

TEST_F(FaultTest, PipelineCheckpointCountersReachMetricsSurface) {
  test::ScopedTempDir dir("dp_fault_ppl_metrics");
  pipeline::MassiveConfig config = tinyMassiveConfig(dir.path());
  config.count = 128;
  // Armed at a vanishing rate: counts calls without ever firing.
  faults::arm("pipeline.checkpoint.decode", 7, 1e-12);
  serve::Metrics metrics;
  (void)runTinyMassive(config, &metrics);
  const std::string text = metrics.renderPrometheus();
  EXPECT_NE(
      text.find(
          "dp_fault_calls_total{site=\"pipeline.checkpoint.decode\"} 2"),
      std::string::npos)
      << text;
  EXPECT_NE(text.find("dp_pipeline_stage_items_total{stage=\"decode\"} "
                      "128"),
            std::string::npos)
      << text;
}

// ---------------------------------------------------------------------
// HTTP torture corpus: every malformed request is answered or the
// connection closed — never a hang, never a crash.

struct RawReply {
  int status = 0;          ///< 0 = connection closed with no response
  double elapsedMs = 0.0;
  bool connected = false;
};

/// Sends raw bytes, optionally half-closes, and reads to EOF with a
/// client-side receive timeout so a hung server fails the test instead
/// of wedging it.
RawReply rawCall(int port, const std::string& bytes, bool halfClose) {
  RawReply reply;
  const auto start = std::chrono::steady_clock::now();
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return reply;
  timeval tv{};
  tv.tv_sec = 4;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0) {
    ::close(fd);
    return reply;
  }
  reply.connected = true;
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = ::send(fd, bytes.data() + sent,
                             bytes.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) break;
    sent += static_cast<std::size_t>(n);
  }
  if (halfClose) ::shutdown(fd, SHUT_WR);
  std::string raw;
  char chunk[4096];
  ssize_t n = 0;
  while ((n = ::recv(fd, chunk, sizeof chunk, 0)) > 0)
    raw.append(chunk, static_cast<std::size_t>(n));
  ::close(fd);
  if (raw.rfind("HTTP/1.1 ", 0) == 0)
    reply.status = std::atoi(raw.c_str() + 9);
  reply.elapsedMs = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - start)
                        .count();
  return reply;
}

TEST_F(FaultTest, MalformedHttpTortureCorpus) {
  PatternServer::Config config;
  config.http.maxHeaderBytes = 2048;
  config.http.maxBodyBytes = 4096;
  config.http.recvTimeoutSec = 2;
  config.http.sendTimeoutSec = 2;
  PatternServer server(config);
  server.start();
  const int port = server.port();

  struct Case {
    const char* label;
    std::string bytes;
    int expectStatus;  ///< 0 = clean close with no response is fine
    bool halfClose = false;
  };
  std::string hugeHead = "GET / HTTP/1.1\r\n";
  for (int i = 0; i < 64; ++i)
    hugeHead += "X-Pad-" + std::to_string(i) + ": " +
                std::string(64, 'a') + "\r\n";
  hugeHead += "\r\n";
  // Embedded NULs: the string is built from the array's own length.
  static constexpr char kBinaryGarbage[] = "\x00\x01\xfe\xff barely text";
  const std::vector<Case> corpus = {
      {"garbage line", "GARBAGE\r\n\r\n", 400},
      {"bad version", "GET /healthz NOTHTTP/9\r\n\r\n", 400},
      {"missing target", "GET\r\n\r\n", 400},
      {"header without colon", "GET / HTTP/1.1\r\nnocolon\r\n\r\n", 400},
      {"non-numeric content-length",
       "POST /generate HTTP/1.1\r\nContent-Length: banana\r\n\r\n", 400},
      {"trailing junk content-length",
       "POST /generate HTTP/1.1\r\nContent-Length: 12abc\r\n\r\n", 400},
      {"negative content-length",
       "POST /generate HTTP/1.1\r\nContent-Length: -4\r\n\r\n", 400},
      {"huge content-length",
       "POST /generate HTTP/1.1\r\nContent-Length: 99999999\r\n\r\n",
       413},
      {"oversized header block", hugeHead, 431},
      {"premature close mid-body",
       "POST /generate HTTP/1.1\r\nContent-Length: 64\r\n\r\nshort", 0,
       true},
      {"binary garbage then close",
       std::string(kBinaryGarbage, sizeof kBinaryGarbage - 1), 0, true},
  };
  for (const auto& c : corpus) {
    const RawReply reply = rawCall(port, c.bytes, c.halfClose);
    ASSERT_TRUE(reply.connected) << c.label;
    EXPECT_LT(reply.elapsedMs, 5000.0) << c.label << ": hung";
    EXPECT_EQ(reply.status, c.expectStatus) << c.label;
  }

  // After the whole corpus the server still answers a clean request.
  const RawReply ok = rawCall(
      port,
      "GET /healthz HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n",
      false);
  EXPECT_EQ(ok.status, 200);
  server.stop();
}

}  // namespace
}  // namespace dp
