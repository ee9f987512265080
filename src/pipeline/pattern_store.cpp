#include "pipeline/pattern_store.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "common/atomic_file.hpp"
#include "common/fault.hpp"
#include "io/json.hpp"

namespace dp::pipeline {

namespace fs = std::filesystem;
using dp::io::Json;

void SegmentBuilder::add(std::uint64_t hash,
                         const squish::PackedPattern& p) {
  appendRecord(bytes_, hash, p);
  ++patterns_;
}

void SegmentBuilder::clear() {
  bytes_.clear();
  patterns_ = 0;
}

std::string segmentFileName(long index) {
  char name[32];
  std::snprintf(name, sizeof name, "seg-%06ld.bin", index);
  return name;
}

SegmentInfo writeSegment(const std::string& dir, long index,
                         const SegmentBuilder& builder) {
  if (builder.empty())
    throw std::invalid_argument("writeSegment: empty segment");
  SegmentInfo info;
  info.path = segmentFileName(index);
  info.patterns = builder.patterns();
  info.bytes = builder.bytes().size();
  AtomicFileWriter out(dir + "/" + info.path);
  out.append(builder.bytes());
  info.crc32 = out.commit();
  return info;
}

SegmentReader::SegmentReader(const std::string& dir,
                             const SegmentInfo& info)
    : patterns_(info.patterns) {
  const std::string path = dir + "/" + info.path;
  static FaultSite openFault("pipeline.segment.open");
  if (openFault.shouldFail())
    throw std::runtime_error("SegmentReader: injected open fault: " +
                             path);
  const int fd = ::open(path.c_str(), O_RDONLY);  // NOLINT(*-vararg)
  if (fd < 0)
    throw std::runtime_error("SegmentReader: cannot open " + path + ": " +
                             std::strerror(errno));  // NOLINT(concurrency-mt-unsafe)
  struct stat st {};
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    throw std::runtime_error("SegmentReader: cannot stat " + path);
  }
  if (static_cast<std::uint64_t>(st.st_size) != info.bytes) {
    ::close(fd);
    throw std::runtime_error(
        "SegmentReader: " + path + ": size mismatch (manifest says " +
        std::to_string(info.bytes) + " bytes, file has " +
        std::to_string(st.st_size) + ")");
  }
  void* map =
      ::mmap(nullptr, info.bytes, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);  // the mapping keeps the file alive
  if (map == MAP_FAILED)
    throw std::runtime_error("SegmentReader: mmap failed for " + path);
  map_ = map;
  bytes_ = info.bytes;
  if (crc32Update(0, map_, bytes_) != info.crc32) {
    ::munmap(map_, bytes_);
    map_ = nullptr;
    throw std::runtime_error("SegmentReader: " + path +
                             ": checksum mismatch (corrupt segment)");
  }
}

SegmentReader::~SegmentReader() {
  if (map_ != nullptr) ::munmap(map_, bytes_);
}

void SegmentReader::forEach(
    const std::function<void(std::uint64_t, const squish::PackedPattern&)>&
        fn) const {
  RecordCursor cursor(static_cast<const char*>(map_), bytes_);
  std::uint64_t hash = 0;
  squish::PackedPattern packed;
  std::uint64_t seen = 0;
  while (!cursor.done()) {
    cursor.next(hash, packed);
    fn(hash, packed);
    ++seen;
  }
  if (seen != patterns_)
    throw std::runtime_error(
        "SegmentReader: record count mismatch (manifest says " +
        std::to_string(patterns_) + ", segment holds " +
        std::to_string(seen) + ")");
}

namespace {

Json segmentJson(const SegmentInfo& s) {
  Json j = Json::object();
  j.set("path", s.path);
  j.set("patterns", static_cast<double>(s.patterns));
  j.set("bytes", static_cast<double>(s.bytes));
  j.set("crc32", static_cast<double>(s.crc32));
  return j;
}

SegmentInfo segmentFromJson(const Json& j) {
  SegmentInfo s;
  s.path = j.at("path").asString();
  s.patterns = j.at("patterns").asUint64();
  s.bytes = j.at("bytes").asUint64();
  s.crc32 = static_cast<std::uint32_t>(j.at("crc32").asUint64());
  return s;
}

std::string readFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

}  // namespace

void commitManifest(const std::string& dir, const StoreManifest& m) {
  static FaultSite commitFault("pipeline.checkpoint.commit");
  commitFault.orThrow();

  Json j = Json::object();
  j.set("format", "dp-pipeline-1");
  j.set("seed", std::to_string(m.seed));  // exact beyond 2^53
  j.set("count", m.count);
  j.set("batchSize", m.batchSize);
  j.set("checkpointEvery", m.checkpointEvery);
  j.set("patternsPerSegment", m.patternsPerSegment);
  j.set("cursor", m.cursor);
  j.set("legal", m.legal);
  j.set("unique", static_cast<double>(m.unique));
  Json shards = Json::array();
  for (const std::uint64_t s : m.shardSizes)
    shards.push(Json(static_cast<double>(s)));
  j.set("shardSizes", std::move(shards));
  Json segments = Json::array();
  for (const SegmentInfo& s : m.segments) segments.push(segmentJson(s));
  j.set("segments", std::move(segments));

  AtomicFileWriter out(dir + "/manifest.json");
  out.append(j.dump());
  out.append("\n");
  (void)out.commit();
}

std::optional<StoreManifest> loadManifest(const std::string& dir) {
  static FaultSite resumeFault("pipeline.checkpoint.resume");
  const std::string path = dir + "/manifest.json";
  if (!fs::exists(path)) return std::nullopt;
  resumeFault.orThrow();
  const Json j = Json::parse(readFile(path));
  if (!j.has("format") || j.at("format").asString() != "dp-pipeline-1")
    throw std::runtime_error("loadManifest: " + path +
                             ": not a dp-pipeline-1 manifest");
  StoreManifest m;
  m.seed = j.at("seed").asUint64();
  m.count = j.at("count").asLong();
  m.batchSize = static_cast<int>(j.at("batchSize").asLong());
  m.checkpointEvery = j.at("checkpointEvery").asLong();
  m.patternsPerSegment = j.at("patternsPerSegment").asLong();
  m.cursor = j.at("cursor").asLong();
  m.legal = j.at("legal").asLong();
  m.unique = j.at("unique").asUint64();
  const Json& shards = j.at("shardSizes");
  m.shardSizes.reserve(shards.size());
  for (std::size_t i = 0; i < shards.size(); ++i)
    m.shardSizes.push_back(shards.at(i).asUint64());
  const Json& segments = j.at("segments");
  m.segments.reserve(segments.size());
  for (std::size_t i = 0; i < segments.size(); ++i)
    m.segments.push_back(segmentFromJson(segments.at(i)));
  return m;
}

}  // namespace dp::pipeline
