#pragma once

/// \file pattern_store.hpp
/// The on-disk half of the massive-generation pipeline (DESIGN.md §12):
/// an append-only, memory-mapped pattern library made of immutable
/// bit-packed segments plus one JSON manifest that is the atomic commit
/// record for the whole store.
///
/// Layout of a store directory:
///
///   manifest.json   — dp-pipeline-1 checkpoint: generation cursor,
///                     legality counts, unique counts per hash prefix and
///                     the committed segment list with per-file CRC32+bytes
///                     (published via AtomicFileWriter; the rename is
///                     the single commit point)
///   seg-000000.bin  — packed (hash, pattern) records, append order =
///   seg-000001.bin    first-insertion order of new unique patterns
///   ...
///
/// Segments are written whole via AtomicFileWriter, so a crash leaves
/// either no file or a complete one; a complete-but-uncommitted segment
/// is simply rewritten (bit-identically — the pipeline is
/// deterministic) when the resumed run reaches the same boundary.
/// Readers mmap segments and verify size + CRC32 against the manifest
/// before yielding a single record.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "pipeline/packed.hpp"

namespace dp::pipeline {

/// One committed segment as recorded in the manifest.
struct SegmentInfo {
  std::string path;            ///< file name relative to the store dir
  std::uint64_t patterns = 0;  ///< records in the segment
  std::uint64_t bytes = 0;     ///< exact file size
  std::uint32_t crc32 = 0;     ///< CRC-32 of the file contents

  friend bool operator==(const SegmentInfo&, const SegmentInfo&) = default;
};

/// Accumulates packed records for the segment under construction.
class SegmentBuilder {
 public:
  void add(std::uint64_t hash, const squish::PackedPattern& p);

  [[nodiscard]] std::uint64_t patterns() const { return patterns_; }
  [[nodiscard]] const std::string& bytes() const { return bytes_; }
  [[nodiscard]] bool empty() const { return patterns_ == 0; }
  void clear();

 private:
  std::string bytes_;
  std::uint64_t patterns_ = 0;
};

/// Canonical file name of segment `index` (seg-000042.bin).
[[nodiscard]] std::string segmentFileName(long index);

/// Durably writes `builder` as segment `index` of `dir` through
/// AtomicFileWriter and returns its manifest record. Throws
/// std::runtime_error on I/O failure (fault sites io.atomic.*); the
/// store is unchanged until the rename lands.
[[nodiscard]] SegmentInfo writeSegment(const std::string& dir, long index,
                                       const SegmentBuilder& builder);

/// Read-only memory-mapped view of one committed segment. Verifies the
/// manifest-recorded byte size and CRC-32 at open, so a bit flip or
/// truncation anywhere in the file is rejected before any record is
/// parsed.
class SegmentReader {
 public:
  SegmentReader(const std::string& dir, const SegmentInfo& info);
  ~SegmentReader();

  SegmentReader(const SegmentReader&) = delete;
  SegmentReader& operator=(const SegmentReader&) = delete;

  /// Yields every record in append (= first-insertion) order.
  void forEach(
      const std::function<void(std::uint64_t hash,
                               const squish::PackedPattern& packed)>& fn)
      const;

  [[nodiscard]] std::uint64_t patterns() const { return patterns_; }

 private:
  void* map_ = nullptr;
  std::size_t bytes_ = 0;
  std::uint64_t patterns_ = 0;
};

/// The manifest — one atomic commit record covering generation
/// progress AND the segment list, so every crash window resolves to
/// the last committed (cursor, segments) pair with nothing torn.
struct StoreManifest {
  // Run identity: a resume refuses to continue a store produced under
  // different generation parameters (the latent stream would diverge).
  std::uint64_t seed = 0;
  long count = 0;
  int batchSize = 0;
  long checkpointEvery = 0;
  long patternsPerSegment = 0;

  // Committed progress.
  long cursor = 0;  ///< latent samples consumed
  long legal = 0;   ///< legal among consumed (with repetitions)
  std::uint64_t unique = 0;
  /// Unique counts per top-6-bit canonical-hash prefix (64 entries): a
  /// cross-check on the resume rebuild of the dedup library.
  std::vector<std::uint64_t> shardSizes;
  std::vector<SegmentInfo> segments;

  friend bool operator==(const StoreManifest&,
                         const StoreManifest&) = default;
};

/// Atomically publishes `m` as dir/manifest.json. Fault sites:
/// pipeline.checkpoint.commit plus the io.atomic.* writer sites.
void commitManifest(const std::string& dir, const StoreManifest& m);

/// Loads dir/manifest.json, or nullopt when no manifest exists (fresh
/// store). Throws on a malformed manifest or wrong format tag. Fault
/// site: pipeline.checkpoint.resume.
[[nodiscard]] std::optional<StoreManifest> loadManifest(
    const std::string& dir);

}  // namespace dp::pipeline
