#pragma once

/// \file packed.hpp
/// On-disk records of the massive-generation pattern store (DESIGN.md
/// §12): one squish::PackedPattern behind its canonical hash, so a
/// resume pass can rebuild the dedup library without re-hashing every
/// pattern.
///
/// Record wire format (little-endian, CRC-protected at segment level):
///
///   [u64 canonical hash][u8 rows][u8 cols][ceil(rows*cols/64) x u64]

#include <cstddef>
#include <cstdint>
#include <string>

#include "squish/packed_pattern.hpp"

namespace dp::pipeline {

/// Serialized size of one (hash, pattern) record in bytes.
[[nodiscard]] std::size_t recordBytes(const squish::PackedPattern& p);

/// Appends the little-endian record for (hash, p) to `buffer`.
void appendRecord(std::string& buffer, std::uint64_t hash,
                  const squish::PackedPattern& p);

/// Forward cursor over a byte range of serialized records. The range
/// must outlive the cursor (segments hand out their mmap'd bytes).
class RecordCursor {
 public:
  RecordCursor(const char* data, std::size_t bytes)
      : cur_(data), end_(data + bytes) {}

  [[nodiscard]] bool done() const { return cur_ == end_; }

  /// Reads the next record. Throws std::runtime_error on a truncated
  /// or malformed record (zero dims) — segment CRCs make this
  /// unreachable for committed data, but the reader still refuses to
  /// fabricate patterns from garbage.
  void next(std::uint64_t& hash, squish::PackedPattern& p);

 private:
  const char* cur_;
  const char* end_;
};

}  // namespace dp::pipeline
