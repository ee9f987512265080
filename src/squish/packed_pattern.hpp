#pragma once

/// \file packed_pattern.hpp
/// Bit-packed topologies — the storage unit of core::PatternLibrary and
/// of the massive pipeline's segment records (DESIGN.md §12). A
/// canonical topology is at most 24x24 cells, so one byte per cell (the
/// squish::Topology layout) wastes 8x at the million-pattern scale.
/// PackedPattern stores 64 cells per machine word.
///
/// Bit i of word w is cell index w*64 + i of the row-major (bottom row
/// first) cell vector — the same enumeration order Topology::cells()
/// uses, so pack/unpack is a pure reshape.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "squish/topology.hpp"

namespace dp::squish {

/// A topology packed 64 cells per word. Equality is exact (dims and
/// every cell), so hash collisions in a dedup set are resolved on the
/// packed form without unpacking.
struct PackedPattern {
  std::uint8_t rows = 0;
  std::uint8_t cols = 0;
  std::vector<std::uint64_t> words;  ///< LSB-first, 64 cells per word

  [[nodiscard]] int cellCount() const {
    return static_cast<int>(rows) * static_cast<int>(cols);
  }
  /// (cx, cy) of the canonical topology this packs: cx = cols,
  /// cy = rows (paper Definition 1 on the canonical matrix).
  [[nodiscard]] int cx() const { return cols; }
  [[nodiscard]] int cy() const { return rows; }

  friend bool operator==(const PackedPattern&,
                         const PackedPattern&) = default;
};

/// Words needed for `cells` cells.
[[nodiscard]] inline std::size_t packedWordCount(int cells) {
  return (static_cast<std::size_t>(cells) + 63) / 64;
}

/// Packs a topology (any 0/1 matrix with 1..255 rows and columns; the
/// library only ever packs canonical forms, but packing is defined for
/// every topology so property tests can round-trip arbitrary inputs).
/// Throws std::invalid_argument on empty or oversized matrices.
[[nodiscard]] PackedPattern pack(const Topology& t);

/// Exact inverse of pack().
[[nodiscard]] Topology unpack(const PackedPattern& p);

/// pack() for a row-mask matrix (bit c of masks[r] = cell (r, c), the
/// squish/packed_topo.hpp convention): produces the byte-identical
/// PackedPattern that pack(masksToTopology(...)) would, without
/// materializing the Topology. Same argument checks as pack().
[[nodiscard]] PackedPattern packMasks(const std::uint32_t* masks, int rows,
                                      int cols);

}  // namespace dp::squish
