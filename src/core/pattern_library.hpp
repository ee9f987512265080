#pragma once

/// \file pattern_library.hpp
/// A deduplicated library of canonical squish topologies with the
/// paper's evaluation metrics: unique pattern count and pattern
/// diversity H (Definition 2 — Shannon entropy of the joint (cx, cy)
/// complexity histogram). Uniqueness and diversity are defined on
/// topologies (paper §III-D).
///
/// This is the repository's one dedup structure (DESIGN.md §12): the
/// flows, the serve batcher and the massive pipeline all fold into it.
/// Patterns are stored bit-packed under their canonical hash, so a
/// caller that already holds both (the fused decode route, pipeline
/// segment records) inserts without canonicalizing again.

#include <cstddef>
#include <cstdint>
#include <map>
#include <vector>

#include "squish/complexity.hpp"
#include "squish/packed_pattern.hpp"
#include "squish/topology.hpp"

namespace dp::core {

class PatternLibrary {
 public:
  PatternLibrary() = default;

  /// Canonicalizes `t` and inserts it if new. Returns true when the
  /// pattern was not in the library yet. Hash collisions are resolved by
  /// exact comparison, so the count is exact. Throws
  /// std::invalid_argument when the canonical form is wider or taller
  /// than 255 cells (the squish::pack limit).
  bool add(const squish::Topology& t);

  /// Inserts an already canonical pattern under its canonical hash
  /// (squish::hashTopology of the unpacked form). Nothing is recomputed:
  /// the caller vouches for both. Returns true when new.
  bool insertCanonical(std::uint64_t hash,
                       const squish::PackedPattern& packed);

  /// Number of unique patterns.
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }

  /// True when the canonical form of `t` is already present. Same size
  /// limit as add().
  [[nodiscard]] bool contains(const squish::Topology& t) const;

  /// True when (hash, packed) was inserted.
  [[nodiscard]] bool contains(std::uint64_t hash,
                              const squish::PackedPattern& packed) const;

  /// Visits every stored (canonical hash, packed pattern) in ascending
  /// hash order, ties in insertion order within a collision bucket —
  /// platform-independent, so downstream outputs that list patterns
  /// are bit-stable across standard libraries and hosts.
  template <typename Fn>
  void forEach(Fn&& fn) const {
    for (const auto& [hash, bucket] : buckets_)
      for (const squish::PackedPattern& p : bucket) fn(hash, p);
  }

  /// All stored canonical topologies, unpacked in forEach() order.
  [[nodiscard]] std::vector<squish::Topology> patterns() const;

  /// Complexities of all stored patterns, in forEach() order.
  [[nodiscard]] std::vector<squish::Complexity> complexities() const;

  /// Pattern diversity H (Definition 2).
  [[nodiscard]] double diversity() const;

  /// Mean complexity along x / y.
  [[nodiscard]] double meanCx() const;
  [[nodiscard]] double meanCy() const;

  /// Joint histogram counts[cy][cx] covering all observed complexities
  /// (index 0..max); used by the Fig. 10 heatmaps.
  [[nodiscard]] std::vector<std::vector<double>> histogram() const;

  /// Inserts every pattern of `other`.
  void merge(const PatternLibrary& other);

 private:
  // hash -> exact-collision bucket. An ordered map, NOT unordered_map:
  // forEach() / patterns() iterate it, and their enumeration order
  // feeds generation outputs (pattern hash lists, materialization
  // order, pipeline segments), so it must not depend on the standard
  // library's hash-table layout.
  std::map<std::uint64_t, std::vector<squish::PackedPattern>> buckets_;
  std::size_t size_ = 0;  ///< entries across all buckets
};

/// Shannon entropy (Eq. (1), log base 2 / bits) of a set of complexity
/// pairs.
[[nodiscard]] double shannonDiversity(
    const std::vector<squish::Complexity>& cplx);

}  // namespace dp::core
