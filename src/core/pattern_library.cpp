#include "core/pattern_library.hpp"

#include <algorithm>
#include <cmath>
#include <map>

#include "squish/canonical.hpp"
#include "squish/hash.hpp"

namespace dp::core {

bool PatternLibrary::add(const squish::Topology& t) {
  const squish::Topology canon = squish::canonicalize(t);
  return insertCanonical(squish::hashTopology(canon), squish::pack(canon));
}

bool PatternLibrary::insertCanonical(std::uint64_t hash,
                                     const squish::PackedPattern& packed) {
  auto& bucket = buckets_[hash];
  if (std::find(bucket.begin(), bucket.end(), packed) != bucket.end())
    return false;
  bucket.push_back(packed);
  ++size_;
  return true;
}

bool PatternLibrary::contains(const squish::Topology& t) const {
  const squish::Topology canon = squish::canonicalize(t);
  return contains(squish::hashTopology(canon), squish::pack(canon));
}

bool PatternLibrary::contains(std::uint64_t hash,
                              const squish::PackedPattern& packed) const {
  const auto it = buckets_.find(hash);
  if (it == buckets_.end()) return false;
  return std::find(it->second.begin(), it->second.end(), packed) !=
         it->second.end();
}

std::vector<squish::Topology> PatternLibrary::patterns() const {
  std::vector<squish::Topology> out;
  out.reserve(size_);
  forEach([&out](std::uint64_t, const squish::PackedPattern& p) {
    out.push_back(squish::unpack(p));
  });
  return out;
}

std::vector<squish::Complexity> PatternLibrary::complexities() const {
  std::vector<squish::Complexity> out;
  out.reserve(size_);
  forEach([&out](std::uint64_t, const squish::PackedPattern& p) {
    out.push_back({p.cx(), p.cy()});
  });
  return out;
}

double PatternLibrary::diversity() const {
  return shannonDiversity(complexities());
}

double PatternLibrary::meanCx() const {
  if (size_ == 0) return 0.0;
  double s = 0.0;
  for (const auto& c : complexities()) s += c.cx;
  return s / static_cast<double>(size_);
}

double PatternLibrary::meanCy() const {
  if (size_ == 0) return 0.0;
  double s = 0.0;
  for (const auto& c : complexities()) s += c.cy;
  return s / static_cast<double>(size_);
}

std::vector<std::vector<double>> PatternLibrary::histogram() const {
  const std::vector<squish::Complexity> cplx = complexities();
  int maxCx = 0, maxCy = 0;
  for (const auto& c : cplx) {
    maxCx = std::max(maxCx, c.cx);
    maxCy = std::max(maxCy, c.cy);
  }
  std::vector<std::vector<double>> counts(
      static_cast<std::size_t>(maxCy) + 1,
      std::vector<double>(static_cast<std::size_t>(maxCx) + 1, 0.0));
  for (const auto& c : cplx)
    counts[static_cast<std::size_t>(c.cy)]
          [static_cast<std::size_t>(c.cx)] += 1.0;
  return counts;
}

void PatternLibrary::merge(const PatternLibrary& other) {
  other.forEach([this](std::uint64_t hash, const squish::PackedPattern& p) {
    insertCanonical(hash, p);
  });
}

double shannonDiversity(const std::vector<squish::Complexity>& cplx) {
  if (cplx.empty()) return 0.0;
  std::map<std::pair<int, int>, double> counts;
  for (const auto& c : cplx) counts[{c.cx, c.cy}] += 1.0;
  const double n = static_cast<double>(cplx.size());
  double h = 0.0;
  for (const auto& [key, cnt] : counts) {
    const double p = cnt / n;
    h -= p * std::log2(p);
  }
  return h;
}

}  // namespace dp::core
