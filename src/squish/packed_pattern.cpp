#include "squish/packed_pattern.hpp"

#include <stdexcept>

namespace dp::squish {

PackedPattern pack(const Topology& t) {
  if (t.empty()) throw std::invalid_argument("squish::pack: empty topology");
  if (t.rows() > 255 || t.cols() > 255)
    throw std::invalid_argument(
        "squish::pack: topology exceeds 255 cells per axis");
  PackedPattern p;
  p.rows = static_cast<std::uint8_t>(t.rows());
  p.cols = static_cast<std::uint8_t>(t.cols());
  p.words.assign(packedWordCount(static_cast<int>(t.cellCount())), 0);
  const auto& cells = t.cells();
  for (std::size_t i = 0; i < cells.size(); ++i)
    if (cells[i]) p.words[i / 64] |= std::uint64_t{1} << (i % 64);
  return p;
}

PackedPattern packMasks(const std::uint32_t* masks, int rows, int cols) {
  if (rows <= 0 || cols <= 0)
    throw std::invalid_argument("squish::packMasks: empty topology");
  if (rows > 255 || cols > 255)
    throw std::invalid_argument(
        "squish::packMasks: topology exceeds 255 cells per axis");
  PackedPattern p;
  p.rows = static_cast<std::uint8_t>(rows);
  p.cols = static_cast<std::uint8_t>(cols);
  p.words.assign(packedWordCount(rows * cols), 0);
  for (int r = 0; r < rows; ++r)
    for (int c = 0; c < cols; ++c)
      if ((masks[r] >> c) & 1U) {
        const std::size_t i =
            static_cast<std::size_t>(r) * cols + static_cast<std::size_t>(c);
        p.words[i / 64] |= std::uint64_t{1} << (i % 64);
      }
  return p;
}

Topology unpack(const PackedPattern& p) {
  if (p.rows == 0 || p.cols == 0)
    throw std::invalid_argument("squish::unpack: zero-sized pattern");
  const int cells = p.cellCount();
  if (p.words.size() != packedWordCount(cells))
    throw std::invalid_argument("squish::unpack: word count mismatch");
  std::vector<std::uint8_t> out(static_cast<std::size_t>(cells), 0);
  for (std::size_t i = 0; i < out.size(); ++i)
    out[i] = (p.words[i / 64] >> (i % 64)) & 1U ? 1 : 0;
  return {p.rows, p.cols, out};
}

}  // namespace dp::squish
