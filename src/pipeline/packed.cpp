#include "pipeline/packed.hpp"

#include <stdexcept>

namespace dp::pipeline {

namespace {

void appendU64(std::string& buffer, std::uint64_t v) {
  for (int b = 0; b < 8; ++b)
    buffer.push_back(static_cast<char>((v >> (8 * b)) & 0xffU));
}

std::uint64_t readU64(const char* p) {
  std::uint64_t v = 0;
  for (int b = 0; b < 8; ++b)
    v |= static_cast<std::uint64_t>(static_cast<unsigned char>(p[b]))
         << (8 * b);
  return v;
}

}  // namespace

std::size_t recordBytes(const squish::PackedPattern& p) {
  return 8 + 2 + 8 * p.words.size();
}

void appendRecord(std::string& buffer, std::uint64_t hash,
                  const squish::PackedPattern& p) {
  appendU64(buffer, hash);
  buffer.push_back(static_cast<char>(p.rows));
  buffer.push_back(static_cast<char>(p.cols));
  for (const std::uint64_t w : p.words) appendU64(buffer, w);
}

void RecordCursor::next(std::uint64_t& hash, squish::PackedPattern& p) {
  if (end_ - cur_ < 10)
    throw std::runtime_error("pipeline: truncated pattern record header");
  hash = readU64(cur_);
  p.rows = static_cast<std::uint8_t>(cur_[8]);
  p.cols = static_cast<std::uint8_t>(cur_[9]);
  cur_ += 10;
  if (p.rows == 0 || p.cols == 0)
    throw std::runtime_error("pipeline: zero-sized pattern record");
  const std::size_t words = squish::packedWordCount(p.cellCount());
  if (static_cast<std::size_t>(end_ - cur_) < 8 * words)
    throw std::runtime_error("pipeline: truncated pattern record body");
  p.words.resize(words);
  for (std::size_t w = 0; w < words; ++w) p.words[w] = readU64(cur_ + 8 * w);
  cur_ += 8 * words;
}

}  // namespace dp::pipeline
