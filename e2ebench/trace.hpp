#pragma once

/// \file trace.hpp
/// Benchmark-side spans: the driver wraps each call into a layer's
/// public function in a Span. Records live in one preallocated vector
/// (a slot is claimed with one atomic increment, so load-generator
/// threads never allocate or lock) and are written out once, at exit.
/// A layer's self time is its span's duration minus the part its child
/// spans cover.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <map>
#include <string>
#include <vector>

namespace e2e {

using Clock = std::chrono::steady_clock;

inline std::int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample.
/// Infinite samples (failed requests) sort last and stay infinite.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  if (frac == 0.0) return v[lo];
  if (std::isinf(v[hi])) return v[hi];
  return v[lo] + (v[hi] - v[lo]) * frac;
}

inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}

struct SpanRecord {
  const char* name = nullptr;  ///< string literal: no allocation per span
  std::uint32_t id = 0;        ///< 1-based slot index; 0 = none
  std::uint32_t parent = 0;
  std::int64_t req = -1;       ///< request/job index the span serves
  std::int64_t t0 = 0;
  std::int64_t t1 = 0;
  std::int64_t items = 0;      ///< work done inside (patterns, steps...)
};

/// Per-name aggregate over closed spans.
struct SpanStats {
  std::int64_t items = 0;
  double totalNs = 0.0;
  double selfNs = 0.0;
  std::vector<double> durNs;  ///< one entry per span, for quantiles
};

class Tracer {
 public:
  explicit Tracer(std::size_t capacity) : spans_(capacity) {}

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  void setEnabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  [[nodiscard]] bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Claims a slot; 0 when tracing is off or the buffer is full.
  std::uint32_t open(const char* name, std::uint32_t parent,
                     std::int64_t req) {
    if (!enabled()) return 0;
    const std::uint32_t id = next_.fetch_add(1, std::memory_order_relaxed);
    if (id > spans_.size()) {
      dropped_.fetch_add(1, std::memory_order_relaxed);
      return 0;
    }
    SpanRecord& s = spans_[id - 1];
    s.name = name;
    s.id = id;
    s.parent = parent;
    s.req = req;
    s.t0 = nowNs();
    return id;
  }

  void close(std::uint32_t id, std::int64_t items) {
    if (id == 0) return;
    SpanRecord& s = spans_[id - 1];
    s.t1 = nowNs();
    s.items = items;
  }

  /// Closed spans recorded so far. Call only after every recording
  /// thread has been joined.
  [[nodiscard]] std::vector<SpanRecord> closed() const {
    const std::size_t n = std::min<std::size_t>(
        next_.load(std::memory_order_relaxed) - 1, spans_.size());
    std::vector<SpanRecord> out;
    out.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
      if (spans_[i].t1 != 0) out.push_back(spans_[i]);
    return out;
  }

  /// Aggregates by name: duration, items and self time (duration minus
  /// the durations of direct children).
  [[nodiscard]] std::map<std::string, SpanStats> aggregate() const {
    const std::vector<SpanRecord> spans = closed();
    std::vector<double> childNs(spans_.size() + 1, 0.0);
    for (const SpanRecord& s : spans)
      if (s.parent != 0) childNs[s.parent] += static_cast<double>(s.t1 - s.t0);
    std::map<std::string, SpanStats> out;
    for (const SpanRecord& s : spans) {
      SpanStats& a = out[s.name];
      const double dur = static_cast<double>(s.t1 - s.t0);
      a.items += s.items;
      a.totalNs += dur;
      a.selfNs += dur - childNs[s.id];
      a.durNs.push_back(dur);
    }
    return out;
  }

  /// Writes one JSON object per closed span:
  /// {name, id, parent, req, t0_ns, t1_ns, items}.
  bool write(const std::string& path) const {
    std::ofstream out(path);
    for (const SpanRecord& s : closed())
      out << "{\"name\":\"" << s.name << "\",\"id\":" << s.id
          << ",\"parent\":" << s.parent << ",\"req\":" << s.req
          << ",\"t0_ns\":" << s.t0 << ",\"t1_ns\":" << s.t1
          << ",\"items\":" << s.items << "}\n";
    return static_cast<bool>(out);
  }

  [[nodiscard]] long dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }

 private:
  std::vector<SpanRecord> spans_;
  std::atomic<std::uint32_t> next_{1};
  std::atomic<long> dropped_{0};
  std::atomic<bool> enabled_{false};
};

/// RAII span; nests under the innermost open span of the same thread.
class Span {
 public:
  Span(Tracer& tracer, const char* name, std::int64_t req = -1)
      : tracer_(tracer), parent_(current()) {
    id_ = tracer_.open(name, parent_, req);
    if (id_ != 0) current() = id_;
  }
  ~Span() {
    tracer_.close(id_, items_);
    if (id_ != 0) current() = parent_;
  }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  void setItems(std::int64_t n) { items_ = n; }

 private:
  static std::uint32_t& current() {
    thread_local std::uint32_t id = 0;
    return id;
  }

  Tracer& tracer_;
  std::uint32_t parent_;
  std::uint32_t id_ = 0;
  std::int64_t items_ = 0;
};

}  // namespace e2e
