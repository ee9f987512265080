#include "common/fp_env.hpp"

#if defined(__x86_64__)
#include <xmmintrin.h>
#endif

namespace dp {

#if defined(__x86_64__)

namespace {

constexpr std::uint32_t kStatusFlags = 0x3F;   // MXCSR bits 0-5
constexpr std::uint32_t kDaz = 1U << 6;         // denormals are zero
constexpr std::uint32_t kFtz = 1U << 15;        // flush to zero

}  // namespace

bool flushSubnormalsSupported() { return true; }

std::uint32_t fpControlBits() { return _mm_getcsr() & ~kStatusFlags; }

void setFpControlBits(std::uint32_t bits) {
  _mm_setcsr((bits & ~kStatusFlags) | (_mm_getcsr() & kStatusFlags));
}

FlushSubnormalsScope::FlushSubnormalsScope() : saved_(fpControlBits()) {
  setFpControlBits(saved_ | kFtz | kDaz);
}

#else

bool flushSubnormalsSupported() { return false; }

std::uint32_t fpControlBits() { return 0; }

void setFpControlBits(std::uint32_t /*bits*/) {}

FlushSubnormalsScope::FlushSubnormalsScope() : saved_(0) {}

#endif

FlushSubnormalsScope::~FlushSubnormalsScope() { setFpControlBits(saved_); }

}  // namespace dp
