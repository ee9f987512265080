// dp-lint fixture: inside src/common/fp_env.cpp only the two MXCSR
// accessors are exempt; any other vector surface (the type and the
// _mm_ call) still fires.
// dp-lint-path: src/common/fp_env.cpp
// dp-lint-expect: DP005 DP005
#include <xmmintrin.h>

unsigned controlBits() { return _mm_getcsr() & ~0x3FU; }

float firstLane(const float* p) {
  __m128 v = _mm_loadu_ps(p);
  return p[0] + static_cast<float>(sizeof v);
}
