// dp-lint fixture: the MXCSR accessors outside src/common/fp_env.cpp —
// the exemption is for that one file, so both calls fire here.
// dp-lint-path: src/common/thread_pool.cpp
// dp-lint-expect: DP005 DP005
#include <xmmintrin.h>

void flushToZero() { _mm_setcsr(_mm_getcsr() | 0x8040U); }
