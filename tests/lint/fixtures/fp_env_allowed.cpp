// dp-lint fixture: the MXCSR accessors are exempt in exactly
// src/common/fp_env.cpp, the one TU that owns the floating-point
// control register (a baseline x86-64 register, so no dispatch).
// dp-lint-path: src/common/fp_env.cpp
// dp-lint-expect: none
#include <xmmintrin.h>

unsigned controlBits() { return _mm_getcsr() & ~0x3FU; }

void setControlBits(unsigned bits) { _mm_setcsr(bits); }
