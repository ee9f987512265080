#pragma once

/// \file fp_env.hpp
/// Per-thread floating-point control state: a scoped subnormal flush
/// for TCAE training, and the raw accessors the thread pool uses to run
/// every chunk under its caller's control state (thread_pool.hpp).
///
/// On x86-64 the control state is the MXCSR register without its
/// sticky status flags (bits 0-5), which change after any inexact
/// operation and so must never be compared. Flushing sets FTZ (bit 15:
/// subnormal results become zero) and DAZ (bit 6: subnormal operands
/// read as zero), which removes the microcode assist every subnormal
/// multiply costs. fp_env.cpp is the only code that touches MXCSR; on
/// other targets every function here is a no-op.

#include <cstdint>

namespace dp {

/// True when this build can flush subnormals (x86-64).
[[nodiscard]] bool flushSubnormalsSupported();

/// The calling thread's floating-point control bits (0 where
/// unsupported).
[[nodiscard]] std::uint32_t fpControlBits();

/// Makes `bits`, as returned by fpControlBits(), the calling thread's
/// control state. The thread's status flags are kept.
void setFpControlBits(std::uint32_t bits);

/// RAII guard: flushes subnormal results and operands to zero on the
/// calling thread for its lifetime, and restores the thread's previous
/// control bits on destruction (also during exception unwinding).
/// parallelFor hands the mode to every lane that runs a chunk.
class FlushSubnormalsScope {
 public:
  FlushSubnormalsScope();
  ~FlushSubnormalsScope();

  FlushSubnormalsScope(const FlushSubnormalsScope&) = delete;
  FlushSubnormalsScope& operator=(const FlushSubnormalsScope&) = delete;

 private:
  std::uint32_t saved_;
};

}  // namespace dp
