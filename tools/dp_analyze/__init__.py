"""dp-analyze — AST-level contract analyzer for the DeePattern codebase.

Four semantic checkers over the C++ tree, each enforcing a contract
that tools/dp_lint.py's token-level rules cannot see (DESIGN.md §15):

  DPA101 lock-order          Extracts the global dp::Mutex acquisition
                             graph (LockGuard/UniqueLock sites, wait-
                             while-holding via CondVar, lock-holding
                             calls followed through the call graph),
                             detects cycles — including cross-TU
                             inversions — and emits the lock→lock edge
                             list as tools/lock_order.json, the
                             generated source of DESIGN.md §10's map.
  DPA102 fault-site-coverage Inventories every failure-capable
                             syscall/libc call reachable in src/nn,
                             src/serve, src/pipeline and
                             src/common/atomic_file.cpp, verifies each
                             is dominated by a named dp::FaultSite, and
                             cross-checks the site inventory against
                             the sites exercised by the chaos suites —
                             a new I/O path without fault injection AND
                             chaos coverage fails CI.
  DPA103 hot-path-allocation No new/malloc/reallocating container ops
                             in functions marked `// dp-analyze: hot`,
                             following the call graph one level down.
                             `// dp-analyze: hot scratch=<param>`
                             exempts amortized thread-local scratch
                             reuse; allocations inside throw
                             statements are error exits, not hot-loop
                             work, and are exempt.
  DPA104 float-determinism   Flags floating-point compound reductions
                             into variables captured by parallelFor
                             lambdas (folding order would depend on
                             DP_THREADS) and std::accumulate/range-for
                             float sums over unordered containers
                             (folding order would depend on hash-table
                             layout).

Frontend: a dependency-free built-in C++ model extractor
(frontend_lite.py), so every run — local, ctest `lint` label and CI —
needs nothing beyond python3. It reduces the tree to the
translation-unit model in tools/dp_analyze/model.py; the checkers only
see that model.

Exit status: 0 clean, 1 findings, 2 usage/internal error.
"""

__version__ = "1.0"

RULES = {
    "DPA101": "lock-order",
    "DPA102": "fault-site-coverage",
    "DPA103": "hot-path-allocation",
    "DPA104": "float-determinism",
}
