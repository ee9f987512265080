"""Translation-unit model of the dp-analyze frontend.

The frontend (frontend_lite.py) reduces each C++ file to this small
fact schema; the checkers never look at source text again. Facts carry 1-based line numbers in the file they came
from.

Annotation grammar (comments in the original source, scanned by the
frontend):

  // dp-analyze: hot                  function below (or on this line)
                                      is a hot path: DPA103 forbids
                                      allocation in it and one call
                                      level down.
  // dp-analyze: hot scratch=<name>   same, but reallocating container
                                      ops on members of parameter /
                                      object `<name>` are exempt —
                                      the amortized thread_local
                                      scratch idiom (DESIGN.md §14).
  // dp-analyze: cold                 function below is an error/slow
                                      path; DPA103 does not descend
                                      into it from hot callers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

# Failure-capable syscalls/libc calls DPA102 inventories (the `::name(`
# idiom). Deliberately excludes fail-fast startup calls (socket, bind,
# listen), best-effort teardown (close, unlink) and metadata reads
# (stat, fstat, lseek): injecting faults there either aborts the
# process by design or is absorbed without a recovery path to test.
FAILURE_CAPABLE = (
    "open", "openat", "read", "pread", "readv", "write", "pwrite",
    "writev", "rename", "renameat", "fsync", "fdatasync", "accept",
    "accept4", "recv", "recvfrom", "recvmsg", "send", "sendto",
    "sendmsg", "connect", "epoll_wait", "epoll_pwait",
)


@dataclass
class Acquire:
    """A lock acquisition (RAII guard) and the scope it covers."""
    line: int
    lock: str            # canonical lock id, e.g. "serve::Batcher::mutex_"
    expr: str            # source expression, e.g. "state_->mutex"
    var: str             # guard variable name
    via: str             # "LockGuard" | "UniqueLock"
    release_line: int    # line of the end of the guard's scope


@dataclass
class Wait:
    """CondVar::wait(lock) — the waiting thread sleeps holding every
    OTHER lock it has acquired."""
    line: int
    cv: str
    lock: str            # lock id of the UniqueLock argument ("?" unknown)


@dataclass
class Call:
    line: int
    callee: str          # base name, e.g. "countShed"
    obj: str | None      # receiver expression ("metrics_") or None
    in_parallel: bool = False


@dataclass
class Syscall:
    line: int
    name: str


@dataclass
class SiteDecl:
    line: int
    var: str
    site: str            # the site's string name


@dataclass
class SiteCheck:
    line: int
    var: str
    site: str            # resolved site name, "?" when unresolvable


@dataclass
class Alloc:
    line: int
    what: str            # "new", "malloc", "push_back", ...
    obj: str | None      # receiver expression for member ops
    in_throw: bool = False


@dataclass
class Reduce:
    """Compound assignment `lhs op= ...` on a bare scalar identifier."""
    line: int
    lhs: str
    op: str
    is_float: bool       # LHS resolved to float/double
    captured: bool       # declared outside the enclosing lambda
    in_parallel: bool    # inside a parallelFor body


@dataclass
class Accumulate:
    """std::accumulate over a container."""
    line: int
    container: str
    container_unordered: bool


@dataclass
class UnorderedFloatFold:
    """Range-for over an unordered container whose body compound-
    assigns a float."""
    line: int
    container: str


@dataclass
class Func:
    name: str            # base name, e.g. "submit"
    cls: str | None      # enclosing class ("Batcher") or None
    ns: str              # namespace path, e.g. "dp::serve"
    file: str            # repo-relative path
    line: int
    end_line: int
    hot: bool = False
    cold: bool = False
    scratch: set[str] = field(default_factory=set)
    acquires: list[Acquire] = field(default_factory=list)
    waits: list[Wait] = field(default_factory=list)
    calls: list[Call] = field(default_factory=list)
    syscalls: list[Syscall] = field(default_factory=list)
    site_decls: list[SiteDecl] = field(default_factory=list)
    site_checks: list[SiteCheck] = field(default_factory=list)
    allocs: list[Alloc] = field(default_factory=list)
    reduces: list[Reduce] = field(default_factory=list)
    accumulates: list[Accumulate] = field(default_factory=list)
    unordered_folds: list[UnorderedFloatFold] = field(
        default_factory=list)

    @property
    def display(self) -> str:
        return f"{self.cls}::{self.name}" if self.cls else self.name

    def held_at(self, line: int) -> list[Acquire]:
        """Acquisitions whose guard scope covers `line` (excluding an
        acquisition made on `line` itself)."""
        return [a for a in self.acquires
                if a.line < line <= a.release_line]


@dataclass
class FileModel:
    path: str            # repo-relative, forward slashes
    funcs: list[Func] = field(default_factory=list)


@dataclass
class Finding:
    rule: str
    path: str
    line: int
    message: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


class Index:
    """Cross-file lookups the checkers share."""

    def __init__(self, files: list[FileModel]):
        self.files = files
        self.by_name: dict[str, list[Func]] = {}
        for fm in files:
            for fn in fm.funcs:
                self.by_name.setdefault(fn.name, []).append(fn)

    def resolve(self, call: Call, caller: Func) -> list[Func]:
        """Candidate definitions for a call. Prefers an exact match in
        the caller's class, then a unique global name match; ambiguous
        names resolve to every candidate (checkers treat the union
        conservatively)."""
        cands = self.by_name.get(call.callee, [])
        if not cands:
            return []
        if call.obj in (None, "this") and caller.cls:
            same = [f for f in cands if f.cls == caller.cls]
            if same:
                return same
        return cands
