"""Built-in dependency-free frontend.

Reduces C++ sources to the model in model.py with a recursive-descent
scan over comment/string-stripped text: namespace / class / function
block classification from the text preceding each top-level `{`, then
regex event extraction over function bodies. It is the analyzer's
only frontend: local runs, the ctest `lint` label and CI all use it.

Known, documented limits (DESIGN.md §15): no template instantiation,
overload resolution is name-based, operator overloads other than
`operator<sym>` definitions are skipped, and preprocessor conditionals
are assumed brace-balanced per branch. The seeded fixtures under
tests/analyze/fixtures stay within this dialect on purpose.
"""

from __future__ import annotations

import re
from pathlib import Path

from . import lex
from .model import (Acquire, Accumulate, Alloc, Call, FAILURE_CAPABLE,
                    FileModel, Func, Reduce, SiteCheck, SiteDecl,
                    Syscall, UnorderedFloatFold, Wait)

SCAN_EXTS = (".cpp", ".cc", ".hpp", ".h")

CALL_KEYWORDS = {
    "if", "for", "while", "switch", "return", "sizeof", "alignof",
    "catch", "throw", "assert", "defined", "new", "delete", "not",
    "and", "or", "alignas", "decltype", "noexcept", "static_assert",
    "typeid", "case", "until",
}

TYPE_KEYWORDS = {
    "return", "throw", "delete", "new", "goto", "case", "else",
    "typename", "using", "typedef", "break", "continue", "public",
    "private", "protected", "co_return", "operator", "do",
}

_SYSCALL_ALT = "|".join(sorted(FAILURE_CAPABLE, key=len, reverse=True))
RE_SYSCALL = re.compile(r"::\s*(" + _SYSCALL_ALT + r")\s*\(")
RE_GUARD = re.compile(r"\b(?:dp\s*::\s*)?(LockGuard|UniqueLock)\s+"
                      r"(\w+)\s*([({])")
RE_WAIT = re.compile(r"\b(\w+)\s*\.\s*(wait(?:For|Until)?)\s*\(\s*"
                     r"(\w+)\s*[,)]")
RE_SITE_DECL = re.compile(r"\bFaultSite\s+(\w+)\s*([({])")
RE_SITE_CHECK = re.compile(r"\b(\w+)\s*\.\s*(shouldFail|orThrow)\s*\(")
RE_NEW = re.compile(r"\bnew\b")
RE_ALLOC_FN = re.compile(r"\b(malloc|calloc|realloc|aligned_alloc|"
                         r"strdup|to_string)\s*\(")
RE_CONTAINER_OP = re.compile(
    r"\b([A-Za-z_]\w*(?:(?:\.|->)[A-Za-z_]\w*)*)\s*(?:\.|->)\s*"
    r"(push_back|emplace_back|emplace|emplace_front|push_front|insert|"
    r"resize|reserve|assign|append|shrink_to_fit)\s*\(")
RE_CONTAINER_CTOR = re.compile(
    r"\b(?:std\s*::\s*)?(vector|basic_string|deque|list|map|set|"
    r"unordered_map|unordered_set|ostringstream|stringstream|string)"
    r"\b\s*(?:<[^;{}]*?>)?\s+(\w+)\s*[({]\s*[^)\s};]")
RE_CALL = re.compile(r"\b([A-Za-z_]\w*)\s*\(")
RE_LOCAL_DECL = re.compile(
    r"\b(?:const\s+)?([A-Za-z_][\w:]*(?:\s*<[^;{}()]*>)?)\s*"
    r"[&*]?\s+([A-Za-z_]\w*)\s*[=;({]")
RE_MUTEX_MEMBER = re.compile(r"\b(?:dp\s*::\s*)?Mutex\s+(\w+)")
RE_MEMBER_DECL = re.compile(
    r"(?:^|(?<=[;{}]))\s*(?:mutable\s+|static\s+|const\s+)*"
    r"([A-Za-z_][\w:]*(?:\s*<[^;]*?>)?)\s*([&*]?)\s*(\w+)\s*"
    r"(?:DP_\w+(?:\([^)]*\))?\s*)?(?:=[^;]*|\{[^;]*\})?;")
RE_ANNOTATION = re.compile(
    r"//\s*dp-analyze:\s*(hot|cold)\b(?:\s+scratch=(\w+))?")
RE_ALLOW = re.compile(r"//\s*dp-analyze:\s*allow\((DPA\d{3})\)")
RE_ACCUMULATE = re.compile(
    r"\b(?:std\s*::\s*)?accumulate\s*\(\s*([\w.\->]+?)\s*"
    r"(?:\.|->)\s*c?begin\s*\(")
RE_RANGE_FOR = re.compile(
    r"\bfor\s*\(\s*(?:const\s+)?auto\s*&{0,2}\s*"
    r"(?:\[[^\]]*\]|\w+)\s*:\s*([\w.\->]+)\s*\)")
RE_COMPOUND = re.compile(
    r"(?<![\w.>])([A-Za-z_]\w*)\s*([+\-*/|&^])=(?!=)")
RE_PARALLEL = re.compile(r"\bparallelFor\w*\s*\(")


class Aux:
    """Cross-file symbol tables collected in pass 1, consumed by the
    lock-resolution pass and the checkers."""

    def __init__(self) -> None:
        # class -> set of dp::Mutex member names
        self.mutex_members: dict[str, set[str]] = {}
        # mutex member name -> set of owning classes
        self.mutex_owner: dict[str, set[str]] = {}
        # (class, member) -> member type base name
        self.member_types: dict[tuple[str, str], str] = {}
        # file-scope `Mutex g;` declarations
        self.global_mutexes: set[str] = set()
        # id(Func) -> {var -> type base}
        self.func_vars: dict[int, dict[str, str]] = {}
        # repo-relative path -> original source text
        self.sources: dict[str, str] = {}
        # repo-relative path -> stripped+masked text (for checkers)
        self.stripped: dict[str, str] = {}


def base_type(t: str) -> str:
    """`std::unique_ptr<serve::Metrics>` -> `Metrics` etc."""
    t = t.strip()
    m = re.match(r"(?:std\s*::\s*)?(?:unique_ptr|shared_ptr|optional)"
                 r"\s*<\s*([^<>,]+?)\s*[>,]", t)
    if m:
        t = m.group(1)
    t = re.sub(r"<.*", "", t).strip()
    t = t.rstrip("&* ")
    return t.split("::")[-1]


def mask_preprocessor(stripped: str) -> str:
    """Blanks preprocessor lines (including continuations) so includes
    and macro definitions cannot unbalance brace/paren tracking."""
    lines = stripped.split("\n")
    cont = False
    for k, ln in enumerate(lines):
        if cont or ln.lstrip().startswith("#"):
            cont = ln.rstrip().endswith("\\")
            lines[k] = " " * len(ln)
        else:
            cont = False
    return "\n".join(lines)


def top_level_text(stripped: str, lo: int, hi: int) -> str:
    """The text of [lo, hi) with every nested brace region blanked —
    used to scan class member declarations without seeing inline
    method bodies."""
    out: list[str] = []
    depth = 0
    for i in range(lo, hi):
        c = stripped[i]
        if c == "{":
            depth += 1
            out.append(" ")
        elif c == "}":
            depth = max(0, depth - 1)
            out.append(" ")
        elif depth == 0:
            out.append(c)
        else:
            out.append("\n" if c == "\n" else " ")
    return "".join(out)


def _first_arg(expr: str) -> str:
    depth = 0
    for i, c in enumerate(expr):
        if c in "(<[":
            depth += 1
        elif c in ")>]":
            depth -= 1
        elif c == "," and depth == 0:
            return expr[:i].strip()
    return expr.strip()


def _mask_angles(head: str) -> str:
    """Blanks simple template-argument regions so the first '(' found
    afterwards belongs to a parameter list, not to `void()` inside a
    template argument."""
    out = list(head)
    i = 0
    while i < len(head):
        if head[i] == "<" and i > 0 and (head[i - 1].isalnum()
                                         or head[i - 1] == "_"):
            depth = 1
            j = i + 1
            while j < len(head) and depth > 0:
                if head[j] == "<":
                    depth += 1
                elif head[j] == ">":
                    depth -= 1
                elif head[j] not in " \t\n,:*&<>[]()" \
                        and not (head[j].isalnum() or head[j] in "_:"):
                    break  # not a template-arg region after all
                j += 1
            if depth == 0:
                for k in range(i, j):
                    if out[k] != "\n":
                        out[k] = " "
                i = j
                continue
        i += 1
    return "".join(out)


def _func_from_head(head: str):
    """(qualified_name, params_text) for a function-definition head, or
    (None, None)."""
    if re.search(r"(?<![=!<>+\-*/&|^])=(?!=)", _mask_angles(head)) \
            and "operator" not in head:
        return None, None  # initializer, not a definition
    masked = _mask_angles(head)
    lp = masked.find("(")
    if lp == -1:
        return None, None
    m = re.search(r"(operator\s*[^\s(]+|[\w:~]+)\s*$", head[:lp])
    if not m:
        return None, None
    qual = m.group(1).replace(" ", "")
    name = qual.split("::")[-1]
    if name in CALL_KEYWORDS or name in TYPE_KEYWORDS:
        return None, None
    if name.startswith("DP_") and name.isupper():
        return None, None
    rp = lex.match_paren(head, lp)
    params = head[lp + 1:rp] if rp < len(head) else ""
    return qual, params


class _Parser:
    def __init__(self, rel: str, text: str, aux: Aux):
        self.rel = rel
        self.text = text
        self.aux = aux
        stripped = lex.strip_comments_and_strings(text)
        self.stripped = mask_preprocessor(stripped)
        self.braces = lex.build_brace_index(self.stripped)
        self.funcs: list[Func] = []
        aux.sources[rel] = text
        aux.stripped[rel] = self.stripped

    def parse(self) -> FileModel:
        self._scan(0, len(self.stripped), [], None)
        self._attach_annotations()
        # File-scope mutexes: everything outside class bodies was
        # already collected per-scan-level in _scan.
        return FileModel(path=self.rel, funcs=self.funcs)

    # -- structure ----------------------------------------------------

    def _scan(self, lo: int, hi: int, ns: list[str], cls: str | None):
        s = self.stripped
        top = top_level_text(s, lo, hi)
        if cls is None:
            for m in re.finditer(r"\bMutex\s+(\w+)\s*;",
                                 top_level_text(s, lo, hi)):
                self.aux.global_mutexes.add(m.group(1))
        i = lo
        boundary = lo
        while i < hi:
            c = s[i]
            if c in ";}":
                boundary = i + 1
                i += 1
                continue
            if c == "(":
                i = lex.match_paren(s, i) + 1
                continue
            if c != "{":
                i += 1
                continue
            close = self.braces.get(i, hi)
            head = s[boundary:i]
            self._classify(head, boundary, i, close, ns, cls)
            i = close + 1
            boundary = i
        if cls is not None:
            self._scan_members(cls, top)

    def _classify(self, head: str, head_lo: int, open_br: int,
                  close_br: int, ns: list[str], cls: str | None):
        hs = head.strip()
        if not hs or hs in ("try", "do", "else"):
            self._scan(open_br + 1, close_br, ns, cls)
            return
        if "(" not in hs and re.search(r"\bnamespace\b", hs):
            m = re.search(r"namespace\s+([\w:]+)?\s*$", hs)
            name = (m.group(1) if m and m.group(1) else "<anon>")
            self._scan(open_br + 1, close_br,
                       ns + name.split("::"), None)
            return
        if re.search(r"\benum\b", hs):
            return
        if hs == "extern":  # extern "C" with the literal stripped
            self._scan(open_br + 1, close_br, ns, cls)
            return
        cm = re.search(r"(?:\bclass\b|\bstruct\b|\bunion\b)\s*"
                       r"(?:\[\[[^\]]*\]\]\s*)?((?:\w+\s*::\s*)*\w+)?"
                       r"\s*(?:final\s*)?(?::[^:(][^()]*)?$", hs)
        if cm:
            name = cm.group(1)
            name = re.split(r"\s*::\s*", name)[-1] if name else "<anon>"
            self._scan(open_br + 1, close_br, ns, name)
            return
        qual, params = _func_from_head(hs)
        if qual is None:
            # Unrecognized block (macro expansion, array init without
            # '='): still walk it for nested definitions.
            self._scan(open_br + 1, close_br, ns, cls)
            return
        parts = qual.split("::")
        name = parts[-1]
        fcls = cls
        if fcls is None and len(parts) >= 2 and parts[-2] \
                and parts[-2][0].isupper():
            fcls = parts[-2]
        nonws = head_lo + (len(head) - len(head.lstrip()))
        fn = Func(name=name, cls=fcls, ns="::".join(ns), file=self.rel,
                  line=lex.line_of(self.stripped, nonws),
                  end_line=lex.line_of(self.stripped, close_br))
        self._extract_events(fn, open_br + 1, close_br, params or "")
        self.funcs.append(fn)

    def _scan_members(self, cls: str, top: str):
        mm = self.aux.mutex_members.setdefault(cls, set())
        for m in RE_MUTEX_MEMBER.finditer(top):
            mm.add(m.group(1))
            self.aux.mutex_owner.setdefault(m.group(1), set()).add(cls)
        for m in RE_MEMBER_DECL.finditer(top):
            t, member = m.group(1), m.group(3)
            if t in TYPE_KEYWORDS or member in TYPE_KEYWORDS:
                continue
            self.aux.member_types.setdefault((cls, member),
                                             base_type(t))

    # -- events -------------------------------------------------------

    def _extract_events(self, fn: Func, lo: int, hi: int, params: str):
        s = self.stripped
        body = s[lo:hi]
        vartypes: dict[str, str] = {}
        for p in self._split_params(params):
            pm = re.search(r"([\w:<>]+)\s*[&*]?\s*(\w+)\s*$", p)
            if pm and pm.group(1) not in TYPE_KEYWORDS:
                vartypes[pm.group(2)] = base_type(pm.group(1))
        for m in re.finditer(r"\b(\w+)\s*=\s*(?:std\s*::\s*)?"
                             r"make_(?:shared|unique)\s*<\s*([\w:]+)",
                             body):
            vartypes.setdefault(m.group(1), base_type(m.group(2)))
        for m in re.finditer(r"\bfor\s*\(\s*(?:const\s+)?"
                             r"([A-Za-z_][\w:]*(?:<[^;{}]*>)?)\s*"
                             r"[&*]{0,2}\s*(\w+)\s*:", body):
            if m.group(1) not in ("auto", "const"):
                vartypes.setdefault(m.group(2), base_type(m.group(1)))
        for m in RE_LOCAL_DECL.finditer(body):
            t, v = m.group(1), m.group(2)
            if t in TYPE_KEYWORDS or t in CALL_KEYWORDS or t == "auto":
                continue
            vartypes.setdefault(v, base_type(t))
        self.aux.func_vars[id(fn)] = vartypes

        regions = self._parallel_regions(lo, hi)

        def in_parallel(off: int) -> bool:
            return any(a <= off < b for _, a, b in regions)

        for m in RE_GUARD.finditer(body):
            off = lo + m.start()
            opener = lo + m.end() - 1
            if m.group(3) == "(":
                closer = lex.match_paren(s, opener)
            else:
                closer = self.braces.get(opener, hi)
            expr = _first_arg(s[opener + 1:closer])
            rel_off = lex.enclosing_scope_end(self.braces, s, off)
            fn.acquires.append(Acquire(
                line=lex.line_of(s, off), lock="", expr=expr,
                var=m.group(2), via=m.group(1),
                release_line=lex.line_of(s, rel_off)))
        for m in RE_WAIT.finditer(body):
            fn.waits.append(Wait(line=lex.line_of(s, lo + m.start()),
                                 cv=m.group(1), lock=m.group(3)))
        for m in RE_SITE_DECL.finditer(body):
            opener = lo + m.end() - 1
            closer = (lex.match_paren(s, opener)
                      if m.group(2) == "(" else self.braces.get(opener,
                                                                hi))
            lit = re.search(r'"([^"]*)"', self.text[opener:closer + 1])
            fn.site_decls.append(SiteDecl(
                line=lex.line_of(s, lo + m.start()), var=m.group(1),
                site=lit.group(1) if lit else "?"))
        decl_names = {d.var: d.site for d in fn.site_decls}
        for m in RE_SITE_CHECK.finditer(body):
            fn.site_checks.append(SiteCheck(
                line=lex.line_of(s, lo + m.start()), var=m.group(1),
                site=decl_names.get(m.group(1), "?")))
        for m in RE_SYSCALL.finditer(body):
            fn.syscalls.append(Syscall(
                line=lex.line_of(s, lo + m.start()), name=m.group(1)))
        self._extract_allocs(fn, body, lo)
        self._extract_calls(fn, body, lo, in_parallel)
        self._extract_float(fn, body, lo, regions, vartypes)

    @staticmethod
    def _split_params(params: str) -> list[str]:
        out, depth, cur = [], 0, []
        for c in params:
            if c in "(<[{":
                depth += 1
            elif c in ")>]}":
                depth -= 1
            if c == "," and depth == 0:
                out.append("".join(cur))
                cur = []
            else:
                cur.append(c)
        if cur:
            out.append("".join(cur))
        return out

    def _stmt_head(self, body: str, off: int) -> str:
        b = max(body.rfind(";", 0, off), body.rfind("{", 0, off),
                body.rfind("}", 0, off))
        return body[b + 1:off]

    def _extract_allocs(self, fn: Func, body: str, lo: int):
        s = self.stripped

        def add(off: int, what: str, obj: str | None):
            stmt = self._stmt_head(body, off)
            fn.allocs.append(Alloc(
                line=lex.line_of(s, lo + off), what=what, obj=obj,
                in_throw=bool(re.search(r"\bthrow\b", stmt))))

        for m in RE_NEW.finditer(body):
            add(m.start(), "new", None)
        for m in RE_ALLOC_FN.finditer(body):
            add(m.start(), m.group(1), None)
        for m in RE_CONTAINER_OP.finditer(body):
            chain = re.split(r"\.|->", m.group(1))[0]
            add(m.start(), m.group(2), chain)
        for m in RE_CONTAINER_CTOR.finditer(body):
            add(m.start(), f"{m.group(1)} constructor", m.group(2))

    def _extract_calls(self, fn: Func, body: str, lo: int, in_parallel):
        for m in RE_CALL.finditer(body):
            name = m.group(1)
            if name in CALL_KEYWORDS or name in TYPE_KEYWORDS:
                continue
            j = m.start() - 1
            while j >= 0 and body[j] in " \t\n":
                j -= 1
            obj = None
            if j >= 0 and body[j] == "." and (j == 0
                                              or not body[j - 1].isdigit()):
                obj = self._ident_before(body, j - 1)
            elif j >= 1 and body[j] == ">" and body[j - 1] == "-":
                obj = self._ident_before(body, j - 2)
            elif j >= 1 and body[j] == ":" and body[j - 1] == ":":
                q = self._ident_before(body, j - 2)
                if q is None:
                    continue  # `::open(` — a raw syscall, not a call
            fn.calls.append(Call(line=lex.line_of(self.stripped,
                                                  lo + m.start()),
                                 callee=name, obj=obj,
                                 in_parallel=in_parallel(lo + m.start())))

    @staticmethod
    def _ident_before(body: str, j: int) -> str | None:
        while j >= 0 and body[j] in " \t\n":
            j -= 1
        k = j
        while k >= 0 and (body[k].isalnum() or body[k] == "_"):
            k -= 1
        ident = body[k + 1:j + 1]
        return ident or None

    def _parallel_regions(self, lo: int, hi: int):
        """[(params_start, body_start, body_end)] of parallelFor lambda
        bodies within [lo, hi), absolute offsets."""
        s = self.stripped
        regions = []
        for m in RE_PARALLEL.finditer(s, lo, hi):
            call_open = m.end() - 1
            call_close = lex.match_paren(s, call_open)
            lb = s.find("[", call_open, call_close)
            if lb == -1:
                continue
            rb = s.find("]", lb, call_close)
            if rb == -1:
                continue
            k = rb + 1
            while k < call_close and s[k] in " \t\n":
                k += 1
            params_start = k
            if k < call_close and s[k] == "(":
                k = lex.match_paren(s, k) + 1
            while k < call_close and s[k] != "{":
                k += 1
            if k >= call_close:
                continue
            regions.append((params_start, k + 1,
                            self.braces.get(k, call_close)))
        return regions

    def _extract_float(self, fn: Func, body: str, lo: int, regions,
                       vartypes: dict[str, str]):
        s = self.stripped

        def is_float(name: str) -> bool:
            return vartypes.get(name) in ("float", "double")

        for params_start, b_lo, b_hi in regions:
            lam = s[params_start:b_hi]
            for m in RE_COMPOUND.finditer(s, b_lo, b_hi):
                lhs = m.group(1)
                declared = bool(re.search(
                    r"(?:^|[;{(,\[])\s*(?:const\s+)?"
                    r"[A-Za-z_][\w:]*(?:<[^;{}]*>)?\s*[&*]?\s+"
                    + re.escape(lhs) + r"\s*[=;,){(\[]", lam))
                fn.reduces.append(Reduce(
                    line=lex.line_of(s, m.start()), lhs=lhs,
                    op=m.group(2), is_float=is_float(lhs),
                    captured=not declared, in_parallel=True))
        file_text = self.aux.stripped[self.rel]

        def unordered(container: str) -> bool:
            base = re.split(r"\.|->", container)[0]
            if vartypes.get(base, "").startswith("unordered_"):
                return True
            return bool(re.search(
                r"unordered_(?:map|set|multimap|multiset)\s*<[^;]*?>\s*"
                r"[&*]?\s*" + re.escape(base) + r"\b", file_text))

        for m in RE_ACCUMULATE.finditer(body):
            fn.accumulates.append(Accumulate(
                line=lex.line_of(s, lo + m.start()),
                container=m.group(1),
                container_unordered=unordered(m.group(1))))
        for m in RE_RANGE_FOR.finditer(body):
            if not unordered(m.group(1)):
                continue
            k = lo + m.end()
            while k < len(s) and s[k] in " \t\n":
                k += 1
            if k < len(s) and s[k] == "{":
                f_lo, f_hi = k + 1, self.braces.get(k, k + 1)
            else:
                semi = s.find(";", k)
                f_lo, f_hi = k, (semi if semi != -1 else k)
            for cm in RE_COMPOUND.finditer(s, f_lo, f_hi):
                if is_float(cm.group(1)):
                    fn.unordered_folds.append(UnorderedFloatFold(
                        line=lex.line_of(s, cm.start()),
                        container=m.group(1)))
                    break

    # -- annotations --------------------------------------------------

    def _attach_annotations(self):
        anns = []
        for ln, line in enumerate(self.text.split("\n"), start=1):
            m = RE_ANNOTATION.search(line)
            if m:
                anns.append((ln, m.group(1), m.group(2)))
        by_line = sorted(self.funcs, key=lambda f: f.line)
        for ln, kind, scratch in anns:
            target = None
            for f in by_line:
                if ln <= f.line <= ln + 4:
                    target = f
                    break
            if target is None:
                for f in by_line:
                    if f.line <= ln <= f.end_line:
                        target = f
                        break
            if target is None:
                continue
            if kind == "hot":
                target.hot = True
                if scratch:
                    target.scratch.add(scratch)
            else:
                target.cold = True


def parse_source(rel: str, text: str, aux: Aux) -> FileModel:
    return _Parser(rel, text, aux).parse()


def parse_source_ex(rel: str, text: str, aux: Aux):
    """(FileModel, parser) — the clang frontend reuses the parser's
    event extractor for functions it discovers beyond the lite scan."""
    p = _Parser(rel, text, aux)
    return p.parse(), p


def filter_allowed(findings, sources: dict[str, str]):
    """Drops findings escaped with `// dp-analyze: allow(DPAxxx)` on
    the finding line or the line above."""
    out = []
    cache: dict[str, list[str]] = {}
    for f in findings:
        text = sources.get(f.path)
        if text is None:
            out.append(f)
            continue
        lines = cache.setdefault(f.path, text.split("\n"))
        allowed = False
        for ln in (f.line, f.line - 1):
            if 1 <= ln <= len(lines):
                m = RE_ALLOW.search(lines[ln - 1])
                if m and m.group(1) == f.rule:
                    allowed = True
        if not allowed:
            out.append(f)
    return out


def iter_source_files(root: Path):
    for sub in ("src",):
        base = root / sub
        if not base.is_dir():
            continue
        for p in sorted(base.rglob("*")):
            if p.suffix in SCAN_EXTS and p.is_file():
                yield p


def parse_tree(root: Path, paths=None):
    """(models, aux) for the whole tree (or an explicit path list)."""
    aux = Aux()
    models = []
    files = (sorted(paths) if paths is not None
             else list(iter_source_files(root)))
    for p in files:
        rel = p.resolve().relative_to(root.resolve()).as_posix() \
            if p.resolve().is_relative_to(root.resolve()) \
            else p.as_posix()
        text = p.read_text(encoding="utf-8", errors="replace")
        models.append(parse_source(rel, text, aux))
    resolve_locks(models, aux)
    return models, aux


def resolve_locks(models: list[FileModel], aux: Aux) -> None:
    """Pass 2: canonicalize Acquire.lock / Wait.lock ids now that the
    cross-file mutex-member tables are complete."""
    for fm in models:
        for fn in fm.funcs:
            vartypes = aux.func_vars.get(id(fn), {})
            for a in fn.acquires:
                a.lock = _lock_id(a.expr, fn, aux, vartypes)
            for w in fn.waits:
                # Innermost guard with the named var held at the wait
                # line; guard names like `lock` are reused per-scope.
                cands = [a for a in fn.acquires if a.var == w.lock
                         and a.line <= w.line <= a.release_line]
                g = max(cands, key=lambda a: a.line, default=None)
                w.lock = g.lock if g else "?"


def _lock_id(expr: str, fn: Func, aux: Aux,
             vartypes: dict[str, str]) -> str:
    e = expr.strip().lstrip("*&").strip()
    if e.startswith("this->"):
        e = e[len("this->"):]
    parts = re.split(r"\.|->", e)
    if len(parts) == 1:
        m = parts[0]
        if not re.fullmatch(r"\w+", m):
            return f"?::{m or 'unknown'}"
        if fn.cls and m in aux.mutex_members.get(fn.cls, ()):
            return f"{fn.cls}::{m}"
        t = vartypes.get(m)
        if t == "Mutex":
            return f"{fn.file}:{fn.name}::{m}"
        if m in aux.global_mutexes:
            return f"::{m}"
        owners = aux.mutex_owner.get(m, set())
        if len(owners) == 1:
            return f"{next(iter(owners))}::{m}"
        return f"?::{m}"
    base = parts[0]
    member = parts[-1]
    bt = vartypes.get(base)
    if bt is None and fn.cls:
        bt = aux.member_types.get((fn.cls, base))
    if bt and member in aux.mutex_members.get(bt, ()):
        return f"{bt}::{member}"
    owners = aux.mutex_owner.get(member, set())
    if len(owners) == 1:
        return f"{next(iter(owners))}::{member}"
    return f"?::{member}"
