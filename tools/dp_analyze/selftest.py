"""Self-test over seeded-defect fixtures (mirrors the dp_lint
doctrine).

Each tests/analyze/fixtures/*.cpp declares its expectations in header
comments:

  // dp-analyze-expect: DPA103        this file must fire DPA103
  // dp-analyze-expect: DPA101 DPA104 (repeatable / space-separated)
  // dp-analyze-path: src/serve/x.cpp analyze the file as if it lived
                                      at this repo path (DPA102 and
                                      friends are path-scoped)

A fixture with no expect header must analyze clean. The self-test
fails if any expected rule does not fire, or any unexpected rule
fires. Fixtures run through the same built-in frontend as the tree,
so the ctest `lint` label needs nothing beyond python3.
"""

from __future__ import annotations

import re
from pathlib import Path

from . import fault_sites, float_determinism, frontend_lite, \
    hot_alloc, lock_order

RE_EXPECT = re.compile(r"//\s*dp-analyze-expect:\s*([A-Z0-9 ]+)")
RE_PATH = re.compile(r"//\s*dp-analyze-path:\s*(\S+)")

FIXTURE_DIR = Path("tests") / "analyze" / "fixtures"


def analyze_single(rel: str, text: str):
    """All four checkers over one translation unit in fixture mode: no
    lock_order.json drift compare, no chaos-suite parity."""
    aux = frontend_lite.Aux()
    models = [frontend_lite.parse_source(rel, text, aux)]
    frontend_lite.resolve_locks(models, aux)
    findings = []
    f101, _ = lock_order.check(models, committed_json=None)
    findings += f101
    f102, _ = fault_sites.check(models, root=None, chaos=False)
    findings += f102
    findings += hot_alloc.check(models)
    findings += float_determinism.check(models)
    return frontend_lite.filter_allowed(findings, aux.sources)


def run(root: Path) -> int:
    fdir = root / FIXTURE_DIR
    fixtures = sorted(fdir.glob("*.cpp"))
    if not fixtures:
        print(f"dp-analyze self-test: no fixtures in {fdir}")
        return 1
    failures = 0
    fired: set[str] = set()
    for p in fixtures:
        text = p.read_text(encoding="utf-8")
        expected: set[str] = set()
        for m in RE_EXPECT.finditer(text):
            expected |= set(m.group(1).split())
        pm = RE_PATH.search(text)
        rel = pm.group(1) if pm else \
            p.relative_to(root).as_posix()
        findings = analyze_single(rel, text)
        got = {f.rule for f in findings}
        fired |= got
        if got == expected:
            print(f"PASS {p.name}: "
                  + (" ".join(sorted(got)) if got else "clean"))
            continue
        failures += 1
        print(f"FAIL {p.name}: expected "
              f"[{' '.join(sorted(expected)) or 'clean'}], got "
              f"[{' '.join(sorted(got)) or 'clean'}]")
        for f in findings:
            print(f"  {f}")
    total = len(fixtures)
    print(f"dp-analyze self-test: {total - failures}/{total} "
          "fixtures ok")
    required = {"DPA101", "DPA102", "DPA103", "DPA104"}
    missing = required - fired
    if missing:
        failures += 1
        print("FAIL coverage: no fixture fired "
              + " ".join(sorted(missing)))
    return 1 if failures else 0
