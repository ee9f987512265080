"""dp-analyze CLI.

  python3 tools/dp_analyze [--root DIR] [--sarif PATH]
                           [--emit-lock-order PATH] [--self-test]

Exit status: 0 clean, 1 findings (or self-test failure), 2 usage or
internal error. CI treats 1 as "contract violations" and 2 as "tool
broke" — see .github/workflows/ci.yml.
"""

import os
import sys

if __package__ in (None, ""):  # executed as `python3 tools/dp_analyze`
    sys.path.insert(0, os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    import dp_analyze.__main__ as _pkg_main
    sys.exit(_pkg_main.main(sys.argv[1:]))

import argparse
import traceback
from pathlib import Path

from . import RULES, __version__, fault_sites, float_determinism, \
    frontend_lite, hot_alloc, lock_order, sarif, selftest

LOCK_ORDER_JSON = "tools/lock_order.json"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="dp_analyze",
        description="AST-level contract analyzer for the DeePattern "
                    "codebase (DPA101-DPA104).")
    ap.add_argument("--root", default=None,
                    help="repo root (default: two levels above this "
                         "package)")
    ap.add_argument("--sarif", metavar="PATH", default=None,
                    help="also write findings as SARIF 2.1.0")
    ap.add_argument("--emit-lock-order", metavar="PATH", default=None,
                    help="write the DPA101 edge list here and skip "
                         "the staleness compare")
    ap.add_argument("--self-test", action="store_true",
                    help="run the seeded-defect fixtures instead of "
                         "the tree")
    ap.add_argument("--version", action="version",
                    version=f"dp-analyze {__version__}")
    args = ap.parse_args(argv)

    root = Path(args.root) if args.root else \
        Path(__file__).resolve().parent.parent.parent
    if not (root / "src").is_dir() and not args.self_test:
        print(f"dp-analyze: {root} has no src/ directory",
              file=sys.stderr)
        return 2

    try:
        if args.self_test:
            return selftest.run(root)

        models, aux = frontend_lite.parse_tree(root)

        committed = None
        if args.emit_lock_order is None:
            lp = root / LOCK_ORDER_JSON
            committed = lp.read_text(encoding="utf-8") \
                if lp.is_file() else ""
        findings, generated = lock_order.check(
            models, committed_json=committed)
        if args.emit_lock_order:
            Path(args.emit_lock_order).write_text(generated,
                                                  encoding="utf-8")
            print(f"dp-analyze: wrote {args.emit_lock_order}")
        f102, _inventory = fault_sites.check(models, root=root)
        findings += f102
        findings += hot_alloc.check(models)
        findings += float_determinism.check(models)
        findings = frontend_lite.filter_allowed(findings, aux.sources)
        findings.sort(key=lambda f: (f.path, f.line, f.rule))

        for f in findings:
            print(f)
        if args.sarif:
            sarif.write(args.sarif,
                        sarif.build("dp-analyze", __version__, RULES,
                                    findings))
        n_funcs = sum(len(fm.funcs) for fm in models)
        print(f"dp-analyze: {len(models)} files, {n_funcs} functions, "
              f"{len(findings)} finding(s)", file=sys.stderr)
        return 1 if findings else 0
    except Exception:  # noqa: BLE001 — internal error => exit 2
        traceback.print_exc()
        print("dp-analyze: internal error (exit 2)", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
