#!/usr/bin/env python3
"""Regenerate EXPERIMENTS.md from saved experiment JSONs.

Usage::

    python -m repro.experiments.cli run all --scale tiny --json-dir results
    python tools/generate_experiments_md.py results EXPERIMENTS.md

``--check`` renders in memory and compares against the existing file
instead of writing — exit status 1 when EXPERIMENTS.md is stale (the
CI docs-drift gate)::

    python tools/generate_experiments_md.py --check results EXPERIMENTS.md
"""

import argparse
import sys
from pathlib import Path

from repro.experiments.reporting import load_result
from repro.experiments.verify import render_experiments_md


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("results_dir", nargs="?", default="results")
    parser.add_argument("out", nargs="?", default="EXPERIMENTS.md")
    parser.add_argument("--check", action="store_true",
                        help="fail (exit 1) when the rendered document "
                             "differs from the existing file; write nothing")
    args = parser.parse_args(argv)

    results = {}
    for path in sorted(Path(args.results_dir).glob("*.json")):
        result = load_result(path)
        if result.get("partial"):
            # an interrupted `run --json-dir` leaves <id>.partial.json
            print(f"skipping partial result {path}", file=sys.stderr)
            continue
        results[result["id"]] = result
    if not results:
        print(f"no result JSONs found in {args.results_dir!r}", file=sys.stderr)
        return 1
    rendered = render_experiments_md(results)
    out = Path(args.out)
    if args.check:
        current = out.read_text() if out.exists() else ""
        if current != rendered:
            print(
                f"{args.out} is stale: regenerate it with\n"
                f"    python tools/generate_experiments_md.py "
                f"{args.results_dir} {args.out}",
                file=sys.stderr,
            )
            return 1
        print(f"{args.out} is up to date ({len(results)} experiments)")
        return 0
    out.write_text(rendered)
    print(f"wrote {args.out} from {len(results)} experiments")
    return 0


if __name__ == "__main__":
    sys.exit(main())
