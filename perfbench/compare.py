"""Compare two sets of benchmark results against the bounds in BENCHMARK.json.

Usage::

    python3 perfbench/compare.py base.jsonl head.jsonl

Each file holds result lines of one workload as printed by ``run.py``
(its last stdout line), one run per line, e.g. ten runs of the parent
commit and ten of a change.  An end-to-end metric is flagged when the
head median is worse than the base median by more than the metric's
bound; the exit code is 1 when anything is flagged or any run was
incorrect.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import typing as _t

SPEC = pathlib.Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def worse_by(metric: _t.Mapping[str, _t.Any], base: float, head: float) -> float:
    """How much worse *head* is than *base*, as a share of *base*."""
    change = (head - base) / base
    return -change if metric["better"] == "higher" else change


def regressions(
    base: _t.Sequence[_t.Mapping[str, _t.Any]],
    head: _t.Sequence[_t.Mapping[str, _t.Any]],
    spec: _t.Mapping[str, _t.Any],
) -> _t.List[_t.Tuple[str, float, float, float]]:
    """``(metric, base median, head median, worse_by)`` for every
    end-to-end metric whose head median is worse beyond its bound."""
    flagged = []
    for metric in spec["end_to_end"]:
        name = metric["name"]
        base_median = statistics.median(r["metrics"][name]["value"] for r in base)
        head_median = statistics.median(r["metrics"][name]["value"] for r in head)
        worse = worse_by(metric, base_median, head_median)
        if worse > metric["bound"]:
            flagged.append((name, base_median, head_median, worse))
    return flagged


def load(path: str) -> _t.List[dict]:
    lines = pathlib.Path(path).read_text().splitlines()
    return [json.loads(line) for line in lines if line.strip()]


def main(argv: _t.Optional[_t.Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("head")
    args = parser.parse_args(argv)
    spec = json.loads(SPEC.read_text())
    base, head = load(args.base), load(args.head)
    flagged = regressions(base, head, spec)
    for name, base_median, head_median, worse in flagged:
        print(f"REGRESSION {name}: {base_median:.6g} -> {head_median:.6g} "
              f"({worse:+.1%} worse)")
    incorrect = sum(not r["correct"] for r in base + head)
    if incorrect:
        print(f"{incorrect} run(s) reported incorrect outputs")
    if not flagged and not incorrect:
        print(f"no regression beyond the bounds ({len(base)} base runs, "
              f"{len(head)} head runs)")
    return 1 if flagged or incorrect else 0


if __name__ == "__main__":
    raise SystemExit(main())
