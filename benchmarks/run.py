"""graphkt benchmark: one workload, one seed, one run.

    python3 benchmarks/run.py --workload desk --seed 1 --seconds 20 --trace 0

Untraced (`--trace 0`) runs measure the end-to-end metrics; traced
(`--trace 1`) runs wrap graphkt's modules and report per-layer metrics plus
the tracing overhead. The last line of standard output is one JSON object
with the keys `correct`, `attempted`, `failed` and `metrics`. Exit status 0
means every output check passed, 1 that a check failed (the failing check is
named on standard error), 2 that the benchmark could not start.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"  # corpora, results and span files
BLAS_THREADS = 1  # small matrices: one BLAS thread is faster and steadier
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0,
                   help="measured time of an untraced run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="shrink the workload to seconds (smoke tests)")
    return p.parse_args(argv)


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def git_commit(root: Path) -> str:
    """HEAD's commit read from .git without running git; 'unknown' if none."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def src_lines(root: Path) -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in (root / "src").rglob("*.py"))


def blas_name(np) -> str:
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        return "unknown"


def main(argv=None) -> int:
    args = parse_args(argv)
    threads = min(BLAS_THREADS, nproc())
    for var in BLAS_ENV:
        os.environ[var] = str(threads)  # before numpy loads BLAS
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import numpy as np
        import graphkt  # noqa: F401
    except ImportError as exc:
        print(f"benchmark cannot start: {exc} (expected graphkt under "
              f"{ROOT / 'src'})", file=sys.stderr)
        return 2

    import harness
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    w = workloads.WORKLOADS[args.workload]
    if args.tiny:
        w = workloads.tiny(w)
    tag = f"{w.name}-seed{args.seed}{'-tiny' if args.tiny else ''}"
    corpus = workloads.generate(w, args.seed, OUT / "work" / tag)

    try:
        if args.trace:
            outcome, values, info, notes = harness.run_traced(
                w, corpus, args.seed, OUT / f"{tag}.spans.npz")
        else:
            outcome, values, info, notes = harness.run_untraced(
                w, corpus, args.seed, args.seconds)
    except harness.CheckFailed as exc:
        outcome, values, info, notes = harness.Outcome(attempted=1), {}, {}, {}
        outcome.fail(str(exc))
    except Exception:  # an unexpected failure is reported, not hidden
        outcome, values, info, notes = harness.Outcome(attempted=1), {}, {}, {}
        outcome.fail(f"run raised:\n{traceback.format_exc()}")

    provenance = {
        "workload": {**w.params(), "eta": workloads.ETA,
                     "min_len": workloads.MIN_LEN},
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "numpy": np.__version__,
        "blas": blas_name(np),
        "blas_threads": threads,
        "nproc": nproc(),
        "python": platform.python_version(),
        "git_commit": git_commit(ROOT),
        "src_lines": src_lines(ROOT),
    }
    correct = outcome.failed == 0
    result = {
        "correct": correct,
        "attempted": max(outcome.attempted, 1),
        "failed": outcome.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in values.items()},
    }
    OUT.mkdir(parents=True, exist_ok=True)
    with open(OUT / f"{tag}-trace{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump({**result, "info": info, "notes": notes,
                   "failures": outcome.failures, "provenance": provenance},
                  fh, indent=2)

    print(f"graphkt benchmark  workload={w.name}  seed={args.seed}  "
          f"trace={args.trace}")
    for name, (value, unit) in values.items():
        how = f"  ({info[name][2]})" if name in info else ""
        print(f"  {name:34s} {value:14.6g}  {unit}{how}")
    for name, (value, unit, how) in info.items():
        if name not in values:
            print(f"  {name:34s} {value:14.6g}  {unit}  ({how})")
    print(f"  provenance: numpy {np.__version__}, {provenance['blas']} x"
          f"{threads} thread(s), nproc {provenance['nproc']}, "
          f"commit {provenance['git_commit'][:12]}, "
          f"src {provenance['src_lines']} lines")
    for failure in outcome.failures:
        print(f"CHECK FAILED [{w.name}]: {failure}", file=sys.stderr)
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
