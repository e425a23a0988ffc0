"""Run the artifact pipelines and print one sha256 line per written file.

    python3 scripts/artifact_digests.py SRC_DIR OUT_DIR > digests.txt

SRC_DIR is the `src` directory of the fpcert tree to exercise, so two trees
(say, before and after a refactor) can be compared by diffing the printed
lines.  The pipelines are:

- every non-integral catalog problem: `run`, then `certify` with all five
  regimes by witness search at horizons 200 and 500;
- newton-dense and noisy-certify instances 0-2 of seed 1, and fredholm-sweep
  instance 0 of seed 1, exactly as `bench/run.py` calls them.

Exit codes are printed too; paths are relative to OUT_DIR.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import sys
from pathlib import Path

import yaml

# spelled out rather than imported: the tree under test may predate majorant.REGIMES
REGIMES = ("bounded", "uniform_max", "sandwich", "geometric", "quadratic")
BENCH_INSTANCES = (("newton-dense", 3), ("noisy-certify", 3), ("fredholm-sweep", 1))


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    src, out = Path(argv[0]).resolve(), Path(argv[1]).resolve()
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
    from fpcert.cli import main as cli_main
    from fpcert.problems import CATALOG
    import workloads

    def call(argv):
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = cli_main(argv)
        print("exit %d: %s" % (code, " ".join(a.replace(str(out), "OUT") for a in argv)))

    for name, entry in CATALOG.items():
        if entry.kind == "integral":
            continue
        d = out / "catalog" / name
        d.mkdir(parents=True, exist_ok=True)
        problem = d / "problem.yaml"
        problem.write_text(yaml.safe_dump({
            "catalog": name,
            "certificates": [{"regime": r, "witnesses": "search"} for r in REGIMES]}))
        call(["run", str(problem), "--out", str(d / "trace")])
        for horizon in (200, 500):
            call(["certify", str(problem), "--trace", str(d / "trace"),
                  "--horizon", str(horizon), "--out", str(d / ("h%d" % horizon))])
    for workload, count in BENCH_INSTANCES:
        for index in range(count):
            inst = workloads.make_instance(workload, 1, index, out / workload / str(index))
            for c in inst.calls:
                call(c.argv)
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        print("%s  %s" % (hashlib.sha256(path.read_bytes()).hexdigest(), path.relative_to(out)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
