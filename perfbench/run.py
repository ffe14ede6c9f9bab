"""Benchmark of motionmanifold: the env3 study, pose training and replanning.

Run from the repository root:

    python3 perfbench/run.py --workload study-env3 --seed 0 --seconds 20 --trace 0

--workload is study-env3, pose-train, replan, or all (all three in one
process, reported under the metric names of perfbench/metrics.json).
--trace 0 times the public API with nothing wrapped and prints the
end-to-end metrics.  --trace 1 runs one untraced and one traced pass,
prints the per-layer metrics and the tracing overhead, and writes the
spans.  --smoke selects the short configuration the self-test uses.

Every metric is printed by name with its unit; the last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics.  The full report (provenance, every named metric, fingerprints,
failed checks) and the spans go to .perfbench_out/ at the repository root.
"""

import os

# One BLAS thread, set before numpy is imported: at these matrix sizes a
# second thread adds nothing but run-to-run noise.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("study-env3", "pose-train", "replan")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="short configuration of the same code path")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "motionmanifold" / "__init__.py").is_file():
        print(f"perfbench: no motionmanifold sources under {SRC}; run it "
              f"from a full checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import workloads  # imports numpy, scipy and motionmanifold
    import_s = time.perf_counter() - start
    return workloads.main(args, import_s, ROOT)


if __name__ == "__main__":
    sys.exit(main())
