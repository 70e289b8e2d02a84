"""Check that the serve_swap drive reproduces ``repro.serve.run_loadgen``.

The benchmark composes the loadgen scenario from the public serve API so
that set-up, routing and each swap can be timed apart.  This script
asserts that the composition is faithful at the dataset seed, where the
benchmark's inputs are meant to be ``build_scenario``'s: the inputs are
equal, and so are the counts and plan costs of ``run_loadgen`` for the
same config.  Run from the root of a checkout::

    PYTHONHASHSEED=0 PYTHONPATH=src python3 perfbench/check_loadgen.py
"""

from __future__ import annotations

import argparse
import sys

import worker
from repro.serve import run_loadgen
from repro.serve.loadgen import build_scenario


def main() -> int:
    argparse.ArgumentParser(description=__doc__.split("\n")[0]).parse_args()
    seed = worker.SERVE_DATASET_SEED
    inputs = worker.setup_serve(seed, worker.Clock())
    config = inputs["config"]
    index, stream, warmup = build_scenario(config)
    worker.check(stream == inputs["stream"], "stream differs from build_scenario")
    worker.check(list(warmup) == list(inputs["warmup"]), "warmup differs")
    worker.check(index.sizes_bytes() == inputs["index"].sizes_bytes(), "index differs")

    counts = worker.new_counts()
    for _ in worker.serve_pass(inputs, worker.Clock(), counts):
        pass
    report = run_loadgen(config)
    observed = {
        "offered": counts["offered"],
        "completed": counts["ops"],
        "shed": counts["shed"],
        "swaps": config.swaps,  # serve_pass checks the handle's count
        "plan_costs": {v: round(c, 9) for v, c in counts["plan_costs"].items()},
    }
    expected = {
        "offered": report.offered,
        "completed": report.completed,
        "shed": sum(report.shed.values()),
        "swaps": report.swaps,
        "plan_costs": {v: round(c, 9) for v, c in report.plan_costs.items()},
    }
    worker.check(observed == expected, f"drive {observed} != loadgen {expected}")
    print(f"serve_swap seed {seed}: matches run_loadgen "
          f"({report.offered} offered, {report.completed} completed, "
          f"{report.swaps} swaps, plan costs {observed['plan_costs']})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
