"""End-to-end benchmark of the placement pipeline: one workload per call.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload offline_lprr --seed 1 --seconds 20 --trace 0

Workloads (see perfbench/README.md for why each exists):

* ``offline_lprr`` — mine, plan (``lprr``) and replay query logs of the
  search case study; the plan layer dominates.
* ``online_drift`` — the ``OnlinePlanner`` control loop over a drifting
  stream; ingest dominates.
* ``serve_swap`` — the query router under an open-loop stream with
  mid-run ``stream:greedy`` hot swaps; routing dominates.

Every workload runs in a fresh ``worker.py`` process with
``PYTHONHASHSEED`` pinned (string-hash order feeds planner tie-breaks)
and serial planning.  With ``--trace 0`` the end-to-end metrics are
printed; ``setup_s`` is the median of three fresh-process set-ups (two
set-up-only processes plus the measured one).  With ``--trace 1`` the
per-layer self-time table of a traced pass is printed instead.  The
last stdout line is one JSON object: ``correct``, ``attempted``,
``failed``, ``metrics``.  A failed output check, a missing ``src/``
or a worker over its time budget exits non-zero without a result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HASH_SEED = "0"
BUDGET_S = 170.0
WORKLOADS = ("offline_lprr", "online_drift", "serve_swap")
SETUP_SAMPLES = 3


def worker(args: argparse.Namespace, phase: str, env: dict, deadline: float) -> dict:
    """Run one worker process to completion and parse its result line."""
    command = [
        sys.executable,
        str(Path(__file__).with_name("worker.py")),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--phase", phase,
    ]
    proc = subprocess.run(
        command,
        env=env,
        stdout=subprocess.PIPE,
        timeout=max(1.0, deadline - time.monotonic()),
        text=True,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{phase} worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    src = Path.cwd() / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {src}; run from a checkout root",
              file=sys.stderr)
        return 2
    env = dict(
        os.environ,
        PYTHONHASHSEED=HASH_SEED,
        PYTHONPATH=str(src),
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    deadline = time.monotonic() + BUDGET_S
    try:
        # Set-up-only processes first: they also warm the bytecode cache.
        setups = [] if args.trace else [
            worker(args, "setup", env, deadline)["setup_s"]
            for _ in range(SETUP_SAMPLES - 1)
        ]
        result = worker(args, "run", env, deadline)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"perfbench: {args.workload} seed {args.seed}: {exc}", file=sys.stderr)
        return 1

    metrics, raw = result["metrics"], result["raw"]
    if setups:
        setups.append(metrics["setup_s"]["value"])
        metrics["setup_s"]["value"] = statistics.median(setups)
    print(f"# {args.workload} seed={args.seed} PYTHONHASHSEED={HASH_SEED} "
          f"trace={args.trace} setup_samples={len(setups) or 1}")
    for name, metric in metrics.items():
        print(f"{name:28s} {metric['value']:>14.6g} {metric['unit']}")
    if raw:
        print("# unnormalized: " + " ".join(f"{k}={v:.6g}" for k, v in raw.items()))
    print(json.dumps({
        "correct": True,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
