"""Which ``src/repro`` functions a system drive enters, and which only tests do.

Usage (from anywhere; ``--root`` defaults to this script's checkout)::

    python .github/reach.py [--root CHECKOUT]

The script copies the checkout to a temporary directory and drops a
``sitecustomize.py`` into the copy's ``src/``.  Every Python process
started with that ``src/`` on ``PYTHONPATH`` then records each code
object it enters (``sys.setprofile`` and ``threading.setprofile``) and
writes one file at exit.  The script runs the system drives first:

* every CI smoke command at its CI arguments (chaos in both forms,
  online at sketch widths 512 and 61, loadgen with
  ``perfbench/check_loadgen.py``, pg, gap at 12 x 3 and 24 x 4, the
  hash-seed place/evaluate commands and one ``place --strategy`` per
  registered planner), ``analyze``, ``experiment fig6``,
  ``fig7`` and ``all --nodes 10 20 40``, and ``repro trace`` on each
  journal (online also with ``--period 3``) and on a metrics document;
* every example under ``examples/``;
* the paper bands (``benchmarks/`` without the micro-benchmarks) with
  ``--benchmark-disable``;
* ``perfbench/run.py --seconds 1`` for each workload at ``--trace 0``
  and ``--trace 1``.

Then it runs the tier-1 suite (``tests/``).  Each module-level function
and method of ``src/repro`` counts as *system* when a drive entered it,
*unit-only* when only the suite did and *unreached* when nothing did;
nested functions count with their parent, and a function's lines run
from its first decorator to its last line.  The script prints the line
totals of the three classes and lists the unit-only and unreached
functions.  It takes a few minutes on two cores.
"""

from __future__ import annotations

import argparse
import ast
import os
import shutil
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

HOOK = '''\
"""Records every code object this process enters (see .github/reach.py)."""
import atexit
import os
import sys
import threading

_OUT = os.environ.get("REACH_OUT")
if _OUT:
    _seen = set()
    _add = _seen.add

    def _profile(frame, event, arg):
        if event == "call":
            _add(frame.f_code)

    def _dump():
        sys.setprofile(None)
        rows = sorted(
            {(c.co_filename, c.co_firstlineno, c.co_name) for c in _seen}
        )
        name = f"{os.getpid()}-{os.urandom(4).hex()}.tsv"
        with open(os.path.join(_OUT, name), "w", encoding="utf-8") as fh:
            for path, line, func in rows:
                fh.write(f"{path}\\t{line}\\t{func}\\n")

    atexit.register(_dump)
    sys.setprofile(_profile)
    threading.setprofile(_profile)
'''

CLI = [sys.executable, "-m", "repro.cli"]
STUDY = ["--documents", "300", "--vocabulary", "600", "--queries", "3000", "--seed", "1"]
SMALL = ["--documents", "150", "--vocabulary", "300", "--seed", "1"]
ONLINE = [
    "online", "--vocabulary", "200", "--topics", "30", "--nodes", "5",
    "--duration", "3600", "--window", "600", "--qps", "1.0", "--seed", "7",
]
JOURNALS = [
    "chaos-a.jsonl", "rep-chaos-a.jsonl", "online-a.jsonl", "online-w61-a.jsonl",
    "serve-a.jsonl", "pg-a.jsonl", "gap-a.jsonl", "gap24-a.jsonl", "j.jsonl",
]


def drive_stages(root: Path) -> list[list[tuple[list[str], Path]]]:
    """The system drives as stages of ``(argv, cwd)``; a stage needs the
    artifacts of the stages before it."""
    work = root / "reach-work"
    planners = subprocess.run(
        [sys.executable, "-c", "import repro; print(*repro.available_planners())"],
        env=dict(os.environ, PYTHONPATH=str(root / "src")),
        capture_output=True, text=True, check=True,
    ).stdout.split()
    first = [
        (CLI + ["chaos", "--objects", "30", "--nodes", "5", "--operations", "60",
                "--events", "6", "--seed", "7", "--out", "chaos-a.json",
                "--journal", "chaos-a.jsonl", "--trace-out", "chaos-trace.json"], work),
        (CLI + ["chaos", "--replicas", "2", "--topology", "zones:2,racks:2",
                "--objects", "30", "--nodes", "8", "--operations", "60",
                "--events", "6", "--seed", "3", "--out", "rep-chaos-a.json",
                "--journal", "rep-chaos-a.jsonl",
                "--trace-out", "rep-chaos-trace.json"], work),
        (CLI + ONLINE + ["--out", "online-a.json", "--journal", "online-a.jsonl",
                         "--trace-out", "online-trace.json"], work),
        (CLI + ONLINE + ["--sketch-width", "61", "--heavy-hitters", "16",
                         "--out", "online-w61-a.json",
                         "--journal", "online-w61-a.jsonl"], work),
        (CLI + ["loadgen", "--duration", "4", "--qps", "4000", "--swaps", "3",
                "--seed", "7", "--out", "serve-a.json", "--journal", "serve-a.jsonl",
                "--trace-out", "serve-trace.json"], work),
        ([sys.executable, "perfbench/check_loadgen.py"], root),
        (CLI + ["pg", "--objects", "100000", "--nodes", "8", "--groups", "64",
                "--important", "64", "--seed", "7", "--out", "pg-a.json",
                "--journal", "pg-a.jsonl", "--trace-out", "pg-trace.json"], work),
        (CLI + ["gap", "--seed", "0", "--instances", "8", "--objects", "12",
                "--nodes", "3", "--out", "gap-a.json", "--journal", "gap-a.jsonl"], work),
        (CLI + ["gap", "--seed", "0", "--instances", "4", "--objects", "24",
                "--nodes", "4", "--out", "gap24-a.json",
                "--journal", "gap24-a.jsonl"], work),
        (CLI + ["gen-queries", "q.txt", "--count", "400", "--vocabulary", "200",
                "--topics", "25", "--seed", "3"], work),
        (CLI + ["experiment", "fig6"] + STUDY, work),
        (CLI + ["experiment", "fig7", "--nodes", "4", "8", "16"] + STUDY, work),
        (CLI + ["experiment", "all", "--nodes", "10", "20", "40"] + STUDY, work),
        ([sys.executable, "-m", "pytest", "benchmarks", "-q", "-p", "no:cacheprovider",
          "--ignore=benchmarks/test_perf_micro.py", "--benchmark-disable"], root),
    ]
    first += [
        ([sys.executable, str(example.relative_to(root))], root)
        for example in sorted((root / "examples").glob("*.py"))
    ]
    first += [
        ([sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
          "--seconds", "1", "--trace", trace], root)
        for workload in ("offline_lprr", "online_drift", "serve_swap")
        for trace in ("0", "1")
    ]
    second = [
        (CLI + ["place", "q.txt", "p.json", "--nodes", "4", "--scope", "50"] + SMALL,
         work),
        *(
            (CLI + ["place", "q.txt", f"place-{name.replace(':', '_')}.json",
                    "--strategy", name, "--nodes", "4", "--scope", "50"] + SMALL, work)
            for name in planners
        ),
        (CLI + ["evaluate", "q.txt", "--nodes", "4", "--scope", "50", "--journal",
                "j.jsonl", "--metrics-out", "m.json"] + SMALL, work),
        (CLI + ["analyze", "q.txt"], work),
    ]
    third = [(CLI + ["evaluate", "q.txt", "p.json"] + SMALL, work)]
    third += [(CLI + ["trace", journal], work) for journal in JOURNALS]
    third += [
        (CLI + ["trace", "online-a.jsonl", "--period", "3"], work),
        (CLI + ["trace", "m.json"], work),
    ]
    return [first, second, third]


def run_all(commands, env: dict) -> list[str]:
    """Run commands two at a time (one on a one-core host); the
    failures, as printable lines."""

    def run(item):
        argv, cwd = item
        proc = subprocess.run(
            argv, cwd=cwd, env=env, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True,
        )
        if proc.returncode == 0:
            return None
        tail = proc.stderr.strip().splitlines()[-1:] or [""]
        return f"exit {proc.returncode}: {' '.join(argv[1:])} ({tail[0]})"

    with ThreadPoolExecutor(max_workers=min(2, os.cpu_count() or 1)) as pool:
        return [line for line in pool.map(run, commands) if line]


def functions(src: Path) -> dict[tuple[str, int, str], int]:
    """Module-level functions and methods: ``(path, first line, name)`` to
    line count."""
    found: dict[tuple[str, int, str], int] = {}
    for path in sorted((src / "repro").rglob("*.py")):
        rel = path.relative_to(src).as_posix()
        stack = list(ast.iter_child_nodes(ast.parse(path.read_text(), rel)))
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                start = min([d.lineno for d in node.decorator_list] + [node.lineno])
                found[(rel, start, node.name)] = node.end_lineno - start + 1
            elif isinstance(node, ast.stmt):
                stack.extend(ast.iter_child_nodes(node))
    return found


def entered(out: Path, src: Path) -> set[tuple[str, int, str]]:
    """Every ``(path, first line, name)`` under ``src/repro`` some process
    entered."""
    prefix = str(src.resolve()) + os.sep
    seen = set()
    for record in out.glob("*.tsv"):
        for row in record.read_text(encoding="utf-8").splitlines():
            path, line, name = row.split("\t")
            real = os.path.realpath(path)
            if real.startswith(prefix):
                seen.add((Path(real[len(prefix):]).as_posix(), int(line), name))
    return seen


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--root", type=Path, default=Path(__file__).resolve().parents[1],
        help="checkout to measure (default: this script's)",
    )
    args = parser.parse_args()

    started = time.monotonic()
    with tempfile.TemporaryDirectory(prefix="reach-") as tmp:
        root = Path(tmp) / "checkout"
        shutil.copytree(
            args.root, root,
            ignore=shutil.ignore_patterns(
                ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".benchmarks"
            ),
        )
        src = root / "src"
        (src / "sitecustomize.py").write_text(HOOK, encoding="utf-8")
        (root / "reach-work").mkdir()
        system_out, unit_out = Path(tmp) / "system", Path(tmp) / "unit"
        system_out.mkdir()
        unit_out.mkdir()
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED="0")

        failures = []
        for stage in drive_stages(root):
            failures += run_all(stage, dict(env, REACH_OUT=str(system_out)))
        suite = subprocess.run(
            [sys.executable, "-m", "pytest", "tests", "-q", "-p", "no:cacheprovider"],
            cwd=root, env=dict(env, REACH_OUT=str(unit_out)),
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        )
        summary = (suite.stdout.strip().splitlines() or ["(no output)"])[-1]

        found = functions(src)
        system = entered(system_out, src) & found.keys()
        unit = (entered(unit_out, src) & found.keys()) - system

    classes = defaultdict(list)
    for key in sorted(found):
        label = "system" if key in system else "unit-only" if key in unit else "unreached"
        classes[label].append(key)
    total = sum(found.values())
    for label in ("unit-only", "unreached"):
        print(f"# {label} functions")
        for path, line, name in classes[label]:
            print(f"{path}:{line} {name} ({found[(path, line, name)]} lines)")
        print()
    for label in ("system", "unit-only", "unreached"):
        lines = sum(found[key] for key in classes[label])
        print(f"{label:<10} {lines:>6} lines in {len(classes[label]):>4} functions")
    print(f"{'total':<10} {total:>6} lines in {len(found):>4} functions")
    print(f"tier-1: {summary}")
    for line in failures:
        print(f"drive failed, {line}")
    print(f"took {time.monotonic() - started:.0f} s")
    return 1 if failures or suite.returncode else 0


if __name__ == "__main__":
    sys.exit(main())
