"""Fail unless every named report or journal is strict JSON.

Python's ``json`` writes non-finite floats as the bare tokens ``NaN``,
``Infinity`` and ``-Infinity``, which strict parsers (``jq``, browsers,
most other languages) reject.  A ``.jsonl`` file is checked line by
line, any other file as one document.

Usage::

    python .github/check_strict_json.py report.json journal.jsonl ...
"""

from __future__ import annotations

import json
import sys


def _reject(token: str):
    raise ValueError(f"non-finite number {token} is not strict JSON")


def check(path: str) -> None:
    with open(path, encoding="utf-8") as fh:
        if path.endswith(".jsonl"):
            for number, line in enumerate(fh, 1):
                try:
                    json.loads(line, parse_constant=_reject)
                except ValueError as exc:
                    raise ValueError(f"{path}:{number}: {exc}") from None
        else:
            try:
                json.loads(fh.read(), parse_constant=_reject)
            except ValueError as exc:
                raise ValueError(f"{path}: {exc}") from None


def main(paths: list[str]) -> int:
    if not paths:
        print("usage: check_strict_json.py PATH...", file=sys.stderr)
        return 2
    failed = 0
    for path in paths:
        try:
            check(path)
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            failed += 1
    if failed:
        return 1
    print(f"{len(paths)} file(s) are strict JSON")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
