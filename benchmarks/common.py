"""Shared reporting helpers for the benchmark harness.

Every benchmark regenerates one table or figure of the paper and prints a
paper-vs-measured comparison (also appended to ``benchmarks/results/``).
Run with ``pytest benchmarks/ --benchmark-only``; add ``-s`` to see the
tables inline.

Besides the human-readable ``.txt`` block, every benchmark writes a
machine-readable ``.json`` result (schema ``repro-bench-result/v1``) so
CI and regression tooling can diff runs: pass ``metrics`` (the measured
numbers), ``config`` (the knobs that produced them) and optionally
``obs`` (a metrics-registry counter snapshot) to :func:`report`.
"""

from __future__ import annotations

import json
import os
from typing import Dict, Iterable, Optional, Sequence

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")

#: schema tag stamped into every JSON result
RESULT_SCHEMA = "repro-bench-result/v1"


def validate_result(doc: Dict) -> None:
    """Raise ``ValueError`` unless ``doc`` is a well-formed benchmark
    result (the contract CI checks before uploading artifacts)."""
    if not isinstance(doc, dict):
        raise ValueError("result must be a JSON object")
    if doc.get("schema") != RESULT_SCHEMA:
        raise ValueError(f"schema must be {RESULT_SCHEMA!r}, "
                         f"got {doc.get('schema')!r}")
    name = doc.get("benchmark")
    if not isinstance(name, str) or not name:
        raise ValueError("benchmark must be a non-empty string")
    for key in ("config", "metrics", "obs"):
        if not isinstance(doc.get(key), dict):
            raise ValueError(f"{key} must be an object")
    if not doc["metrics"]:
        raise ValueError("metrics must not be empty")
    for section in ("metrics", "obs"):
        for k, v in doc[section].items():
            if not isinstance(k, str):
                raise ValueError(f"{section} keys must be strings")
            if not isinstance(v, (int, float, str, bool, list, dict)):
                raise ValueError(
                    f"{section}[{k!r}] has unserializable type "
                    f"{type(v).__name__}")


def write_json_result(name: str, metrics: Dict, config: Optional[Dict] = None,
                      obs: Optional[Dict] = None) -> str:
    """Write ``benchmarks/results/<name>.json`` and return its path."""
    doc = {
        "schema": RESULT_SCHEMA,
        "benchmark": name,
        "config": dict(config or {}),
        "metrics": dict(metrics),
        "obs": dict(obs or {}),
    }
    validate_result(doc)
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, f"{name}.json")
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def report(name: str, lines: Iterable[str],
           metrics: Optional[Dict] = None,
           config: Optional[Dict] = None,
           obs: Optional[Dict] = None):
    """Print a result block and persist it under benchmarks/results/
    (``.txt`` always; ``.json`` when ``metrics`` are provided)."""
    text = "\n".join(lines)
    banner = f"\n=== {name} " + "=" * max(0, 66 - len(name)) + "\n"
    print(banner + text)
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(os.path.join(RESULTS_DIR, f"{name}.txt"), "w") as fh:
        fh.write(text + "\n")
    if metrics:
        write_json_result(name, metrics, config=config, obs=obs)


def compare_row(label: str, paper, measured, unit: str = "",
                ref: str = "paper") -> str:
    """One table row; ``ref`` names the reference column (the header's
    ``paper_col``) that the ratio suffix is relative to."""
    if paper in (None, ""):
        return f"  {label:34s} {'—':>10}   {measured:>10.0f} {unit}"
    ratio = measured / paper if paper else float("nan")
    return (f"  {label:34s} {paper:>10.0f}   {measured:>10.0f} {unit}"
            f"   ({ratio:.1%} of {ref})")


def header(title: str, paper_col: str = "paper", meas_col: str = "measured"
           ) -> Sequence[str]:
    return [
        title,
        f"  {'':34s} {paper_col:>10}   {meas_col:>10}",
        "  " + "-" * 64,
    ]
