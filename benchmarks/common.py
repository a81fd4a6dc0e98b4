"""Shared plumbing for the plain-script benchmarks (``bench_*.py`` mains).

Every script used to open with the same ritual: compute the repo root, put
``src`` on ``sys.path``, build a TPC-H workload at ``BENCH_CONFIG`` scale,
and end by dumping a JSON report next to the repository root.  That
boilerplate lives here once; the scripts keep only their measurement logic.

Importing this module performs the path bootstrap as a side effect, so a
script's first line of real imports can already see ``repro``.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time
from pathlib import Path
from typing import Callable, Dict, Sequence, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))
# The repository root, so scalar baselines can import the reference oracle
# from ``tests/join_oracle.py``.
if str(REPO_ROOT) not in sys.path:
    sys.path.append(str(REPO_ROOT))

from repro.experiments.config import BENCH_CONFIG  # noqa: E402
from repro.tpch.workloads import build_uq1, build_uq2  # noqa: E402


def uq1_workload(overlap_scale: float = 0.3):
    """The UQ1 union workload at the shared benchmark scale/seed."""
    return build_uq1(
        scale_factor=BENCH_CONFIG.scale_factor,
        overlap_scale=overlap_scale,
        seed=BENCH_CONFIG.seed,
    )


def uq2_workload():
    """The UQ2 union workload at the shared benchmark scale/seed."""
    return build_uq2(scale_factor=BENCH_CONFIG.scale_factor, seed=BENCH_CONFIG.seed)


def machine_info() -> Dict[str, object]:
    """The environment fields every report records."""
    return {
        "scale_factor": BENCH_CONFIG.scale_factor,
        "seed": BENCH_CONFIG.seed,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count() or 1,
    }


def write_report(filename: str, report: dict) -> Path:
    """Write ``report`` as ``<repo root>/<filename>`` and echo it to stdout."""
    out_path = REPO_ROOT / filename
    out_path.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(report, indent=2))
    print(f"\nwritten to {out_path}")
    return out_path


def timed_rate(step: Callable[[], int], seconds: float = 0.5) -> float:
    """Events/second of ``step`` (which returns the events of one call)."""
    done = 0
    started = time.perf_counter()
    while time.perf_counter() - started < seconds:
        done += step()
    return done / (time.perf_counter() - started)


def resident_cache_bytes(queries) -> Dict[str, object]:
    """Resident bytes of the array caches behind one or more queries.

    Reports, per relation, the columnar-store and CSR-index bytes under the
    smallest-safe-dtype audit, next to what the same arrays would occupy at
    NumPy's int64 default — the number the audit is accountable for.
    """
    if not isinstance(queries, (list, tuple)):
        queries = [queries]
    seen = {}
    for query in queries:
        for name, relation in query.relations.items():
            seen.setdefault(name, relation)
    per_relation = {}
    total = {"bytes": 0, "int64_equivalent_bytes": 0}
    for name, relation in sorted(seen.items()):
        sizes = relation.cache_nbytes()
        equivalent = _int64_equivalent(relation)
        per_relation[name] = {
            "rows": len(relation),
            "columns_bytes": sizes["columns"],
            "csr_bytes": sizes["csr_indexes"],
            "int64_equivalent_bytes": equivalent,
        }
        total["bytes"] += sizes["columns"] + sizes["csr_indexes"]
        total["int64_equivalent_bytes"] += equivalent
    if total["int64_equivalent_bytes"]:
        total["ratio_vs_int64"] = round(
            total["bytes"] / total["int64_equivalent_bytes"], 3
        )
    return {"per_relation": per_relation, "total": total}


def _int64_equivalent(relation) -> int:
    """Bytes the relation's array caches would occupy at 8 bytes/element."""
    equivalent = 0
    columns = relation._columns
    if columns is not None:
        for array in list(columns._arrays.values()) + list(columns._key_arrays.values()):
            if array.dtype.kind in ("i", "u", "f"):
                equivalent += array.size * 8
            else:
                equivalent += array.nbytes
    for csr in relation._sorted_indexes.values():
        equivalent += (csr.row_positions.size + csr.offsets.size) * 8
    return int(equivalent)


__all__ = [
    "REPO_ROOT",
    "BENCH_CONFIG",
    "uq1_workload",
    "uq2_workload",
    "machine_info",
    "write_report",
    "timed_rate",
    "resident_cache_bytes",
]
