"""Canonical report serialization: JSON, CSV, and gnuplot data emission.

Reports contain no timestamps; identical inputs produce byte-identical
files. Floats in CSV/plot files carry 17 significant digits.
"""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np

__all__ = [
    "canonical_json",
    "digest",
    "write_json",
    "write_csv",
    "write_plot_data",
    "fmt_float",
]


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    if isinstance(obj, float) and not np.isfinite(obj):
        return repr(obj)
    return obj


def canonical_json(obj) -> str:
    return json.dumps(_jsonable(obj), sort_keys=True, indent=2) + "\n"


def digest(obj) -> str:
    if not isinstance(obj, str):
        obj = canonical_json(obj)
    return hashlib.sha256(obj.encode("utf-8")).hexdigest()


def write_json(path: str, obj) -> None:
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(canonical_json(obj))


def fmt_float(x) -> str:
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"{float(x):.17g}"


def write_csv(path: str, header: list[str], rows) -> None:
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(fmt_float(v) if not isinstance(v, str) else v
                              for v in row) + "\n")


def write_plot_data(path_dat: str, header: list[str], rows,
                    script_title: str) -> None:
    """Gnuplot-compatible data file plus a small generated plot script."""
    os.makedirs(os.path.dirname(path_dat) or ".", exist_ok=True)
    with open(path_dat, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("# " + " ".join(header) + "\n")
        for row in rows:
            fh.write(" ".join(fmt_float(v) for v in row) + "\n")
    gp = os.path.splitext(path_dat)[0] + ".gp"
    base = os.path.basename(path_dat)
    clauses = ", \\\n     ".join(
        f"'{base}' using 1:{c} with linespoints title '{header[c - 1]}'"
        for c in range(2, len(header) + 1))
    script = (f"set title '{script_title}'\n"
              f"set xlabel '{header[0]}'\n"
              "set logscale y\n"
              f"plot {clauses}\n")
    with open(gp, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(script)
