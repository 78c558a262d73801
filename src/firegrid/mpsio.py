"""Fixed-format MPS export of LpProblem instances, for ``export-lp``.

One canonical layout: fields at columns 2, 5, 15, 25 and 40; generated
names R0000001/C0000001; one coefficient per line; integer columns wrapped
in INTORG/INTEND markers.  Any external MILP solver that reads fixed MPS can
consume the output.  The package only writes MPS; the reader that checks
this writer lives in the tests (``tests/oracles.py``).  It is the one
reader of ``LpProblem``'s rows in column order (``_columns``).
"""

from __future__ import annotations

import numpy as np

from .lp import EQ, GE, LE, LpProblem

_SENSE_TO_TAG = {LE: "L", EQ: "E", GE: "G"}


def _fmt(value: float) -> str:
    """Shortest-but-faithful rendering that fits the 12-char value field."""
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    for precision in range(12, 0, -1):
        s = f"{value:.{precision}g}"
        if len(s) <= 12:
            return s
    return f"{value:.1g}"


def _row_name(i: int) -> str:
    return f"R{i + 1:07d}"


def _col_name(j: int) -> str:
    return f"C{j + 1:07d}"


def _columns(problem: LpProblem) -> tuple:
    """A's compressed columns ``(start, index, value)``: column j's entries
    are ``value[start[j]:start[j + 1]]`` in the rows ``index[...]``.  A
    stable sort keeps each column's entries in row order, and duplicates in
    their stored order, as scipy's ``tocsc`` does."""
    rows = np.repeat(np.arange(problem.shape[0]), np.diff(problem.indptr))
    order = np.argsort(problem.indices, kind="stable")
    counts = np.bincount(problem.indices, minlength=problem.shape[1])
    return np.concatenate(([0], np.cumsum(counts))), rows[order], problem.data[order]


def write_mps(problem: LpProblem, integer_mask=None, name: str = "FIREGRID") -> str:
    m, n = problem.shape
    if integer_mask is None:
        integer_mask = np.zeros(n, dtype=bool)
    integer_mask = np.asarray(integer_mask, dtype=bool)

    lines = [f"NAME          {name}"]
    lines.append("ROWS")
    lines.append(" N  COST")
    for i, sense in enumerate(problem.senses):
        lines.append(f" {_SENSE_TO_TAG[sense]}  {_row_name(i)}")

    start, index, value = _columns(problem)
    lines.append("COLUMNS")
    marker_count = 0
    in_integer = False
    for j in range(n):
        if integer_mask[j] != in_integer:
            marker_count += 1
            tag = "'INTORG'" if integer_mask[j] else "'INTEND'"
            lines.append(f"    M{marker_count:07d}  'MARKER'" + " " * 17 + tag)
            in_integer = bool(integer_mask[j])
        cname = _col_name(j)
        entries = []
        if problem.c[j] != 0.0:
            entries.append(("COST", problem.c[j]))
        column = slice(start[j], start[j + 1])
        for i, v in sorted(zip(index[column], value[column])):
            if v != 0.0:
                entries.append((_row_name(int(i)), float(v)))
        if not entries:
            entries.append(("COST", 0.0))  # keep empty columns alive
        for rname, v in entries:
            lines.append(f"    {cname:<8}  {rname:<8}  {_fmt(v)}")
    if in_integer:
        marker_count += 1
        lines.append(f"    M{marker_count:07d}  'MARKER'" + " " * 17 + "'INTEND'")

    lines.append("RHS")
    for i, bi in enumerate(problem.b):
        if bi != 0.0:
            lines.append(f"    RHS1      {_row_name(i):<8}  {_fmt(float(bi))}")

    lines.append("BOUNDS")
    for j in range(n):
        lo, hi = problem.lower[j], problem.upper[j]
        cname = _col_name(j)
        if np.isfinite(lo) and lo == hi:
            lines.append(f" FX BND1      {cname:<8}  {_fmt(float(lo))}")
            continue
        if not np.isfinite(lo):
            lines.append(f" MI BND1      {cname:<8}")
        elif lo != 0.0:
            lines.append(f" LO BND1      {cname:<8}  {_fmt(float(lo))}")
        if np.isfinite(hi):
            lines.append(f" UP BND1      {cname:<8}  {_fmt(float(hi))}")

    lines.append("ENDATA")
    return "\n".join(lines) + "\n"
