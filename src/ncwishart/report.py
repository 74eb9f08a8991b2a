"""Machine-readable run reports and the plain-text matrix file format.

A Report echoes the command and its inputs, carries one CheckRecord per
verified quantity, and serializes to versioned JSON (schema field) or to
CSV with 17-significant-digit floats so values survive a round trip.
Records always name their provenance: closed-form, series, monte-carlo, or
quadrature.  Reports are byte-stable for a fixed seed and flag set apart
from the timing field, which json/csv emission can exclude.

Matrix files are plain text: first line the dimension d, then d rows of d
whitespace-separated reals.  Reading symmetrizes by averaging with the
transpose and warns when the asymmetry exceeds 1e-12.
"""

from __future__ import annotations

import dataclasses
import enum
import io
import json
import math
import warnings
from typing import IO, Sequence

import numpy as np

from . import __version__
from .symcore import _check_symmetric_stack, sym_entries

SCHEMA_VERSION = 1
ASYMMETRY_WARN_TOL = 1e-12

__all__ = [
    "ASYMMETRY_WARN_TOL",
    "SCHEMA_VERSION",
    "CheckRecord",
    "MatrixFileError",
    "Provenance",
    "Report",
    "coordinate_names",
    "format_float",
    "read_matrix_file",
    "write_matrix_file",
    "write_samples_csv",
]


class Provenance(enum.Enum):
    """How a record's value was obtained."""

    CLOSED_FORM = "closed-form"
    SERIES = "series"
    MONTE_CARLO = "monte-carlo"
    QUADRATURE = "quadrature"


class MatrixFileError(ValueError):
    """Malformed matrix file; the message carries file, line, and column."""


def format_float(v: float) -> str:
    """17 significant digits: enough for exact double round-trips."""
    return "%.17g" % float(v)


def _json_value(v):
    if isinstance(v, enum.Enum):
        return v.value
    if isinstance(v, (np.floating, np.integer)):
        return v.item()
    if isinstance(v, np.ndarray):
        return v.tolist()
    if isinstance(v, float) and not math.isfinite(v):
        return repr(v)
    return v


@dataclasses.dataclass(frozen=True)
class CheckRecord:
    """One verified quantity: value against expectation at a tolerance.

    For exact checks tolerance is 0 and value/expected compare equal; for
    Monte Carlo records the tolerance is the allowed deviation on the same
    scale as value (for example 4 standard errors).
    """

    name: str
    value: float | int | bool | str
    expected: float | int | bool | str | None
    tolerance: float
    passed: bool
    provenance: Provenance
    detail: str = ""

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "value": _json_value(self.value),
            "expected": _json_value(self.expected),
            "tolerance": _json_value(self.tolerance),
            "pass": bool(self.passed),
            "provenance": self.provenance.value,
            "detail": self.detail,
        }

    def csv_row(self) -> list[str]:
        def cell(v) -> str:
            v = _json_value(v)
            if isinstance(v, bool):
                return "true" if v else "false"
            if isinstance(v, float):
                return format_float(v)
            return "" if v is None else str(v)

        return [
            self.name,
            cell(self.value),
            cell(self.expected),
            cell(self.tolerance),
            cell(self.passed),
            self.provenance.value,
            self.detail,
        ]


@dataclasses.dataclass
class Report:
    """Echo of one command run: inputs, per-check records, timing, versions."""

    command: str
    inputs: dict
    results: list[CheckRecord] = dataclasses.field(default_factory=list)
    timing: float = 0.0
    versions: dict = dataclasses.field(default_factory=lambda: default_versions())

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def failures(self) -> list[CheckRecord]:
        return [r for r in self.results if not r.passed]

    def add(self, record: CheckRecord) -> CheckRecord:
        self.results.append(record)
        return record

    def to_json(self, include_timing: bool = True) -> str:
        doc = {
            "schema": SCHEMA_VERSION,
            "command": self.command,
            "inputs": {k: _json_value(v) for k, v in sorted(self.inputs.items())},
            "results": [r.to_dict() for r in self.results],
            "pass": self.passed,
            "versions": self.versions,
        }
        if include_timing:
            doc["timing"] = self.timing
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"

    def to_csv(self) -> str:
        out = io.StringIO()
        out.write("name,value,expected,tolerance,pass,provenance,detail\n")
        for r in self.results:
            out.write(",".join(_csv_escape(c) for c in r.csv_row()) + "\n")
        return out.getvalue()


def default_versions() -> dict:
    return {"package": __version__}


def _csv_escape(cell: str) -> str:
    if any(ch in cell for ch in ',"\n'):
        return '"' + cell.replace('"', '""') + '"'
    return cell


# ---------------------------------------------------------------------------
# Matrix file format


def read_matrix_file(path: str) -> np.ndarray:
    """Read a d x d symmetric matrix from the plain-text format.

    First line: the dimension d.  Then d lines of d whitespace-separated
    reals.  The result is symmetrized by averaging with its transpose; an
    asymmetry above 1e-12 raises a warning but still parses.
    """
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or not lines[0].strip():
        raise MatrixFileError(f"{path}:1:1: expected the dimension on the first line")
    try:
        d = int(lines[0].strip())
    except ValueError:
        raise MatrixFileError(
            f"{path}:1:1: first line must be an integer dimension, got {lines[0].strip()!r}"
        ) from None
    if d < 1:
        raise MatrixFileError(f"{path}:1:1: dimension must be >= 1, got {d}")
    if len(lines) < 1 + d:
        raise MatrixFileError(f"{path}:{len(lines) + 1}:1: expected {d} matrix rows, file ended")
    rows = []
    for r in range(d):
        line = lines[1 + r]
        tokens = line.split()
        if len(tokens) != d:
            raise MatrixFileError(
                f"{path}:{r + 2}:1: expected {d} entries, got {len(tokens)}"
            )
        values = []
        for tok in tokens:
            try:
                values.append(float(tok))
            except ValueError:
                col = line.find(tok) + 1
                raise MatrixFileError(f"{path}:{r + 2}:{col}: not a number: {tok!r}") from None
        rows.append(values)
    for extra, line in enumerate(lines[1 + d :], start=2 + d):
        if line.strip():
            raise MatrixFileError(f"{path}:{extra}:1: unexpected content after {d} rows")
    a = np.array(rows, dtype=float)
    asym = float(np.max(np.abs(a - a.T))) if d > 1 else 0.0
    if asym > ASYMMETRY_WARN_TOL:
        warnings.warn(
            f"{path}: asymmetry {asym:.3e} exceeds {ASYMMETRY_WARN_TOL:.0e}; "
            "averaging with the transpose",
            stacklevel=2,
        )
    return 0.5 * (a + a.T)


def write_matrix_file(path: str, m) -> None:
    """Write a symmetric matrix in the format read_matrix_file expects."""
    a = sym_entries(m, "matrix")
    d = a.shape[0]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{d}\n")
        for row in a:
            fh.write(" ".join(format_float(v) for v in row) + "\n")


# ---------------------------------------------------------------------------
# Sample output


def coordinate_names(d: int) -> list[str]:
    """Column names matching the lebesgue_coords ordering."""
    names = [f"x{i + 1}_{i + 1}" for i in range(d)]
    names += [
        f"sqrt2*x{i + 1}_{j + 1}" for i in range(d) for j in range(i + 1, d)
    ]
    return names


# Draws formatted per write in write_samples_csv; it bounds the working
# arrays and the text held in memory for large stacks.
_CSV_BLOCK_ROWS = 4096


def write_samples_csv(
    out: str | IO[str], draws: np.ndarray, log_weights: Sequence[float] | None = None
) -> None:
    """Write stacked draws as CSV, one row per draw.

    Columns are the isometric Lebesgue coordinates (diagonal first, then
    sqrt(2) times the upper off-diagonal entries, row-major) followed by
    the importance weight exp(log_weight) when log-weights are supplied;
    the header row names each column.  Values have 17 significant digits.

    Every draw must be finite and symmetric to within 1e-9 times
    max(1, its largest entry), as :func:`lebesgue_coords` requires, and is
    written as the average with its transpose.  The whole stack is checked
    before anything is written; the first draw that fails raises
    ValueError.  A weight beyond the double range is written as ``inf``
    with a RuntimeWarning naming the largest log-weight.
    """
    draws = np.asarray(draws, dtype=float)
    if draws.ndim != 3 or draws.shape[1] != draws.shape[2]:
        raise ValueError("draws must be stacked symmetric matrices (N, d, d)")
    n_rows, d = draws.shape[:2]
    _check_symmetric_stack(draws)
    header = coordinate_names(d)
    weights = None
    if log_weights is not None:
        log_w = np.asarray(log_weights, dtype=float)
        if log_w.shape != (n_rows,):
            raise ValueError("need exactly one weight per draw")
        with np.errstate(over="ignore"):
            weights = np.exp(log_w)
        if np.any(np.isinf(weights)):
            warnings.warn(
                f"importance weights overflow to inf (largest log-weight "
                f"{format_float(np.max(log_w))})",
                RuntimeWarning,
                stacklevel=2,
            )
        header = header + ["weight"]

    iu, ju = np.triu_indices(d, k=1)
    # format_float for every cell of a row
    row = ",".join(["%.17g"] * len(header)) + "\n"
    fh: IO[str]
    close = False
    if isinstance(out, str):
        fh = open(out, "w", encoding="utf-8")
        close = True
    else:
        fh = out
    try:
        fh.write(",".join(header) + "\n")
        for start in range(0, n_rows, _CSV_BLOCK_ROWS):
            block = draws[start : start + _CSV_BLOCK_ROWS]
            table = np.empty((block.shape[0], len(header)))
            # the entries of (a + a^T) / 2, as lebesgue_coords forms them
            diag = np.diagonal(block, axis1=1, axis2=2)
            table[:, :d] = (diag + diag) / 2.0
            table[:, d : d + len(iu)] = math.sqrt(2.0) * (
                (block[:, iu, ju] + block[:, ju, iu]) / 2.0
            )
            if weights is not None:
                table[:, -1] = weights[start : start + _CSV_BLOCK_ROWS]
            fh.write("".join([row % tuple(r) for r in table.tolist()]))
    finally:
        if close:
            fh.close()

