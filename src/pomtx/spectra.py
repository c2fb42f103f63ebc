"""Spectrum and table file I/O.

CSV schemas (header row required, 17-significant-digit output so doubles
round-trip losslessly):

    freq_hz,re,im[,sigma]            complex spectrum
    freq_hz,mag[,phase_deg][,sigma]  magnitude (optionally with phase)
    freq_hz,counts_rel               magnitude, as `pomtx spectrum` writes it

Frequencies must be strictly increasing, every cell finite and every sigma
positive; violations are reported with the 1-based data row number.  All
writes go through a write-temp-then-rename so readers never see partial
files.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import SpectrumFormatError

__all__ = ["ComplexSpectrum", "load_spectrum", "save_spectrum", "read_table", "write_table"]

_FMT = "%.17g"
_WRITE_ROWS = 1024


@dataclass
class ComplexSpectrum:
    """Frequency-indexed response values.

    kind is one of "complex", "mag", "mag_phase"; values is complex128 for
    "complex"/"mag_phase" and float64 for "mag".
    """

    freq_hz: np.ndarray
    values: np.ndarray
    sigma: np.ndarray | None = None
    kind: str = "complex"

    def __post_init__(self) -> None:
        self.freq_hz = np.asarray(self.freq_hz, dtype=float)
        if self.kind not in ("complex", "mag", "mag_phase"):
            raise SpectrumFormatError(f"unknown spectrum kind {self.kind!r}")
        self.values = np.asarray(
            self.values, dtype=float if self.kind == "mag" else complex
        )
        if self.sigma is not None:
            self.sigma = np.asarray(self.sigma, dtype=float)
        self.validate()

    def __len__(self) -> int:
        return self.freq_hz.size

    @property
    def magnitude(self) -> np.ndarray:
        return np.abs(self.values)

    def validate(self) -> None:
        if self.freq_hz.size != self.values.size:
            raise SpectrumFormatError("frequency and value counts differ")
        if self.freq_hz.size == 0:
            raise SpectrumFormatError("spectrum has no rows")
        if not np.all(np.isfinite(self.freq_hz)):
            raise SpectrumFormatError("non-finite frequency value")
        vals = self.values.view(float) if np.iscomplexobj(self.values) else self.values
        if not np.all(np.isfinite(vals)):
            raise SpectrumFormatError("non-finite spectrum value")
        d = np.diff(self.freq_hz)
        if np.any(d <= 0):
            row = int(np.argmax(d <= 0)) + 2  # 1-based, +1 for the earlier row
            raise SpectrumFormatError(
                f"row {row}: frequencies must be strictly increasing"
            )
        if self.sigma is not None:
            if self.sigma.size != self.freq_hz.size:
                raise SpectrumFormatError("sigma column length mismatch")
            bad = ~(np.isfinite(self.sigma) & (self.sigma > 0))
            if np.any(bad):
                row = int(np.argmax(bad)) + 1
                raise SpectrumFormatError(
                    f"row {row}: sigma must be finite and > 0, got {float(self.sigma[row - 1])}"
                )


def _parse_float(cell: str, row: int, col: str) -> float:
    try:
        v = float(cell)
    except ValueError:
        raise SpectrumFormatError(f"row {row}: non-numeric {col!r} cell: {cell!r}") from None
    if not math.isfinite(v):
        raise SpectrumFormatError(f"row {row}: non-finite {col!r} cell")
    return v


_SCHEMAS = {
    ("freq_hz", "re", "im"): ("complex", False),
    ("freq_hz", "re", "im", "sigma"): ("complex", True),
    ("freq_hz", "mag"): ("mag", False),
    ("freq_hz", "mag", "sigma"): ("mag", True),
    ("freq_hz", "mag", "phase_deg"): ("mag_phase", False),
    ("freq_hz", "mag", "phase_deg", "sigma"): ("mag_phase", True),
    ("freq_hz", "counts_rel"): ("mag", False),
}


def _read_rows(path, header_error) -> tuple[tuple[str, ...], np.ndarray]:
    """Header and (n, k) float rows of a CSV; header_error(header) is None or a message."""
    lines = Path(path).read_text().strip().splitlines()
    if not lines:
        raise SpectrumFormatError(f"{path}: empty file")
    header = tuple(h.strip() for h in lines[0].split(","))
    msg = header_error(header)
    if msg:
        raise SpectrumFormatError(f"{path}: {msg}")
    rows = []
    for i, line in enumerate(lines[1:], start=1):
        if not line.strip():
            continue
        cells = [c.strip() for c in line.split(",")]
        if len(cells) != len(header):
            raise SpectrumFormatError(
                f"row {i}: expected {len(header)} cells, got {len(cells)}"
            )
        rows.append([_parse_float(c, i, name) for c, name in zip(cells, header)])
    if not rows:
        raise SpectrumFormatError(f"{path}: no data rows")
    return header, np.asarray(rows, dtype=float)


def load_spectrum(path: str | os.PathLike) -> ComplexSpectrum:
    """Read a spectrum CSV, auto-detecting the schema from the header."""
    header, arr = _read_rows(path, lambda h: None if h in _SCHEMAS else (
        f"unrecognised header {','.join(h)!r}; expected one of "
        + " | ".join(",".join(s) for s in _SCHEMAS)
    ))
    kind, has_sigma = _SCHEMAS[header]
    freq = arr[:, 0]
    sigma = arr[:, -1] if has_sigma else None
    if kind == "complex":
        values = arr[:, 1] + 1j * arr[:, 2]
    elif kind == "mag":
        values = arr[:, 1]
    else:
        values = arr[:, 1] * np.exp(1j * np.deg2rad(arr[:, 2]))
    try:
        return ComplexSpectrum(freq_hz=freq, values=values, sigma=sigma, kind=kind)
    except SpectrumFormatError as e:
        raise SpectrumFormatError(f"{path}: {e}") from None


def atomic_write_text(path: str | os.PathLike, text: str) -> None:
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


def save_spectrum(path: str | os.PathLike, spec: ComplexSpectrum) -> None:
    """Write a spectrum CSV in the schema matching its kind."""
    cols: list[np.ndarray] = [spec.freq_hz]
    if spec.kind == "complex":
        header = ["freq_hz", "re", "im"]
        cols += [spec.values.real, spec.values.imag]
    elif spec.kind == "mag":
        header = ["freq_hz", "mag"]
        cols += [spec.values]
    else:
        header = ["freq_hz", "mag", "phase_deg"]
        cols += [np.abs(spec.values), np.rad2deg(np.angle(spec.values))]
    if spec.sigma is not None:
        header.append("sigma")
        cols.append(spec.sigma)
    write_table(path, header, cols)


def write_table(path: str | os.PathLike, header: list[str], columns) -> None:
    """Write aligned columns as CSV with lossless float formatting."""
    columns = [np.asarray(c) for c in columns]
    n = columns[0].size
    if any(c.size != n for c in columns):
        raise SpectrumFormatError("table columns must have equal length")
    # one format per row, applied to Python floats: numpy scalars format the
    # same but slower; blocks of rows bound the Python floats held at once
    row = ",".join([_FMT] * len(columns))
    out = [",".join(header)]
    for lo in range(0, n, _WRITE_ROWS):
        cells = zip(*(c[lo : lo + _WRITE_ROWS].tolist() for c in columns))
        out.append("\n".join(row % r for r in cells))
    atomic_write_text(path, "\n".join(out) + "\n")


def read_table(path: str | os.PathLike, required_cols: tuple[str, ...]) -> np.ndarray:
    """Read a plain CSV with the exact given header; returns an (n, k) array."""
    return _read_rows(path, lambda h: None if h == required_cols else (
        f"expected header {','.join(required_cols)!r}, got {','.join(h)!r}"
    ))[1]
