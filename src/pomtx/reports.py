"""Machine-readable run reports.

Every CLI run writes one JSON report carrying the command, its inputs, the
seed, library versions, the provenance of each physical constant, and the
results.  Serialisation is canonical (sorted keys, repr floats) so repeated
runs with the same seed are byte-identical apart from the timestamp field.
"""

from __future__ import annotations

import json
import os
import platform
from datetime import datetime, timezone

import numpy

from . import __version__
from .spectra import atomic_write_text

__all__ = ["base_report", "write_report", "canonical_json", "jsonify"]


def jsonify(obj):
    """Recursively convert numpy scalars/arrays so json.dumps accepts them."""
    if isinstance(obj, dict):
        return {str(k): jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonify(v) for v in obj]
    if isinstance(obj, numpy.ndarray):
        return [jsonify(v) for v in obj.tolist()]
    if isinstance(obj, (numpy.floating, numpy.integer, numpy.bool_)):
        return obj.item()
    return obj


def _versions() -> dict:
    return {
        "pomtx": __version__,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def base_report(command: str, inputs: dict, seed: int | None) -> dict:
    return {
        "command": command,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "seed": seed,
        "versions": _versions(),
        "inputs": inputs,
        "provenance": {},
        "results": {},
    }


def canonical_json(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def write_report(path: str | os.PathLike, payload: dict) -> None:
    """Write payload as canonical JSON, converting numpy values on the way."""
    atomic_write_text(path, canonical_json(jsonify(payload)))
