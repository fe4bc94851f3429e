"""JSON wire helpers. Complex scalars travel as [re, im] pairs of doubles."""

import json

import numpy as np


def cpx(z):
    z = complex(z)
    return [z.real, z.imag]


def uncpx(pair):
    """[re, im] of two real numbers (not bools) -> complex, else ValueError."""
    if (not isinstance(pair, (list, tuple)) or len(pair) != 2
            or any(isinstance(v, bool) or not isinstance(v, (int, float)) for v in pair)):
        raise ValueError(f"expected an [re, im] pair of real numbers, got {pair!r}")
    return complex(pair[0], pair[1])


def unobject(value, what: str) -> dict:
    """A JSON object passed through, else ValueError naming ``what``."""
    if not isinstance(value, dict):
        raise ValueError(f"{what} must be a JSON object, got {value!r}")
    return value


def cpx_seq(values):
    return [cpx(z) for z in values]


def uncpx_seq(pairs):
    if not isinstance(pairs, (list, tuple)):
        raise ValueError(f"expected a JSON array of [re, im] pairs, got {pairs!r}")
    return [uncpx(p) for p in pairs]


def cpx_matrix(mat):
    return [[cpx(z) for z in row] for row in np.asarray(mat)]


def uncpx_matrix(rows):
    if not isinstance(rows, (list, tuple)):
        raise ValueError(f"expected a JSON array of rows, got {rows!r}")
    return np.array([uncpx_seq(row) for row in rows], dtype=complex)


def dumps(obj):
    """Deterministic JSON rendering (sorted keys, fixed indentation)."""
    return json.dumps(obj, sort_keys=True, indent=2)
