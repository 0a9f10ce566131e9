"""Coordinate sizes are read from int entries as well as Fraction ones.

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.tracer import Tracer, _coord_bits  # noqa: E402


def test_coord_bits_of_int_and_fraction_entries():
    assert _coord_bits(SimpleNamespace(coords=(1, -1000, 0))) == 10
    assert _coord_bits(SimpleNamespace(coords=(Fraction(1, 1024), 3, 0))) == 11
    assert _coord_bits(Fraction(-7, 2)) == 3
    assert _coord_bits(5) == 3


def test_counted_canonicalize_of_int_scalar():
    tracer = Tracer()
    canonicalize = tracer._counted("canonicalize", lambda g: g)
    assert canonicalize(2**40) == 2**40
    assert canonicalize(SimpleNamespace(coords=(0, 0, 0))).coords == (0, 0, 0)
    assert tracer.core_calls["canonicalize"] == 2
    assert tracer.max_bits == 41
