"""``canonical_float`` rounds exact values once to 12 significant digits;
``atomic_writer`` replaces a file whole or not at all."""

import os
import stat
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from negcamp.runio import atomic_writer, canonical_float, write_text

RATIONALS = st.fractions(min_value=-1000, max_value=1000, max_denominator=10**15)


@given(st.floats(allow_nan=False, allow_infinity=False))
def test_rational_rounding_equals_float_formatting(x):
    """On a float's exact value it rounds as ``f"{x:.12g}"`` does."""
    assert canonical_float(Fraction(x)) == float(f"{x:.12g}")


@given(RATIONALS, st.fractions(min_value=0, max_value=10**6, max_denominator=10**12), st.booleans())
def test_root_rounding_equals_80_digit_decimal(x, radicand, minus):
    with localcontext() as ctx:
        ctx.prec = 80
        root = (Decimal(radicand.numerator) / Decimal(radicand.denominator)).sqrt()
        exact = Decimal(x.numerator) / Decimal(x.denominator) + (-root if minus else root)
        expected = float(f"{exact:.12g}")
    assert canonical_float(x, -radicand if minus else radicand) == expected


def test_examples():
    assert canonical_float(Fraction(2, 3)) == 0.666666666667
    assert canonical_float(1 + Fraction(5, 10**12)) == 1.0  # ties go to even
    assert canonical_float(1 + Fraction(15, 10**12)) == 1.00000000002
    assert canonical_float(0, 2) == 1.41421356237
    assert canonical_float(1, -1) == 0.0
    assert canonical_float(Fraction(1, 10**40), Fraction(1, 10**90)) == 1.00001e-40


class TestAtomicWriter:
    def test_block_that_raises_leaves_previous_file(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_text("old\n", encoding="utf-8")
        with pytest.raises(KeyboardInterrupt):
            with atomic_writer(path) as fh:
                fh.write("new, but cut short\n" * 10_000)
                raise KeyboardInterrupt
        assert path.read_text(encoding="utf-8") == "old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]

    def test_replace_that_fails_leaves_no_temporary_file(self, tmp_path):
        (tmp_path / "out.txt").mkdir()
        with pytest.raises(IsADirectoryError):
            write_text(tmp_path / "out.txt", "text")
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]

    @pytest.mark.parametrize("umask", [0o022, 0o077, 0o002], ids=["022", "077", "002"])
    def test_mode_is_the_umask_s(self, tmp_path, umask):
        previous = os.umask(umask)
        try:
            write_text(tmp_path / "sub" / "out.txt", "a\nb\n")
        finally:
            os.umask(previous)
        assert stat.S_IMODE((tmp_path / "sub" / "out.txt").stat().st_mode) == 0o666 & ~umask
        assert (tmp_path / "sub" / "out.txt").read_bytes() == b"a\nb\n"
