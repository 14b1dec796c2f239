"""Deterministic file output and digest helpers for reproducible runs."""

from __future__ import annotations

import hashlib
import json
import os
from contextlib import contextmanager
from fractions import Fraction
from math import isqrt
from pathlib import Path
from typing import Iterator, TextIO


def _round_12(q: Fraction) -> float:
    """The rational ``q`` rounded to 12 significant digits, ties to even."""
    if not q:
        return 0.0
    size = abs(q)
    e = (size.numerator.bit_length() - size.denominator.bit_length()) * 30103 // 100000  # ~log10, off by at most 1
    while size >= Fraction(10) ** (e + 1):
        e += 1
    while size < Fraction(10) ** e:
        e -= 1
    return float(f"{round(q * Fraction(10) ** (11 - e))}e{e - 11}")


def canonical_float(x: Fraction | int, root: Fraction | int = 0) -> float:
    """``x + sqrt(root)``, or ``x - sqrt(-root)`` for a negative ``root``,
    rounded once to 12 significant digits (ties to even) from its exact
    value; ``x`` and ``root`` are rationals.

    The study writes its model-derived values through this: each is a
    rational (an estimate, R^2) or such a root expression (a standard
    error, a confidence bound), so the written digits depend on nothing but
    the inputs. For a float ``x`` and no root it equals
    ``float(f"{x:.12g}")`` on ``Fraction(x)``. A root is enclosed between
    integer square roots at ever finer decimal scales until both ends of
    the enclosure round alike, which ends because an irrational value lies
    on no rounding boundary.
    """
    x = Fraction(x)
    if not root:
        return _round_12(x)
    sign, radicand = (1, Fraction(root)) if root > 0 else (-1, -Fraction(root))
    digits = 24
    while True:
        scaled = radicand * 10 ** (2 * digits)
        floor = isqrt(scaled.numerator // scaled.denominator)  # floor(sqrt(radicand) * 10**digits)
        ceil = floor if floor * floor == scaled else floor + 1
        low, high = _round_12(x + Fraction(sign * floor, 10**digits)), _round_12(x + Fraction(sign * ceil, 10**digits))
        if low == high:
            return low
        digits *= 2


def stable_json_dumps(obj: object, indent: int | None = None) -> str:
    """JSON with sorted keys and UTF-8 text, stable across runs."""
    return json.dumps(obj, sort_keys=True, ensure_ascii=False, indent=indent)


@contextmanager
def atomic_writer(path: str | Path) -> Iterator[TextIO]:
    """A UTF-8 text handle with LF line endings on a new file beside
    ``path``, moved over ``path`` when the block ends and removed if it
    raises, so ``path`` holds either its old bytes or all the new ones. The
    file is created as ``open`` creates one, with mode 0o666 less the umask."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.urandom(6).hex()}.tmp")
    fh = open(tmp, "x", encoding="utf-8", newline="\n")
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_text(path: str | Path, content: str) -> None:
    """Atomic UTF-8 write with LF line endings."""
    with atomic_writer(path) as fh:
        fh.write(content)


def write_json(path: str | Path, obj: object) -> None:
    write_text(path, stable_json_dumps(obj, indent=2) + "\n")


def sha256_file(path: str | Path) -> str:
    digest = hashlib.sha256()
    with Path(path).open("rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
