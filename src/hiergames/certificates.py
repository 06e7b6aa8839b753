"""Exact rational weight certificates.

A certificate is a quota q >= 0 and per-level weights w_i >= 0, not all zero,
all exact rationals. The same shape serves both representation claims:

  weighted:  every minimal winning coalition weighs >= q and every maximal
             losing coalition weighs strictly less than q;
  rough:     as above with the strict inequality relaxed to <= q.

A RoughCert holds int numerators over their least common positive
denominator: [q/d; w/d] with gcd(d, q, *w) = 1. That form is unique for
given values, so equality and hashing compare it directly. quota and weights
are Fractions built when read; to_dict, str and the oracle's integer check
read the numerators. The constructor takes ints and Fractions; certificates
the library computes come in as numerators through RoughCert._of_ints,
which builds no Fraction.

Floats are rejected outright; 0.1 is not a rational anyone meant.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Iterable, Union

from .core import Coalition, _int_text, _int_tuple, _require_int

__all__ = ["Rational", "RoughCert", "as_rational", "rational_str", "parse_rational"]

Rational = Union[int, Fraction]


def as_rational(value: Rational, what: str = "value") -> Fraction:
    """An int or a Fraction, exactly (no subclass), as a Fraction; else TypeError."""
    if isinstance(value, bool):
        raise TypeError(f"{what} must be a rational, got bool")
    if type(value) is int:
        return Fraction(value)
    if type(value) is Fraction:
        return value
    raise TypeError(f"{what} must be int or Fraction, got {type(value).__name__}")


def rational_str(value: Fraction) -> str:
    """Decimal-free text form: '3/4', '-1/2', or '5' for integers."""
    return _ratio_str(value.numerator, value.denominator)


def _ratio_str(num: int, den: int) -> str:
    """rational_str of num/den for den > 0, read off the ints."""
    g = gcd(num, den)
    return str(num // g) if g == den else f"{num // g}/{den // g}"


def parse_rational(text: str) -> Fraction:
    """Parse what rational_str prints, 'p' or 'p/q' with spaces around it:
    core's integer-text rule for p, unsigned and positive for q. Anything
    else raises ValueError, and anything but a str raises TypeError."""
    if not isinstance(text, str):
        raise TypeError(f"rational text must be str, got {type(text).__name__}")
    num, slash, den = text.strip().partition("/")
    p, q = _int_text(num), (_int_text(den, signed=False) if slash else 1)
    if p is None or not q:
        raise ValueError(f"not a rational p or p/q: {text!r}")
    return Fraction(p, q)


@dataclass(frozen=True, init=False, repr=False)
class RoughCert:
    """Quota and level weights, exact, nonnegative, not all zero, held as
    the numerators _q and _w over the denominator _den in lowest terms."""

    _den: int
    _q: int
    _w: tuple[int, ...]

    def __init__(self, quota: Rational, weights: Iterable[Rational]) -> None:
        quota = as_rational(quota, "quota")
        weights = tuple(as_rational(w, "weight") for w in weights)
        if not weights:
            raise ValueError("certificate needs at least one weight")
        # a Fraction's denominator is positive: its numerator carries the sign
        if quota.numerator < 0:
            raise ValueError(f"quota must be >= 0, got {quota}")
        if any(w.numerator < 0 for w in weights):
            raise ValueError(f"weights must be >= 0, got {weights}")
        den = lcm(quota.denominator, *(w.denominator for w in weights))
        self._settle(
            den,
            quota.numerator * (den // quota.denominator),
            tuple(w.numerator * (den // w.denominator) for w in weights),
        )

    @classmethod
    def _of_ints(cls, den: int, q: int, w: Iterable[int]) -> RoughCert:
        """The certificate [q/den; w/den] from numerators the library
        computed: exact ints, den > 0, q and every w_i >= 0. The checks are
        the constructor's on ints, and no Fraction is built."""
        _require_int(den=den, q=q)
        w = _int_tuple(w, "w", 0)
        if den <= 0:
            raise ValueError(f"den must be > 0, got {den}")
        if q < 0:
            raise ValueError(f"q must be >= 0, got {q}")
        if not w:
            raise ValueError("certificate needs at least one weight")
        cert = object.__new__(cls)
        cert._settle(den, q, w)
        return cert

    def _settle(self, den: int, q: int, w: tuple[int, ...]) -> None:
        """Store [q/den; w/den] reduced by gcd(den, q, *w), so that equal
        values have equal numerators and denominator."""
        if not q and not any(w):
            raise ValueError("certificate must not be identically zero")
        g = gcd(den, q, *w)
        if g != 1:
            den, q, w = den // g, q // g, tuple([x // g for x in w])
        object.__setattr__(self, "_den", den)
        object.__setattr__(self, "_q", q)
        object.__setattr__(self, "_w", w)

    def __repr__(self) -> str:
        return f"RoughCert(quota={self.quota!r}, weights={self.weights!r})"

    @property
    def quota(self) -> Fraction:
        return Fraction(self._q, self._den)

    @property
    def weights(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(x, self._den) for x in self._w)

    @property
    def m(self) -> int:
        return len(self._w)

    def weight_of(self, coalition: Coalition) -> Fraction:
        if len(coalition.counts) != self.m:
            raise ValueError(f"{coalition} has wrong dimension for {self.m} weights")
        return Fraction(sum(map(mul, self._w, coalition.counts)), self._den)

    def to_dict(self) -> dict:
        return {
            "quota": _ratio_str(self._q, self._den),
            "weights": [_ratio_str(x, self._den) for x in self._w],
        }

    @staticmethod
    def from_dict(data: dict) -> "RoughCert":
        """Inverse of to_dict: a dict with exactly the keys 'quota', a str,
        and 'weights', a list of str, each in parse_rational's form. Any
        other shape raises TypeError or ValueError."""
        if not isinstance(data, dict):
            raise TypeError(f"certificate must be a dict, got {type(data).__name__}")
        if set(data) != {"quota", "weights"}:
            raise ValueError(f"certificate needs the keys quota and weights, got {list(data)}")
        weights = data["weights"]
        if not isinstance(weights, list):
            raise TypeError(f"weights must be a list, got {type(weights).__name__}")
        return RoughCert(
            quota=parse_rational(data["quota"]),
            weights=tuple(parse_rational(w) for w in weights),
        )

    def __str__(self) -> str:
        ws = ", ".join(_ratio_str(x, self._den) for x in self._w)
        return f"[q={_ratio_str(self._q, self._den)}; w=({ws})]"
