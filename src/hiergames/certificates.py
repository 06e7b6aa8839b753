"""Exact rational weight certificates.

A certificate is a quota q >= 0 and per-level weights w_i >= 0, not all zero,
all exact rationals. The same shape serves both representation claims:

  weighted:  every minimal winning coalition weighs >= q and every maximal
             losing coalition weighs strictly less than q;
  rough:     as above with the strict inequality relaxed to <= q.

Floats are rejected outright; 0.1 is not a rational anyone meant.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .core import Coalition, _int_text

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
    return str(value.numerator) if value.denominator == 1 else f"{value.numerator}/{value.denominator}"


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


@dataclass(frozen=True)
class RoughCert:
    """Quota and level weights, exact, nonnegative, not all zero."""

    quota: Fraction
    weights: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        quota = as_rational(self.quota, "quota")
        weights = tuple(as_rational(w, "weight") for w in self.weights)
        object.__setattr__(self, "quota", quota)
        object.__setattr__(self, "weights", weights)
        if not weights:
            raise ValueError("certificate needs at least one weight")
        # a Fraction's denominator is positive: its numerator carries the sign
        if quota.numerator < 0:
            raise ValueError(f"quota must be >= 0, got {quota}")
        if any(w.numerator < 0 for w in weights):
            raise ValueError(f"weights must be >= 0, got {weights}")
        if not quota.numerator and not any(w.numerator for w in weights):
            raise ValueError("certificate must not be identically zero")

    @property
    def m(self) -> int:
        return len(self.weights)

    def weight_of(self, coalition: Coalition) -> Fraction:
        if len(coalition.counts) != self.m:
            raise ValueError(f"{coalition} has wrong dimension for {self.m} weights")
        return sum((w * c for w, c in zip(self.weights, coalition.counts)), Fraction(0))

    def to_dict(self) -> dict:
        return {
            "quota": rational_str(self.quota),
            "weights": [rational_str(w) for w in self.weights],
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
        ws = ", ".join(rational_str(w) for w in self.weights)
        return f"[q={rational_str(self.quota)}; w=({ws})]"
