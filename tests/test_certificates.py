"""Exact-rational certificate objects and their text forms."""

import copy
import pickle
from enum import IntEnum
from fractions import Fraction

import pytest

from hiergames import Coalition, RoughCert, parse_rational, rational_str
from hiergames.certificates import as_rational


class TestRationalText:
    @pytest.mark.parametrize(
        "text,value",
        [
            ("3/4", Fraction(3, 4)),
            ("-1/2", Fraction(-1, 2)),
            ("5", Fraction(5)),
            ("0", Fraction(0)),
            (" 7/2 ", Fraction(7, 2)),
        ],
    )
    def test_parse(self, text, value):
        assert parse_rational(text) == value

    def test_decimal_forms_rejected(self):
        # only what rational_str prints: no '+', '_' or non-ASCII digit (an
        # Arabic-Indic three here), no sign on the denominator, and no zero one
        for text in ("0.5", "1e3", "1_0", "+5", "\u0663", "1/-2", "1/+2", "1/0", "0/0",
                     "", "-", "/2", "1/", "1//2", "1 / 2", "- 1", "1/2/3"):
            with pytest.raises(ValueError):
                parse_rational(text)

    @pytest.mark.parametrize("value", [1, Fraction(1, 2), 0.5, None, b"1", ["1"]])
    def test_non_text_rejected(self, value):
        with pytest.raises(TypeError):
            parse_rational(value)

    @pytest.mark.parametrize(
        "value", [Fraction(3, 4), Fraction(-1, 2), Fraction(5), Fraction(0), Fraction(22, 7)]
    )
    def test_round_trip(self, value):
        assert parse_rational(rational_str(value)) == value

    def test_integers_print_without_denominator(self):
        assert rational_str(Fraction(6, 2)) == "3"
        assert rational_str(Fraction(1, 3)) == "1/3"


class TestAsRational:
    def test_int_and_fraction_pass(self):
        assert as_rational(3) == Fraction(3)
        assert as_rational(Fraction(1, 2)) == Fraction(1, 2)

    def test_float_rejected(self):
        with pytest.raises(TypeError):
            as_rational(0.5)

    def test_bool_rejected(self):
        # bool is an int subclass; it still has no business as a weight
        with pytest.raises(TypeError):
            as_rational(True)


class TestRoughCert:
    def test_coerces_ints(self):
        cert = RoughCert(2, (2, 1, 0))
        assert cert.quota == Fraction(2)
        assert cert.weights == (Fraction(2), Fraction(1), Fraction(0))
        assert cert.m == 3

    def test_weight_of(self):
        cert = RoughCert(Fraction(1), (Fraction(1, 2), Fraction(1, 4)))
        assert cert.weight_of(Coalition((1, 2))) == Fraction(1)
        with pytest.raises(ValueError):
            cert.weight_of(Coalition((1, 2, 3)))

    def test_validation(self):
        # signs are read off numerators; each rejection keeps its type and text
        cases = [
            # a negative int quota, and negative Fraction quotas
            (-1, (1,), ValueError, "quota must be >= 0, got -1"),
            (Fraction(-1), (Fraction(1),), ValueError, "quota must be >= 0, got -1"),
            (Fraction(-1, 2), (1,), ValueError, "quota must be >= 0, got -1/2"),
            # a negative weight, alone and among positive ones
            (Fraction(1), (Fraction(-1),), ValueError,
             "weights must be >= 0, got (Fraction(-1, 1),)"),
            (1, (Fraction(1, 2), Fraction(-1, 3), 2), ValueError,
             "weights must be >= 0, got (Fraction(1, 2), Fraction(-1, 3), Fraction(2, 1))"),
            (Fraction(0), (Fraction(0), Fraction(0)), ValueError,
             "certificate must not be identically zero"),
            (0, (0,), ValueError, "certificate must not be identically zero"),
            (Fraction(1), (), ValueError, "certificate needs at least one weight"),
            (0.5, (Fraction(1),), TypeError, "quota must be int or Fraction, got float"),
            (1, (1, 0.5), TypeError, "weight must be int or Fraction, got float"),
            (True, (1,), TypeError, "quota must be a rational, got bool"),
            (1, (1, False), TypeError, "weight must be a rational, got bool"),
        ]
        for quota, weights, error, message in cases:
            with pytest.raises(error) as info:
                RoughCert(quota, weights)
            assert str(info.value) == message, (quota, weights)

    def test_zero_quota_with_positive_weight_allowed(self):
        # branch-B certificates have quota 0 and a single unit weight
        cert = RoughCert(0, (1, 0, 0))
        assert cert.quota == 0
        assert RoughCert(Fraction(0), (Fraction(0), Fraction(1, 3))).weights[1] == Fraction(1, 3)

    def test_dict_round_trip(self):
        cert = RoughCert(Fraction(1), (Fraction(1, 2), Fraction(1, 4), Fraction(0)))
        data = cert.to_dict()
        assert data == {"quota": "1", "weights": ["1/2", "1/4", "0"]}
        assert RoughCert.from_dict(data) == cert

    @pytest.mark.parametrize(
        "data,error",
        [
            ({"quota": 1, "weights": ["1"]}, TypeError),
            ({"quota": "1", "weights": "12"}, TypeError),
            ({"quota": "1", "weights": [1]}, TypeError),
            ({"quota": "1", "weights": ("1",)}, TypeError),
            ({"quota": None, "weights": ["1"]}, TypeError),
            ([("quota", "1"), ("weights", ["1"])], TypeError),
            ("[q=1; w=(1)]", TypeError),
            ({"quota": "1"}, ValueError),
            ({"weights": ["1"]}, ValueError),
            ({"quota": "1", "weights": ["1"], "extra": 0}, ValueError),
            ({"quota": "1", "weights": ["0.5"]}, ValueError),
            ({"quota": "1", "weights": []}, ValueError),
        ],
    )
    def test_from_dict_rejects_other_shapes(self, data, error):
        with pytest.raises(error):
            RoughCert.from_dict(data)

    def test_str(self):
        assert str(RoughCert(Fraction(6), (Fraction(3), Fraction(2)))) == "[q=6; w=(3, 2)]"
        assert (
            str(RoughCert(Fraction(1), (Fraction(1, 2), Fraction(0))))
            == "[q=1; w=(1/2, 0)]"
        )


class TestIntRepresentation:
    """A certificate holds int numerators over one denominator in lowest
    terms: the same values give the same form through either intake."""

    def test_equal_across_intakes_and_denominators(self):
        half = RoughCert(Fraction(1, 2), (Fraction(1, 4),))
        same = [RoughCert._of_ints(4, 2, (1,)), RoughCert._of_ints(8, 4, (2,)),
                RoughCert(Fraction(2, 4), [Fraction(3, 12)])]
        for cert in same:
            assert cert == half and hash(cert) == hash(half)
            assert (cert._den, cert._q, cert._w) == (4, 2, (1,))
        assert RoughCert(6, (3, 2)) == RoughCert._of_ints(3, 18, [9, 6])
        assert hash(RoughCert(6, (3, 2))) == hash(RoughCert._of_ints(3, 18, (9, 6)))
        assert RoughCert._of_ints(4, 2, (1,)) != RoughCert._of_ints(4, 2, (2,))
        assert RoughCert._of_ints(4, 2, (1,)) != RoughCert._of_ints(4, 2, (1, 0))
        assert half != (Fraction(1, 2), (Fraction(1, 4),))

    def test_fractions_on_read(self):
        cert = RoughCert._of_ints(8, 4, (2, 0))
        assert type(cert.quota) is Fraction and cert.quota == Fraction(1, 2)
        assert cert.weights == (Fraction(1, 4), Fraction(0))
        assert all(type(w) is Fraction for w in cert.weights)
        assert cert.m == 2
        assert cert.weight_of(Coalition((2, 5))) == Fraction(1, 2)
        assert repr(cert) == (
            "RoughCert(quota=Fraction(1, 2), weights=(Fraction(1, 4), Fraction(0, 1)))"
        )
        assert str(cert) == "[q=1/2; w=(1/4, 0)]"
        assert cert.to_dict() == {"quota": "1/2", "weights": ["1/4", "0"]}
        assert str(RoughCert._of_ints(3, 6, (3, 1))) == "[q=2; w=(1, 1/3)]"

    def test_copies_round_trip(self):
        for cert in (RoughCert._of_ints(6, 6, (3, 2, 0)), RoughCert(0, (1, 0))):
            for copied in (copy.copy(cert), copy.deepcopy(cert),
                           pickle.loads(pickle.dumps(cert))):
                assert type(copied) is RoughCert
                assert copied == cert and hash(copied) == hash(cert)
                assert str(copied) == str(cert)

    def test_assignment_raises(self):
        cert = RoughCert(1, (1,))
        for name in ("quota", "weights", "_den", "_q", "_w", "other"):
            with pytest.raises(AttributeError):
                setattr(cert, name, 2)
            with pytest.raises(AttributeError):
                delattr(cert, name)
        assert (cert._den, cert._q, cert._w) == (1, 1, (1,))

    def test_int_intake_validation(self):
        class Level(IntEnum):
            ONE = 1

        class Count(int):
            pass

        cases = [
            ((True, 1, (1,)), TypeError, "den must be an int, got bool"),
            ((Count(2), 1, (1,)), TypeError, "den must be an int, got Count"),
            ((1, 0.5, (1,)), TypeError, "q must be an int, got float"),
            ((1, Fraction(1), (1,)), TypeError, "q must be an int, got Fraction"),
            ((1, 1, (1, False)), TypeError, "w entries must be ints, got False of type bool"),
            ((1, 1, (Level.ONE,)), TypeError,
             "w entries must be ints, got <Level.ONE: 1> of type Level"),
            ((1, 1, (Count(2),)), TypeError, "w entries must be ints, got 2 of type Count"),
            ((2, 1, (Fraction(1, 2),)), TypeError,
             "w entries must be ints, got Fraction(1, 2) of type Fraction"),
            ((1, 1, (1, -2)), ValueError, "w entries must be >= 0, got -2"),
            ((0, 1, (1,)), ValueError, "den must be > 0, got 0"),
            ((-2, 1, (1,)), ValueError, "den must be > 0, got -2"),
            ((1, -1, (1,)), ValueError, "q must be >= 0, got -1"),
            ((1, 1, ()), ValueError, "certificate needs at least one weight"),
            ((3, 0, (0, 0)), ValueError, "certificate must not be identically zero"),
        ]
        for args, error, message in cases:
            with pytest.raises(error) as info:
                RoughCert._of_ints(*args)
            assert str(info.value) == message, args
