"""Exact-rational certificate objects and their text forms."""

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
