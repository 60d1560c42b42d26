import pytest

from gnbdim.errors import BadLengthError, NonDigitError
from gnbdim.identifiers import (
    parse_plmn,
    plmn_digits,
)


class TestParsePlmn:
    def test_six_digit(self):
        p = parse_plmn("310260")
        assert p[:3] == "310"
        assert p[3:] == "260"

    def test_five_digit_keeps_leading_zero(self):
        p = parse_plmn("20801")
        assert p[:3] == "208"
        assert p[3:] == "01"

    def test_non_digit_rejected(self):
        with pytest.raises(NonDigitError):
            parse_plmn("31A26")

    @pytest.mark.parametrize("text", ["1234", "1234567", ""])
    def test_bad_length_rejected(self, text):
        with pytest.raises(BadLengthError):
            parse_plmn(text)

    def test_unicode_digits_rejected(self):
        with pytest.raises(NonDigitError):
            parse_plmn("١٢٣٤٥")

    def test_round_trip(self):
        for text in ["310260", "20801", "00000", "999999", "001001"]:
            assert str(parse_plmn(text)) == text
            assert parse_plmn(str(parse_plmn(text))) == parse_plmn(text)


class TestComponents:
    def test_mcc_must_be_three_digits(self):
        with pytest.raises(BadLengthError):
            plmn_digits("31", "260")
        with pytest.raises(BadLengthError):
            plmn_digits("3100", "260")
        with pytest.raises(NonDigitError):
            plmn_digits("3a0", "260")

    def test_mnc_two_or_three_digits(self):
        assert plmn_digits("310", "01") == "31001"
        assert plmn_digits("310", "260") == "310260"
        with pytest.raises(BadLengthError):
            plmn_digits("310", "1")
