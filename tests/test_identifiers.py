import pytest

from gnbdim.errors import BadLengthError, NonDigitError, OutOfRangeError
from gnbdim.identifiers import (
    Mcc,
    Mnc,
    Tac,
    parse_plmn,
)


class TestParsePlmn:
    def test_six_digit(self):
        p = parse_plmn("310260")
        assert p.mcc.digits == "310"
        assert p.mnc.digits == "260"

    def test_five_digit_keeps_leading_zero(self):
        p = parse_plmn("20801")
        assert p.mcc.digits == "208"
        assert p.mnc.digits == "01"

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
            Mcc("31")
        with pytest.raises(BadLengthError):
            Mcc("3100")
        with pytest.raises(NonDigitError):
            Mcc("3a0")

    def test_mnc_two_or_three_digits(self):
        assert Mnc("01").digits == "01"
        assert Mnc("260").digits == "260"
        with pytest.raises(BadLengthError):
            Mnc("1")

    def test_tac_range(self):
        assert Tac(0).code == 0
        assert Tac(65535).code == 65535
        with pytest.raises(OutOfRangeError):
            Tac(65536)
        with pytest.raises(OutOfRangeError):
            Tac(-1)
