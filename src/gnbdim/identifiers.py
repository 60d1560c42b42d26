"""Checks of the 3GPP operator identifier used to select traffic.

A PLMN-ID (MCC + MNC) names the operator; it is kept as its MCC+MNC
digit string, whose first 3 digits are the MCC. Digits stay strings
throughout: "01" and "1" are distinct network codes and integer
round-trips would destroy the leading zero.
"""

from __future__ import annotations

from .errors import BadLengthError, NonDigitError


def _require_digits(text: str, what: str) -> None:
    if not (text.isascii() and text.isdigit()):
        raise NonDigitError(f"{what} must be decimal digits, got {text!r}")


def plmn_digits(mcc: str, mnc: str) -> str:
    """The PLMN of a 3-digit MCC and a 2- or 3-digit MNC, checked in that order."""
    if len(mcc) != 3:
        raise BadLengthError(f"MCC must be 3 digits, got {mcc!r}")
    _require_digits(mcc, "MCC")
    if len(mnc) not in (2, 3):
        raise BadLengthError(f"MNC must be 2 or 3 digits, got {mnc!r}")
    _require_digits(mnc, "MNC")
    return mcc + mnc


def parse_plmn(text: str) -> str:
    """A 5- or 6-digit PLMN string, checked: MCC (first 3) and MNC (rest)."""
    if len(text) not in (5, 6):
        raise BadLengthError(f"PLMN must be 5 or 6 characters, got {text!r}")
    _require_digits(text, "PLMN")
    return text
