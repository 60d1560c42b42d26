"""3GPP identifiers used to locate traffic geographically.

PLMN-ID (MCC + MNC) names the operator and TAC names the tracking area.
MCC/MNC digits are kept as strings throughout: "01" and "1" are distinct
network codes and integer round-trips would destroy the leading zero.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import BadLengthError, NonDigitError, OutOfRangeError

TAC_MAX = 0xFFFF


def _require_digits(text: str, what: str) -> None:
    if not (text.isascii() and text.isdigit()):
        raise NonDigitError(f"{what} must be decimal digits, got {text!r}")


@dataclass(frozen=True)
class Mcc:
    """Mobile country code, exactly three decimal digits."""

    digits: str

    def __post_init__(self) -> None:
        if len(self.digits) != 3:
            raise BadLengthError(f"MCC must be 3 digits, got {self.digits!r}")
        _require_digits(self.digits, "MCC")

    def __str__(self) -> str:
        return self.digits


@dataclass(frozen=True)
class Mnc:
    """Mobile network code, two or three decimal digits."""

    digits: str

    def __post_init__(self) -> None:
        if len(self.digits) not in (2, 3):
            raise BadLengthError(f"MNC must be 2 or 3 digits, got {self.digits!r}")
        _require_digits(self.digits, "MNC")

    def __str__(self) -> str:
        return self.digits


@dataclass(frozen=True)
class PlmnId:
    """Public land mobile network identifier: MCC followed by MNC."""

    mcc: Mcc
    mnc: Mnc

    def __str__(self) -> str:
        return f"{self.mcc}{self.mnc}"


@dataclass(frozen=True)
class Tac:
    """Tracking area code, 16-bit unsigned."""

    code: int

    def __post_init__(self) -> None:
        if not 0 <= self.code <= TAC_MAX:
            raise OutOfRangeError(f"TAC must be in [0, {TAC_MAX}], got {self.code}")

    def __str__(self) -> str:
        return f"{self.code:04X}"


def parse_plmn(text: str) -> PlmnId:
    """Split a 5- or 6-digit PLMN string into MCC (first 3) and MNC (rest)."""
    if len(text) not in (5, 6):
        raise BadLengthError(f"PLMN must be 5 or 6 characters, got {text!r}")
    _require_digits(text, "PLMN")
    return PlmnId(Mcc(text[:3]), Mnc(text[3:]))
