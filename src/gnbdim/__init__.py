"""5G radio network dimensioning from crowdsourced cell-tower data."""

__version__ = "0.1.0"
