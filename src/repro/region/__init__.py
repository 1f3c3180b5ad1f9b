"""Rectangle and region algebra used across the display stack."""

from .geometry import EMPTY_RECT, Rect
from .region import Region

__all__ = ["Rect", "Region", "EMPTY_RECT"]
