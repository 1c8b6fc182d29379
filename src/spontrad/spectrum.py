"""Binned X-ray spectrum data model, CSV I/O and bin selection.

CSV schema: header ``center_keV,width_keV,counts``, one row per bin,
``#``-prefixed comment lines allowed anywhere, plain decimal numbers.
Exposure metadata travels outside the CSV (CLI config sidecar keys).
"""

import math
import operator
from dataclasses import dataclass, replace

from .errors import (SelectionEmptyError, SpectrumFormatError, ValidationError)

CSV_HEADER = "center_keV,width_keV,counts"

_OVERLAP_TOL = 1e-9
# Most points any generated grid (bin centers, correlation lengths) may have;
# the count is checked before the grid is built.
MAX_GRID_POINTS = 10 ** 6


def check_grid_size(n, what: str) -> None:
    """Reject a grid of n points (an int, or inf) above MAX_GRID_POINTS."""
    if not n <= MAX_GRID_POINTS:
        raise ValidationError(
            f"{what} of {n:.7g} points exceeds the limit of {MAX_GRID_POINTS}")


def center_grid(lo: float, hi: float, width: float) -> list:
    """Bin centers lo, lo + width, ... up to and including hi (lo <= hi, width > 0)."""
    steps = (hi - lo) / width + 0.5
    n = math.floor(steps) + 1 if math.isfinite(steps) else math.inf
    check_grid_size(n, "bin grid")
    grid = [lo + i * width for i in range(n)]
    return [c for c in grid if c <= hi + 1e-9 * width]


@dataclass(frozen=True)
class EnergyBin:
    """One histogram bin: center and width in keV, integer counts."""

    center: float
    width: float
    counts: int

    def __post_init__(self):
        if not self.width > 0:
            raise ValidationError(f"bin width must be positive, got {self.width}")
        try:
            counts = operator.index(self.counts)
        except TypeError:
            raise ValidationError(
                f"bin counts must be an integer, got {self.counts!r}") from None
        object.__setattr__(self, "counts", counts)
        if counts < 0:
            raise ValidationError(f"bin counts must be non-negative, got {counts}")
        if not self.center - self.width / 2.0 > 0:
            raise ValidationError(
                f"bin [{self.center} +- {self.width / 2}] keV extends to non-positive energy")


@dataclass(frozen=True)
class BinnedSpectrum:
    """Ordered, uniform-width, non-overlapping bins plus exposure metadata.

    Immutable after construction; safe to share across threads.
    """

    bins: tuple
    exposure_kg_day: float = 0.0
    source_label: str = ""

    def __post_init__(self):
        bins = tuple(self.bins)
        object.__setattr__(self, "bins", bins)
        for i in range(1, len(bins)):
            prev, cur = bins[i - 1], bins[i]
            if not cur.center > prev.center:
                raise ValidationError(
                    f"bins out of order: center {cur.center} keV after {prev.center} keV")
            if cur.center - prev.center < (prev.width + cur.width) / 2.0 - _OVERLAP_TOL:
                raise ValidationError(
                    f"bins at {prev.center} and {cur.center} keV overlap")
        widths = {b.width for b in bins}
        if len(widths) > 1:
            raise ValidationError(f"non-uniform bin widths: {sorted(widths)}")


@dataclass(frozen=True)
class RangeSelection:
    """Energy window and minimum-count threshold applied to a spectrum."""

    e_min: float
    e_max: float
    min_counts: int = 0

    def __post_init__(self):
        if not self.e_min < self.e_max:
            raise ValidationError(f"e_min {self.e_min} must be below e_max {self.e_max}")
        if self.min_counts < 0:
            raise ValidationError(f"min_counts must be >= 0, got {self.min_counts}")


def load_spectrum(path, exposure_kg_day: float = 0.0,
                  source_label: str = "") -> BinnedSpectrum:
    """Read and validate a spectrum CSV. Raises SpectrumFormatError on
    malformed rows, ValidationError on invariant breaches, OSError on I/O."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.readlines()

    bins = []
    header_seen = False
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if not header_seen:
            if line != CSV_HEADER:
                raise SpectrumFormatError(
                    f"{path}:{lineno}: expected header {CSV_HEADER!r}, got {line!r}")
            header_seen = True
            continue
        fields = line.split(",")
        if len(fields) != 3:
            raise SpectrumFormatError(f"{path}:{lineno}: expected 3 fields, got {len(fields)}")
        try:
            center = float(fields[0])
            width = float(fields[1])
            counts = int(fields[2])
        except ValueError as exc:
            raise SpectrumFormatError(f"{path}:{lineno}: {exc}") from None
        bins.append(EnergyBin(center=center, width=width, counts=counts))
    if not header_seen:
        raise SpectrumFormatError(f"{path}: missing header line {CSV_HEADER!r}")

    return BinnedSpectrum(bins=tuple(bins), exposure_kg_day=exposure_kg_day,
                          source_label=source_label or str(path))


def format_spectrum(spectrum: BinnedSpectrum) -> str:
    """Canonical CSV text for a spectrum (shortest round-trip float repr)."""
    rows = [CSV_HEADER]
    rows.extend(f"{b.center!r},{b.width!r},{b.counts}" for b in spectrum.bins)
    return "\n".join(rows) + "\n"


def save_spectrum(spectrum: BinnedSpectrum, path) -> None:
    """Write canonical CSV; load_spectrum(save_spectrum(s)) is bit-exact."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(format_spectrum(spectrum))


def select(spectrum: BinnedSpectrum, sel: RangeSelection) -> BinnedSpectrum:
    """Bins with e_min <= center <= e_max and counts >= min_counts, in order.

    Raises SelectionEmptyError when nothing survives (no fit is possible).
    """
    kept = tuple(b for b in spectrum.bins
                 if sel.e_min <= b.center <= sel.e_max and b.counts >= sel.min_counts)
    if not kept:
        raise SelectionEmptyError(
            f"selection [{sel.e_min}, {sel.e_max}] keV, counts >= {sel.min_counts} "
            f"removed all {len(spectrum.bins)} bins")
    return replace(spectrum, bins=kept)


def total_counts(spectrum: BinnedSpectrum) -> int:
    """Sum of counts over all bins (0 for an empty spectrum)."""
    return sum(b.counts for b in spectrum.bins)
