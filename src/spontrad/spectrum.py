"""Binned X-ray spectrum data model, CSV I/O and bin selection.

CSV schema: header ``center_keV,width_keV,counts``, one row per bin,
``#``-prefixed comment lines allowed anywhere, plain decimal numbers.
The exposure is not part of the CSV: the CLI takes it by flags.
``csv_rows`` is the grammar shared with the curve and overlay files.

The package's data classes are plain classes with ``__slots__`` that check
their fields when built and are not frozen; ``Record`` gives the ones that
callers compare or print equality and a repr.
"""

import math
import operator
import os
from bisect import bisect_right
from itertools import islice, repeat

from .errors import (SelectionEmptyError, SpectrumFormatError, ValidationError)

CSV_HEADER = "center_keV,width_keV,counts"

_OVERLAP_TOL = 1e-9
# Most points any generated grid (bin centers, correlation lengths) may have;
# the count is checked before the grid is built.
MAX_GRID_POINTS = 10 ** 6
# Most trials a coverage study may run.  At about 18000 trials per second on
# one CPU (serial 3000-trial studies at alpha 1000, either route, on a shared
# 2-vCPU host), 10**6 trials take about a minute; the count is checked before
# any trial is set up.
MAX_TRIALS = 10 ** 6
# Most bytes read from an input file: room for 10**6 spectrum rows of up to
# 64 characters.  At most one byte more is read to tell a file is larger.
MAX_INPUT_BYTES = 64 * 2 ** 20
# Bytes per read of an input file, so that a small file allocates little.
_READ_CHUNK = 2 ** 16
# Most rows a spectrum file may hold; row MAX_SPECTRUM_ROWS + 1 is rejected
# before its bin is built.
MAX_SPECTRUM_ROWS = 10 ** 6


def check_grid_size(n, what: str) -> None:
    """Reject a grid of n points (an int, or inf) above MAX_GRID_POINTS."""
    if not n <= MAX_GRID_POINTS:
        raise ValidationError(
            f"{what} of {n:.7g} points exceeds the limit of {MAX_GRID_POINTS}")


def checked_integer(value, what: str) -> int:
    """value as an int (operator.index), or a ValidationError naming what.
    EnergyBin, built once per bin, makes the same check inline."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValidationError(f"{what} must be an integer, got {value!r}") from None


def check_float_range(n: int, what: str) -> None:
    """Reject an integer count too large to convert to a float."""
    try:
        float(n)
    except OverflowError:
        raise ValidationError(
            f"{what} of {n.bit_length()} bits is beyond the float range") from None


class Record:
    """Equality and repr over the ``__slots__`` fields, in order, for the
    classes that callers compare or print; not frozen, so not hashable."""

    __slots__ = ()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        fields = operator.attrgetter(*self.__slots__)
        return fields(self) == fields(other)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"


class EnergyBin(Record):
    """One histogram bin: center and width in keV, integer counts; not frozen."""

    __slots__ = ("center", "width", "counts")

    def __init__(self, center: float, width: float, counts: int):
        if not width > 0:
            raise ValidationError(f"bin width must be positive, got {width}")
        try:
            counts = operator.index(counts)
        except TypeError:
            raise ValidationError(f"bin counts must be an integer, got {counts!r}") from None
        if counts < 0:
            raise ValidationError(f"bin counts must be non-negative, got {counts}")
        if not center - width / 2.0 > 0:
            raise ValidationError(
                f"bin [{center} +- {width / 2}] keV extends to non-positive energy")
        self.center, self.width, self.counts = center, width, counts


class BinnedSpectrum(Record):
    """Ordered, uniform-width, non-overlapping bins and where they came from.

    Not frozen, but nothing in the package assigns to a spectrum's
    attributes, so one is safe to share across threads.
    """

    __slots__ = ("bins", "source_label")

    def __init__(self, bins, source_label: str = ""):
        bins = tuple(bins)
        _check_order(map(operator.attrgetter("center"), bins),
                     map(operator.attrgetter("width"), bins))
        widths = {b.width for b in bins}
        if len(widths) > 1:
            raise ValidationError(f"non-uniform bin widths: {sorted(widths)}")
        self.bins, self.source_label = bins, source_label


def _check_order(centers, widths) -> None:
    """Raise the ValidationError of the first adjacent pair of bins, given by
    their centers and widths in order, that is out of order or overlaps."""
    pairs = zip(centers, widths)
    prev_c, prev_w = next(pairs, (None, None))
    for c, w in pairs:
        if not c > prev_c:
            raise ValidationError(f"bins out of order: center {c} keV after {prev_c} keV")
        # Halved before the sum, which overflows for widths above about 9e307.
        if c - prev_c < prev_w / 2.0 + w / 2.0 - _OVERLAP_TOL:
            raise ValidationError(f"bins at {prev_c} and {c} keV overlap")
        prev_c, prev_w = c, w


def center_grid(lo: float, hi: float, width: float) -> list:
    """Bin centers lo, lo + width, ... up to and including hi (lo <= hi,
    width > 0), capped at MAX_GRID_POINTS and checked as a spectrum file's
    bins are.  Centers ascend, so the lowest bin alone can reach a
    non-positive energy: it is the one bin built."""
    steps = (hi - lo) / width + 0.5
    n = math.floor(steps) + 1 if math.isfinite(steps) else math.inf
    check_grid_size(n, "bin grid")
    EnergyBin(center=lo, width=width, counts=0)
    centers = [lo + i * width for i in range(n)]
    del centers[bisect_right(centers, hi + 1e-9 * width):]
    _check_order(centers, repeat(width))
    return centers


class RangeSelection:
    """Energy window and minimum-count threshold applied to a spectrum; not frozen."""

    __slots__ = ("e_min", "e_max", "min_counts")

    def __init__(self, e_min: float, e_max: float, min_counts: int = 0):
        if not e_min < e_max:
            raise ValidationError(f"e_min {e_min} must be below e_max {e_max}")
        if min_counts < 0:
            raise ValidationError(f"min_counts must be >= 0, got {min_counts}")
        self.e_min, self.e_max, self.min_counts = e_min, e_max, min_counts


def read_text(path) -> str:
    """The text of an input file: UTF-8, a leading byte-order mark dropped,
    CRLF and CR line ends made LF.

    A byte that is not UTF-8 raises SpectrumFormatError naming the file and
    the byte's offset in it, a file past MAX_INPUT_BYTES a ValidationError;
    OSError propagates to the caller.
    """
    data = bytearray()
    with open(path, "rb") as fh:
        while len(data) <= MAX_INPUT_BYTES:
            chunk = fh.read(min(_READ_CHUNK, MAX_INPUT_BYTES + 1 - len(data)))
            if not chunk:
                break
            data += chunk
    if len(data) > MAX_INPUT_BYTES:
        raise ValidationError(f"{path}: input exceeds the limit of {MAX_INPUT_BYTES} bytes")
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise SpectrumFormatError(f"{path}: {exc}") from None
    return text.removeprefix("\ufeff").replace("\r\n", "\n").replace("\r", "\n")


def write_texts(*outputs) -> None:
    """The package's one writer: each (path, text) as UTF-8 with LF line ends.

    Each text goes to a new file of a unique name beside its target (the
    file a symlink points to), made by open(name, "x"), so it has the mode
    of any new file and no other file is written over.  os.replace puts
    them in place once all are written; on any failure every staged file is
    removed.  A target that exists and is not a regular file (a FIFO, a
    device, a directory) is written in place.  An OSError names the path.
    """
    staged = []  # (staged name, target, path as given)
    try:
        for shown, text in outputs:
            target = os.path.realpath(shown)
            in_place = os.path.exists(target) and not os.path.isfile(target)
            name = shown if in_place else f"{target}.{os.urandom(8).hex()}.tmp"
            with open(name, "w" if in_place else "x", encoding="utf-8", newline="\n") as fh:
                if not in_place:
                    staged.append((name, target, shown))
                fh.write(text)
        for name, target, shown in staged:
            os.replace(name, target)
    except BaseException as exc:
        for name, _, _ in staged:
            if os.path.lexists(name):
                os.remove(name)
        if isinstance(exc, OSError):
            raise OSError(exc.errno, exc.strerror, str(shown)) from None
        raise


def csv_rows(path, header: str, n_fields: int, convert):
    """Parse a CSV file row by row, in file order, as the rows are asked for.

    The one grammar of spontrad's CSV files: the text of ``read_text`` (a
    byte-order mark, as spreadsheet tools write, is dropped), blank and ``#``
    lines skipped anywhere, then the exact ``header`` line, then rows of
    ``n_fields`` comma-separated fields, each turned into a value by
    ``convert(fields)``.  Yields the header's line number first, then
    (lineno, value) per row; a file with no header line (empty, or only
    blank and ``#`` lines) yields nothing, and the caller decides what that
    means.  Format errors and a ValueError from ``convert`` raise
    SpectrumFormatError naming the file and line.
    """
    header_seen = False
    for lineno, raw in enumerate(read_text(path).split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if not header_seen:
            if line != header:
                raise SpectrumFormatError(
                    f"{path}:{lineno}: expected header {header!r}, got {line!r}")
            header_seen = True
            yield lineno
            continue
        fields = line.split(",")
        if len(fields) != n_fields:
            raise SpectrumFormatError(
                f"{path}:{lineno}: expected {n_fields} fields, got {len(fields)}")
        try:
            value = convert(fields)
        except ValueError as exc:
            raise SpectrumFormatError(f"{path}:{lineno}: {exc}") from None
        yield lineno, value


def headed_csv_rows(path, header: str, n_fields: int, convert):
    """csv_rows after the header line, for a format that requires one."""
    rows = csv_rows(path, header, n_fields, convert)
    if next(rows, None) is None:
        raise SpectrumFormatError(f"{path}: missing header line {header!r}")
    return rows


def _bin_fields(fields):
    center, width, counts = float(fields[0]), float(fields[1]), int(fields[2])
    check_float_range(counts, "count")
    return center, width, counts


def load_spectrum(path, source_label: str = "") -> BinnedSpectrum:
    """Read and validate a spectrum CSV. Raises SpectrumFormatError on
    malformed rows, ValidationError on invariant breaches, OSError on I/O."""
    rows = headed_csv_rows(path, CSV_HEADER, 3, _bin_fields)
    bins = tuple(EnergyBin(center=center, width=width, counts=counts)
                 for _, (center, width, counts) in islice(rows, MAX_SPECTRUM_ROWS))
    extra = next(rows, None)
    if extra is not None:
        raise ValidationError(
            f"{path}:{extra[0]}: spectrum exceeds the limit of {MAX_SPECTRUM_ROWS} rows")
    return BinnedSpectrum(bins=bins, source_label=source_label or str(path))


def format_spectrum(spectrum: BinnedSpectrum) -> str:
    """Canonical CSV text for a spectrum (shortest round-trip float repr)."""
    rows = [CSV_HEADER]
    rows.extend(f"{b.center!r},{b.width!r},{b.counts}" for b in spectrum.bins)
    return "\n".join(rows) + "\n"


def save_spectrum(spectrum: BinnedSpectrum, path) -> None:
    """Write canonical CSV; load_spectrum(save_spectrum(s)) is bit-exact."""
    write_texts((path, format_spectrum(spectrum)))


def select(spectrum: BinnedSpectrum, sel: RangeSelection) -> BinnedSpectrum:
    """Bins with e_min <= center <= e_max and counts >= min_counts, in order.

    The kept bins are checked again as a new BinnedSpectrum.  Raises
    SelectionEmptyError when nothing survives (no fit is possible).
    """
    kept = tuple(b for b in spectrum.bins
                 if sel.e_min <= b.center <= sel.e_max and b.counts >= sel.min_counts)
    if not kept:
        raise SelectionEmptyError(
            f"selection [{sel.e_min}, {sel.e_max}] keV, counts >= {sel.min_counts} "
            f"removed all {len(spectrum.bins)} bins")
    return BinnedSpectrum(bins=kept, source_label=spectrum.source_label)


def total_counts(spectrum: BinnedSpectrum) -> int:
    """Sum of counts over all bins (0 for an empty spectrum)."""
    return sum(b.counts for b in spectrum.bins)
