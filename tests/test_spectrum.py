"""Spectrum data model, CSV round-trips and selection."""

import os
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spontrad import spectrum as spectrum_module
from spontrad.errors import (SelectionEmptyError, SpectrumFormatError,
                             ValidationError)
from spontrad.spectrum import (BinnedSpectrum, CSV_HEADER, EnergyBin,
                               RangeSelection, format_spectrum, load_spectrum,
                               save_spectrum, select, total_counts)


def unit_bins(counts, start=15.0):
    return tuple(EnergyBin(center=start + i, width=1.0, counts=c)
                 for i, c in enumerate(counts))


class TestEnergyBin:
    def test_valid(self):
        b = EnergyBin(center=20.0, width=1.0, counts=7)
        assert (b.center, b.width, b.counts) == (20.0, 1.0, 7)

    def test_numpy_counts_accepted(self):
        assert EnergyBin(center=20.0, width=1.0, counts=np.int64(3)).counts == 3

    def test_float_counts_rejected(self):
        with pytest.raises(ValidationError):
            EnergyBin(center=20.0, width=1.0, counts=3.5)

    def test_negative_counts_rejected(self):
        with pytest.raises(ValidationError):
            EnergyBin(center=20.0, width=1.0, counts=-1)

    def test_nonpositive_width_rejected(self):
        with pytest.raises(ValidationError):
            EnergyBin(center=20.0, width=0.0, counts=1)

    def test_bin_reaching_zero_energy_rejected(self):
        with pytest.raises(ValidationError):
            EnergyBin(center=0.5, width=1.0, counts=1)


class TestBinnedSpectrum:
    def test_ordering_enforced(self):
        with pytest.raises(ValidationError):
            BinnedSpectrum(bins=(EnergyBin(20.0, 1.0, 1), EnergyBin(15.0, 1.0, 1)))

    def test_overlap_rejected(self):
        with pytest.raises(ValidationError):
            BinnedSpectrum(bins=(EnergyBin(15.0, 1.0, 1), EnergyBin(15.5, 1.0, 1)))

    def test_nonuniform_widths_rejected(self):
        with pytest.raises(ValidationError):
            BinnedSpectrum(bins=(EnergyBin(15.0, 1.0, 1), EnergyBin(17.0, 2.0, 1)))

    def test_bins_normalized_to_tuple(self):
        s = BinnedSpectrum(bins=[EnergyBin(15.0, 1.0, 1)])
        assert isinstance(s.bins, tuple)

    def test_empty_allowed(self):
        assert total_counts(BinnedSpectrum(bins=())) == 0


class TestCsv:
    def test_round_trip(self, tmp_path):
        s = BinnedSpectrum(bins=unit_bins([4, 0, 17]), source_label="x")
        path = tmp_path / "s.csv"
        save_spectrum(s, path)
        loaded = load_spectrum(path)
        assert loaded.bins == s.bins

    def test_comments_and_blanks_ignored(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text(f"# preamble\n\n{CSV_HEADER}\n# row note\n15.0,1.0,3\n")
        assert load_spectrum(path).bins == (EnergyBin(15.0, 1.0, 3),)

    def test_missing_header(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("15.0,1.0,3\n")
        with pytest.raises(SpectrumFormatError):
            load_spectrum(path)

    def test_wrong_field_count_reports_line(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text(f"{CSV_HEADER}\n15.0,1.0\n")
        with pytest.raises(SpectrumFormatError, match=":2"):
            load_spectrum(path)

    def test_non_numeric_field(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text(f"{CSV_HEADER}\n15.0,one,3\n")
        with pytest.raises(SpectrumFormatError):
            load_spectrum(path)

    def test_missing_file_is_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_spectrum(tmp_path / "absent.csv")

    @settings(max_examples=50, deadline=None)
    @given(counts=st.lists(st.integers(min_value=0, max_value=10 ** 9),
                           min_size=1, max_size=40),
           width=st.floats(min_value=1e-3, max_value=8.0, allow_nan=False,
                           allow_infinity=False))
    def test_format_parse_is_lossless(self, tmp_path_factory, counts, width):
        start = 10.0 * width
        bins = tuple(EnergyBin(center=start + i * width, width=width, counts=c)
                     for i, c in enumerate(counts))
        s = BinnedSpectrum(bins=bins)
        path = tmp_path_factory.mktemp("csv") / "s.csv"
        save_spectrum(s, path)
        assert load_spectrum(path).bins == bins



def _csv(tmp_path, text):
    """Write text byte for byte (no newline translation) to a fresh file."""
    path = tmp_path / "s.csv"
    path.write_bytes(text.encode("utf-8"))
    return path


H = CSV_HEADER

# (id, file text, exact exception type, exact message with {path} for the file)
LOAD_ERRORS = [
    ("wrong-header", "center,width,counts\n15.0,1.0,3\n", SpectrumFormatError,
     "{path}:1: expected header 'center_keV,width_keV,counts', got 'center,width,counts'"),
    ("row-before-header", "# note\n\n15.0,1.0,3\n", SpectrumFormatError,
     "{path}:3: expected header 'center_keV,width_keV,counts', got '15.0,1.0,3'"),
    ("empty-file", "", SpectrumFormatError,
     "{path}: missing header line 'center_keV,width_keV,counts'"),
    ("comments-only", "# a note\n\n   \n#center_keV,width_keV,counts\n", SpectrumFormatError,
     "{path}: missing header line 'center_keV,width_keV,counts'"),
    ("too-few-fields", f"{H}\n15.0,1.0\n", SpectrumFormatError,
     "{path}:2: expected 3 fields, got 2"),
    ("trailing-comma", f"# c\n{H}\n\n15.0,1.0,3,\n", SpectrumFormatError,
     "{path}:4: expected 3 fields, got 4"),
    ("form-feed-is-not-a-line-break", f"{H}\n16.0,1.0,3\x0c17,1,3\n", SpectrumFormatError,
     "{path}:2: expected 3 fields, got 5"),
    ("non-number", f"{H}\n15.0,one,3\n", SpectrumFormatError,
     "{path}:2: could not convert string to float: 'one'"),
    ("repeated-header", f"{H}\n{H}\n", SpectrumFormatError,
     "{path}:2: could not convert string to float: 'center_keV'"),
    ("float-counts", f"{H}\n15.0,1.0,1.0\n", SpectrumFormatError,
     "{path}:2: invalid literal for int() with base 10: '1.0'"),
    ("empty-counts", f"{H}\n15.0,1.0,\n", SpectrumFormatError,
     "{path}:2: invalid literal for int() with base 10: ''"),
    ("cr-line-ends", f"{H}\r15.0,1.0,3\r16,1,x\r", SpectrumFormatError,
     "{path}:3: invalid literal for int() with base 10: 'x'"),
    ("negative-counts", f"{H}\n15.0,1.0,-1\n", ValidationError,
     "bin counts must be non-negative, got -1"),
    ("out-of-order", f"{H}\n16.0,1.0,3\n15.0,1.0,3\n", ValidationError,
     "bins out of order: center 15.0 keV after 16.0 keV"),
    # Two faults: the first in file order wins, and a bin's own check runs
    # when its row is read, before any later row is parsed.
    ("bin-fault-before-field-count", f"{H}\n15.0,0.0,3\n16.0,1.0\n", ValidationError,
     "bin width must be positive, got 0.0"),
    ("field-count-before-non-number", f"{H}\n15.0,1.0\n16.0,x,3\n", SpectrumFormatError,
     "{path}:2: expected 3 fields, got 2"),
    # The spectrum's own checks (order, overlap, widths) run after the
    # whole file is read, so a later format error is reported first.
    ("format-before-order", f"{H}\n16.0,1.0,3\n15.0,1.0,3\n17.0,1.0\n", SpectrumFormatError,
     "{path}:4: expected 3 fields, got 2"),
]


@pytest.mark.parametrize("text,exc_type,message", [case[1:] for case in LOAD_ERRORS],
                         ids=[case[0] for case in LOAD_ERRORS])
def test_load_spectrum_error_messages(tmp_path, text, exc_type, message):
    path = _csv(tmp_path, text)
    with pytest.raises(ValidationError) as info:
        load_spectrum(path)
    assert type(info.value) is exc_type
    assert str(info.value) == message.replace("{path}", str(path))


@pytest.mark.parametrize("text,counts", [
    (f"{H}\n", []),
    (f"# preamble\n\n{H}\n", []),
    (f"\n# a\n{H}\n\n# between\n15.0,1.0,3\n  \n#16.0,1.0,x\n16.0,1.0,0\n# trailing", [3, 0]),
    (f"{H}\r\n15.0,1.0,3\r\n16.0,1.0,4\r\n", [3, 4]),
    (f"  {H}  \n  15.0 , 1.0 , 3  \n16.0,1.0,4", [3, 4]),
    # A UTF-8 byte-order mark, as spreadsheet tools write, is dropped.
    (f"\ufeff{H}\n15.0,1.0,3\n", [3]),
], ids=["header-only", "comment-then-header-only", "comments-and-blanks-around-rows",
        "crlf", "spaces-around-fields", "bom-before-header"])
def test_load_spectrum_accepts(tmp_path, text, counts):
    path = _csv(tmp_path, text)
    spectrum = load_spectrum(path)
    assert spectrum.bins == unit_bins(counts)
    assert spectrum.source_label == str(path)


def test_non_utf8_file_is_a_format_error(tmp_path):
    path = tmp_path / "s.csv"
    path.write_bytes(f"{H}\n15.0,1.0,3\n".encode() + b"16.0,1.0,\xff\n")
    with pytest.raises(SpectrumFormatError) as info:
        load_spectrum(path)
    assert str(info.value) == (
        f"{path}: 'utf-8' codec can't decode byte 0xff in position 48: invalid start byte")


def test_small_file_read_allocates_little(tmp_path):
    path = _csv(tmp_path, f"{H}\n15.0,1.0,3\n16.0,1.0,4\n")
    tracemalloc.start()
    try:
        text = spectrum_module.read_text(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert text == f"{H}\n15.0,1.0,3\n16.0,1.0,4\n"
    assert peak < 2 ** 20


def test_read_in_chunks_keeps_the_byte_cap(tmp_path, monkeypatch):
    # Chunks far smaller than the file: read whole at the cap, and one
    # byte past it is rejected, from a file or from a pipe.
    text = f"{H}\n" + "".join(f"{15 + i}.0,1.0,{i}\n" for i in range(40))
    path = _csv(tmp_path, text)
    monkeypatch.setattr(spectrum_module, "_READ_CHUNK", 7)
    monkeypatch.setattr(spectrum_module, "MAX_INPUT_BYTES", len(text))
    assert spectrum_module.read_text(path) == text
    monkeypatch.setattr(spectrum_module, "MAX_INPUT_BYTES", len(text) - 1)
    with pytest.raises(ValidationError, match="input exceeds the limit"):
        spectrum_module.read_text(path)
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_text, args=(text,))
    writer.start()
    try:
        with pytest.raises(ValidationError, match="input exceeds the limit"):
            spectrum_module.read_text(fifo)
    finally:
        writer.join()


class TestSelect:
    def test_window_and_threshold(self):
        s = BinnedSpectrum(bins=unit_bins([10, 2, 8, 9]))
        out = select(s, RangeSelection(e_min=15.5, e_max=18.5, min_counts=5))
        assert [b.center for b in out.bins] == [17.0, 18.0]

    def test_inclusive_edges(self):
        s = BinnedSpectrum(bins=unit_bins([1, 1, 1]))
        out = select(s, RangeSelection(e_min=15.0, e_max=17.0))
        assert len(out.bins) == 3

    def test_empty_selection_raises(self):
        s = BinnedSpectrum(bins=unit_bins([1, 1]))
        with pytest.raises(SelectionEmptyError):
            select(s, RangeSelection(e_min=100.0, e_max=200.0))

    def test_metadata_preserved(self):
        s = BinnedSpectrum(bins=unit_bins([5, 6]), source_label="igex")
        out = select(s, RangeSelection(e_min=14.0, e_max=20.0))
        assert out.source_label == "igex"

    def test_selection_validation(self):
        with pytest.raises(ValidationError):
            RangeSelection(e_min=20.0, e_max=10.0)
        with pytest.raises(ValidationError):
            RangeSelection(e_min=1.0, e_max=2.0, min_counts=-1)


def test_total_counts():
    assert total_counts(BinnedSpectrum(bins=unit_bins([4, 0, 17]))) == 21
