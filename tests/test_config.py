"""Config-file parsing and override plumbing."""

import pytest

from spontrad.config import (
    KNOWN_KEYS,
    exposure_from,
    load_config,
    parse_config_text,
)
from spontrad.constants import IGEX_EXPOSURE
from spontrad.errors import ValidationError


class TestParse:
    def test_empty_text(self):
        assert parse_config_text("") == {}

    def test_comments_and_blanks(self):
        text = "\n# a comment\n   \nexposure_kg_day = 9.5\n  # indented\n"
        assert parse_config_text(text) == {"exposure_kg_day": 9.5}

    def test_inline_comment_not_supported(self):
        with pytest.raises(ValidationError, match="not a number"):
            parse_config_text("electrons_per_atom = 4  # germanium")

    def test_all_known_keys_accepted(self):
        lines = [f"{key} = 1.5" for key in KNOWN_KEYS]
        values = parse_config_text("\n".join(lines))
        assert set(values) == set(KNOWN_KEYS)

    def test_unknown_key_rejected_with_line_number(self):
        with pytest.raises(ValidationError, match=":2.*detector_mass"):
            parse_config_text("exposure_kg_day = 1\ndetector_mass = 3\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ValidationError, match="duplicate"):
            parse_config_text("exposure_kg_day=1\nexposure_kg_day=2\n")

    def test_non_numeric_value_rejected(self):
        with pytest.raises(ValidationError, match=":1"):
            parse_config_text("exposure_kg_day = lots")

    def test_missing_separator_rejected(self):
        with pytest.raises(ValidationError, match=":1"):
            parse_config_text("exposure_kg_day 9.5")

    def test_value_outside_the_exposure_domain_rejected(self):
        # Checked in the file, so an overriding flag cannot hide it.
        with pytest.raises(ValidationError,
                           match="^electrons_per_atom must be positive and finite, got -4.0$"):
            parse_config_text("electrons_per_atom = -4")

    def test_whitespace_around_separator(self):
        assert parse_config_text("electrons_per_atom=4") == {
            "electrons_per_atom": 4.0}
        assert parse_config_text("electrons_per_atom   =   4") == {
            "electrons_per_atom": 4.0}


class TestLoad:
    def test_round_trip_through_file(self, tmp_path):
        path = tmp_path / "override.cfg"
        path.write_text("exposure_kg_day = 4.15\nelectrons_per_atom = 4\n")
        assert load_config(path) == {"exposure_kg_day": 4.15,
                                     "electrons_per_atom": 4.0}

    def test_missing_file_is_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_config(tmp_path / "nope.cfg")

    def test_non_utf8_file_is_a_validation_error(self, tmp_path):
        path = tmp_path / "override.cfg"
        path.write_bytes(b"exposure_kg_day = 4\xff\n")
        with pytest.raises(ValidationError) as info:
            load_config(path)
        assert str(info.value) == (
            f"{path}: 'utf-8' codec can't decode byte 0xff in position 19: "
            "invalid start byte")

    def test_error_names_file(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("what\n")
        with pytest.raises(ValidationError, match="bad.cfg:1"):
            load_config(path)


class TestOverrides:
    def test_empty_values_give_defaults(self):
        assert exposure_from({}) is IGEX_EXPOSURE

    def test_exposure_override_applies(self):
        ex = exposure_from({"exposure_kg_day": 10.0, "electrons_per_atom": 4.0})
        assert ex.exposure_kg_day == 10.0
        assert ex.electrons_per_atom == 4.0
        assert ex.atoms_per_kg == IGEX_EXPOSURE.atoms_per_kg

    def test_override_revalidates(self):
        with pytest.raises(ValidationError):
            exposure_from({"exposure_kg_day": -1.0})
        with pytest.raises(ValidationError):
            exposure_from({"exposure_kg_day": float("inf")})

    def test_keys_are_the_exposure_fields(self):
        assert KNOWN_KEYS == ("atoms_per_kg", "exposure_kg_day", "electrons_per_atom")
