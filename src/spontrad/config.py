"""Flat key=value config files setting the detector exposure.

The exposure factors (atoms_per_kg, exposure_kg_day, electrons_per_atom)
are the only physical inputs a user sets; the physical constants are the
fixed CODATA 2018 values.  Command-line flags override file values; file
values override built-in defaults.  Unknown or duplicate keys are errors,
silent typos are not tolerated.
"""

from dataclasses import fields, replace

from .constants import ExposureConfig, IGEX_EXPOSURE
from .errors import ValidationError
from .spectrum import read_text

KNOWN_KEYS = tuple(f.name for f in fields(ExposureConfig))


def parse_config_text(text: str, origin: str = "<config>") -> dict:
    """Parse ``key = value`` lines into {key: float}.

    Blank lines and ``#`` comments are skipped; inline comments are not
    supported (a value must parse as a float in full).  The values are
    checked as exposure factors here, so a flag that later overrides one
    cannot hide a bad file value.
    """
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ValidationError(f"{origin}:{lineno}: expected key=value, got {line!r}")
        key = key.strip()
        if key not in KNOWN_KEYS:
            raise ValidationError(
                f"{origin}:{lineno}: unknown key {key!r}; known keys: "
                f"{', '.join(KNOWN_KEYS)}")
        if key in values:
            raise ValidationError(f"{origin}:{lineno}: duplicate key {key!r}")
        try:
            values[key] = float(value.strip())
        except ValueError:
            raise ValidationError(
                f"{origin}:{lineno}: value for {key!r} is not a number: "
                f"{value.strip()!r}") from None
    exposure_from(values)
    return values


def load_config(path) -> dict:
    """Read (``spectrum.read_text``) and parse a config file; OSError
    propagates to the caller."""
    return parse_config_text(read_text(path), origin=str(path))


def exposure_from(values: dict) -> ExposureConfig:
    """Defaults overridden by the parsed keys; invariants re-checked."""
    return replace(IGEX_EXPOSURE, **values) if values else IGEX_EXPOSURE
