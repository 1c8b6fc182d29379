"""Flat key=value config files overriding physical inputs.

Every physical number entering a limit is auditable here: constants
(fine_structure_constant, hbar_c_mev_fm, proton_mass_mev, electron_mass_mev,
avogadro) and exposure factors (atoms_per_kg, exposure_kg_day,
seconds_per_day, electrons_per_atom).  Command-line flags override file
values; file values override built-in defaults.  Unknown or duplicate keys
are errors, silent typos are not tolerated.
"""

from dataclasses import fields, replace

from .constants import CODATA2018, ExposureConfig, IGEX_EXPOSURE, PhysicalConstants
from .errors import ValidationError

CONSTANT_KEYS = tuple(f.name for f in fields(PhysicalConstants))
EXPOSURE_KEYS = tuple(f.name for f in fields(ExposureConfig))
KNOWN_KEYS = CONSTANT_KEYS + EXPOSURE_KEYS


def parse_config_text(text: str, origin: str = "<config>") -> dict:
    """Parse ``key = value`` lines into {key: float}.

    Blank lines and ``#`` comments are skipped; inline comments are not
    supported (a value must parse as a float in full).
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
    return values


def load_config(path) -> dict:
    """Read and parse a config file; OSError propagates to the caller."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: {exc}") from None
    return parse_config_text(text, origin=str(path))


def constants_from(values: dict) -> PhysicalConstants:
    """Defaults overridden by any constant keys present; invariants re-checked."""
    overrides = {k: v for k, v in values.items() if k in CONSTANT_KEYS}
    return replace(CODATA2018, **overrides) if overrides else CODATA2018


def exposure_from(values: dict) -> ExposureConfig:
    """Defaults overridden by any exposure keys present; invariants re-checked."""
    overrides = {k: v for k, v in values.items() if k in EXPOSURE_KEYS}
    return replace(IGEX_EXPOSURE, **overrides) if overrides else IGEX_EXPOSURE
