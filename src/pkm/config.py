"""Flat key=value configuration files.

One `key = value` pair per line, `#` comments, blank lines ignored.
Unknown keys are rejected with their line number so that typos do not
silently fall back to defaults.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import ConfigError
from .geometry import MechanismParams, StiffnessCoeffs, Variant

# config key -> dataclass field, one table per dataclass the keys feed
_PARAMS_FIELDS = {
    "r_base_mm": "r_base",
    "r_platform_mm": "r_platform",
    "link_length_mm": "link_length",
    "stroke_min_mm": "stroke_min",
    "stroke_max_mm": "stroke_max",
}
_STIFFNESS_FIELDS = {
    name: name for name in ("k_carriage", "k_revolute", "k_limb_body", "k_sx", "k_sy", "k_sz")
}
_SWEEP_FIELDS = {name: name for name in ("grid_n", "tilt_max_deg", "z_mm", "kappa_min_inv")}
_INT_KEYS = {"grid_n"}
_KNOWN_KEYS = {"variant", *_PARAMS_FIELDS, *_STIFFNESS_FIELDS, *_SWEEP_FIELDS}


@dataclass(frozen=True)
class SweepSettings:
    """Grid and threshold knobs shared by the sweep commands."""

    grid_n: int = 121
    tilt_max_deg: float = 40.0
    z_mm: float | None = None
    kappa_min_inv: float = 0.05

    def __post_init__(self):
        if self.grid_n < 2:
            raise ConfigError("grid_n must be at least 2")
        if not (0.0 < self.tilt_max_deg <= 60.0):
            raise ConfigError("tilt_max_deg must lie in (0, 60]")
        if not (0.0 < self.kappa_min_inv < 1.0):
            raise ConfigError("kappa_min_inv must lie in (0, 1)")


def parse_config_text(text: str) -> dict[str, tuple[str, int]]:
    entries: dict[str, tuple[str, int]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw.strip()!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _KNOWN_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in entries:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        if not value:
            raise ConfigError(f"line {lineno}: empty value for {key!r}")
        entries[key] = (value, lineno)
    return entries


def load_config(path) -> dict[str, tuple[str, int]]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}")
    return parse_config_text(text)


def _typed(entries: dict[str, tuple[str, int]]) -> dict[str, object]:
    typed: dict[str, object] = {}
    for key, (value, lineno) in entries.items():
        if key == "variant":
            try:
                typed[key] = Variant(value.lower())
            except ValueError:
                raise ConfigError(f"line {lineno}: variant must be 'z3' or 'a3', got {value!r}")
        elif key in _INT_KEYS:
            try:
                typed[key] = int(value)
            except ValueError:
                raise ConfigError(f"line {lineno}: {key} must be an integer, got {value!r}")
        else:
            try:
                typed[key] = float(value)
            except ValueError:
                raise ConfigError(f"line {lineno}: {key} must be a number, got {value!r}")
    return typed


def _fields(typed: dict[str, object], table: dict[str, str]) -> dict[str, object]:
    """The dataclass fields the config sets; the rest keep their defaults."""
    return {field: typed[key] for key, field in table.items() if key in typed}


def params_from_config(
    entries: dict[str, tuple[str, int]], variant: Variant | None = None
) -> MechanismParams:
    """Build machine parameters, with an optional CLI-side variant override."""
    typed = _typed(entries)
    if isinstance(variant, str):
        variant = Variant(variant)
    chosen = variant or typed.get("variant")
    if chosen is None:
        raise ConfigError("no machine selected: pass --machine or set 'variant' in the config")
    try:
        return MechanismParams(
            variant=chosen,
            stiffness=StiffnessCoeffs(**_fields(typed, _STIFFNESS_FIELDS)),
            **_fields(typed, _PARAMS_FIELDS),
        )
    except ValueError as exc:
        raise ConfigError(str(exc))


def sweep_settings_from_config(entries: dict[str, tuple[str, int]]) -> SweepSettings:
    return SweepSettings(**_fields(_typed(entries), _SWEEP_FIELDS))


def default_config_text() -> str:
    """A commented template with every supported key at its default."""
    return (
        "# machine selection: z3 (vertical-rail PRS head) or a3 (base-hinged RPS head)\n"
        "variant = z3\n"
        "\n"
        "# geometry [mm]\n"
        "r_base_mm = 350.0\n"
        "r_platform_mm = 250.0\n"
        "link_length_mm = 642.3\n"
        "\n"
        "# joint stiffness coefficients\n"
        "k_carriage = 1e6\n"
        "k_revolute = 1e6\n"
        "k_limb_body = 1e6\n"
        "k_sx = 1e6\n"
        "k_sy = 1e6\n"
        "k_sz = 1e6\n"
        "\n"
        "# sweep settings\n"
        "grid_n = 121\n"
        "tilt_max_deg = 40.0\n"
        "kappa_min_inv = 0.05\n"
    )
