"""Flat key=value run configuration shared by every command.

Config files hold one ``key=value`` per line ('#' comments allowed);
command-line flags mirror the keys and win over the file. Unknown keys are
an error so typos never silently fall back to defaults.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from pathlib import Path

from .errors import ConfigError


@dataclass
class RunConfig:
    seed: int = 0
    image_side: int = 32
    latent_dim: int = 32
    identity_len: int = 12
    n_identities: int = 50
    samples_per_identity: int = 10
    epochs: int = 300
    batch_size: int = 32
    learning_rate: float = 2.0
    momentum: float = 0.9
    weight_init_scale: float = 2.0
    epsilon: float = 1.0
    sensitivity: float = 0.0  # 0 means "not measured yet"
    sensitivity_mode: str = "empirical"  # empirical | clip
    clip_radius: float = 8.0
    mask_mode: str = "all"  # all | identity_only
    ssim_window: int = 11
    ssim_sigma: float = 1.5
    fppsr_percentile: float = 95.0
    sweep_levels: str = "0,0.25,0.5,1.0"
    sweep_repetitions: int = 100
    output_dir: str = "runs/out"

    def __post_init__(self):
        if self.image_side < 16:
            raise ConfigError(f"image_side must be >= 16, got {self.image_side}")
        if self.latent_dim < 1:
            raise ConfigError(f"latent_dim must be >= 1, got {self.latent_dim}")
        if not 1 <= self.identity_len <= self.latent_dim:
            raise ConfigError(
                f"identity_len must be in [1, latent_dim], got {self.identity_len}"
            )
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if not self.learning_rate > 0:
            raise ConfigError(f"learning_rate must be positive, got {self.learning_rate}")
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigError(f"momentum must be in [0, 1), got {self.momentum}")
        if self.sensitivity_mode not in ("empirical", "clip"):
            raise ConfigError(
                f"sensitivity_mode must be 'empirical' or 'clip', got {self.sensitivity_mode!r}"
            )
        if self.mask_mode not in ("all", "identity_only"):
            raise ConfigError(
                f"mask_mode must be 'all' or 'identity_only', got {self.mask_mode!r}"
            )
        # "no noise" is sensitivity 0; an infinite epsilon or a NaN would
        # release without noise or poison every pixel
        if not 0 < self.epsilon < math.inf:
            raise ConfigError(f"epsilon must be positive and finite, got {self.epsilon}")
        if not 0 <= self.sensitivity < math.inf:
            raise ConfigError(f"sensitivity must be >= 0 and finite, got {self.sensitivity}")
        if not 0 < self.clip_radius < math.inf:
            raise ConfigError(f"clip_radius must be positive and finite, got {self.clip_radius}")
        if not 0 < self.fppsr_percentile <= 100:
            raise ConfigError(
                f"fppsr_percentile must be in (0, 100], got {self.fppsr_percentile}"
            )
        if self.sweep_repetitions < 1:
            raise ConfigError(
                f"sweep_repetitions must be >= 1, got {self.sweep_repetitions}"
            )
        parse_levels(self.sweep_levels)


def parse_levels(text: str) -> tuple[float, ...]:
    try:
        levels = tuple(float(tok) for tok in str(text).split(",") if tok.strip())
    except ValueError as exc:
        raise ConfigError(f"bad sweep_levels {text!r}: {exc}") from None
    if not levels:
        raise ConfigError("sweep_levels must contain at least one value")
    if not all(0 <= lv < math.inf for lv in levels):
        raise ConfigError(f"sweep_levels must be nonnegative and finite, got {levels}")
    if list(levels) != sorted(levels):
        raise ConfigError(f"sweep_levels must be ascending, got {levels}")
    return levels


_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}


def _convert(key: str, raw: str):
    kind = _FIELD_TYPES[key]
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
        return str(raw)
    except ValueError:
        raise ConfigError(f"bad value for {key}: {raw!r}") from None


def load_config_file(path) -> dict:
    """Parse a key=value file into a typed dict; unknown keys are errors."""
    values: dict = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if key not in _FIELD_TYPES:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        values[key] = _convert(key, raw.strip())
    return values


def build_config(file_path=None, overrides: dict | None = None) -> RunConfig:
    """Defaults, then config file, then overrides (last wins)."""
    values = {}
    if file_path is not None:
        values.update(load_config_file(file_path))
    for key, raw in (overrides or {}).items():
        if key not in _FIELD_TYPES:
            raise ConfigError(f"unknown config key {key!r}")
        values[key] = _convert(key, str(raw)) if isinstance(raw, str) else raw
    return RunConfig(**values)


def config_dict(config: RunConfig) -> dict:
    return {f.name: getattr(config, f.name) for f in fields(RunConfig)}
