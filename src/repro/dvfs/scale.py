"""The quantised frequency/voltage operating-point table.

Materialises the 320-point frequency scale of Section 4 with its linear
voltage map, and provides index arithmetic used by controllers (e.g.
"one step down") and by tests asserting quantisation behaviour.

The table is a pure function of the (frozen, hashable)
:class:`~repro.config.mcd.MCDConfig`, so :func:`scale_for` builds it
once per configuration and every regulator of every core shares that
one read-only instance.
"""

from __future__ import annotations

import functools

import numpy as np

from repro.config.mcd import MCDConfig
from repro.errors import RegulatorError


class FrequencyScale:
    """The legal (frequency, voltage) operating points of a domain.

    Parameters
    ----------
    config:
        The MCD configuration supplying range, point count and the
        voltage map.
    """

    def __init__(self, config: MCDConfig) -> None:
        self.config = config
        self.frequencies_mhz = np.linspace(
            config.min_frequency_mhz,
            config.max_frequency_mhz,
            config.frequency_points,
        )
        self.voltages_v = np.array(
            [config.voltage_for_frequency(f) for f in self.frequencies_mhz]
        )
        # Shared between cores (see scale_for): nobody may write to it.
        self.frequencies_mhz.setflags(write=False)
        self.voltages_v.setflags(write=False)

    def __len__(self) -> int:
        return len(self.frequencies_mhz)

    def index_of(self, frequency_mhz: float) -> int:
        """Index of the nearest operating point to ``frequency_mhz``."""
        clamped = min(
            self.config.max_frequency_mhz,
            max(self.config.min_frequency_mhz, frequency_mhz),
        )
        step = self.config.frequency_step_mhz
        return round((clamped - self.config.min_frequency_mhz) / step)

    def quantize(self, frequency_mhz: float) -> float:
        """Nearest legal frequency (clamped into range)."""
        return float(self.frequencies_mhz[self.index_of(frequency_mhz)])

    def voltage_at(self, frequency_mhz: float) -> float:
        """Voltage of the nearest operating point."""
        return float(self.voltages_v[self.index_of(frequency_mhz)])

    def step_from(self, frequency_mhz: float, steps: int) -> float:
        """Frequency ``steps`` table entries away (clamped at the ends)."""
        index = self.index_of(frequency_mhz) + steps
        index = min(len(self.frequencies_mhz) - 1, max(0, index))
        return float(self.frequencies_mhz[index])

    def require_legal(self, frequency_mhz: float) -> float:
        """Validate and return ``frequency_mhz`` as an exact table point."""
        snapped = self.quantize(frequency_mhz)
        if abs(snapped - frequency_mhz) > 1e-6:
            raise RegulatorError(
                f"{frequency_mhz} MHz is not one of the "
                f"{len(self)} legal operating points"
            )
        return snapped


@functools.lru_cache(maxsize=64)
def scale_for(config: MCDConfig) -> FrequencyScale:
    """The shared, read-only :class:`FrequencyScale` of ``config``.

    Built on first use and reused by every later caller with an equal
    configuration, instead of recomputing the 320-point table (and its
    320 ``voltage_for_frequency`` calls) per regulator per core.
    """
    return FrequencyScale(config)
