"""XScale-style voltage/frequency regulator with execute-through slewing.

One regulator per controllable domain.  A controller *requests* a target
frequency; the regulator ramps the actual frequency toward the target at
the configured slew rate (49.1 ns per MHz of change, Table 1) while the
domain keeps executing.  Voltage tracks frequency through the linear
map, matching the paper's assumption that on a downward transition the
frequency change starts immediately and on an upward transition voltage
and frequency rise together, both governed by the same slew rate.

The regulator also counts transitions and time-spent-slewing, which the
sensitivity discussion in Section 5 uses (excessive attack activity
continuously re-activates the PLL/voltage control circuits).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.config.mcd import MCDConfig
from repro.dvfs.scale import scale_for
from repro.errors import RegulatorError


class RegulatorState(enum.Enum):
    """Whether the regulator is holding a frequency or ramping to one."""

    STEADY = "steady"
    SLEWING = "slewing"


@dataclass
class RegulatorStats:
    """Accumulated regulator activity over a run."""

    requests: int = 0
    direction_changes: int = 0
    slewing_time_ns: float = 0.0


class VoltageFrequencyRegulator:
    """Slew-rate-limited frequency/voltage actuator for one domain.

    Parameters
    ----------
    config:
        MCD electrical parameters.
    initial_mhz:
        Starting operating point (defaults to the maximum frequency,
        the baseline MCD configuration).  Snapped to the scale.

    Notes
    -----
    Time is supplied by the caller (the simulator's domain-edge times),
    so the regulator is a pure function of its request history — easy
    to test and replay.  ``advance_to`` must be called with
    non-decreasing times.
    """

    __slots__ = (
        "config",
        "scale",
        "current_mhz",
        "target_mhz",
        "stats",
        "_last_time_ns",
        "_slew_mhz_per_ns",
    )

    def __init__(self, config: MCDConfig, initial_mhz: float | None = None) -> None:
        self.config = config
        self.scale = scale_for(config)
        start = config.max_frequency_mhz if initial_mhz is None else initial_mhz
        self.current_mhz = self.scale.quantize(start)
        self.target_mhz = self.current_mhz
        self.stats = RegulatorStats()
        self._last_time_ns = 0.0
        if config.slew_ns_per_mhz > 0:
            self._slew_mhz_per_ns = 1.0 / config.slew_ns_per_mhz
        else:
            self._slew_mhz_per_ns = float("inf")

    # --- queries -----------------------------------------------------------
    @property
    def state(self) -> RegulatorState:
        """STEADY when the actual frequency has reached the target."""
        if self.current_mhz == self.target_mhz:
            return RegulatorState.STEADY
        return RegulatorState.SLEWING

    @property
    def voltage_v(self) -> float:
        """Instantaneous supply voltage (linear map from frequency)."""
        return self.config.voltage_for_frequency(self.current_mhz)

    @property
    def period_ns(self) -> float:
        """Instantaneous clock period."""
        return 1e3 / self.current_mhz

    # --- commands ----------------------------------------------------------
    def request(self, target_mhz: float) -> float:
        """Set a new target; returns the quantised target actually set.

        Out-of-range requests are clamped to the scale (range checking
        is performed after the Attack/Decay computation, per the paper).
        """
        snapped = self.scale.quantize(target_mhz)
        if snapped != self.target_mhz:
            self.stats.requests += 1
            old_direction = self.target_mhz - self.current_mhz
            new_direction = snapped - self.current_mhz
            if old_direction * new_direction < 0:
                self.stats.direction_changes += 1
            self.target_mhz = snapped
        return snapped

    def snap_to(self, frequency_mhz: float) -> None:
        """Instantaneously set frequency = target = ``frequency_mhz``.

        Used by the off-line algorithm, which pre-requests changes so
        the slew completes exactly at the interval boundary (the paper
        notes the slew rate is not a source of error off-line), and by
        test fixtures.
        """
        snapped = self.scale.quantize(frequency_mhz)
        self.current_mhz = snapped
        self.target_mhz = snapped

    def advance_to(self, time_ns: float) -> float:
        """Ramp toward the target up to ``time_ns``; return the frequency.

        Must be called with non-decreasing times.
        """
        if time_ns < self._last_time_ns - 1e-9:
            raise RegulatorError(
                f"regulator time moved backwards: {time_ns} < {self._last_time_ns}"
            )
        dt = time_ns - self._last_time_ns
        self._last_time_ns = time_ns
        if dt <= 0 or self.current_mhz == self.target_mhz:
            return self.current_mhz
        max_delta = dt * self._slew_mhz_per_ns
        gap = self.target_mhz - self.current_mhz
        if abs(gap) <= max_delta:
            self.current_mhz = self.target_mhz
            self.stats.slewing_time_ns += abs(gap) / self._slew_mhz_per_ns
        else:
            self.current_mhz += max_delta if gap > 0 else -max_delta
            self.stats.slewing_time_ns += dt
        return self.current_mhz
