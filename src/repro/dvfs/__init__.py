"""Dynamic voltage/frequency scaling substrate (XScale model).

The paper adopts the XScale DVFS model: 320 quantised frequency points
spanning 1.0 GHz down to 250 MHz with a linearly mapped voltage from
1.2 V down to 0.65 V, transitions ramping at 49.1 ns/MHz, and the
domain *executing through* the change.
"""

from repro.dvfs.regulator import RegulatorState, VoltageFrequencyRegulator
from repro.dvfs.scale import FrequencyScale, scale_for

__all__ = [
    "FrequencyScale",
    "RegulatorState",
    "VoltageFrequencyRegulator",
    "scale_for",
]
