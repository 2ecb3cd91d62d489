"""Native jitter draws: the C loop's own Gaussian stream.

A stock :class:`~repro.clocks.jitter.GaussianJitter` hands its numpy
bit generator to the C loop, which draws every jitter block itself with
numpy's ``random_normal`` — no Python crossing per block.  That is only
sound if the stream stays byte-identical to ``GaussianJitter._refill``,
so these tests force the awkward cases:

* tiny blocks (1 and 7 samples), so a run crosses thousands of block
  boundaries, at a clip that bites on about a third of the samples,
  for open-loop and Attack/Decay runs, native == generator loop over
  the compiled trace == generator reference;
* a native run with ``GaussianJitter._refill`` patched to raise still
  completes — it makes zero Python refill crossings;
* a ``GaussianJitter`` subclass takes the ``refill`` bridge and still
  matches the generator path.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.clocks.jitter import GaussianJitter
from repro.config.algorithm import SCALED_OPERATING_POINT
from repro.config.processor import ProcessorConfig
from repro.control.attack_decay import AttackDecayController
from repro.metrics.summary import summarize
from repro.sim.engine import scaled_mcd_config
from repro.uarch import native
from repro.uarch.compiled_trace import compile_trace
from repro.uarch.core import CoreOptions, MCDCore
from repro.workloads.catalog import get_benchmark

SCALE = 0.05
LINE_SHIFT = ProcessorConfig().line_bytes.bit_length() - 1
#: A 1-sigma clip: about 32% of samples land on the clip bounds.
CLIP_SIGMAS = 1.0

needs_native = pytest.mark.skipif(
    native.load_hotpath() is None, reason="no native loop"
)


class CountingJitter(GaussianJitter):
    """A non-stock jitter model: same stream, counted refills."""

    refills = 0

    def _refill(self) -> None:
        CountingJitter.refills += 1
        super()._refill()


def _run(
    path: str,
    *,
    benchmark: str = "adpcm",
    block: int = 16384,
    controller: bool = False,
    jitter_cls: type = GaussianJitter,
    seed: int = 4,
    compiled: bool = False,
) -> str:
    """One MCD run with the jitter swapped in; its RunSummary as JSON.

    The trace is compiled unless ``path`` is ``"generator"``;
    ``compiled=True`` runs the generator loop over a compiled trace.
    """
    bench = get_benchmark(benchmark)
    trace = bench.build_trace(scale=SCALE)
    if compiled or path != "generator":
        trace = compile_trace(trace, LINE_SHIFT)
    config = scaled_mcd_config()
    core = MCDCore(
        processor=ProcessorConfig(),
        mcd_config=config,
        trace=trace,
        controller=(
            AttackDecayController(SCALED_OPERATING_POINT) if controller else None
        ),
        options=CoreOptions(
            mcd=True, seed=seed, interval_instructions=bench.interval_instructions
        ),
    )
    for i, clock in enumerate(core.clocks):
        clock._jitter = jitter_cls(
            config.jitter_sigma_ns,
            seed=seed * 7919 + i,
            block=block,
            clip_sigmas=CLIP_SIGMAS,
        )
    core.warm_up(trace, limit=trace.total_instructions)
    result = core.run(path=path)
    return json.dumps(summarize(result).to_dict(), sort_keys=True)


def test_clip_takes_effect_at_test_sigma():
    jitter = GaussianJitter(
        scaled_mcd_config().jitter_sigma_ns, seed=3, block=4096,
        clip_sigmas=CLIP_SIGMAS,
    )
    jitter._refill()
    clipped = np.abs(np.array(jitter._buffer)) == jitter._clip
    assert 0.2 < clipped.mean() < 0.5


@pytest.mark.parametrize("controller", [False, True], ids=["open", "attack_decay"])
@pytest.mark.parametrize("block", [1, 7])
def test_tiny_blocks_match_generator(block, controller):
    reference = _run("generator", block=block, controller=controller)
    assert (
        _run("generator", block=block, controller=controller, compiled=True)
        == reference
    )
    if native.load_hotpath() is not None:
        assert _run("native", block=block, controller=controller) == reference


@needs_native
def test_native_run_makes_zero_refill_crossings(monkeypatch):
    reference = _run("generator", block=7)

    def forbidden(self):
        raise AssertionError("native run crossed into GaussianJitter._refill")

    monkeypatch.setattr(GaussianJitter, "_refill", forbidden)
    assert _run("native", block=7) == reference


@needs_native
@pytest.mark.parametrize("controller", [False, True], ids=["open", "attack_decay"])
def test_subclass_takes_refill_fallback(controller):
    reference = _run("generator", block=7, controller=controller)
    CountingJitter.refills = 0
    fallback = _run(
        "native", block=7, controller=controller, jitter_cls=CountingJitter
    )
    assert CountingJitter.refills > 100
    assert fallback == reference


class TestNativeJitterArgs:
    def test_stock_jitter_is_marshalled(self):
        jitter = GaussianJitter(0.11, seed=5, block=9, clip_sigmas=2.0)
        capsule, sigma, clip, block = native.native_jitter_args(jitter)
        assert capsule is jitter._rng.bit_generator.capsule
        assert (sigma, clip, block) == (0.11, 2.0 * 0.11, 9)

    def test_subclass_is_ineligible(self):
        assert native.native_jitter_args(CountingJitter(0.11)) is None

    def test_other_models_are_ineligible(self):
        from repro.clocks.jitter import NoJitter

        assert native.native_jitter_args(NoJitter()) is None
