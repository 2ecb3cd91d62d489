"""Build/load glue for the native hot-path extension.

The batched core loop exists three times, in strictly decreasing
portability and increasing speed: the generator reference path, the
pure-Python compiled path, and the C translation in ``_hotpath.c``.
This module owns the third: it compiles the C source into a shared
object on first use (plain ``cc -O2 -fPIC -shared``, no build system)
and loads it as a CPython extension module.  The build links numpy's
bundled ``numpy/random/lib/libnpyrandom.a`` (shipped with every numpy
wheel, found through the installed package) so the C loop can draw
Gaussian clock jitter with numpy's own ``random_normal``.

Floating-point identity is part of the contract, so the build disables
FP contraction (``-ffp-contract=off``): a fused multiply-add rounds
once where CPython rounds twice, and the equivalence property tests
would catch the drift.

The artifact stamp covers everything that determines codegen: the C
source, the interpreter ABI, the resolved compiler (path plus
``--version`` output), the numpy version and the bytes of the linked
``libnpyrandom.a``, so switching ``CC``, upgrading the toolchain or
upgrading numpy rebuilds instead of silently reusing a stale ``.so``.

Loading is thread-safe: the first caller (from any thread — the
orchestrator's thread backend probes this module concurrently)
compiles and loads under a lock, everyone else reuses the cached
module object.  The extension itself releases the GIL for its compute
stage, so concurrent runs over it genuinely overlap.

Everything degrades gracefully: no compiler, a failed build, or
``REPRO_NATIVE=0`` simply mean :func:`load_hotpath` returns ``None``
and the core stays on the pure-Python compiled path.
"""

from __future__ import annotations

import hashlib
import importlib.machinery
import importlib.util
import logging
import os
import shutil
import subprocess
import sysconfig
import threading
from pathlib import Path

logger = logging.getLogger(__name__)

_SOURCE = Path(__file__).resolve().parent / "_hotpath.c"
_BUILD_DIR = Path(__file__).resolve().parents[3] / "build" / "hotpath"

_cached: object | None = None
_attempted = False
_load_lock = threading.Lock()


def native_enabled() -> bool:
    """Whether the native path may be used (``REPRO_NATIVE`` != 0)."""
    return os.environ.get("REPRO_NATIVE", "1") != "0"


def _resolve_compiler() -> str | None:
    """The C compiler to build with (``CC``, else cc/gcc/clang), or None."""
    return (
        os.environ.get("CC")
        or shutil.which("cc")
        or shutil.which("gcc")
        or shutil.which("clang")
    )


def _compiler_identity(compiler: str) -> bytes:
    """Codegen identity of ``compiler``: resolved path + ``--version``.

    ``cc`` is usually a symlink and ``CC`` an arbitrary name, so the
    resolved path alone is not enough — a toolchain upgrade keeps the
    path but changes codegen.  The ``--version`` banner captures that;
    if the compiler cannot report one, the path still distinguishes
    different toolchains.
    """
    resolved = shutil.which(compiler) or compiler
    try:
        proc = subprocess.run(
            [compiler, "--version"],
            capture_output=True,
            text=True,
            timeout=30,
            check=False,
        )
        banner = proc.stdout + proc.stderr
    except (OSError, subprocess.TimeoutExpired):
        banner = ""
    return f"{resolved}\n{banner}".encode()


#: Memoised :func:`compiler_info` result — probing the compiler runs a
#: subprocess, and provenance stamping may happen once per recorded run.
_compiler_info_cache: dict | None = None
_compiler_info_probed = False


def compiler_info() -> dict | None:
    """The resolved compiler identity, for provenance records.

    The same ingredients :func:`_build_stamp` folds into the native
    artifact hash — the resolved compiler path and the first line of
    its ``--version`` banner — exposed as a plain dict so result
    records (:mod:`repro.resultdb.provenance`) can stamp runs without
    re-deriving them.  Returns ``None`` when no C compiler is found;
    the probe is memoised for the life of the process.
    """
    global _compiler_info_cache, _compiler_info_probed
    if _compiler_info_probed:
        return _compiler_info_cache
    compiler = _resolve_compiler()
    if compiler is not None:
        identity = _compiler_identity(compiler).decode(errors="replace")
        resolved, _, banner = identity.partition("\n")
        banner_lines = [line for line in banner.splitlines() if line.strip()]
        _compiler_info_cache = {
            "path": resolved,
            "banner": banner_lines[0].strip() if banner_lines else "",
        }
    _compiler_info_probed = True
    return _compiler_info_cache


def _numpy_random_lib() -> Path:
    """numpy's bundled static ``npyrandom`` library (may not exist)."""
    import numpy as np

    return Path(np.__file__).resolve().parent / "random" / "lib" / "libnpyrandom.a"


def _build_stamp(compiler: str) -> str:
    """Content hash naming the built artifact.

    Covers the C source, the interpreter ABI, the compiler identity,
    the numpy version and the linked ``libnpyrandom.a``, so changing
    any of them builds (and loads) a fresh ``.so`` instead of reusing
    one produced by different codegen or a different jitter stream.
    """
    import numpy as np

    lib = _numpy_random_lib()
    lib_bytes = lib.read_bytes() if lib.is_file() else b""
    payload = (
        _SOURCE.read_bytes()
        + sysconfig.get_python_version().encode()
        + _compiler_identity(compiler)
        + np.__version__.encode()
        + hashlib.sha1(lib_bytes).digest()
    )
    return hashlib.sha1(payload).hexdigest()[:16]


def _compile(so_path: Path, compiler: str) -> bool:
    """Compile ``_hotpath.c`` into ``so_path``; False when impossible."""
    import numpy as np

    lib = _numpy_random_lib()
    if not lib.is_file():
        logger.warning(
            "hotpath: numpy's random library %s is missing; "
            "using the Python path",
            lib,
        )
        return False
    include = sysconfig.get_paths()["include"]
    so_path.parent.mkdir(parents=True, exist_ok=True)
    tmp = so_path.with_suffix(f".{os.getpid()}.tmp.so")
    cmd = [
        compiler,
        "-O2",
        "-fPIC",
        "-shared",
        "-ffp-contract=off",
        f"-I{include}",
        f"-I{np.get_include()}",
        str(_SOURCE),
        "-o",
        str(tmp),
        str(lib),
        "-lm",
    ]
    try:
        proc = subprocess.run(
            cmd, capture_output=True, text=True, timeout=120, check=False
        )
    except (OSError, subprocess.TimeoutExpired) as exc:
        logger.warning("hotpath: compile failed to run (%s)", exc)
        return False
    if proc.returncode != 0:
        logger.warning(
            "hotpath: compile failed; using the Python path\n%s", proc.stderr
        )
        try:
            tmp.unlink()
        except OSError:
            pass
        return False
    os.replace(tmp, so_path)
    return True


def native_jitter_args(jitter) -> tuple | None:
    """Marshal a stock jitter model for the C hot loop's own draws.

    Returns ``(capsule, sigma_ns, clip, block)`` for an exact
    :class:`~repro.clocks.jitter.GaussianJitter` — the C loop then
    draws each block from the jitter's bit generator with numpy's
    ``random_normal``, byte-identical to ``GaussianJitter._refill`` —
    or None when the model must stay on the per-block ``refill``
    Python callback (a subclass or any other jitter model).
    """
    from repro.clocks.jitter import GaussianJitter

    if type(jitter) is not GaussianJitter:
        return None
    return (
        jitter._rng.bit_generator.capsule,
        float(jitter.sigma_ns),
        float(jitter._clip),
        int(jitter._block),
    )


def native_controller_args(controller, mcd_config, frequency_scale) -> dict | None:
    """Marshal a stock Attack/Decay controller for the C hot loop.

    Returns the argument-dict fragment ``run_compiled`` consumes to run
    the closed-loop control policy natively (zero per-interval Python
    crossings), or None when the controller must stay on the Python
    callback path (custom controller, no ``native_spec``, unsound
    state).  The per-domain output buffers in the fragment are filled
    by the C loop and folded back by :func:`fold_native_controller`.
    """
    spec_fn = getattr(controller, "native_spec", None)
    if spec_fn is None:
        return None
    spec = spec_fn()
    if spec is None:
        return None
    import numpy as np

    # The shared scale's table is already a read-only contiguous float64
    # array (np.linspace), which the C loop reads in place.
    table = frequency_scale.frequencies_mhz
    return {
        "native_ctrl": 1,
        # Listing-1 operating point (fractions, not percent).
        "ad_dev": float(spec["deviation_threshold"]),
        "ad_reaction": float(spec["reaction_change"]),
        "ad_decay": float(spec["decay"]),
        "ad_perf_deg": float(spec["perf_deg_threshold"]),
        "ad_alpha": float(spec["smoothing_alpha"]),
        "ad_endstop": int(spec["endstop_intervals"]),
        "ad_literal": int(spec["literal_listing"]),
        # Controller registers (in/out).
        "ad_ctrl": np.array(spec["controlled"], dtype=np.int64),
        "ad_freq": np.array(spec["frequency_mhz"], dtype=np.float64),
        "ad_prev_util": np.zeros(4),
        "ad_upper": np.zeros(4, dtype=np.int64),
        "ad_lower": np.zeros(4, dtype=np.int64),
        "ad_attacks_up": np.zeros(4, dtype=np.int64),
        "ad_attacks_down": np.zeros(4, dtype=np.int64),
        "ad_decays": np.zeros(4, dtype=np.int64),
        "ad_holds": np.zeros(4, dtype=np.int64),
        "ad_ipc": np.array([spec["prev_ipc"], spec["smoothed_ipc"]]),
        # Regulator request quantisation (the 320-point scale) + stats.
        "freq_table": table,
        "freq_points": len(table),
        "freq_step": float(mcd_config.frequency_step_mhz),
        "cfg_min_mhz": float(mcd_config.min_frequency_mhz),
        "cfg_max_mhz": float(mcd_config.max_frequency_mhz),
        "reg_requests": np.zeros(4, dtype=np.int64),
        "reg_dirchg": np.zeros(4, dtype=np.int64),
    }


def fold_native_controller(controller, regulators, args: dict) -> None:
    """Fold the C loop's controller/regulator registers back out.

    Leaves ``controller.states`` (including the per-domain diagnostics
    counters) and the regulators' request statistics exactly as the
    Python execution paths would, so post-run inspection cannot tell
    which path ran.
    """
    ad_ipc = args["ad_ipc"]
    controller.absorb_native_state(
        prev_ipc=float(ad_ipc[0]),
        smoothed_ipc=float(ad_ipc[1]),
        frequency_mhz=args["ad_freq"],
        prev_queue_utilization=args["ad_prev_util"],
        upper_endstop=args["ad_upper"],
        lower_endstop=args["ad_lower"],
        attacks_up=args["ad_attacks_up"],
        attacks_down=args["ad_attacks_down"],
        decays=args["ad_decays"],
        holds=args["ad_holds"],
    )
    requests = args["reg_requests"]
    dirchg = args["reg_dirchg"]
    for i, regulator in enumerate(regulators):
        regulator.stats.requests += int(requests[i])
        regulator.stats.direction_changes += int(dirchg[i])


def load_hotpath():
    """The ``_hotpath`` extension module, or None when unavailable.

    The first call may compile the extension; the result (including
    failure) is cached for the life of the process.  Safe to call from
    any thread — the first loader holds a lock, later callers (and
    later threads) hit the cached module without taking it.
    """
    global _cached, _attempted
    if _attempted:
        return _cached
    with _load_lock:
        if _attempted:
            return _cached
        if not native_enabled():
            _attempted = True
            return None
        try:
            compiler = _resolve_compiler()
            if compiler is None:
                logger.info(
                    "hotpath: no C compiler found; using the Python path"
                )
            else:
                so_path = _BUILD_DIR / f"_hotpath-{_build_stamp(compiler)}.so"
                if so_path.exists() or _compile(so_path, compiler):
                    loader = importlib.machinery.ExtensionFileLoader(
                        "_hotpath", str(so_path)
                    )
                    spec = importlib.util.spec_from_loader("_hotpath", loader)
                    module = importlib.util.module_from_spec(spec)
                    loader.exec_module(module)
                    _cached = module
        except Exception as exc:  # noqa: BLE001 - any failure means fallback
            logger.warning(
                "hotpath: load failed (%s); using the Python path", exc
            )
            _cached = None
        _attempted = True
    return _cached
