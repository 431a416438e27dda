"""Continuous profiling: a zero-dependency thread-based stack sampler.

Traces and events attribute time to *instrumented* seams; the sampler
answers the complementary question — where does the interpreter actually
spend its time *between* those seams — without adding a dependency or
touching the measured code.  A daemon thread wakes ``hz`` times a second,
snapshots every other thread's Python stack via
:func:`sys._current_frames`, and counts identical stacks.

The export is Brendan Gregg's **collapsed-stack** format — one line per
unique stack, root-first frames joined by ``;``, then a space and the
sample count::

    main.py:main;cli.py:_cmd_profile;engine.py:all_pairs 42

which every flamegraph renderer (flamegraph.pl, speedscope, inferno)
consumes directly.  Like the event stream, output is **per-pid shards**
(``profile-<pid>.collapsed``) in one directory: pool workers arm their own
samplers from the inherited ``REPRO_SAMPLER`` environment (both ``fork``
and ``spawn``, because :mod:`repro.obs` imports this module) and write
their own shards at exit, which :func:`read_profile` merges.

Overhead at the default 97 Hz is a fraction of a percent for
numpy-dominated workloads (the sampled threads never block).  The sampler
thread accumulates its own CPU time (``cpu_s``, from
:func:`time.thread_time`), so the cost is measured directly rather than as
a wall-clock A/B difference; ``scripts/bench_smoke.py`` reports it as a
fraction of the armed wall time (< 5%) and CI gates it.
"""

from __future__ import annotations

import atexit
import os
import sys
import threading
import time
from pathlib import Path

from . import metrics as _metrics

__all__ = [
    "DEFAULT_HZ",
    "DEFAULT_PROFILE_DIR",
    "StackSampler",
    "sampling_to",
    "active_sampler",
    "parse_collapsed",
    "read_profile",
    "top_stacks",
]

#: Default sampling rate.  A prime, so the sampler cannot phase-lock with
#: periodic work (the classic 100 Hz vs 100 Hz-timer aliasing trap).
DEFAULT_HZ = 97

#: Directory used when ``REPRO_SAMPLER`` is a bare flag rather than a path.
DEFAULT_PROFILE_DIR = "repro-profile"

#: Stack-depth backstop: deeper stacks are truncated at the root end.
MAX_DEPTH = 128

_FALSY = {"", "0", "false", "no", "off"}
_FLAGGY = {"1", "true", "yes", "on"}

_C_SAMPLES = _metrics.counter("sampler.samples")
_C_ERRORS = _metrics.counter("sampler.errors")


def _frame_name(frame) -> str:
    """Render one frame as ``basename.py:qualname``, collapse-safe."""
    code = frame.f_code
    fn = os.path.basename(code.co_filename)
    qual = getattr(code, "co_qualname", code.co_name)
    # ``;`` separates frames and ``" "`` separates stack from count in the
    # collapsed format — neither may appear inside a frame name.
    return f"{fn}:{qual}".replace(";", ",").replace(" ", "_")


class StackSampler:
    """Samples every thread's Python stack at ``hz`` from a daemon thread."""

    def __init__(self, hz: float = DEFAULT_HZ) -> None:
        if not hz > 0:
            raise ValueError(f"sampler hz must be > 0, got {hz}")
        self.hz = float(hz)
        self.counts: dict[tuple[str, ...], int] = {}
        self.samples = 0
        self.errors = 0
        self.cpu_s = 0.0  # CPU seconds spent by the sampler thread itself
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._lock = threading.Lock()

    # -- lifecycle ----------------------------------------------------- #

    def start(self) -> "StackSampler":
        if self._thread is not None:
            raise RuntimeError("sampler already started")
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="repro-sampler", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        if self._thread is None:
            return
        self._stop.set()
        self._thread.join(timeout=2.0)
        self._thread = None

    def _run(self) -> None:
        interval = 1.0 / self.hz
        me = threading.get_ident()
        start = time.thread_time()
        while not self._stop.wait(interval):
            self.cpu_s = time.thread_time() - start
            try:
                frames = sys._current_frames()
            except Exception:
                self.errors += 1
                _C_ERRORS.inc()
                continue
            for tid, frame in frames.items():
                if tid == me:
                    continue
                stack: list[str] = []
                depth = 0
                while frame is not None and depth < MAX_DEPTH:
                    stack.append(_frame_name(frame))
                    frame = frame.f_back
                    depth += 1
                if not stack:
                    continue
                stack.reverse()  # collapsed format is root-first
                key = tuple(stack)
                with self._lock:
                    self.counts[key] = self.counts.get(key, 0) + 1
                    self.samples += 1
                _C_SAMPLES.inc()
        self.cpu_s = time.thread_time() - start

    # -- export -------------------------------------------------------- #

    def collapsed(self) -> str:
        """The counted stacks in collapsed (flamegraph) format."""
        with self._lock:
            items = sorted(self.counts.items())
        return "".join(f"{';'.join(stack)} {n}\n" for stack, n in items)

    def write(self, dir_path) -> Path:
        """Write this process's shard: ``<dir>/profile-<pid>.collapsed``."""
        d = Path(dir_path)
        d.mkdir(parents=True, exist_ok=True)
        path = d / f"profile-{os.getpid()}.collapsed"
        path.write_text(self.collapsed())
        return path


# --------------------------------------------------------------------- #
# Ambient sampler (REPRO_SAMPLER), mirroring the event-sink discipline.

_sampler: StackSampler | None = None
_sampler_dir: str | None = None


def active_sampler() -> StackSampler | None:
    """The ambient sampler, or ``None`` when profiling is off."""
    return _sampler


def _resolve_dir(val: str) -> str | None:
    """Map a ``REPRO_SAMPLER`` value to a profile directory (or None)."""
    val = val.strip()
    if val.lower() in _FALSY:
        return None
    if val.lower() in _FLAGGY:
        return DEFAULT_PROFILE_DIR
    return val


def _resolve_hz() -> float:
    try:
        return float(os.environ.get("REPRO_SAMPLER_HZ", DEFAULT_HZ))
    except ValueError:
        return float(DEFAULT_HZ)


class sampling_to:
    """Run a ``with`` block under a stack sampler writing into ``dir_path``.

    Exports ``REPRO_SAMPLER`` / ``REPRO_SAMPLER_HZ`` for the duration so
    pool workers (fork *and* spawn — :mod:`repro.obs` imports this module,
    arming :func:`_install_from_env` in every child) profile themselves
    into per-pid shards of the same directory.  The parent shard is
    written on exit.
    """

    def __init__(self, dir_path, hz: float = DEFAULT_HZ) -> None:
        self.dir = Path(dir_path)
        self.sampler = StackSampler(hz)
        self._prev: StackSampler | None = None
        self._prev_env: tuple[str | None, str | None] | None = None

    def __enter__(self) -> StackSampler:
        global _sampler
        self._prev = _sampler
        self._prev_env = (
            os.environ.get("REPRO_SAMPLER"),
            os.environ.get("REPRO_SAMPLER_HZ"),
        )
        os.environ["REPRO_SAMPLER"] = str(self.dir)
        os.environ["REPRO_SAMPLER_HZ"] = repr(self.sampler.hz)
        _sampler = self.sampler.start()
        return self.sampler

    def __exit__(self, exc_type, exc, tb) -> bool:
        global _sampler
        self.sampler.stop()
        self.sampler.write(self.dir)
        _sampler = self._prev
        for name, prev in zip(("REPRO_SAMPLER", "REPRO_SAMPLER_HZ"), self._prev_env):
            if prev is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = prev
        return False


def _write_ambient_shard() -> None:  # pragma: no cover - exercised in workers
    if _sampler is not None and _sampler_dir is not None:
        try:
            _sampler.stop()
            _sampler.write(_sampler_dir)
        except OSError:
            _C_ERRORS.inc()


def _install_from_env() -> None:
    """Arm an ambient sampler when ``REPRO_SAMPLER`` is truthy.

    A bare flag value (``1``/``true``/...) writes shards under
    ``repro-profile/``; anything else is the directory path.  Worker
    processes inherit the variable, so their samplers arm automatically
    under both ``fork`` and ``spawn``; each writes its own per-pid shard
    at interpreter exit.
    """
    global _sampler, _sampler_dir
    d = _resolve_dir(os.environ.get("REPRO_SAMPLER", ""))
    if d is None or _sampler is not None:
        return
    _sampler_dir = d
    _sampler = StackSampler(_resolve_hz()).start()
    atexit.register(_write_ambient_shard)


# --------------------------------------------------------------------- #
# Readers.

def parse_collapsed(text: str) -> dict[tuple[str, ...], int]:
    """Parse collapsed-stack text back into ``{stack_tuple: count}``.

    Raises :class:`ValueError` on malformed lines — CI uses this as the
    "output is actually a flamegraph input" validation.
    """
    counts: dict[tuple[str, ...], int] = {}
    for ln, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        stack_part, sep, count_part = line.rpartition(" ")
        if not sep or not stack_part:
            raise ValueError(f"collapsed line {ln}: no 'stack count' split: {line!r}")
        try:
            n = int(count_part)
        except ValueError as exc:
            raise ValueError(f"collapsed line {ln}: bad count {count_part!r}") from exc
        if n <= 0:
            raise ValueError(f"collapsed line {ln}: count must be positive, got {n}")
        key = tuple(stack_part.split(";"))
        counts[key] = counts.get(key, 0) + n
    return counts


def read_profile(dir_path) -> dict[tuple[str, ...], int]:
    """Merge every ``profile-*.collapsed`` shard of one directory."""
    merged: dict[tuple[str, ...], int] = {}
    d = Path(dir_path)
    if not d.is_dir():
        return merged
    for shard in sorted(d.glob("profile-*.collapsed")):
        try:
            counts = parse_collapsed(shard.read_text())
        except (OSError, ValueError):
            _C_ERRORS.inc()
            continue
        for key, n in counts.items():
            merged[key] = merged.get(key, 0) + n
    return merged


def top_stacks(counts: dict[tuple[str, ...], int], k: int = 10) -> list[tuple[str, int]]:
    """The ``k`` hottest leaf-annotated stacks, heaviest first."""
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return [(";".join(stack), n) for stack, n in ranked[:k]]


_install_from_env()
