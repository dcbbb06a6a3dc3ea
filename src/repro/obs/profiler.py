"""Stdlib-only sampling profiler: where the CPU time actually goes.

A daemon sampler thread walks :func:`sys._current_frames` at a
configurable rate and folds each thread's Python stack into a bounded
collapsed-stack aggregate (Brendan Gregg's folded format:
``role;frame;frame;... count``).  Three tags make the samples
operationally useful rather than a flat heat map:

* **thread role** — threads are classified by name (gateway handlers,
  compaction, load generators, the sampler itself), so a hot loop shows
  up *in the component that owns it*;
* **on-CPU vs blocked** — on Linux each sample diffs per-task CPU
  clocks from ``/proc/self/task/<tid>/stat``; a thread whose CPU clock
  advanced since the previous sample was running, one whose clock
  stalled was blocked (GIL wait, lock, socket, sleep).  Where procfs
  is unavailable a frame-name heuristic stands in;
* **request stage** — samples are paired with the tracer's open-span
  registry (:meth:`~repro.obs.tracing.Tracer.open_spans_by_thread`),
  splitting on-CPU vs blocked time per serving stage (admit, embed,
  index, materialize, ...), which is the question wall-clock spans
  alone cannot answer.

The profiler measures its own cost: every sampling pass is timed and
exposed as ``profiler_overhead_ratio`` plus a per-sample figure in
:meth:`SamplingProfiler.snapshot`, so the observer stays observable.

For incident response, :meth:`SamplingProfiler.capture_window` starts
a *bounded* sampling window (and a timer to stop it) — wired as an
``AlertManager.on_fire`` hook, an SLO page triggers a profile capture
whose aggregate lands in the flight-recorder bundle as
``profile.txt``.

Everything here is stdlib-only and samples *Python* frames: C
extensions (numpy kernels) attribute to the Python line that called
them, which is exactly the granularity the serving code needs.
"""

from __future__ import annotations

import os
import sys
import threading
import time
from typing import Callable

__all__ = ["SamplingProfiler", "classify_thread", "proc_cpu_seconds",
           "parse_collapsed", "top_frames", "render_flame",
           "DEFAULT_HZ"]

DEFAULT_HZ = 61.0        # prime-ish: avoids lockstep with 10ms timers
MAX_STACK_DEPTH = 48

# Thread-name prefix -> role.  First match wins, so the more specific
# gateway-conn prefix precedes the gateway- control threads.
_ROLE_PREFIXES = (
    ("gateway-conn", "gateway_handler"),
    ("gateway-", "gateway_control"),
    ("ingest-compaction", "compaction"),
    ("profiler", "profiler"),
    ("loadgen", "loadgen"),
    ("MainThread", "main"),
)

# Fallback blocked-detection when per-task CPU clocks are unavailable:
# a thread whose innermost Python frame is one of these well-known
# waiting functions is almost certainly off-CPU.
_BLOCKING_CO_NAMES = frozenset({
    "wait", "sleep", "acquire", "select", "poll", "recv", "recv_into",
    "recvfrom", "accept", "read", "readinto", "readline", "join",
    "_wait_for_tstate_lock", "sendall", "getaddrinfo", "settimeout",
})

try:
    _CLK_TCK = float(os.sysconf("SC_CLK_TCK"))
except (AttributeError, ValueError, OSError):  # pragma: no cover
    _CLK_TCK = 100.0


def classify_thread(name: str) -> str:
    """Map a thread name to its serving role (``other`` if unknown)."""
    for prefix, role in _ROLE_PREFIXES:
        if name.startswith(prefix):
            return role
    return "other"


def proc_cpu_seconds(tids=None) -> dict[int, float] | None:
    """Per-task CPU seconds (user+sys) keyed by native thread id.

    Reads ``/proc/self/task/<tid>/stat``; returns ``None`` off Linux
    so callers fall back to the frame heuristic.  The sampler passes
    the native ids of the *Python* threads it is about to attribute,
    skipping BLAS/GC pool threads whose clocks it never reads; with
    ``tids=None`` every task is probed.  Raw ``os.open`` / ``os.read``
    keeps the per-thread cost to two syscalls — this runs once per
    sampling pass, inside the overhead budget.
    """
    task_dir = "/proc/self/task"
    if not os.path.isdir(task_dir):
        return None
    if tids is None:
        try:
            tids = os.listdir(task_dir)
        except OSError:
            return None
    out: dict[int, float] = {}
    for tid in tids:
        try:
            fd = os.open(f"{task_dir}/{tid}/stat", os.O_RDONLY)
            try:
                data = os.read(fd, 512)
            finally:
                os.close(fd)
            # comm (field 2) may contain spaces; split after its ')'.
            rest = data[data.rindex(b")") + 2:].split()
            utime, stime = int(rest[11]), int(rest[12])
            out[int(tid)] = (utime + stime) / _CLK_TCK
        except (OSError, ValueError, IndexError):
            continue
    return out


# frame-name cache keyed by code object: path-splitting every frame of
# every stack at 61 Hz is the sampler's single hottest line without it.
_NAME_CACHE: dict = {}
_NAME_CACHE_MAX = 8192


def _frame_name(frame) -> str:
    code = frame.f_code
    name = _NAME_CACHE.get(code)
    if name is None:
        module = os.path.splitext(
            os.path.basename(code.co_filename))[0]
        name = f"{module}.{code.co_name}"
        if len(_NAME_CACHE) >= _NAME_CACHE_MAX:   # dynamic code churn
            _NAME_CACHE.clear()
        _NAME_CACHE[code] = name
    return name


def _fold(frame, max_depth: int = MAX_STACK_DEPTH) -> list[str]:
    """Innermost frame -> root-first list of ``module.func`` names."""
    names: list[str] = []
    while frame is not None and len(names) < max_depth:
        names.append(_frame_name(frame))
        frame = frame.f_back
    names.reverse()
    return names


def _looks_blocked(frame) -> bool:
    return frame is not None and \
        frame.f_code.co_name in _BLOCKING_CO_NAMES


class SamplingProfiler:
    """Wall/CPU sampling profiler over ``sys._current_frames``.

    Parameters
    ----------
    hz:
        Target sampling rate; the sampler sleeps ``1/hz`` between
        passes and never tries to catch up after falling behind.
    tracer:
        Optional :class:`~repro.obs.tracing.Tracer`; when present each
        sample is attributed to the sampled thread's innermost open
        span, producing the per-stage on-CPU/blocked split.
    registry:
        Optional :class:`~repro.obs.MetricsRegistry` for the
        ``profiler_*`` metric families.
    max_stacks:
        Bound on distinct collapsed stacks retained; further new
        stacks fold into a per-role ``<overflow>`` bucket so memory
        stays bounded under pathological stack churn.
    window_s:
        Default duration of an alert-triggered capture window.
    frames_fn, threads_fn, cpu_probe, clock:
        Injection points for deterministic tests; production uses
        ``sys._current_frames``, ``threading.enumerate``,
        :func:`proc_cpu_seconds` and ``time.monotonic``.
    """

    def __init__(self, hz: float = DEFAULT_HZ, *, tracer=None,
                 registry=None, max_stacks: int = 2048,
                 window_s: float = 10.0,
                 frames_fn: Callable[[], dict] = sys._current_frames,
                 threads_fn: Callable[[], list] = threading.enumerate,
                 cpu_probe: Callable[[list], dict | None] | None
                 = proc_cpu_seconds,
                 clock: Callable[[], float] = time.monotonic):
        self.hz = float(hz)
        self.interval = 1.0 / max(self.hz, 1e-6)
        self.tracer = tracer
        self.max_stacks = int(max_stacks)
        self.window_s = float(window_s)
        self._frames_fn = frames_fn
        self._threads_fn = threads_fn
        self._cpu_probe = cpu_probe
        self._clock = clock
        self._lock = threading.Lock()
        self._thread: threading.Thread | None = None
        self._stop = threading.Event()
        # Aggregates survive stop/start; reset() clears them.  Stacks
        # are keyed by (role, frame, frame, ...) tuples of cached
        # strings — joining into folded lines happens at read time,
        # not 61 times a second on the sampler thread.
        self._stacks: dict[tuple, int] = {}
        self._roles: dict[tuple[str, str], int] = {}
        self._stages: dict[tuple[str, str], int] = {}
        self._samples = 0
        self._dropped = 0
        self._windows = 0
        self._overhead_s = 0.0
        self._active_wall_s = 0.0
        self._started_at: float | None = None
        self._last_cpu: dict[int, float] = {}
        self._window_deadline: float | None = None
        self._window_started = False
        self._own_ident: int | None = None
        # labels() takes the family lock on every call; the sampler
        # hits the same few (role, state) children 61 times a second,
        # so resolve each child once and reuse it.
        self._label_cache: dict[tuple, object] = {}
        self._metrics = None
        if registry is not None:
            self._metrics = {
                "samples": registry.counter(
                    "profiler_samples_total",
                    "profiler samples by thread role and cpu state",
                    labels=("role", "state")),
                "stages": registry.counter(
                    "profiler_stage_samples_total",
                    "profiler samples attributed to open request "
                    "stages", labels=("stage", "state")),
                "overhead": registry.gauge(
                    "profiler_overhead_ratio",
                    "fraction of wall time spent inside the sampler"),
                "stacks": registry.gauge(
                    "profiler_distinct_stacks",
                    "distinct collapsed stacks currently retained"),
                "windows": registry.counter(
                    "profiler_windows_total",
                    "bounded capture windows triggered (alerts)"),
            }

    # -- lifecycle -----------------------------------------------------
    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def set_hz(self, hz: float) -> None:
        """Change the sampling rate (takes effect next interval)."""
        self.hz = float(hz)
        self.interval = 1.0 / max(self.hz, 1e-6)

    def start(self) -> bool:
        """Start the sampler thread; ``True`` if newly started."""
        with self._lock:
            if self.running:
                return False
            self._stop.clear()
            self._started_at = self._clock()
            self._thread = threading.Thread(
                target=self._loop, name="profiler-sampler", daemon=True)
            self._thread.start()
            return True

    def stop(self) -> bool:
        """Stop and join the sampler; ``True`` if it was running."""
        with self._lock:
            thread = self._thread
            if thread is None:
                return False
            self._stop.set()
            self._thread = None
            if self._started_at is not None:
                self._active_wall_s += max(
                    self._clock() - self._started_at, 0.0)
                self._started_at = None
        if thread.is_alive() and \
                thread is not threading.current_thread():
            thread.join(timeout=2.0)
        return True

    def reset(self) -> None:
        """Clear every aggregate (counts, stacks, overhead)."""
        with self._lock:
            self._stacks.clear()
            self._roles.clear()
            self._stages.clear()
            self._samples = 0
            self._dropped = 0
            self._overhead_s = 0.0
            self._active_wall_s = 0.0
            if self._started_at is not None:
                self._started_at = self._clock()
            self._last_cpu.clear()

    def _loop(self) -> None:
        self._own_ident = threading.get_ident()
        next_at = time.monotonic()
        while not self._stop.is_set():
            self.sample_once()
            next_at += self.interval
            delay = next_at - time.monotonic()
            if delay <= 0:
                next_at = time.monotonic()  # fell behind; no bursts
                continue
            self._stop.wait(delay)

    # -- one sampling pass ---------------------------------------------
    def sample_once(self) -> None:
        """Take one sample of every thread (callable directly in
        tests — the sampler thread just calls this in a loop)."""
        t0 = time.perf_counter()
        frames = self._frames_fn()
        threads = {t.ident: t for t in self._threads_fn()}
        cpu = None
        if self._cpu_probe is not None:
            native = [t.native_id for t in threads.values()
                      if getattr(t, "native_id", None) is not None]
            cpu = self._cpu_probe(native)
        open_spans = (self.tracer.open_spans_by_thread()
                      if self.tracer is not None else {})
        with self._lock:
            self._samples += 1
            for ident, frame in frames.items():
                thread = threads.get(ident)
                name = thread.name if thread is not None \
                    else f"thread-{ident}"
                role = ("profiler" if ident == self._own_ident
                        else classify_thread(name))
                state = self._thread_state(thread, frame, cpu)
                self._roles[(role, state)] = \
                    self._roles.get((role, state), 0) + 1
                if self._metrics is not None:
                    self._labeled("samples", role=role,
                                  state=state).inc()
                if role == "profiler":
                    continue     # own stack is pure overhead noise
                span = open_spans.get(ident)
                if span is not None:
                    key = (span.name, state)
                    self._stages[key] = self._stages.get(key, 0) + 1
                    if self._metrics is not None:
                        self._labeled("stages", stage=span.name,
                                      state=state).inc()
                self._record_stack(role, frame)
            if cpu is not None:
                self._last_cpu = cpu
            self._overhead_s += time.perf_counter() - t0
            if self._metrics is not None:
                self._metrics["overhead"].set(self._overhead_fraction())
                self._metrics["stacks"].set(len(self._stacks))

    def _labeled(self, family: str, **labels):
        key = (family,) + tuple(sorted(labels.items()))
        child = self._label_cache.get(key)
        if child is None:
            child = self._metrics[family].labels(**labels)
            self._label_cache[key] = child
        return child

    def _thread_state(self, thread, frame, cpu: dict | None) -> str:
        """``cpu`` or ``blocked`` for one sampled thread."""
        native = getattr(thread, "native_id", None)
        if cpu is not None and native is not None and native in cpu:
            last = self._last_cpu.get(native)
            if last is not None:
                return "cpu" if cpu[native] > last else "blocked"
        return "blocked" if _looks_blocked(frame) else "cpu"

    def _record_stack(self, role: str, frame) -> None:
        key = (role, *_fold(frame))
        if key not in self._stacks and \
                len(self._stacks) >= self.max_stacks:
            key = (role, "<overflow>")
            self._dropped += 1
        self._stacks[key] = self._stacks.get(key, 0) + 1

    # -- capture windows ------------------------------------------------
    def capture_window(self, duration_s: float | None = None) -> bool:
        """Sample for a bounded window; ``True`` if this call started
        the sampler (an already-running profiler just keeps going —
        the window then only extends bookkeeping, never stops it)."""
        duration = float(duration_s if duration_s is not None
                         else self.window_s)
        deadline = time.monotonic() + duration
        with self._lock:
            self._windows += 1
            if self._metrics is not None:
                self._metrics["windows"].inc()
            self._window_deadline = max(self._window_deadline or 0.0,
                                        deadline)
        started = self.start()
        if started:
            self._window_started = True
        timer = threading.Timer(duration + 0.05,
                                self._maybe_close_window)
        timer.daemon = True
        timer.start()
        return started

    def _maybe_close_window(self) -> None:
        with self._lock:
            deadline = self._window_deadline
            window_started = self._window_started
        if not window_started or deadline is None:
            return
        if time.monotonic() >= deadline:
            self._window_started = False
            self._window_deadline = None
            self.stop()

    def on_alert(self, alert) -> None:
        """``AlertManager.on_fire`` hook: page -> bounded profile."""
        self.capture_window()

    # -- inspection ------------------------------------------------------
    def _overhead_fraction(self) -> float:
        wall = self._active_wall_s
        if self._started_at is not None:
            wall += max(self._clock() - self._started_at, 0.0)
        if wall <= 0.0:
            return 0.0
        return min(self._overhead_s / wall, 1.0)

    def collapsed(self, max_lines: int | None = None) -> list[str]:
        """Aggregate as Brendan Gregg folded lines, hottest first."""
        with self._lock:
            items = sorted(self._stacks.items(),
                           key=lambda kv: (-kv[1], kv[0]))
        if max_lines is not None:
            items = items[:max_lines]
        return [f"{';'.join(key)} {count}" for key, count in items]

    def top(self, n: int = 15) -> list[dict]:
        """Hottest leaf frames by self samples."""
        return top_frames(self.collapsed(), n)

    def snapshot(self) -> dict:
        """JSON-ready summary of everything the sampler knows."""
        with self._lock:
            samples = self._samples
            overhead = self._overhead_s
            fraction = self._overhead_fraction()
            roles: dict[str, dict[str, int]] = {}
            for (role, state), count in sorted(self._roles.items()):
                roles.setdefault(role, {})[state] = count
            stages: dict[str, dict[str, int]] = {}
            for (stage, state), count in sorted(self._stages.items()):
                stages.setdefault(stage, {})[state] = count
            distinct = len(self._stacks)
            dropped = self._dropped
            windows = self._windows
        return {
            "running": self.running,
            "hz": self.hz,
            "samples": samples,
            "distinct_stacks": distinct,
            "dropped_stacks": dropped,
            "windows": windows,
            "roles": roles,
            "stages": stages,
            "self_overhead": {
                "seconds": overhead,
                "fraction": fraction,
                "per_sample_us": (overhead / samples * 1e6
                                  if samples else 0.0),
            },
            "top": self.top(10),
        }


# -- collapsed-profile post-processing (shared with the CLI) -----------

def parse_collapsed(lines) -> list[tuple[list[str], int]]:
    """Parse folded lines into ``(frames, count)`` pairs."""
    out: list[tuple[list[str], int]] = []
    for line in lines:
        line = line.strip()
        if not line:
            continue
        stack, _, count = line.rpartition(" ")
        try:
            out.append((stack.split(";"), int(count)))
        except ValueError:
            continue
    return out


def top_frames(lines, n: int = 15) -> list[dict]:
    """Hottest leaf frames (self samples) from folded lines."""
    total = 0
    leaves: dict[str, int] = {}
    for frames, count in parse_collapsed(lines):
        total += count
        leaf = frames[-1] if frames else "?"
        leaves[leaf] = leaves.get(leaf, 0) + count
    ranked = sorted(leaves.items(), key=lambda kv: (-kv[1], kv[0]))[:n]
    return [{"frame": frame, "samples": count,
             "share": count / total if total else 0.0}
            for frame, count in ranked]


def render_flame(lines, width: int = 80, min_share: float = 0.01
                 ) -> str:
    """ASCII flame tree from folded lines: indentation is depth, the
    bar length is the subtree's share of all samples."""
    root: dict = {}
    total = 0
    for frames, count in parse_collapsed(lines):
        total += count
        node = root
        for frame in frames:
            entry = node.setdefault(frame, {"count": 0, "children": {}})
            entry["count"] += count
            node = entry["children"]
    if not total:
        return "(no samples)"
    out: list[str] = [f"total samples: {total}"]
    bar_width = max(width - 50, 10)

    def walk(children: dict, depth: int) -> None:
        ranked = sorted(children.items(),
                        key=lambda kv: (-kv[1]["count"], kv[0]))
        for frame, entry in ranked:
            share = entry["count"] / total
            if share < min_share:
                continue
            bar = "#" * max(int(share * bar_width), 1)
            label = ("  " * depth + frame)[:48]
            out.append(f"{label:<48} {entry['count']:>7} "
                       f"{share * 100:5.1f}% {bar}")
            walk(entry["children"], depth + 1)

    walk(root, 0)
    return "\n".join(out)
