"""Deterministic chaos plans: seed-driven fault schedules for whole runs.

PR 1 introduced one-shot fault helpers (:mod:`repro.runtime.faults`) that
tests armed ad hoc — an environment variable here, a wrapped callable
there.  This module replaces that with a single **plan object**: a
:class:`ChaosPlan` is an ordered list of :class:`FaultSpec`\\ s, each
naming an *injection point* from the fixed catalog below, and the runtime
components ask the plan whether to fire every time execution crosses a
point.  Because the plan is (a) generated from a seed and (b) journalled
to disk next to the run's checkpoint, a chaos run is **replayable** (same
seed, same faults) and **resumable** (fired faults are claimed through
on-disk tickets shared across processes and restarts, so a resumed run
does not re-suffer faults that already fired).

Injection-point catalog (``point`` → modes):

================== ============================ ===========================
point              fired from                   modes
================== ============================ ===========================
``cache.load``     :meth:`TraceCache.load`      ``corrupt`` (flip a byte of
                                                the cached file pre-read)
``cache.store``    :meth:`TraceCache.store`     ``disk_full`` (ENOSPC before
                                                the write)
``cache.store.torn`` after a cache store        ``corrupt`` (torn write: flip
                                                a byte of the stored file)
``journal.append`` checkpoint journal append    ``io_error`` (EIO)
``telemetry.write`` trace-log sink write        ``io_error`` (EIO)
``worker.unit``    parallel worker, per unit    ``crash`` (SIGKILL), ``hang``
                                                (sleep), ``error`` (raise)
``simulate``       :func:`repro.sim.engine.simulate` ``error`` (raise)
``service.accept`` server connection read path  ``io_error`` (EIO)
``service.shard_exit`` service shard, per batch ``crash`` (SIGKILL)
``service.slow_shard`` service shard, per batch ``hang`` (sleep)
``tenant.churn``   service shard, per batch     ``evict`` (park tenant state)
``service.metrics_stream`` metrics-stream append ``io_error`` (EIO)
``service.compact`` shard checkpoint+compaction ``crash`` (SIGKILL after
                                                step ``arg`` of the
                                                compaction sequence)
``service.checkpoint`` checkpoint load (recovery) ``corrupt`` (flip a byte
                                                of the checkpoint pre-read)
================== ============================ ===========================

Faults raising :class:`~repro.errors.FaultInjectedError` are
transient (retryable under the parallel pool's requeue budget);
``disk_full`` / ``io_error`` raise :class:`OSError` and exercise
the graceful-degradation ladder (cache → in-memory, journal → off,
telemetry → off) documented in DESIGN.md §3.9.

The active plan is process-global (``install``/``active``), mirroring how
a real fault domain is ambient rather than threaded through every call;
parallel workers re-install the plan from its journalled file so ticket
claims stay shared across the whole process tree.
"""

from __future__ import annotations

import errno
import json
import os
import random
import signal
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from ..errors import FaultInjectedError
from .faults import corrupt_file

PathLike = Union[str, Path]

#: JSON schema identifier of a journalled chaos plan.
PLAN_SCHEMA = "repro-chaos-plan/1"

#: point name -> modes valid at that point.
INJECTION_POINTS: Dict[str, Tuple[str, ...]] = {
    "cache.load": ("corrupt",),
    "cache.store": ("disk_full",),
    "cache.store.torn": ("corrupt",),
    "journal.append": ("io_error",),
    "telemetry.write": ("io_error",),
    "worker.unit": ("crash", "hang", "error"),
    "simulate": ("error",),
    # -- prediction-service points (repro serve; DESIGN.md §3.10) --------
    "service.accept": ("io_error",),       # EIO on the connection accept/read path
    "service.shard_exit": ("crash",),      # shard process SIGKILLs mid-batch
    "service.slow_shard": ("hang",),       # shard stalls before a batch
    "tenant.churn": ("evict",),            # force-evict (park) tenant state
    # EIO on a metrics-stream append: the server must detach the stream
    # (metrics_stream_off degradation), never die.  Catalog-only — not in
    # SERVICE_POINTS: the stream is an observability side channel, not a
    # state-carrying artifact, so soaks opt in explicitly.
    "service.metrics_stream": ("io_error",),
    # -- checkpoint/compaction points (DESIGN.md §3.14) -------------------
    # SIGKILL after step `arg` (0..4) of the compaction sequence: the
    # respawned shard must recover bit-identically from whichever side
    # of the crash the checkpoint/journal renames landed on.
    "service.compact": ("crash",),
    # Flip a byte of a checkpoint before recovery reads it: CRC/digest
    # validation must quarantine it and salvage (checkpoint_fallback).
    "service.checkpoint": ("corrupt",),
}

#: The batch-CLI subset of the catalog: what :meth:`ChaosPlan.generate`
#: draws from by default, so fixed soak seeds keep producing the same
#: plans they did before the service points existed.
CORE_POINTS: Tuple[str, ...] = (
    "cache.load",
    "cache.store",
    "cache.store.torn",
    "journal.append",
    "telemetry.write",
    "worker.unit",
    "simulate",
)

#: The serving subset: what `repro serve --chaos-seed` draws from.  The
#: journal/telemetry write points are shared — shard journals and the
#: server trace log degrade the same way the batch runtime's do.
SERVICE_POINTS: Tuple[str, ...] = (
    "service.accept",
    "service.shard_exit",
    "service.slow_shard",
    "service.compact",
    "service.checkpoint",
    "tenant.churn",
    "journal.append",
    "telemetry.write",
)

#: Telemetry event names announcing a graceful-degradation transition.
DEGRADATION_EVENTS = (
    "cache_fallback",    # disk-full cache store -> in-memory cache
    "serial_fallback",   # respawn budget exhausted -> runner's serial path
    "checkpoint_off",    # journal append failed -> checkpointing disabled
    "telemetry_off",     # trace-log sink failed -> in-memory aggregates only
)

#: Degradations only a serving run survives (``repro serve`` manifests).
SERVICE_DEGRADATIONS = (
    "shard_respawn", "shard_failed", "service_journal_off",
    "snapshot_missing", "metrics_stream_off", "checkpoint_fallback",
)


def check_degradations(counts: object) -> None:
    """``ValueError`` unless ``counts`` maps known degradations to counts >= 1."""
    if not isinstance(counts, dict):
        raise ValueError(f"degradations {counts!r} are not an object")
    for name, count in counts.items():
        if name not in DEGRADATION_EVENTS + SERVICE_DEGRADATIONS:
            raise ValueError(f"unknown degradation {name!r}")
        if not isinstance(count, int) or count < 1:
            raise ValueError(f"degradation {name!r} counted {count!r}")


#: Modes that need a file path operand to act on.
_PATH_MODES = frozenset({"corrupt"})


def fire_once(flag_path: PathLike) -> bool:
    """Atomically claim a one-shot fault ticket (``O_CREAT | O_EXCL``).

    ``True`` exactly once per path across any number of processes, which
    is what lets an injected worker crash fire on the first attempt and
    let the requeued attempt succeed.
    """
    try:
        fd = os.open(str(flag_path), os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return False
    os.close(fd)
    return True


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled fault: fire ``times`` times at ``point``.

    Attributes:
        point: injection-point name (a key of :data:`INJECTION_POINTS`).
        mode: what happens when the fault fires (point-specific).
        match: only fire when this substring occurs in the call's label
            (benchmark name, unit label, ...); empty matches everything.
        times: how many distinct crossings of the point fire (claimed
            through tickets, so the count holds across processes and
            resumes).
        arg: mode operand — byte offset for ``corrupt``, sleep seconds
            for ``hang``; ``None`` picks a mode default.
    """

    point: str
    mode: str
    match: str = ""
    times: int = 1
    arg: Optional[float] = None

    def __post_init__(self) -> None:
        modes = INJECTION_POINTS.get(self.point)
        if modes is None:
            raise ValueError(
                f"unknown injection point {self.point!r} "
                f"(catalog: {sorted(INJECTION_POINTS)})"
            )
        if self.mode not in modes:
            raise ValueError(
                f"mode {self.mode!r} invalid at {self.point!r} "
                f"(valid: {modes})"
            )
        if not isinstance(self.match, str):
            raise ValueError(
                f"match must be a string (substring filter), "
                f"got {self.match!r}"
            )
        if self.times < 1:
            raise ValueError(f"times must be >= 1, got {self.times}")

    def to_dict(self) -> dict:
        return {
            "point": self.point,
            "mode": self.mode,
            "match": self.match,
            "times": self.times,
            "arg": self.arg,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FaultSpec":
        return cls(
            point=data["point"],
            mode=data["mode"],
            match=data.get("match") or "",
            times=int(data.get("times", 1)),
            arg=data.get("arg"),
        )


class ChaosPlan:
    """A deterministic schedule of faults for one run.

    Fired state lives in per-fault *tickets*: fault ``i`` firing for the
    ``j``-th time claims ticket ``i.j``.  With a journalled plan
    (:meth:`save` / :meth:`load`) tickets are ``O_CREAT|O_EXCL`` files in
    a sibling ``<plan>.tickets/`` directory — atomic across any number of
    worker processes and resumed runs; an in-memory plan (no
    ``save``) keeps a process-local set instead.
    """

    def __init__(
        self,
        faults: Sequence[FaultSpec] = (),
        seed: Optional[int] = None,
    ) -> None:
        self.faults: Tuple[FaultSpec, ...] = tuple(faults)
        self.seed = seed
        self.path: Optional[Path] = None
        self.state_dir: Optional[Path] = None
        self._fired: Set[str] = set()

    # -- generation ----------------------------------------------------------

    @classmethod
    def generate(
        cls,
        seed: int,
        benchmarks: Sequence[str] = (),
        min_faults: int = 2,
        max_faults: int = 4,
        points: Optional[Sequence[str]] = None,
    ) -> "ChaosPlan":
        """A reproducible plan: same seed, same faults, every time.

        Draws ``min_faults..max_faults`` specs over ``points`` (default:
        :data:`CORE_POINTS`, the batch-CLI catalog — callers soaking the
        serving path pass :data:`SERVICE_POINTS`).  Generated faults are
        sized to be *survivable*: hangs sleep at most 2 s (bounded delay
        even with no watchdog), crashes fire at most twice (under the
        parallel requeue / shard respawn budgets), and every corruption /
        degradation mode is recoverable by construction.
        """
        rng = random.Random(seed)
        selected = tuple(points) if points is not None else CORE_POINTS
        for point in selected:
            if point not in INJECTION_POINTS:
                raise ValueError(
                    f"unknown injection point {point!r} "
                    f"(catalog: {sorted(INJECTION_POINTS)})"
                )
        menu: List[Tuple[str, str]] = [
            (point, mode)
            for point in sorted(selected)
            for mode in INJECTION_POINTS[point]
        ]
        count = rng.randint(min_faults, max_faults)
        faults = []
        for _ in range(count):
            point, mode = rng.choice(menu)
            match = rng.choice(list(benchmarks) + [""]) if benchmarks else ""
            times = rng.randint(1, 2)
            arg: Optional[float] = None
            if mode == "hang":
                arg = round(rng.uniform(0.2, 2.0), 3)
            elif point == "service.compact":
                # crash_after_step: which completed compaction step the
                # SIGKILL lands after (see shard.COMPACTION_STEPS).
                arg = rng.randint(0, 4)
            faults.append(FaultSpec(point, mode, match=match, times=times,
                                    arg=arg))
        return cls(faults, seed=seed)

    # -- persistence ---------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "schema": PLAN_SCHEMA,
            "seed": self.seed,
            "faults": [fault.to_dict() for fault in self.faults],
        }

    def save(self, path: PathLike) -> Path:
        """Journal the plan to ``path`` and switch to on-disk tickets."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.to_dict(), indent=2, sort_keys=True)
                        + "\n")
        self.path = path
        self.state_dir = path.with_suffix(".tickets")
        self.state_dir.mkdir(exist_ok=True)
        return path

    @classmethod
    def read(cls, path: PathLike) -> "ChaosPlan":
        """Parse and check a journalled plan without arming its tickets."""
        data = json.loads(Path(path).read_text())
        if data.get("schema") != PLAN_SCHEMA:
            raise ValueError(
                f"{path}: not a {PLAN_SCHEMA} file "
                f"(schema {data.get('schema')!r})"
            )
        try:
            faults = [FaultSpec.from_dict(spec)
                      for spec in data.get("faults", [])]
        except KeyError as exc:
            raise ValueError(f"{path}: a fault has no {exc.args[0]!r}") \
                from None
        return cls(faults, seed=data.get("seed"))

    @classmethod
    def load(cls, path: PathLike) -> "ChaosPlan":
        """Reload a journalled plan; previously fired tickets stay fired."""
        path = Path(path)
        plan = cls.read(path)
        plan.path = path
        plan.state_dir = path.with_suffix(".tickets")
        plan.state_dir.mkdir(exist_ok=True)
        return plan

    # -- firing --------------------------------------------------------------

    def _claim(self, ticket: str) -> bool:
        if self.state_dir is not None:
            return fire_once(self.state_dir / ticket)
        if ticket in self._fired:
            return False
        self._fired.add(ticket)
        return True

    def fire(self, point: str, label: str = "") -> Optional[FaultSpec]:
        """Claim and return the next matching fault at ``point``, if any."""
        for index, fault in enumerate(self.faults):
            if fault.point != point or fault.match not in label:
                continue
            for shot in range(fault.times):
                if self._claim(f"{index}.{shot}"):
                    return fault
        return None

    def inject(
        self,
        point: str,
        label: str = "",
        path: Optional[PathLike] = None,
    ) -> Optional[FaultSpec]:
        """Cross injection point ``point``; act out a fault if one fires.

        ``path`` is the file operand for corruption modes; when a
        corruption fault matches but no usable path is supplied (e.g. the
        cache file does not exist yet) the fault is left unclaimed for a
        later crossing.  Raising modes raise (:class:`OSError` for
        ``disk_full`` / ``io_error``, :class:`FaultInjectedError` for
        ``error``); ``crash`` SIGKILLs the calling process; ``hang``
        sleeps; ``corrupt`` flips one byte of ``path`` and returns;
        ``evict`` returns the fired spec without acting — the caller
        (the service shard's tenant store) performs the eviction, since
        only it knows how to park the state.
        """
        needs_path = any(
            fault.point == point and fault.mode in _PATH_MODES
            for fault in self.faults
        )
        if needs_path and path is None:
            return None
        spec = self.fire(point, label)
        if spec is None:
            return None
        detail = f"chaos[{point}]" + (f" {label}" if label else "")
        if spec.mode == "corrupt":
            target = Path(path)
            size = target.stat().st_size
            offset = int(spec.arg) if spec.arg is not None else size // 2
            corrupt_file(target, offset=min(max(offset, 0), size - 1))
        elif spec.mode == "disk_full":
            raise OSError(errno.ENOSPC, f"injected disk full: {detail}")
        elif spec.mode == "io_error":
            raise OSError(errno.EIO, f"injected I/O error: {detail}")
        elif spec.mode == "error":
            raise FaultInjectedError(f"injected failure: {detail}")
        elif spec.mode == "crash":
            os.kill(os.getpid(), signal.SIGKILL)
        elif spec.mode == "hang":
            time.sleep(spec.arg if spec.arg is not None else 3600.0)
        # "evict" falls through: the caller acts on the returned spec.
        return spec

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ChaosPlan(seed={self.seed}, faults={len(self.faults)}, "
            f"path={self.path and str(self.path)!r})"
        )


def validate_plan(path: PathLike) -> Tuple[ChaosPlan, str]:
    """Registry validator of ``repro-chaos-plan/1`` (see ``repro verify``)."""
    plan = ChaosPlan.read(path)
    return plan, f"seed {plan.seed}, {len(plan.faults)} fault(s)"


class NullChaos:
    """The no-op plan: never fires.  Installed by default."""

    faults: Tuple[FaultSpec, ...] = ()
    path = None

    def fire(self, point: str, label: str = "") -> None:
        return None

    def inject(self, point: str, label: str = "",
               path: Optional[PathLike] = None) -> None:
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "NullChaos()"


NO_CHAOS = NullChaos()

_active: Union[ChaosPlan, NullChaos] = NO_CHAOS


def install(plan: Union[ChaosPlan, NullChaos]) -> None:
    """Make ``plan`` the process's active chaos plan."""
    global _active
    _active = plan


def uninstall() -> None:
    """Deactivate chaos (back to :data:`NO_CHAOS`)."""
    install(NO_CHAOS)


def active() -> Union[ChaosPlan, NullChaos]:
    """The process's active plan (:data:`NO_CHAOS` when none installed)."""
    return _active
