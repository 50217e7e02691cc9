"""Common machinery for the paper-reproduction experiments.

Every module in :mod:`repro.experiments` reproduces one table or figure of
the paper.  They all follow the same contract:

``run(runner=None, quick=True)``
    Execute the experiment.  ``quick=True`` uses a thinned parameter grid
    sized for the benchmark harness; ``quick=False`` runs the paper's full
    grid.  Returns an :class:`ExperimentResult`.

``render(result)``
    Produce the paper-style text rendering (done by the shared
    :meth:`ExperimentResult.render`).

Measured curves are stored alongside the paper's published numbers
(:mod:`repro.experiments.paper_data`) so that every rendering is a
side-by-side comparison, which is what EXPERIMENTS.md records.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Union

from ..sim.reporting import format_series, format_table, summarize_shape


@dataclass
class ExperimentResult:
    """Structured outcome of one reproduced table/figure."""

    experiment_id: str
    title: str
    #: series name -> {x -> misprediction % (or other metric)}
    series: Dict[str, Dict[object, float]] = field(default_factory=dict)
    #: corresponding published curves, where the paper reports them
    paper_series: Dict[str, Dict[object, float]] = field(default_factory=dict)
    #: pre-rendered tables (e.g. Table 1/2 characteristics)
    tables: List[str] = field(default_factory=list)
    notes: str = ""
    x_label: str = "x"

    def shape_summary(self, name: str) -> Dict[str, object]:
        """Shape agreement of a measured curve with its paper counterpart."""
        if name not in self.series or name not in self.paper_series:
            return {}
        return summarize_shape(self.paper_series[name], self.series[name])

    def render(self) -> str:
        """Paper-style text rendering with measured-vs-paper columns."""
        blocks: List[str] = [f"== {self.experiment_id}: {self.title} =="]
        if self.series:
            combined: Dict[str, Dict[object, float]] = {}
            for name, curve in self.series.items():
                combined[name] = curve
                paper_curve = self.paper_series.get(name)
                if paper_curve:
                    combined[f"{name} (paper)"] = paper_curve
            blocks.append(format_series(self.x_label, combined))
        blocks.extend(self.tables)
        for name in self.series:
            summary = self.shape_summary(name)
            if summary.get("shared_points", 0) >= 2:
                blocks.append(f"shape[{name}]: {summary}")
        if self.notes:
            blocks.append(f"notes: {self.notes}")
        return "\n\n".join(blocks)


def comparison_table(
    title: str,
    rows: List[List[object]],
    headers: List[str],
) -> str:
    """Convenience wrapper over :func:`repro.sim.reporting.format_table`."""
    return format_table(headers, rows, title=title)


def argmin_curve(curve: Dict[object, float]) -> object:
    """The x value minimising a curve (ties broken by x order)."""
    return min(curve, key=lambda x: (curve[x], str(x)))


def best_by_point(
    candidates: Dict[object, Dict[object, float]],
    name: str = "AVG",
) -> Dict[object, float]:
    """For families keyed by (x, variant): the per-x minimum of a series."""
    best: Dict[object, float] = {}
    for (x, _variant), rates in candidates.items():
        value = rates[name]
        if x not in best or value < best[x]:
            best[x] = value
    return best


def default_runner(runner: Optional[object]):
    from ..sim.suite_runner import shared_runner

    return runner if runner is not None else shared_runner()


def checkpointed_runner(
    checkpoint_dir: Union[str, Path],
    resume: bool = False,
    benchmarks: Optional[List[str]] = None,
    scale: Optional[float] = None,
    workers: int = 1,
    trace_log: Optional[Union[str, Path]] = None,
    attribution: bool = False,
    kernel: str = "auto",
):
    """A :class:`~repro.sim.suite_runner.SuiteRunner` with durability.

    Layout inside ``checkpoint_dir``:

    * ``traces/`` — validated on-disk trace cache (checksummed binary
      format; corrupt files regenerate transparently);
    * ``results.jsonl`` — append-only journal of completed
      (config, benchmark) simulation results.

    With ``resume=True`` an existing journal is replayed so completed
    pairs are never re-simulated; otherwise any previous journal is
    truncated and the run starts fresh (the trace cache is always kept —
    traces are deterministic per benchmark + scale).

    ``workers`` > 1 runs batch lookups on the parallel worker pool; the
    pool's workers load traces from the same ``traces/`` cache and the
    parent journals streamed results, so parallel runs stay resumable.

    ``trace_log`` attaches the structured JSONL telemetry sink
    (``repro-trace-log/1``) to the runner's tracer — one fsync'd line per
    span/event, the ``--trace-log`` CLI flag.

    ``attribution=True`` runs every fresh simulation under the
    instrumented misprediction-attribution loop (``--attribution``);
    collected records are written by
    :meth:`~repro.sim.suite_runner.SuiteRunner.write_attribution`.

    ``kernel`` selects the simulation kernel for fresh runs (``"auto"``,
    the default, ``"event"``, or ``"batch"``); checkpointed results
    replay regardless of the kernel that produced them — the two are
    bit-identical.
    """
    from ..runtime.checkpoint import CheckpointJournal
    from ..sim.suite_runner import SuiteRunner

    directory = Path(checkpoint_dir)
    directory.mkdir(parents=True, exist_ok=True)
    journal = CheckpointJournal(directory / "results.jsonl", resume=resume)
    return SuiteRunner(
        benchmarks=benchmarks,
        scale=scale,
        cache_dir=directory / "traces",
        checkpoint=journal,
        workers=workers,
        trace_log=trace_log,
        attribution=attribution,
        kernel=kernel,
    )
