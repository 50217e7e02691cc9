"""End-of-run artifact manifests, the schema registry, and ``repro verify``.

A run that *finished* is not the same as a run whose artifacts can be
trusted — especially under chaos, where the runtime may have survived
corrupted caches, dead workers, and full disks.  This module closes that
gap with three pieces:

* :func:`write_manifest` — written at the successful end of a
  checkpointed run: one ``manifest.json`` (schema ``repro-manifest/1``)
  recording every artifact's SHA-256, byte size, and schema identifier,
  plus the degradations the run survived.  A run that died mid-way never
  writes a manifest, so its directory *fails* verification until the run
  is resumed to completion — absence of proof is treated as failure, not
  success.

* :data:`VALIDATORS` — the one schema registry: schema id -> the
  validator in the module that owns the format.  Each takes a path,
  returns ``(parsed, detail)`` and raises on the first violation.
  ``repro verify FILE`` dispatches a file on its embedded schema id
  (:func:`verify_file`); CI validates every artifact it produces this
  way, and ``tests/fixtures/schemas/`` holds one valid instance each.

* :func:`verify_run` — the ``repro verify RUN_DIR`` entry point: checks
  the manifest hashes, re-validates each artifact through the registry,
  and cross-checks the artifacts against each other — journal entry
  count vs the metrics' completed units, attribution records vs the
  journal's fast-path totals, serving journals replayed against the
  tenant snapshot.
  With ``against=BASELINE_DIR`` it additionally proves the run
  bit-identical to a reference run (the determinism contract: resumed,
  parallel, and serial-fallback runs must all match a clean serial run).

Every check lands in a :class:`VerifyReport` as a named
:class:`Finding`; nothing stops at the first failure, so one verify pass
reports everything that is wrong with a run directory.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from importlib import import_module
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from .chaos import check_degradations
from .records import read_records

PathLike = Union[str, Path]

#: JSON schema identifier of the run manifest.
MANIFEST_SCHEMA = "repro-manifest/1"

#: Manifest file name inside a run (checkpoint) directory.
MANIFEST_NAME = "manifest.json"

#: artifact kind -> schema identifier recorded (and later re-checked).
#: Multi-instance kinds (one shard journal per shard) are manifested as
#: ``<kind>.<n>`` and resolved back to the base kind by
#: :func:`artifact_schema`.
ARTIFACT_SCHEMAS: Dict[str, str] = {
    "journal": "repro-checkpoint/1",
    "metrics": "repro-run-metrics/2",
    "trace_log": "repro-trace-log/1",
    "attribution": "repro-attribution/1",
    "chaos_plan": "repro-chaos-plan/1",
    # ingested external-trace inputs (repro ingest; DESIGN.md §3.11),
    # manifested as ext_trace.<n> — one per --ingest file.
    "ext_trace": "repro-ext-trace/1",
    # -- prediction-service artifacts (repro serve; DESIGN.md §3.10) -----
    "service_journal": "repro-service-journal/1",
    "service_sheds": "repro-service-sheds/1",
    "service_tenants": "repro-service-tenants/1",
    "service_metrics": "repro-service-metrics/1",
    "service_metrics_stream": "repro-service-metrics-stream/1",
    # shard recovery checkpoints (DESIGN.md §3.14), manifested as
    # shard_snapshot.<n> — one per shard that checkpointed.
    "shard_snapshot": "repro-shard-snapshot/1",
}


#: The schema registry: schema id -> ``module:function`` of its validator,
#: which lives with the code that writes the format.  Imported on use, so
#: verifying a sweep never loads the service.
VALIDATORS: Dict[str, str] = {
    "repro-checkpoint/1": "repro.runtime.checkpoint:validate_journal",
    "repro-run-metrics/2": "repro.runtime.scheduler:validate_run_metrics",
    "repro-trace-log/1": "repro.runtime.telemetry:validate_trace_log",
    "repro-attribution/1": "repro.sim.attribution:validate_attribution",
    "repro-chaos-plan/1": "repro.runtime.chaos:validate_plan",
    "repro-ext-trace/1": "repro.ingest.schema:validate_ext_trace",
    "repro-service-journal/1": "repro.service.state:validate_service_journal",
    "repro-service-sheds/1": "repro.service.state:validate_sheds",
    "repro-service-tenants/1": "repro.service.state:validate_tenants",
    "repro-service-metrics/1": "repro.service.state:validate_service_metrics",
    "repro-service-metrics-stream/1":
        "repro.service.state:validate_metrics_stream",
    "repro-shard-snapshot/1":
        "repro.service.checkpoint:validate_checkpoint_file",
    "repro-metrics-snapshot/1": "repro.runtime.metrics:validate_snapshot_file",
    MANIFEST_SCHEMA: "repro.runtime.verify:validate_manifest",
}

#: Artifact kind -> the degradation that detaches its writer mid-run;
#: under it an artifact holding no record yet is legitimately empty.
_DETACHED_BY = {
    "journal": "checkpoint_off",
    "trace_log": "telemetry_off",
    "service_metrics_stream": "metrics_stream_off",
}


def base_kind(kind: str) -> str:
    """Strip a ``.<n>`` instance suffix (``service_journal.0`` -> base)."""
    stem, _, suffix = kind.rpartition(".")
    return stem if stem and suffix.isdigit() else kind


def artifact_schema(kind: str) -> Optional[str]:
    """The schema for a manifest kind, honouring instance suffixes."""
    return ARTIFACT_SCHEMAS.get(base_kind(kind))


def sha256_file(path: PathLike) -> str:
    """Hex SHA-256 of a file's bytes."""
    digest = hashlib.sha256()
    with open(path, "rb") as stream:
        for chunk in iter(lambda: stream.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


# -- manifest writing --------------------------------------------------------


def write_manifest(
    run_dir: PathLike,
    artifacts: Dict[str, PathLike],
    degradations: Optional[Dict[str, int]] = None,
    workers: int = 1,
) -> Path:
    """Write ``manifest.json`` for a *completed* run.

    Args:
        run_dir: the run (checkpoint) directory the manifest lives in.
        artifacts: ``kind -> path`` for every artifact the run produced;
            kinds are keys of :data:`ARTIFACT_SCHEMAS`, missing/None
            paths are skipped.  Paths inside ``run_dir`` are recorded
            relative to it so the directory stays relocatable; others
            (a user-supplied chaos plan) stay absolute.
        degradations: degradation event counts the run survived (from
            :meth:`~repro.sim.suite_runner.SuiteRunner.degradations`).
        workers: worker count of the run (recorded for provenance).
    """
    run_dir = Path(run_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    entries: Dict[str, dict] = {}
    for kind, path in sorted(artifacts.items()):
        schema = artifact_schema(kind)
        if schema is None:
            raise ValueError(
                f"unknown artifact kind {kind!r} "
                f"(known: {sorted(ARTIFACT_SCHEMAS)})"
            )
        if path is None:
            continue
        path = Path(path)
        if not path.exists():
            continue
        try:
            recorded = str(path.resolve().relative_to(run_dir.resolve()))
        except ValueError:
            recorded = str(path.resolve())
        entries[kind] = {
            "path": recorded,
            "bytes": path.stat().st_size,
            "sha256": sha256_file(path),
            "schema": schema,
        }
    manifest = {
        "schema": MANIFEST_SCHEMA,
        "workers": workers,
        "degradations": dict(degradations or {}),
        "artifacts": entries,
    }
    target = run_dir / MANIFEST_NAME
    target.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return target


# -- verification ------------------------------------------------------------


@dataclass(frozen=True)
class Finding:
    """One verification check's outcome."""

    check: str  # e.g. "manifest", "hash:journal", "counts", "attribution"
    ok: bool
    detail: str

    def __str__(self) -> str:
        marker = "ok " if self.ok else "FAIL"
        return f"[{marker}] {self.check}: {self.detail}"


@dataclass
class VerifyReport:
    """Everything ``repro verify`` learned about one run directory."""

    run_dir: Path
    findings: List[Finding] = field(default_factory=list)
    degradations: Dict[str, int] = field(default_factory=dict)

    def add(self, check: str, ok: bool, detail: str) -> None:
        self.findings.append(Finding(check, ok, detail))

    @property
    def ok(self) -> bool:
        return all(finding.ok for finding in self.findings)

    @property
    def failures(self) -> List[Finding]:
        return [finding for finding in self.findings if not finding.ok]

    def render(self) -> str:
        lines = [f"verify {self.run_dir}"]
        lines += [f"  {finding}" for finding in self.findings]
        if self.degradations:
            survived = ", ".join(
                f"{name} x{count}"
                for name, count in sorted(self.degradations.items())
            )
            lines.append(f"  degradations survived: {survived}")
        verdict = "VERIFIED" if self.ok else (
            f"FAILED ({len(self.failures)} check(s))"
        )
        lines.append(f"  => {verdict}")
        return "\n".join(lines)


def journal_body(path: PathLike) -> List[str]:
    """The journal's data lines, sorted — the bit-identity comparison key.

    Journal record *content* is deterministic, but completion *order* is
    not under parallelism; sorting makes serial, parallel, resumed, and
    serial-fallback runs directly comparable.
    """
    return sorted(json.dumps(record, sort_keys=True)
                  for record in read_records(path).records)


# -- the manifest's own schema -------------------------------------------------


def _hash_problem(path: Path, entry: dict) -> Optional[str]:
    """What is wrong with an artifact against its manifest entry, if anything."""
    if not path.exists():
        return f"{path} missing"
    size = path.stat().st_size
    if size != entry["bytes"]:
        return f"{path}: {size} bytes, manifest says {entry['bytes']}"
    if sha256_file(path) != entry["sha256"]:
        return (f"{path}: sha256 mismatch (artifact changed after the "
                f"manifest was written)")
    return None


def read_manifest(path: PathLike) -> dict:
    """Parse ``manifest.json`` and check its shape; reads no artifact."""
    manifest = json.loads(Path(path).read_text())
    if manifest.get("schema") != MANIFEST_SCHEMA:
        raise ValueError(f"schema {manifest.get('schema')!r}, expected "
                         f"{MANIFEST_SCHEMA!r}")
    missing = {"workers", "degradations", "artifacts"} - set(manifest)
    if missing:
        raise ValueError(f"manifest missing keys {sorted(missing)}")
    if not isinstance(manifest["workers"], int) or manifest["workers"] < 1:
        raise ValueError(f"workers {manifest['workers']!r}")
    check_degradations(manifest["degradations"])
    if not manifest["artifacts"]:
        raise ValueError("manifest lists no artifacts")
    for kind, entry in manifest["artifacts"].items():
        schema = artifact_schema(kind)
        if schema is None:
            raise ValueError(f"unknown artifact kind {kind!r}")
        if set(entry) != {"path", "bytes", "sha256", "schema"} \
                or entry["schema"] != schema or len(entry["sha256"]) != 64 \
                or not isinstance(entry["bytes"], int) or entry["bytes"] < 0:
            raise ValueError(f"{kind}: malformed entry {entry}")
    return manifest


def validate_manifest(path: PathLike) -> Tuple[dict, str]:
    """Registry validator of ``repro-manifest/1``.

    Every listed artifact that exists next to the manifest must match its
    recorded size and SHA-256; :func:`verify_run` additionally requires
    them all to exist and re-validates their contents.
    """
    manifest = read_manifest(path)
    verified = 0
    for kind, entry in sorted(manifest["artifacts"].items()):
        target = Path(path).parent / entry["path"]
        if target.exists():
            problem = _hash_problem(target, entry)
            if problem:
                raise ValueError(f"{kind}: {problem}")
            verified += 1
    return manifest, (f"{len(manifest['artifacts'])} artifact(s), "
                      f"{verified} hash(es) verified, "
                      f"{sum(manifest['degradations'].values())} "
                      f"degradation(s)")


# -- verification ------------------------------------------------------------


def embedded_schema(path: PathLike) -> Optional[str]:
    """The schema id a file carries: a JSONL header's, else a document's.

    The checkpoint journal's header names ``format`` and ``version``
    instead of ``schema``.
    """
    path = Path(path)
    with open(path, "rb") as stream:
        header = stream.readline()
    for text in (header, path.read_bytes()):
        try:
            head = json.loads(text)
        except ValueError:
            continue
        if not isinstance(head, dict):
            return None
        if "format" in head:
            return f"{head['format']}/{head.get('version')}"
        return head.get("schema")
    return None


def _check_format(check: str, schema: Optional[str], path: Path,
                  report: VerifyReport) -> Optional[object]:
    """Run the registered validator; one finding either way."""
    if schema not in VALIDATORS:
        report.add(check, False, f"{path}: unrecognised schema {schema!r}")
        return None
    module, _, name = VALIDATORS[schema].partition(":")
    try:
        parsed, detail = getattr(import_module(module), name)(path)
    except Exception as exc:
        report.add(check, False, f"{type(exc).__name__}: {exc}")
        return None
    report.add(check, True, detail)
    return parsed


def verify_file(path: PathLike) -> VerifyReport:
    """``repro verify FILE``: validate one artifact by its embedded schema."""
    path = Path(path)
    report = VerifyReport(path)
    try:
        schema = embedded_schema(path)
    except OSError as exc:
        report.add("read", False, str(exc))
        return report
    _check_format(f"format:{schema}", schema, path, report)
    return report


def _holds_no_record(path: Path) -> bool:
    try:
        return not read_records(path).records
    except ValueError:
        return False


def verify_run(
    run_dir: PathLike,
    against: Optional[PathLike] = None,
) -> VerifyReport:
    """Verify one run directory; optionally prove it matches a baseline.

    Checks, in order (all always run):

    1. the manifest exists and passes its own schema;
    2. every manifested artifact exists with matching size and SHA-256;
    3. every artifact re-validates through :data:`VALIDATORS` (an
       artifact whose writer a degradation detached may be empty);
    4. journal entry count equals the metrics' ``completed +
       from_checkpoint`` units (skipped with a note when the run degraded
       to ``checkpoint_off`` — the journal is legitimately short then);
    5. every attribution record matches its journalled result exactly
       (events, mispredictions);
    6. serving runs: journal replay == the tenant snapshot, checkpoint +
       tail == journal, the live stream consistent with the final metrics;
    7. with ``against``: the two journals' (sorted) data lines are
       byte-identical (under ``checkpoint_off`` the run's journal is
       legitimately truncated — then every line it does hold must match
       a baseline line), and so are the attribution artifacts when both
       runs produced one.
    """
    run_dir = Path(run_dir)
    report = VerifyReport(run_dir)

    manifest_path = run_dir / MANIFEST_NAME
    if not manifest_path.exists():
        report.add("manifest", False,
                   f"{manifest_path} missing — run did not complete "
                   f"(resume it, then verify)")
        return report
    try:
        manifest = read_manifest(manifest_path)
    except Exception as exc:
        report.add("manifest", False, f"{type(exc).__name__}: {exc}")
        return report
    artifacts = manifest["artifacts"]
    report.degradations = dict(manifest["degradations"])
    report.add("manifest", True,
               f"{len(artifacts)} artifact(s), workers="
               f"{manifest['workers']}")

    parsed: Dict[str, object] = {}
    for kind, entry in sorted(artifacts.items()):
        path = run_dir / entry["path"]
        problem = _hash_problem(path, entry)
        if problem:
            report.add(f"hash:{kind}", False, problem)
            continue
        report.add(f"hash:{kind}", True, f"{path.name} ({entry['bytes']} "
                                         f"bytes)")
        detached = _DETACHED_BY.get(base_kind(kind))
        if report.degradations.get(detached) and _holds_no_record(path):
            report.add(f"format:{kind}", True,
                       f"empty (run degraded to {detached})")
            parsed[kind] = {}
            continue
        data = _check_format(f"format:{kind}", entry["schema"], path, report)
        if data is not None:
            parsed[kind] = data

    _cross_check(parsed, report)

    if against is not None:
        _check_against(run_dir, Path(against), artifacts, report)
    return report


def _cross_check(parsed: Dict[str, object], report: VerifyReport) -> None:
    """Artifact-vs-artifact consistency checks."""
    _cross_check_service(parsed, report)
    _cross_check_metrics_stream(parsed, report)
    _cross_check_ingest(parsed, report)
    journal = parsed.get("journal")
    metrics = parsed.get("metrics")
    if journal is not None and metrics is not None:
        units = metrics.get("units", {})
        expected = units.get("completed", 0) + units.get("from_checkpoint", 0)
        if report.degradations.get("checkpoint_off"):
            report.add("counts", True,
                       f"skipped: run degraded to checkpoint_off "
                       f"(journal holds {len(journal)}, run completed "
                       f"{expected})")
        elif len(journal) != expected:
            report.add("counts", False,
                       f"journal holds {len(journal)} result(s), metrics "
                       f"report {expected} (completed + from_checkpoint)")
        else:
            report.add("counts", True,
                       f"journal == metrics == {expected} unit(s)")

    attribution = parsed.get("attribution")
    if attribution is not None and journal is not None:
        by_pair = {
            (rec["result"]["predictor"], rec["benchmark"]): rec["result"]
            for rec in journal.values()
        }
        mismatches = []
        for record in attribution:
            if record.get("kind") != "record":
                continue
            pair = (record["predictor"], record["benchmark"])
            result = by_pair.get(pair)
            if result is None:
                mismatches.append(
                    f"{pair[0]}/{pair[1]}: attributed but not journalled"
                )
                continue
            if (record["events"] != result["events"]
                    or record["mispredictions"] != result["mispredictions"]):
                mismatches.append(
                    f"{pair[0]}/{pair[1]}: attribution "
                    f"{record['mispredictions']}/{record['events']} vs "
                    f"journal "
                    f"{result['mispredictions']}/{result['events']}"
                )
        count = sum(1 for r in attribution if r.get("kind") == "record")
        if mismatches:
            report.add("attribution", False, "; ".join(mismatches[:3]))
        else:
            report.add("attribution", True,
                       f"{count} record(s) match the journal")


def _cross_check_metrics_stream(parsed: Dict[str, object],
                                report: VerifyReport) -> None:
    """The live stream vs the final metrics artifact.

    Every streamed snapshot's counters must stay at or below the final
    ``service-metrics.json`` snapshot (counters are monotonic), and when
    the stream's last record is the shutdown ``final`` record its merged
    counters must equal the final artifact's exactly — both are built
    from the same registries after the drain.
    """
    stream = parsed.get("service_metrics_stream")
    metrics = parsed.get("service_metrics")
    if not stream or not isinstance(metrics, dict):
        return
    final_snapshot = metrics.get("snapshot")
    if not isinstance(final_snapshot, dict):
        report.add("metrics_stream", False,
                   "service-metrics.json carries no merged snapshot")
        return
    final_counters = final_snapshot.get("counters", {})
    problems = []
    for record in stream:
        for name, value in record["merged"]["counters"].items():
            # shard.* counters are per-incarnation (respawns reset
            # them); only server.* counters are bounded by the final.
            if not name.startswith("server."):
                continue
            if value > final_counters.get(name, 0):
                problems.append(
                    f"seq {record['seq']}: {name}={value} exceeds final "
                    f"{final_counters.get(name, 0)}")
    last = stream[-1]
    if last.get("kind") == "final" \
            and last["merged"]["counters"] != final_counters:
        problems.append("final stream record disagrees with "
                        "service-metrics.json counters")
    if problems:
        report.add("metrics_stream", False, "; ".join(problems[:3]))
    else:
        report.add("metrics_stream", True,
                   f"{len(stream)} streamed snapshot(s) consistent with "
                   f"final service-metrics.json")


def _cross_check_ingest(parsed: Dict[str, object],
                        report: VerifyReport) -> None:
    """Manifested external traces vs the journalled real-* results.

    Every journalled simulation of an ingested benchmark must report
    exactly as many events as the manifested source file holds — a
    stale cache entry (mutated source, old normalization) or a
    truncated ingest would show up here as a count mismatch.
    """
    journal = parsed.get("journal")
    ext_traces = [data for kind, data in sorted(parsed.items())
                  if base_kind(kind) == "ext_trace"]
    if not journal or not ext_traces:
        return
    from ..ingest import REAL_PREFIX

    mismatches = []
    checked = 0
    for ext in ext_traces:
        benchmark = REAL_PREFIX + ext.name
        for (config, journalled_benchmark), record in journal.items():
            if journalled_benchmark != benchmark:
                continue
            checked += 1
            events = record["result"]["events"]
            if events != len(ext):
                mismatches.append(
                    f"{config}/{benchmark}: journalled {events} event(s), "
                    f"source holds {len(ext)}")
    if mismatches:
        report.add("ingest", False, "; ".join(mismatches[:3]))
    elif checked:
        report.add("ingest", True,
                   f"{checked} journalled real-* result(s) match their "
                   f"manifested source event counts")


def _service_record_sets(parsed: Dict[str, object],
                         report: VerifyReport) -> Optional[dict]:
    """Assemble per-shard logical record sequences for the replay oracle.

    Returns ``{"plain": {shard: records}, "composed": {shard: records}
    | None}``: ``plain`` is the from-genesis sequence every shard can
    prove (journal records, prefixed by checkpoint base records where
    the journal was compacted), ``composed`` additionally routes
    *every* checkpointed shard through (checkpoint + tail) so the
    checkpoint itself is proven against ``tenants.json`` even when the
    full journal is still available.  ``None`` (with a failed report
    line) when a compacted journal has no checkpoint covering it.
    """
    from ..service.checkpoint import base_records
    from ..service.state import journal_base

    journals = {kind: data for kind, data in parsed.items()
                if base_kind(kind) == "service_journal"}
    checkpoints = {}
    for kind, data in parsed.items():
        if base_kind(kind) == "shard_snapshot":
            checkpoints[data["payload"].get("shard")] = data["payload"]
    plain: Dict[int, list] = {}
    composed: Dict[int, list] = {}
    any_composed = False
    for index, data in enumerate(journals.values()):
        header, records = data["header"], data["records"]
        shard = header.get("shard", index)
        base = journal_base(header, f"service_journal.{shard}")
        total = base + len(records)
        payload = checkpoints.get(shard)
        covered = payload["journal_records"] if payload else None
        if payload is not None and not base <= covered <= total:
            report.add("service:replay", False,
                       f"shard {shard}: checkpoint covers {covered} "
                       f"record(s) but the journal segment spans "
                       f"[{base}, {total})")
            return None
        if base and payload is None:
            report.add("service:replay", False,
                       f"shard {shard}: {base} record(s) compacted away "
                       f"but no shard_snapshot artifact covers them")
            return None
        if payload is not None:
            composed[shard] = (base_records(payload)
                               + records[covered - base:])
            any_composed = True
            plain[shard] = composed[shard] if base else records
        else:
            plain[shard] = composed[shard] = records
    return {"plain": plain, "composed": composed if any_composed else None}


def _cross_check_service(parsed: Dict[str, object],
                         report: VerifyReport) -> None:
    """The serving contract: snapshot digests == offline journal replay.

    Replays every manifested shard journal's accepted batches through
    fresh predictors and compares the resulting per-tenant digests with
    the ``tenants.json`` snapshot the live server wrote — through any
    crashes, respawns, evictions, and journal compactions the run
    survived.  Compacted journals are re-prefixed with the covering
    checkpoint's base records; where a checkpoint exists the
    (checkpoint + tail) composition is *also* replayed and must land on
    the same digests, proving the checkpoint equivalent to the history
    it replaced.  Also proves no accepted batch was silently
    double-counted: replayed event totals must equal the snapshot's.
    """
    snapshot = parsed.get("service_tenants")
    journals = {kind: data for kind, data in parsed.items()
                if base_kind(kind) == "service_journal"}
    if snapshot is None or not journals:
        return
    from ..service.replay import replay_records

    spec = snapshot.get("spec")
    record_sets = _service_record_sets(parsed, report)
    if record_sets is None:
        return
    shard_records = record_sets["plain"]
    try:
        replayed = replay_records(spec, shard_records)
        if record_sets["composed"] is not None:
            composed = replay_records(spec, record_sets["composed"])
            drift = [tenant for tenant in sorted(set(replayed)
                                                 | set(composed))
                     if replayed.get(tenant, {}).get("digest")
                     != composed.get(tenant, {}).get("digest")]
            if drift:
                report.add(
                    "service:checkpoint_replay", False,
                    f"checkpoint + tail replay diverges from journal "
                    f"replay for: {', '.join(drift[:3])}")
            else:
                report.add(
                    "service:checkpoint_replay", True,
                    f"checkpoint + tail replay bit-identical to journal "
                    f"replay for {len(composed)} tenant(s)")
    except Exception as exc:
        report.add("service:replay", False,
                   f"{type(exc).__name__}: {exc}")
        return
    recorded = snapshot.get("tenants", {})
    mismatches = []
    for tenant in sorted(set(recorded) | set(replayed)):
        mine = recorded.get(tenant)
        theirs = replayed.get(tenant)
        if mine is None:
            mismatches.append(f"{tenant}: journalled but not snapshotted")
        elif theirs is None:
            mismatches.append(f"{tenant}: snapshotted but not journalled")
        elif (mine.get("digest") != theirs["digest"]
              or mine.get("events") != theirs["events"]
              or mine.get("misses") != theirs["misses"]):
            mismatches.append(
                f"{tenant}: snapshot digest {mine.get('digest', '')[:12]} "
                f"({mine.get('misses')}/{mine.get('events')}) vs replay "
                f"{theirs['digest'][:12]} "
                f"({theirs['misses']}/{theirs['events']})")
    if mismatches:
        report.add("service:replay", False, "; ".join(mismatches[:3]))
    else:
        events = sum(record["events"] for record in replayed.values())
        report.add("service:replay", True,
                   f"{len(replayed)} tenant(s), {events} accepted "
                   f"event(s): snapshot digests bit-identical to journal "
                   f"replay")


def _check_against(run_dir: Path, baseline_dir: Path,
                   artifacts: Dict[str, dict],
                   report: VerifyReport) -> None:
    """Bit-identity of this run's results against a baseline run's."""
    if "service_tenants" in artifacts:
        _check_service_against(run_dir, baseline_dir, artifacts, report)
        return
    mine = run_dir / "results.jsonl"
    theirs = baseline_dir / "results.jsonl"
    if not theirs.exists():
        report.add("against", False, f"baseline journal {theirs} missing")
        return
    if not mine.exists():
        report.add("against", False, f"journal {mine} missing")
        return
    try:
        my_body, base_body = journal_body(mine), journal_body(theirs)
    except ValueError as exc:
        report.add("against", False, str(exc))
        return
    if report.degradations.get("checkpoint_off"):
        # The journal is legitimately truncated (appends were disabled
        # mid-run): every line it *does* hold must still be bit-identical
        # to the baseline's.
        missing = set(my_body) - set(base_body)
        if missing:
            report.add("against", False,
                       f"{len(missing)} journalled result(s) differ from "
                       f"baseline {baseline_dir} (determinism violation)")
        else:
            report.add("against", True,
                       f"{len(my_body)} journalled result(s) bit-identical "
                       f"to baseline {baseline_dir} (journal truncated by "
                       f"checkpoint_off)")
    elif my_body != base_body:
        report.add("against", False,
                   f"journalled results differ from baseline "
                   f"{baseline_dir} (determinism violation)")
    else:
        report.add("against", True,
                   f"results bit-identical to baseline {baseline_dir}")

    entry = artifacts.get("attribution")
    if entry is None:
        return
    mine_attr = run_dir / entry["path"]
    theirs_attr = baseline_dir / mine_attr.name
    if not (mine_attr.exists() and theirs_attr.exists()):
        return
    if mine_attr.read_bytes() != theirs_attr.read_bytes():
        report.add("against:attribution", False,
                   f"attribution artifact differs from baseline "
                   f"{theirs_attr}")
    else:
        report.add("against:attribution", True,
                   "attribution bit-identical to baseline")


def _check_service_against(run_dir: Path, baseline_dir: Path,
                           artifacts: Dict[str, dict],
                           report: VerifyReport) -> None:
    """Serving bit-identity: this run's tenant states vs a reference.

    The baseline is usually a ``repro replay`` output directory (the
    offline oracle), but any serving run over the same accepted streams
    works.  Comparison is on the per-tenant records — counters and
    digests — not raw file bytes, so a baseline need not reproduce
    incidental fields like per-shard respawn counts.
    """
    mine_path = run_dir / artifacts["service_tenants"]["path"]
    theirs_path = baseline_dir / "tenants.json"
    if not theirs_path.exists():
        report.add("against", False,
                   f"baseline snapshot {theirs_path} missing "
                   f"(run `repro replay` to produce one)")
        return
    try:
        mine = json.loads(mine_path.read_text()).get("tenants", {})
        theirs = json.loads(theirs_path.read_text()).get("tenants", {})
    except (OSError, ValueError) as exc:
        report.add("against", False, f"unreadable snapshot: {exc}")
        return
    mismatches = []
    for tenant in sorted(set(mine) | set(theirs)):
        ours, base = mine.get(tenant), theirs.get(tenant)
        if ours is None or base is None:
            mismatches.append(
                f"{tenant}: only in "
                f"{'baseline' if ours is None else 'this run'}")
        elif any(ours.get(field) != base.get(field)
                 for field in ("digest", "events", "misses", "seq")):
            mismatches.append(f"{tenant}: state differs from baseline")
    if mismatches:
        report.add("against", False,
                   "; ".join(mismatches[:3])
                   + " (determinism violation)")
    else:
        report.add("against", True,
                   f"{len(mine)} tenant state(s) bit-identical to "
                   f"baseline {baseline_dir}")
