"""Closed-loop workloads: one caller drives ``MapSession`` and waits.

``navigate-text``: zoom/pan traces from commuters and burst zoomers on
the UK-tweets analogue.  ``time-slider``: slider scrubbers on the same
dataset built with timestamps, one fixed viewport per trace.  Both run
the paper's settings (k=100, θ = 0.003 of the viewport side) with
Sec. 5.2 prefetch on.

Each part (one fresh interpreter, see ``run.py``) sets up once,
replays one trace untimed, then whole rounds of traces
(``personas.ROUND``) from its own slice of the seed's traces for about
``--seconds`` (see :func:`_past`), each on a fresh
session, then checks every step.  Part ``i`` of ``n`` takes rounds
``i``, ``i + n``, ...

In a closed loop a call is due when the caller issues it, so a
request's latency is the call's wall time.  ``write_ms`` is the part of
each call spent changing session state rather than answering: the wall
time outside the timed selection (``elapsed_s``), which is the D/G
derivation plus the prefetch upkeep the session runs on the caller's
thread before returning.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

import personas
from check import check_steps
from common import (
    LIMIT_MS,
    barrier,
    metric,
    peak_rss_mb,
    percentile,
    timed_setup,
)

N_OBJECTS = 120_000
K = 100
THETA_FRACTION = 0.003
NAV_SIDE = 0.02
SLIDER_SIDE = 0.03
#: Start-viewport and four-viewport-box population bands (personas.py).
NAV_BANDS = ((300, 450), (2000, 3200))
SLIDER_BANDS = ((600, 900), (3000, 4500))
SLIDER_WIDTH = 0.1
SLIDER_DT = SLIDER_WIDTH / 5.0
TRACES = 400


def _build(timestamps: bool):
    from repro import MapSession
    from repro.datasets.generators import uk_tweets

    def build():
        dataset = uk_tweets(n=N_OBJECTS, with_timestamps=timestamps)
        MapSession(dataset, k=K, prefetch=True).close()
        return dataset

    return build


def _traces(workload: str, dataset, seed: int):
    if workload == "navigate-text":
        return personas.navigation_traces(
            dataset.xs, dataset.ys, seed, TRACES, NAV_SIDE, NAV_BANDS)
    return personas.slider_traces(
        dataset.xs, dataset.ys, dataset.ts, seed, TRACES, SLIDER_SIDE,
        SLIDER_BANDS, SLIDER_WIDTH, SLIDER_DT)


def _call(session, op: list, trace: dict):
    from repro.geo import BoundingBox

    kind = op[0]
    if kind == "start":
        return session.start(BoundingBox(*trace["start"]))
    if kind == "zoom_in":
        return session.zoom_in(scale=op[1])
    if kind == "zoom_out":
        return session.zoom_out(scale=op[1])
    if kind == "pan":
        return session.pan(op[1], op[2])
    if kind == "time_step":
        return session.time_step(op[1])
    if kind == "set_time_window":
        return session.set_time_window(op[1], op[2])
    raise ValueError(f"unknown op {kind!r}")


def replay(dataset, trace: dict, first_index: int):
    """Run one trace on a fresh session.

    Returns ``(records, failed ops, the session's metrics registry)``;
    the session is closed.
    """
    from repro import MapSession

    window = trace["window"]
    session = MapSession(
        dataset,
        k=K,
        theta_fraction=THETA_FRACTION,
        prefetch=True,
        time_window=tuple(window) if window is not None else None,
    )
    records = []
    ops = [["start"]] + trace["ops"]
    try:
        for offset, op in enumerate(ops):
            started = time.perf_counter()
            try:
                step = _call(session, op, trace)
            except Exception as exc:  # counted, reported, trace abandoned
                print(f"failed: op {first_index + offset} ({op[0]}): "
                      f"{type(exc).__name__}: {exc}")
                return records, len(ops) - offset, session.metrics
            wall = time.perf_counter() - started
            records.append(
                {
                    "index": first_index + offset,
                    "op": op[0],
                    "wall": wall,
                    "elapsed": step.elapsed_s,
                    "region": tuple(step.region),
                    "window": step.time_window,
                    "population": step.result.region_ids,
                    "candidates": step.candidates,
                    "mandatory": step.mandatory,
                    "theta": step.theta,
                    "selected": step.visible,
                    "score": step.result.score,
                }
            )
    finally:
        session.close()
    return records, 0, session.metrics


def _past(started: float, seconds: float, traces_done: int) -> bool:
    """Whether to stop before the next round of traces.

    Parts stop at round boundaries, so every part holds the same mix.
    A round is started while the part would end nearer ``seconds`` with
    it than without it, judged by the mean round time so far.
    """
    if traces_done == 0:
        return False
    elapsed = time.perf_counter() - started
    per_round = elapsed * personas.ROUND / traces_done
    return elapsed + 0.5 * per_round >= seconds


def run_part(workload: str, seed: int, seconds: float, trace: bool,
             part: int, parts: int) -> dict:
    """One part's samples, as plain data for :func:`combine`."""
    build = _build(timestamps=workload == "time-slider")
    dataset, setup_s = timed_setup(build)
    traces = _traces(workload, dataset, seed)
    # Lazy imports and first-call set-up finish before timing; the
    # last trace is never in a part's slice.
    replay(dataset, traces[-1], -1)
    own = [
        tr for i, tr in enumerate(traces[:-1])
        if (i // personas.ROUND) % parts == part
    ]

    if trace:
        return _run_traced(dataset, own, seconds)

    records: list[dict] = []
    failed_ops = 0
    attempted = 0
    barrier("measure")
    started = time.perf_counter()
    for i, tr in enumerate(own):
        if i % personas.ROUND == 0 and _past(started, seconds, i):
            break
        recs, failed, _registry = replay(dataset, tr, attempted)
        records.extend(recs)
        failed_ops += failed
        attempted += len(tr["ops"]) + 1
    timed_s = time.perf_counter() - started
    barrier("check")

    counts = check_steps(dataset, records, K)
    print(f"steps={len(records)} timed_s={timed_s:.3f} check={counts}")
    return {
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb(),
        "timed_s": timed_s,
        "attempted": attempted,
        "failed": failed_ops + counts["failed_steps"],
        "walls_ms": [r["wall"] * 1000.0 for r in records],
        "upkeep_ms": [(r["wall"] - r["elapsed"]) * 1000.0 for r in records],
        "good": sum(
            1 for r in records
            if r["wall"] * 1000.0 <= LIMIT_MS and not r["failed"]
        ),
    }


def combine(parts: list[dict], trace: bool) -> tuple:
    """Returns ``(attempted, failed, metrics)`` for the result line.

    Latency percentiles are over the pooled steps of every part; rates
    are over the parts' summed timed seconds.
    """
    if trace:
        (only,) = parts
        return only["attempted"], only["failed"], only["metrics"]
    walls = [w for p in parts for w in p["walls_ms"]]
    upkeep = [u for p in parts for u in p["upkeep_ms"]]
    timed_s = sum(p["timed_s"] for p in parts)
    metrics = {
        "setup_s": metric(
            statistics.median(p["setup_s"] for p in parts), "s"),
        "step_ms_p50": metric(percentile(walls, 50), "ms"),
        "step_ms_p90": metric(percentile(walls, 90), "ms"),
        "ops_per_s": metric(len(walls) / timed_s, "1/s"),
        # A closed-loop call is due when it is issued: the same figure.
        "req_ms_p50": metric(percentile(walls, 50), "ms"),
        "req_ms_p90": metric(percentile(walls, 90), "ms"),
        "write_ms_p50": metric(percentile(upkeep, 50), "ms"),
        "write_ms_p90": metric(percentile(upkeep, 90), "ms"),
        "goodput_rps": metric(sum(p["good"] for p in parts) / timed_s,
                              "1/s"),
        "peak_rss_mb": metric(max(p["peak_rss_mb"] for p in parts), "MB"),
    }
    return (sum(p["attempted"] for p in parts),
            sum(p["failed"] for p in parts), metrics)


def _run_traced(dataset, traces: list[dict], seconds: float) -> dict:
    """Each trace replayed untraced, then traced, on fresh sessions."""
    from layers import LayerTrace

    layers = LayerTrace()
    layers.plan(type(dataset.similarity))
    plain: list[dict] = []
    traced: list[dict] = []
    failed_ops = 0
    attempted = 0
    perturbed = 0
    barrier("measure")
    started = time.perf_counter()
    for i, tr in enumerate(traces):
        if i % personas.ROUND == 0 and _past(started, seconds, i):
            break
        recs_plain, failed_plain, _registry = replay(dataset, tr, attempted)
        layers.install()
        try:
            recs, failed, registry = replay(dataset, tr, attempted)
        finally:
            layers.uninstall()
        for a, b in zip(recs_plain, recs):
            if not np.array_equal(a["selected"], b["selected"]):
                print(f"mismatch: op {b['index']} ({b['op']}) tracing "
                      f"changed the selection")
                perturbed += 1
        plain.extend(recs_plain)
        traced.extend(recs)
        failed_ops += failed + failed_plain
        attempted += 2 * (len(tr["ops"]) + 1)
    barrier("check")

    counts = check_steps(dataset, traced, K)
    plain_counts = check_steps(dataset, plain, K)
    failed = (failed_ops + counts["failed_steps"]
              + plain_counts["failed_steps"] + perturbed)
    top_wall = sum(r["wall"] for r in traced)
    out = layers.metrics(top_wall)
    # The last traced session's registry: one summary pass over it.
    payload_started = time.perf_counter()
    summaries = registry.summaries()
    payload_ms = (time.perf_counter() - payload_started) * 1000.0
    out.update(
        {
            "metrics.series_len_max": max(
                (s.get("count", 0) for s in summaries.values()), default=0),
            "metrics.payload_ms": payload_ms,
            "loadgen.lag_ms_p90": 0.0,
            "loadgen.backlog_growth": 0.0,
            "service.inflight_max": 0,
            "trace.overhead_share": (
                statistics.median(r["wall"] for r in traced)
                / statistics.median(r["wall"] for r in plain)
            ),
            "check.cold_mismatches": counts["cold"] + counts["ties"],
            # Tie divergences pass the check but count here, so the
            # seeded engine's departures from its cold twin stay in view.
            "fail_share": (
                (failed + counts["ties"] + plain_counts["ties"]) / attempted
                if attempted else 0.0
            ),
        }
    )
    print(f"steps={len(traced)} traced_wall_s={top_wall:.3f} "
          f"check={counts} perturbed={perturbed}")
    return {"attempted": attempted, "failed": failed, "metrics": out}
