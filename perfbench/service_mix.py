"""Service workload: ``SelectionService.handle`` in process.

The service runs with the ``serve`` CLI defaults (k=20, prefetch off,
workers 0, 8 slots, queue 64, 500 ms queue timeout, 250 ms deadline)
over the POI analogue.  Each part (one fresh interpreter, see
``run.py``) runs ``CYCLES`` cycles of two phases on one service:

* **open**: users arrive on a seeded Poisson schedule at the constant
  rate ``RATE``.  Each user is a closed loop with think time:
  ``start`` on a 2% region, eight zoom/pan reads, four stream writes,
  ``close``.  ``req_ms`` and ``write_ms`` come from here.
* **saturation**: ``LANES`` users with no think time, each followed by
  the next as soon as it closes, until the phase's window ends.  There
  are more lanes than admission slots, so requests queue for a slot.
  ``goodput_rps`` and ``step_ms`` come from here.

The host's CPUs switch between a fast and a slow state every few
seconds, so each phase samples several stretches spread over the run
rather than one.

The load comes from this one process on its event loop and adds no
threads; the service's own ``asyncio.to_thread`` dispatch is what it
measures.

In the open phase a request is due when the user's think time after the
previous reply runs out (a user's first request: its arrival time), and
its latency is measured from then, so a stall also delays the requests
queued behind it.  ``loadgen.lag_ms_p90`` reports how late requests
were actually sent.  The rate and lane count are constants here, never
derived from a probe of the program.  The open phase meets the limit
when its read p90 is within the service deadline, at least 99% of its
requests succeed, and its in-flight count does not grow from the third
to the last quarter of its arrival window.
"""

from __future__ import annotations

import asyncio
import statistics
import time
from itertools import islice

import numpy as np

import personas
from check import theta_feasible
from common import (
    LIMIT_MS,
    barrier,
    metric,
    peak_rss_mb,
    percentile,
    timed_setup,
)

N_OBJECTS = 60_000
K = 20
THETA_FRACTION = 0.003
SIDE = 0.02
#: Start-viewport and four-viewport-box population bands (personas.py).
BANDS = ((150, 250), (1000, 1800))
BATCH = 50
#: Users per second arriving in the open phase (14 requests per user):
#: well under a quarter of what the service completes at saturation.
#: Queueing magnifies every change of host speed in open-phase latency;
#: nearer saturation that swamped the program's own.
RATE = 1.5
#: Open and saturation phase pairs per part.
CYCLES = 3
#: Share of a part's seconds given to the open phases' arrival windows;
#: the saturation phases get the rest.
OPEN_SHARE = 0.75
#: Concurrent users in the saturation phase: more than the 8 slots.
LANES = 9
#: Delay between the saturation lanes' first users.
LANE_STAGGER_S = 0.03
#: Users each saturation lane may run in one phase: about four times
#: what a lane gets through on the host of RATIONALE.md.
LANE_USERS = 8
WARM_UP_USERS = 4
READS = frozenset({"zoom_in", "zoom_out", "pan"})
WRITES = frozenset({"stream_extend", "stream_expire"})


def make_service(dataset):
    from repro.metrics import MetricsRegistry
    from repro.robustness import CircuitBreaker
    from repro.service import AdmissionController, SelectionService

    metrics = MetricsRegistry()
    breaker = CircuitBreaker(name="service")
    return SelectionService(
        {"poi": dataset},
        default_deadline_ms=LIMIT_MS,
        admission=AdmissionController(
            max_concurrency=8,
            max_queue_depth=64,
            queue_timeout_s=0.5,
            breaker=breaker,
            metrics=metrics,
        ),
        breaker=breaker,
        metrics=metrics,
        session_options={"k": K, "prefetch": False, "workers": 0,
                         "tiles": None},
        max_sessions=256,
        session_ttl_s=1800.0,
        seed=2018,
    )


def _build():
    from repro.datasets.generators import sg_pois

    def build():
        dataset = sg_pois(n=N_OBJECTS)
        return dataset, make_service(dataset)

    return build


def _request(op: list, sid: str | None, start: list[float]):
    from repro.service import ServiceRequest

    kind = op[0]
    if kind == "start":
        return ServiceRequest(op="start", params={"region": start})
    if kind in ("zoom_in", "zoom_out"):
        return ServiceRequest(op=kind, session_id=sid,
                              params={"scale": op[1]})
    if kind == "pan":
        return ServiceRequest(op="pan", session_id=sid,
                              params={"dx": op[1], "dy": op[2]})
    if kind == "stream_extend":
        return ServiceRequest(op=kind, session_id=sid,
                              params={"xs": op[1], "ys": op[2], "ts": op[3]})
    if kind == "stream_expire":
        return ServiceRequest(op=kind, session_id=sid,
                              params={"cutoff": op[1]})
    if kind == "close":
        return ServiceRequest(op="close", session_id=sid)
    raise ValueError(f"unknown op {kind!r}")


class Phase:
    """One phase: its users, their request records and in-flight count.

    ``users[n]`` is user number ``n``; a user that never sent a request
    (a saturation lane ran out of time first) counts for nothing.
    """

    def __init__(self, name: str, window_s: float, users: list[dict]):
        self.name = name
        self.window_s = window_s
        self.users = users
        self.records: list[dict] = []
        self.inflight = 0
        self.inflight_max = 0
        self.origin = 0.0
        self.span_s = 0.0

    def started(self) -> set[int]:
        return {r["user"] for r in self.records}

    def attempted(self) -> int:
        return sum(len(self.users[n]["ops"]) + 1 for n in self.started())


async def _user(service, phase: Phase, number: int, arrive_at: float,
                think: bool) -> None:
    loop = asyncio.get_running_loop()
    user = phase.users[number]
    ops = [["start"]] + user["ops"]
    due = arrive_at
    sid = None
    for j, op in enumerate(ops):
        if j:
            due = done + (user["think_s"][j - 1] if think else 0.0)
        delay = due - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        sent = loop.time()
        phase.inflight += 1
        phase.inflight_max = max(phase.inflight_max, phase.inflight)
        response = await service.handle(_request(op, sid, user["start"]))
        done = loop.time()
        phase.inflight -= 1
        phase.records.append(
            {
                "user": number,
                "step": j,
                "op": op[0],
                "due": due,
                "sent": sent,
                "done": done,
                "ok": response.ok,
                "bad": False,
                "error": response.error_type,
                "selection": response.selection,
                "region": response.region,
            }
        )
        if not response.ok:
            print(f"failed: {phase.name} user {number} op {j} ({op[0]}): "
                  f"{response.error_type}: {response.error}")
            if sid is None:
                return  # the user never got a session
        if j == 0:
            sid = response.session_id


async def _run_open(service, phase: Phase, arrivals: list[float]) -> None:
    loop = asyncio.get_running_loop()
    phase.origin = loop.time() + 0.01
    await asyncio.gather(*(
        _user(service, phase, number, phase.origin + offset, think=True)
        for number, offset in enumerate(arrivals)
    ))
    phase.span_s = loop.time() - phase.origin


async def _run_saturation(service, phase: Phase) -> None:
    """``LANES`` back-to-back users until the window ends.

    Lane ``j`` runs users ``j``, ``j + LANES``, ...; a lane starts its
    next user only while the window is open, and every started user
    runs to its ``close``.
    """
    loop = asyncio.get_running_loop()
    phase.origin = loop.time()
    end = phase.origin + phase.window_s

    async def lane(first: int) -> None:
        # Staggered first starts: session creations arriving all at
        # once would wait for executor threads past the deadline.
        await asyncio.sleep(first * LANE_STAGGER_S)
        for number in range(first, len(phase.users), LANES):
            if loop.time() >= end:
                return
            await _user(service, phase, number, loop.time(), think=False)
        print(f"warning: saturation lane {first} ran out of users")

    await asyncio.gather(*(lane(j) for j in range(LANES)))
    phase.span_s = loop.time() - phase.origin


async def _warm_up(service, users: list[dict]) -> None:
    """Lazy imports, executor threads and first calls, before timing."""
    await _run_open(service, Phase("warm-up", 0.0, users),
                    [0.0] * len(users))


def _phases(dataset, seed: int, seconds: float, part: int, parts: int):
    """``(cycles, warm-up users)``.

    Each cycle is ``(open phase, its arrival offsets, saturation
    phase)``.  Every part draws its own users and arrivals from the seed.
    """
    open_window = OPEN_SHARE * seconds / CYCLES
    arrivals = [
        personas.poisson_arrivals(seed, RATE, open_window, part * CYCLES + c)
        for c in range(CYCLES)
    ]
    per_part = sum(map(len, arrivals)) + CYCLES * LANES * LANE_USERS
    users = personas.service_users(
        dataset.xs, dataset.ys, seed, parts * per_part + WARM_UP_USERS,
        SIDE, BANDS, BATCH)
    own = iter(users[part * per_part:(part + 1) * per_part])
    cycles = [
        (
            Phase(f"open {c}", open_window, list(islice(own, len(offsets)))),
            offsets,
            Phase(f"saturation {c}", seconds / CYCLES - open_window,
                  list(islice(own, LANES * LANE_USERS))),
        )
        for c, offsets in enumerate(arrivals)
    ]
    return cycles, users[-WARM_UP_USERS:]


# ----------------------------------------------------------------------
# Phase statistics
# ----------------------------------------------------------------------


def _latencies_ms(phases: list[Phase], kinds,
                  since: str = "due") -> list[float]:
    return [
        (r["done"] - r[since]) * 1000.0
        for phase in phases
        for r in phase.records if r["op"] in kinds and r["ok"]
    ]


def _lags_ms(phases: list[Phase]) -> list[float]:
    return [(r["sent"] - r["due"]) * 1000.0
            for phase in phases for r in phase.records]


def backlog_growth(phase: Phase) -> tuple[float, float]:
    """(growth, earlier mean) of in-flight requests in the arrival window.

    Mean in-flight count over the last quarter of the window minus the
    mean over the quarter before it, sampled every 10 ms.
    """
    sent = np.array([r["sent"] - phase.origin for r in phase.records])
    done = np.array([r["done"] - phase.origin for r in phase.records])
    w = phase.window_s
    grid = np.arange(0.5 * w, w, 0.01)
    counts = ((sent[None, :] <= grid[:, None])
              & (done[None, :] > grid[:, None])).sum(axis=1)
    late = grid >= 0.75 * w
    earlier = float(counts[~late].mean()) if (~late).any() else 0.0
    later = float(counts[late].mean()) if late.any() else 0.0
    return later - earlier, earlier


def meets_limit(phase: Phase) -> bool:
    reads = _latencies_ms([phase], READS)
    good = sum(1 for r in phase.records if r["ok"] and not r["bad"])
    growth, earlier = backlog_growth(phase)
    return (
        bool(reads)
        and percentile(reads, 90) <= LIMIT_MS
        and good >= 0.99 * phase.attempted()
        and growth <= max(2.0, earlier)
    )


def goodput_count(phase: Phase) -> int:
    """Saturation requests that succeeded, passed the check and finished
    within the service deadline before the window closed."""
    end = phase.origin + phase.window_s
    return sum(
        1 for r in phase.records
        if r["ok"] and not r["bad"] and r["done"] <= end
        and (r["done"] - r["due"]) * 1000.0 <= LIMIT_MS
    )


# ----------------------------------------------------------------------
# Output check: direct replay of each user's admitted operations
# ----------------------------------------------------------------------


def check_phase(dataset, phase: Phase, first_index: int) -> int:
    """Replays every user's admitted ops; returns mismatching responses.

    A mismatching record is also marked with ``rec["bad"] = True``.
    """
    from repro import MapSession
    from repro.core.problem import Aggregation
    from repro.core.streaming import StreamingSelector
    from repro.geo import BoundingBox
    from repro.similarity import GrowableEuclideanSimilarity

    by_user: dict[int, list[dict]] = {}
    for r in phase.records:
        by_user.setdefault(r["user"], []).append(r)
    bad = 0
    for number, records in sorted(by_user.items()):
        user = phase.users[number]
        ops = [["start"]] + user["ops"]
        session = MapSession(dataset, k=K, theta_fraction=THETA_FRACTION)
        stream = None
        for r in sorted(records, key=lambda rec: rec["step"]):
            if not r["ok"]:
                continue
            op = ops[r["step"]]
            kind = op[0]
            expected = None
            if kind == "start":
                expected = session.start(BoundingBox(*user["start"])).visible
            elif kind in ("zoom_in", "zoom_out"):
                expected = getattr(session, kind)(scale=op[1]).visible
            elif kind == "pan":
                expected = session.pan(op[1], op[2]).visible
            elif kind in WRITES:
                if stream is None:
                    region = session.region
                    stream = StreamingSelector(
                        GrowableEuclideanSimilarity(
                            d_max=float(np.hypot(region.width, region.height))
                            or 1.0),
                        region,
                        k=K,
                        theta=THETA_FRACTION * max(region.width,
                                                   region.height),
                        aggregation=Aggregation.MAX,
                    )
                if kind == "stream_extend":
                    xs, ys = np.asarray(op[1]), np.asarray(op[2])
                    stream.similarity.append(xs, ys)
                    stream.extend(xs, ys, ts=np.asarray(op[3]))
                else:
                    stream.expire_before(op[1])
                expected = stream.selected
            index = first_index + number * len(ops) + r["step"]
            served = r["selection"]
            if expected is not None and list(map(int, expected)) != served:
                print(f"mismatch: {phase.name} op {index} ({kind}) user "
                      f"{number}: served={served} expected="
                      f"{list(map(int, expected))}")
                r["bad"] = True
            elif kind in READS or kind == "start":
                minx, miny, maxx, maxy = r["region"]
                theta = THETA_FRACTION * max(maxx - minx, maxy - miny)
                if not theta_feasible(dataset.xs, dataset.ys,
                                      np.asarray(served, dtype=np.int64),
                                      theta):
                    print(f"mismatch: {phase.name} op {index} ({kind}) "
                          f"user {number}: selection is not theta-feasible")
                    r["bad"] = True
            bad += r["bad"]
        session.close()
    return bad


def _tally(dataset, phases: list[Phase]) -> tuple[int, int]:
    """Checks every phase; returns ``(attempted, failed)`` requests."""
    attempted = failed = 0
    for phase in phases:
        bad = check_phase(dataset, phase, attempted)
        phase_attempted = phase.attempted()
        ok = sum(1 for r in phase.records if r["ok"])
        attempted += phase_attempted
        failed += (phase_attempted - ok) + bad
    return attempted, failed


# ----------------------------------------------------------------------
# Runs
# ----------------------------------------------------------------------


def run_part(_workload: str, seed: int, seconds: float, trace: bool,
             part: int, parts: int) -> dict:
    """One part's samples, as plain data for :func:`combine`."""
    build = _build()
    (dataset, service), setup_s = timed_setup(build)
    if trace:
        return _run_traced(dataset, service, seed, seconds, part, parts)
    cycles, warm = _phases(dataset, seed, seconds, part, parts)
    opens = [opened for opened, _offsets, _saturated in cycles]
    saturations = [saturated for _opened, _offsets, saturated in cycles]

    timed_s = 0.0

    async def drive():
        nonlocal timed_s
        await _warm_up(service, warm)
        barrier("measure")
        started = time.perf_counter()
        for opened, offsets, saturated in cycles:
            await _run_open(service, opened, offsets)
            await _run_saturation(service, saturated)
        timed_s = time.perf_counter() - started
        await service.aclose()
        barrier("check")

    asyncio.run(drive())

    attempted, failed = _tally(dataset, opens + saturations)
    reads = _latencies_ms(opens, READS)
    print(f"open users={sum(len(p.users) for p in opens)} "
          f"requests={sum(len(p.records) for p in opens)} "
          f"read_p90_ms={percentile(reads, 90):.1f} "
          f"lag_p90_ms={percentile(_lags_ms(opens), 90):.2f} "
          f"backlog_growth_max="
          f"{max(backlog_growth(p)[0] for p in opens):.2f} "
          f"meets_limit={all(meets_limit(p) for p in opens)}")
    goodput = sum(goodput_count(p) for p in saturations)
    print(f"saturation users={sum(len(p.started()) for p in saturations)} "
          f"requests={sum(len(p.records) for p in saturations)} "
          f"inflight_max={max(p.inflight_max for p in saturations)} "
          f"goodput={goodput}")
    return {
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb(),
        "timed_s": timed_s,
        "attempted": attempted,
        "failed": failed,
        "completed": sum(len(p.records) for p in opens + saturations),
        "reads_ms": reads,
        "writes_ms": _latencies_ms(opens, WRITES),
        "saturated_reads_ms": _latencies_ms(saturations, READS, "sent"),
        "goodput": goodput,
        "saturation_s": sum(p.window_s for p in saturations),
    }


def combine(parts: list[dict], trace: bool) -> tuple:
    """Returns ``(attempted, failed, metrics)`` for the result line.

    Latency percentiles are over the pooled requests of every part;
    rates are over the parts' summed seconds.
    """
    if trace:
        (only,) = parts
        return only["attempted"], only["failed"], only["metrics"]

    def pooled(key):
        return [v for p in parts for v in p[key]]

    reads, writes = pooled("reads_ms"), pooled("writes_ms")
    saturated = pooled("saturated_reads_ms")
    metrics = {
        "setup_s": metric(
            statistics.median(p["setup_s"] for p in parts), "s"),
        "step_ms_p50": metric(percentile(saturated, 50), "ms"),
        "step_ms_p90": metric(percentile(saturated, 90), "ms"),
        "ops_per_s": metric(
            sum(p["completed"] for p in parts)
            / sum(p["timed_s"] for p in parts), "1/s"),
        "req_ms_p50": metric(percentile(reads, 50), "ms"),
        "req_ms_p90": metric(percentile(reads, 90), "ms"),
        "write_ms_p50": metric(percentile(writes, 50), "ms"),
        "write_ms_p90": metric(percentile(writes, 90), "ms"),
        "goodput_rps": metric(
            sum(p["goodput"] for p in parts)
            / sum(p["saturation_s"] for p in parts), "1/s"),
        "peak_rss_mb": metric(max(p["peak_rss_mb"] for p in parts), "MB"),
    }
    return (sum(p["attempted"] for p in parts),
            sum(p["failed"] for p in parts), metrics)


def _run_traced(dataset, service, seed: int, seconds: float, part: int,
                parts: int) -> dict:
    """The open phases untraced, then every cycle traced."""
    from layers import LayerTrace

    layers = LayerTrace()
    layers.plan(type(dataset.similarity))
    plain_cycles, warm = _phases(dataset, seed, seconds, part, parts)
    cycles, _warm = _phases(dataset, seed, seconds, part, parts)
    plain = [opened for opened, _offsets, _saturated in plain_cycles]
    opens = [opened for opened, _offsets, _saturated in cycles]
    saturations = [saturated for _opened, _offsets, saturated in cycles]

    async def drive():
        await _warm_up(service, warm)
        barrier("measure")
        for opened, offsets, _saturated in plain_cycles:
            await _run_open(service, opened, offsets)
        layers.install()
        try:
            for opened, offsets, saturated in cycles:
                await _run_open(service, opened, offsets)
                await _run_saturation(service, saturated)
        finally:
            layers.uninstall()

    asyncio.run(drive())
    barrier("check")
    payload_started = time.perf_counter()
    service.metrics_payload()
    payload_ms = (time.perf_counter() - payload_started) * 1000.0
    series_len_max = max(
        (s.get("count", 0) for s in service.metrics.summaries().values()),
        default=0,
    )
    service.close()

    attempted, failed = _tally(dataset, plain + opens + saturations)

    def handle_p50(phases):
        return statistics.median(_latencies_ms(phases, READS, "sent"))

    traced_wall = sum(layers.samples["service.wall"])
    print(f"requests={sum(len(p.records) for p in opens + saturations)} "
          f"traced_wall_s={traced_wall:.3f}")
    out = layers.metrics(traced_wall)
    out.update(
        {
            "metrics.series_len_max": series_len_max,
            "metrics.payload_ms": payload_ms,
            "loadgen.lag_ms_p90": percentile(_lags_ms(opens), 90),
            "loadgen.backlog_growth": max(
                backlog_growth(p)[0] for p in opens),
            "service.inflight_max": max(
                p.inflight_max for p in opens + saturations),
            "trace.overhead_share": handle_p50(opens) / handle_p50(plain),
            "check.cold_mismatches": sum(
                r["bad"] for p in plain + opens + saturations
                for r in p.records),
            "fail_share": failed / attempted if attempted else 0.0,
        }
    )
    return {"attempted": attempted, "failed": failed, "metrics": out}
