"""Seeded persona trace generator.

Users are characters with fixed habits, not sampling functions: each
persona instance gets its habits once (how far it pans, how deep it
zooms, how long it scrubs in one direction, how long it thinks) and
then repeats them.  A trace is plain data, so the timed run and the
reference replay consume identical inputs and the program under test
only ever receives generated values::

    {"persona": "burst-zoomer",
     "start": [minx, miny, maxx, maxy],
     "window": [t0, t1] or None,
     "think_s": [...] (service users only),
     "ops": [["zoom_in", 0.5], ["pan", dx, dy], ["time_step", dt], ...]}

Runs with different seeds must be comparable, so the mix is fixed and
only the particulars are drawn:

* Start viewports are centred on objects whose viewport, and the box
  four viewports wide around it, hold a population inside a narrow
  band.  A cold selection costs about the square of its population,
  so without the band one dense zoom-out dominates a whole run.  The
  band keeps a few percent of object-centred viewports and leaves out
  the dense ones (``RATIONALE.md`` gives the shares).
* Within the band, objects are cut into ``STRATA`` equal-count strata
  of viewport population, and habit variants are cycled by trace
  index.  Every round of ``ROUND`` traces holds the same mix.
* The seed picks the object inside each stratum, directions, slider
  jumps and think times.
"""

from __future__ import annotations

import numpy as np

#: Population strata anchors are drawn from: the lower and upper half
#: of the band.
STRATA = 2
#: Stratum of trace ``i`` is ``STRATUM_ORDER[i % ROUND]``.  A round of
#: four traces holds two traces from each stratum, one per persona
#: where the workload alternates two; runs stop at round boundaries,
#: so every run holds the same mix.
STRATUM_ORDER = (0, 0, 1, 1)
ROUND = len(STRATUM_ORDER)

ZOOM_IN = 0.5
ZOOM_OUT = 2.0


def frame_side(xs: np.ndarray, ys: np.ndarray) -> float:
    """Longer side of the coordinates' bounding box (the map frame)."""
    return float(max(xs.max() - xs.min(), ys.max() - ys.min()))


def viewport_counts(xs: np.ndarray, ys: np.ndarray, side: float,
                    sub: int = 4) -> np.ndarray:
    """Approximate object count of the ``side`` box centred on each object.

    A summed-area table over a grid of ``side / sub`` cells; the box is
    the ``sub x sub`` cell block around the object's cell, so counts
    are exact to within one cell row and column.  Numpy only.
    """
    cell = side / sub
    gx = np.floor((xs - xs.min()) / cell).astype(np.int64)
    gy = np.floor((ys - ys.min()) / cell).astype(np.int64)
    grid = np.zeros((int(gx.max()) + 1, int(gy.max()) + 1), dtype=np.int64)
    np.add.at(grid, (gx, gy), 1)
    table = np.zeros((grid.shape[0] + 1, grid.shape[1] + 1), dtype=np.int64)
    table[1:, 1:] = grid.cumsum(axis=0).cumsum(axis=1)
    half = sub // 2
    x0 = np.clip(gx - half, 0, grid.shape[0])
    x1 = np.clip(gx + half, 0, grid.shape[0])
    y0 = np.clip(gy - half, 0, grid.shape[1])
    y1 = np.clip(gy + half, 0, grid.shape[1])
    return table[x1, y1] - table[x0, y1] - table[x1, y0] + table[x0, y0]


def population_strata(xs: np.ndarray, ys: np.ndarray, side: float,
                      band: tuple[int, int], outer_band: tuple[int, int],
                      strata: int = STRATA) -> list[np.ndarray]:
    """Objects whose viewport population lies in ``band``, in strata.

    ``outer_band`` bounds the population of the box four viewports
    wide around the object as well: the session's zoom-out prefetch
    sweeps that box after every step, so it sets the upkeep cost.
    """
    counts = viewport_counts(xs, ys, side)
    outer = viewport_counts(xs, ys, 4.0 * side)
    inside = np.flatnonzero(
        (counts >= band[0]) & (counts <= band[1])
        & (outer >= outer_band[0]) & (outer <= outer_band[1])
    )
    order = inside[np.argsort(counts[inside], kind="stable")]
    return np.array_split(order, strata)


def region_around(x: float, y: float, side: float) -> list[float]:
    half = side / 2.0
    return [x - half, y - half, x + half, y + half]


class _Anchors:
    """Round-robin anchor picker over population strata."""

    def __init__(self, xs, ys, side, bands, rng):
        self.xs, self.ys = xs, ys
        self.side = side
        self.rng = rng
        self.strata = population_strata(xs, ys, side, *bands)

    def pick(self, index: int) -> int:
        group = self.strata[STRATUM_ORDER[index % len(STRATUM_ORDER)]]
        return int(group[int(self.rng.integers(len(group)))])

    def region(self, obj: int) -> list[float]:
        return region_around(
            float(self.xs[obj]), float(self.ys[obj]), self.side
        )


# ----------------------------------------------------------------------
# Personas
# ----------------------------------------------------------------------


class PanLoopCommuter:
    """Drives the same square loop every time and ends where it began.

    Habits: pans per leg (variant 0: one, with a zoom-in glance and
    back out after the first and third legs; variant 1: two) and the
    direction of travel.  Every trace has eight operations.
    """

    name = "pan-loop-commuter"

    def __init__(self, rng: np.random.Generator, variant: int):
        self.pans_per_leg = 1 + variant % 2
        self.clockwise = bool(rng.random() < 0.5)

    def ops(self, side: float) -> list[list]:
        step = side / (2.0 * self.pans_per_leg)
        legs = [(step, 0.0), (0.0, step), (-step, 0.0), (0.0, -step)]
        if self.clockwise:
            legs = [(dx, -dy) for dx, dy in legs]
        out: list[list] = []
        for leg, (dx, dy) in enumerate(legs):
            out.extend(["pan", dx, dy] for _ in range(self.pans_per_leg))
            if self.pans_per_leg == 1 and leg in (0, 2):
                out.append(["zoom_in", ZOOM_IN])
                out.append(["zoom_out", ZOOM_OUT])
        return out


class BurstZoomer:
    """Dives in a burst, looks around at the bottom, climbs back out.

    Habits: burst depth (variant 0: one level, variant 1: two) and the
    pan direction it looks around in.  After the climb it takes one
    overview step above the start level and comes back.  Every trace
    has eight operations and ends at the start zoom level.
    """

    name = "burst-zoomer"

    def __init__(self, rng: np.random.Generator, variant: int):
        self.depth = 1 + variant % 2
        angle = float(rng.uniform(0.0, 2.0 * np.pi))
        self.direction = (float(np.cos(angle)), float(np.sin(angle)))

    def ops(self, side: float) -> list[list]:
        out: list[list] = [["zoom_in", ZOOM_IN] for _ in range(self.depth)]
        deep = side * ZOOM_IN ** self.depth
        look = 5 - 2 * self.depth
        dx, dy = (0.5 * deep * c for c in self.direction)
        for i in range(look):
            sign = 1.0 if i % 2 == 0 else -1.0
            out.append(["pan", sign * dx, sign * dy])
        out.extend(["zoom_out", ZOOM_OUT] for _ in range(self.depth))
        out.append(["zoom_out", ZOOM_OUT])
        out.append(["pan", 0.25 * side * self.direction[0],
                    0.25 * side * self.direction[1]])
        out.append(["zoom_in", ZOOM_IN])
        return out


class SliderScrubber:
    """Scrubs a time slider over a fixed viewport.

    Habits: steps per run in one direction (variant 0: three, variant
    1: five), after how many runs it jumps the window elsewhere (two or
    three), how often it runs forward, and one pan per trace.  Every
    trace has twelve operations.
    """

    name = "slider-scrubber"

    def __init__(self, rng: np.random.Generator, variant: int):
        self.rng = rng
        self.run_length = 3 + 2 * (variant % 2)
        self.jump_every = 2 + (variant // 2) % 2
        self.forward_bias = float(rng.uniform(0.6, 0.8))

    def ops(self, side: float, width: float, dt: float) -> list[list]:
        out: list[list] = []
        runs = 0
        panned = False
        while len(out) < 12:
            sign = 1.0 if self.rng.random() < self.forward_bias else -1.0
            for _ in range(self.run_length):
                if len(out) < 12:
                    out.append(["time_step", sign * dt])
            runs += 1
            if len(out) < 12 and runs % self.jump_every == 0:
                t0 = float(self.rng.uniform(0.0, 1.0 - width))
                out.append(["set_time_window", t0, t0 + width])
            elif len(out) < 12 and not panned:
                panned = True
                out.append(["pan", 0.5 * side, 0.0])
        return out


class ServiceUser:
    """A service client: reads like a commuter or a zoomer, then writes.

    Habits: the reading persona and its variant (cycled, so every
    group of four users holds each once) and a think time (100-140 ms)
    it keeps with +-10% jitter.  Each user sends ``start``, eight reads,
    four writes (a ``stream_extend`` batch after the second, fourth and
    sixth reads, a ``stream_expire`` after the eighth) and ``close``.
    The first batch fills an empty selection and costs several times
    what the later writes do; with three cheap writes behind it, the
    writes' median falls among the cheap ones rather than in the gap
    between the two kinds.
    """

    name = "service-user"
    extend_after = (2, 4, 6)

    def __init__(self, rng: np.random.Generator, variant: int):
        self.rng = rng
        reader = (PanLoopCommuter, BurstZoomer)[variant % 2]
        self.reader = reader(rng, (variant // 2) % 2)
        self.think_s = float(rng.uniform(0.10, 0.14))

    def ops(self, start: list[float], batch: int) -> list[list]:
        side = start[2] - start[0]
        reads = self.reader.ops(side)[:8]
        region = list(start)
        out: list[list] = []
        for i, op in enumerate(reads, start=1):
            out.append(op)
            region = _apply(region, op)
            if i in self.extend_after:
                # Arrivals land in the viewport the user is looking at.
                xs = self.rng.uniform(region[0], region[2], batch)
                ys = self.rng.uniform(region[1], region[3], batch)
                ts = self.rng.random(batch)
                out.append(["stream_extend", xs.tolist(), ys.tolist(),
                            ts.tolist()])
        out.append(["stream_expire", 0.3])
        out.append(["close"])
        return out

    def thinks(self, count: int) -> list[float]:
        jitter = self.rng.uniform(0.9, 1.1, count)
        return (self.think_s * jitter).tolist()


def _apply(region: list[float], op: list) -> list[float]:
    """The viewport after a read op (centred zooms, offset pans)."""
    minx, miny, maxx, maxy = region
    cx, cy = (minx + maxx) / 2.0, (miny + maxy) / 2.0
    half_w, half_h = (maxx - minx) / 2.0, (maxy - miny) / 2.0
    if op[0] in ("zoom_in", "zoom_out"):
        half_w, half_h = half_w * op[1], half_h * op[1]
    elif op[0] == "pan":
        cx, cy = cx + op[1], cy + op[2]
    return [cx - half_w, cy - half_h, cx + half_w, cy + half_h]


# ----------------------------------------------------------------------
# Workload trace sets
# ----------------------------------------------------------------------


def navigation_traces(xs, ys, seed: int, count: int, side_fraction: float,
                      bands: tuple[tuple[int, int], tuple[int, int]]):
    """Commuters and zoomers alternating over population strata."""
    rng = np.random.default_rng([seed, 1])
    side = side_fraction * frame_side(xs, ys)
    anchors = _Anchors(xs, ys, side, bands, rng)
    traces = []
    for i in range(count):
        # Commuter and zoomer alternate, so each pair of traces shares
        # a stratum and holds one of each; the habit variant flips so a
        # round of four holds every (persona, variant) pair once.
        persona_cls = (PanLoopCommuter, BurstZoomer)[i % 2]
        persona = persona_cls(rng, (i + i // 2) % 2)
        traces.append(
            {
                "persona": persona.name,
                "start": anchors.region(anchors.pick(i)),
                "window": None,
                "ops": persona.ops(side),
            }
        )
    return traces


def slider_traces(xs, ys, ts, seed: int, count: int, side_fraction: float,
                  bands: tuple[tuple[int, int], tuple[int, int]],
                  width: float, dt: float):
    """Slider scrubbers over population strata, windows on the anchor's time."""
    rng = np.random.default_rng([seed, 2])
    side = side_fraction * frame_side(xs, ys)
    anchors = _Anchors(xs, ys, side, bands, rng)
    traces = []
    for i in range(count):
        obj = anchors.pick(i)
        persona = SliderScrubber(rng, i % 4)
        t0 = float(np.clip(ts[obj] - width / 2.0, 0.0, 1.0 - width))
        traces.append(
            {
                "persona": persona.name,
                "start": anchors.region(obj),
                "window": [t0, t0 + width],
                "ops": persona.ops(side, width, dt),
            }
        )
    return traces


def service_users(xs, ys, seed: int, count: int, side_fraction: float,
                  bands: tuple[tuple[int, int], tuple[int, int]],
                  batch: int):
    """Service users over population strata, each with its think times."""
    rng = np.random.default_rng([seed, 3])
    side = side_fraction * frame_side(xs, ys)
    anchors = _Anchors(xs, ys, side, bands, rng)
    users = []
    for i in range(count):
        start = anchors.region(anchors.pick(i))
        persona = ServiceUser(rng, i % 4)
        ops = persona.ops(start, batch)
        users.append(
            {
                "persona": persona.name,
                "start": start,
                "window": None,
                "ops": ops,
                # One think time before every request after ``start``.
                "think_s": persona.thinks(len(ops)),
            }
        )
    return users


def poisson_arrivals(seed: int, rate: float, window_s: float, stream: int):
    """Seeded Poisson arrival times in ``[0, window_s)`` at ``rate``/s.

    The count is fixed at ``round(rate * window_s)`` and the times are
    its sorted uniform order statistics: a Poisson process conditioned
    on its count, so every seed offers the same number of users.
    ``stream`` picks one of several independent schedules per seed.
    """
    rng = np.random.default_rng([seed, 4, stream])
    count = max(1, int(round(rate * window_s)))
    return np.sort(rng.uniform(0.0, window_s, count)).tolist()
