"""Output checks, run after the timed phase.

A navigation step is correct when

* its population equals a brute-force scan of the coordinates (and
  timestamps, under a time window),
* its selection is a greedy selection of the step's recorded
  population, candidates, mandatory set and θ: the mandatory set first,
  then at each position an object whose marginal gain is the largest
  left, to within :data:`TIE_RTOL`, until ``k`` are picked or no
  candidate is left, and
* its selection is θ-feasible: no two selected objects closer than θ.

The reference is a cold ``greedy_core`` run on those recorded inputs.
A selection equal to it, ids and order, passes at once.  One that
differs is replayed pick by pick (:func:`greedy_violation`).  If every
pick was a largest gain, the step is a *tie divergence*: a correct
output, which the seeded engine should nevertheless have made
bit-identical to the cold one.  Tie divergences are counted apart from
failures.  Every mismatch and every tie divergence is printed with its
op index and both id lists.
"""

from __future__ import annotations

import numpy as np

#: Largest relative shortfall of a pick's gain below the best gain left
#: that still counts as a tie.  The same gain reached along different
#: kernel paths differs in its last bit or two (about 2e-16 relative);
#: this leaves room for a few thousand such bits and no more.
TIE_RTOL = 1e-12


def brute_population(xs, ys, ts, region, window) -> np.ndarray:
    minx, miny, maxx, maxy = region
    mask = (xs >= minx) & (xs <= maxx) & (ys >= miny) & (ys <= maxy)
    if window is not None:
        mask &= (ts >= window[0]) & (ts < window[1])
    return np.flatnonzero(mask).astype(np.int64)


def theta_feasible(xs, ys, ids, theta: float) -> bool:
    if len(ids) < 2 or theta <= 0.0:
        return True
    px, py = xs[ids], ys[ids]
    dist = np.hypot(px[:, None] - px[None, :], py[:, None] - py[None, :])
    np.fill_diagonal(dist, np.inf)
    return bool(dist.min() >= theta)


def report(index: int, op: str, what: str, served, expected) -> None:
    print(
        f"mismatch: op {index} ({op}) {what}: "
        f"served={list(map(int, served))} expected={list(map(int, expected))}"
    )


def greedy_violation(dataset, rec: dict, k: int) -> str | None:
    """Why ``rec["selected"]`` is not a greedy selection, or ``None``.

    Replays the selection pick by pick on a fresh gain state.  Gains
    only fall as the selection grows (submodularity, Lemma 4.1), so a
    candidate's last computed gain bounds its gain now, and only the
    candidates whose bound beats the pick are recomputed.  Conflicts
    are found with numpy distances, not the spatial index.
    """
    from repro.core.problem import Aggregation
    from repro.core.scoring import MarginalGainState

    xs, ys = dataset.xs, dataset.ys
    theta = rec["theta"]
    selected = [int(i) for i in rec["selected"]]
    mandatory = [int(i) for i in rec["mandatory"]]
    if selected[:len(mandatory)] != mandatory:
        return "does not start with the mandatory set"
    state = MarginalGainState(dataset, rec["population"], Aggregation.MAX)
    alive = np.setdiff1d(np.asarray(rec["candidates"], dtype=np.int64),
                         np.asarray(mandatory, dtype=np.int64))

    def open_mask(ids: np.ndarray, source: int) -> np.ndarray:
        """Which of ``ids`` stay open after ``source`` is picked."""
        far = np.hypot(xs[ids] - xs[source], ys[ids] - ys[source]) >= theta
        return far & (ids != source)

    for obj in mandatory:
        state.add(obj)
        alive = alive[open_mask(alive, obj)]
    bounds = state.batch_gains(alive, count=False)
    for position in range(len(mandatory), len(selected)):
        pick = selected[position]
        at = np.searchsorted(alive, pick)
        if at == len(alive) or alive[at] != pick:
            return f"pick {position} ({pick}) is not an open candidate"
        gain = state.gain(pick)
        bounds[at] = gain
        floor = gain + TIE_RTOL * abs(gain)
        stale = np.flatnonzero(bounds > floor)
        if len(stale):
            bounds[stale] = state.batch_gains(alive[stale], count=False)
            best = int(np.argmax(bounds))
            if bounds[best] > floor:
                return (f"pick {position} ({pick}) has gain {gain!r}, "
                        f"but {int(alive[best])} has {bounds[best]!r}")
        state.add(pick)
        keep = open_mask(alive, pick)
        alive, bounds = alive[keep], bounds[keep]
    if len(selected) < k and len(alive):
        return f"stops at {len(selected)} of k={k} with candidates left"
    return None


def check_steps(dataset, records: list[dict], k: int) -> dict:
    """Check every recorded step; returns counts by kind.

    ``failed_steps`` counts the steps that failed; ``ties`` the tie
    divergences, which did not.  A failing record is also marked with
    ``rec["failed"] = True``.
    """
    from repro.core.greedy import greedy_core

    xs, ys, ts = dataset.xs, dataset.ys, dataset.ts
    counts = {"population": 0, "cold": 0, "theta": 0, "ties": 0,
              "failed_steps": 0}
    for rec in records:
        bad = False
        expected = brute_population(xs, ys, ts, rec["region"], rec["window"])
        if not np.array_equal(expected, rec["population"]):
            report(rec["index"], rec["op"], "population",
                   rec["population"], expected)
            counts["population"] += 1
            bad = True
        cold = greedy_core(
            dataset,
            rec["population"],
            rec["candidates"],
            rec["mandatory"],
            k,
            rec["theta"],
        )
        if not np.array_equal(cold.selected, rec["selected"]):
            violation = greedy_violation(dataset, rec, k)
            scores = f"score served={rec['score']!r} cold={cold.score!r}"
            if violation is None:
                print(f"tie: op {rec['index']} ({rec['op']}) differs from "
                      f"cold greedy at tied gains ({scores}): "
                      f"served={list(map(int, rec['selected']))} "
                      f"cold={list(map(int, cold.selected))}")
                counts["ties"] += 1
            else:
                report(rec["index"], rec["op"],
                       f"not greedy: {violation} ({scores})",
                       rec["selected"], cold.selected)
                counts["cold"] += 1
                bad = True
        if not theta_feasible(xs, ys, rec["selected"], rec["theta"]):
            print(f"mismatch: op {rec['index']} ({rec['op']}) "
                  f"selection is not theta-feasible")
            counts["theta"] += 1
            bad = True
        rec["failed"] = bad
        counts["failed_steps"] += bad
    return counts
