"""Per-layer attribution for the traced run.

The benchmark does not change the program.  A :class:`LayerTrace`
replaces public functions of the ``repro`` modules with timing wrappers
for the duration of a traced phase and restores them afterwards.  Each
wrapper records one span: its layer, start, end and the span that
called it (a :mod:`contextvars` variable, so nesting follows threads
started through ``asyncio.to_thread`` as well as plain calls).  Spans
are folded into totals as they close, so memory stays flat.

A layer's self time is its span's duration minus the time its child
spans cover.  Spans the program records itself (``greedy.init`` and
``greedy.loop``) are read through a :class:`repro.trace.Tracer` handed
to each ``greedy_core`` call, or through the caller's own tracer when
it passes one.
"""

from __future__ import annotations

import contextvars
import functools
import threading
import time
from collections import Counter, defaultdict

from common import percentile


class _Frame:
    __slots__ = ("parent", "child", "mark", "ticket")

    def __init__(self, parent):
        self.parent = parent
        self.child = 0.0
        # (clock, child seconds) when the selection started; set by the
        # ladder wrapper on the enclosing MapSession call.
        self.mark = None
        # Admission ticket of a service request.
        self.ticket = None


class LayerTrace:
    """Wrappers around the layers' public functions, plus their totals."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._frame: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_frame", default=None
        )
        self._patches: list[tuple[object, str, object, object]] = []
        self.seconds: dict[str, float] = defaultdict(float)
        self.self_seconds: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.samples: dict[str, list[float]] = defaultdict(list)

    # ------------------------------------------------------------------
    # Span bookkeeping
    # ------------------------------------------------------------------

    def _close(self, layer: str, frame: _Frame, duration: float) -> None:
        with self._lock:
            self.seconds[layer] += duration
            self.self_seconds[layer] += duration - frame.child
            self.calls[layer] += 1
            if frame.parent is not None:
                frame.parent.child += duration

    def _timed(self, layer, fn, before=None, after=None):
        frame_var = self._frame

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = frame_var.get()
            frame = _Frame(parent)
            memo = before(parent, args, kwargs) if before else None
            token = frame_var.set(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                frame_var.reset(token)
                self._close(layer, frame, end - start)
            if after is not None:
                after(frame, args, result, start, end, memo)
            return result

        return wrapper

    def _timed_async(self, layer, fn, after):
        frame_var = self._frame

        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            frame = _Frame(frame_var.get())
            token = frame_var.set(frame)
            start = time.perf_counter()
            try:
                result = await fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                frame_var.reset(token)
                self._close(layer, frame, end - start)
            after(frame, args, result, start, end, None)
            return result

        return wrapper

    def _timed_kernel(self, kernel, rows_of):
        frame_var = self._frame

        def wrapper(arg):
            frame = _Frame(frame_var.get())
            token = frame_var.set(frame)
            start = time.perf_counter()
            try:
                return kernel(arg)
            finally:
                end = time.perf_counter()
                frame_var.reset(token)
                self._close("similarity.kernel", frame, end - start)
                with self._lock:
                    self.counts["similarity.kernel_rows"] += rows_of(arg)

        return wrapper

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr], replacement))

    def plan(self, similarity_cls) -> None:
        """Choose every wrapper; :meth:`install` puts them in place."""
        import repro.core.greedy as greedy_mod
        import repro.core.session as session_mod
        from repro.core.dataset import GeoDataset
        from repro.core.prefetch import PrefetchData, Prefetcher
        from repro.core.session import MapSession
        from repro.core.streaming import StreamingSelector
        from repro.core.temporal import TemporalPrefetchData, TemporalPrefetcher
        from repro.service.admission import AdmissionController
        from repro.service.service import SelectionService
        from repro.service.sessions import SessionManager

        timed = self._timed
        # index
        self._patch(GeoDataset, "objects_in",
                    timed("index.region", GeoDataset.objects_in))
        for name in ("conflicts_with", "conflicts_with_many"):
            self._patch(GeoDataset, name,
                        timed("index.conflict", getattr(GeoDataset, name)))
        # similarity: kernels and the kernels they return
        for name, rows_of in (
            ("row_kernel", lambda _obj: 1),
            ("rows_kernel", len),
        ):
            if name in similarity_cls.__dict__:
                self._patch(similarity_cls, name, self._kernel_builder(
                    getattr(similarity_cls, name), rows_of))
        if "sims_to" in similarity_cls.__dict__:
            self._patch(similarity_cls, "sims_to", timed(
                "similarity.kernel", similarity_cls.sims_to,
                after=self._count_sims_to))
        if "weighted_sims_sum" in similarity_cls.__dict__:
            self._patch(similarity_cls, "weighted_sims_sum", timed(
                "similarity.mass", similarity_cls.weighted_sims_sum))
        # greedy, read through the program's own spans.  streaming.py
        # binds greedy_core by name and is left alone: tracing its
        # re-optimisations pushed saturated requests past their deadline,
        # so that greedy time shows only inside streaming.extend_s.
        self._patch(greedy_mod, "greedy_core",
                    self._greedy(greedy_mod.greedy_core))
        # ladder (session.py binds it by name)
        self._patch(session_mod, "select_with_ladder", timed(
            "ladder", session_mod.select_with_ladder,
            before=self._mark_selection, after=self._ladder_done))
        # session
        for name in ("start", "zoom_in", "zoom_out", "pan",
                     "set_time_window", "time_step"):
            self._patch(MapSession, name, timed(
                "session", getattr(MapSession, name),
                after=self._session_done))
        # prefetch upkeep and bound serving
        for name in ("prefetch_zoom_in", "prefetch_zoom_out", "prefetch_pan"):
            self._patch(Prefetcher, name, timed(
                "prefetch.upkeep", getattr(Prefetcher, name)))
        self._patch(PrefetchData, "bounds_for",
                    timed("prefetch.bounds", PrefetchData.bounds_for))
        self._patch(TemporalPrefetchData, "bounds_for",
                    timed("prefetch.bounds", TemporalPrefetchData.bounds_for))
        self._patch(TemporalPrefetcher, "prefetch_steps", timed(
            "temporal.upkeep", TemporalPrefetcher.prefetch_steps))
        self._patch(TemporalPrefetcher, "prefetch_window", timed(
            "temporal.window", TemporalPrefetcher.prefetch_window))
        # streaming
        for name, layer in (("extend", "streaming.extend"),
                            ("expire_before", "streaming.expire")):
            self._patch(StreamingSelector, name, timed(
                layer, getattr(StreamingSelector, name),
                before=lambda _p, args, _kw: args[0].swaps,
                after=self._stream_done))
        # service
        self._patch(SelectionService, "handle", self._timed_async(
            "service", SelectionService.handle, after=self._request_done))
        self._patch(SessionManager, "create", timed(
            "service.session_create", SessionManager.create))
        self._patch(AdmissionController, "admit",
                    self._admit(AdmissionController.admit))

    def install(self) -> None:
        for owner, attr, _original, replacement in self._patches:
            setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        for owner, attr, original, _replacement in self._patches:
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # Wrappers with layer-specific hooks
    # ------------------------------------------------------------------

    def _kernel_builder(self, builder, rows_of):
        timed_builder = self._timed("similarity.build", builder)

        @functools.wraps(builder)
        def wrapper(*args, **kwargs):
            return self._timed_kernel(timed_builder(*args, **kwargs), rows_of)

        return wrapper

    def _count_sims_to(self, _frame, _args, _result, _start, _end, _memo):
        with self._lock:
            self.counts["similarity.kernel_rows"] += 1

    def _greedy(self, greedy_core):
        """``greedy.init``/``greedy.loop`` read from the call's own spans.

        A caller that traces (``tracer=`` a recording tracer) keeps its
        tracer, and the two spans are read from the children the call
        added under its current span.  Otherwise the call gets a fresh
        tracer of its own.
        """
        from repro.trace import Tracer

        def after(_frame, _args, result, _start, _end, memo):
            tracer, parent, before_count = memo
            if parent is not None:
                added = parent.children[before_count:]
            else:
                added = tracer.roots[before_count:]
            spans = {span.name: span for span in added}
            init, loop = spans.get("greedy.init"), spans.get("greedy.loop")
            if init is None or loop is None:
                return
            if init.args.get("mode") == "bounds":
                init_evals = result.stats.get("seeded_exact", 0)
            else:
                init_evals = init.args.get("heap_pushes", 0)
            with self._lock:
                self.seconds["greedy.init"] += init.duration_s
                self.seconds["greedy.loop"] += loop.duration_s
                evals = int(loop.args.get("gain_evaluations", 0))
                self.counts["greedy.gain_evaluations"] += evals
                self.counts["greedy.loop_evaluations"] += evals - init_evals
                self.counts["greedy.heap_pops"] += int(
                    loop.args.get("heap_pops", 0))
                self.counts["greedy.picks"] += int(
                    loop.args.get("iterations", 0))

        def before(_parent, _args, kwargs):
            tracer = kwargs.get("tracer")
            if tracer is None or not getattr(tracer, "enabled", False):
                tracer = kwargs["tracer"] = Tracer()
            parent = tracer.current()
            count = (len(parent.children) if parent is not None
                     else len(tracer.roots))
            return tracer, parent, count

        return self._timed("greedy", greedy_core, before=before, after=after)

    def _mark_selection(self, parent, _args, _kwargs):
        if parent is not None and parent.mark is None:
            parent.mark = (time.perf_counter(), parent.child)

    def _ladder_done(self, _frame, _args, result, _start, _end, _memo):
        if result.degraded or result.stats.get("tier", "exact") != "exact":
            with self._lock:
                self.counts["ladder.degraded_steps"] += 1

    def _session_done(self, frame, _args, step, start, end, _memo):
        derive = 0.0
        if frame.mark is not None:
            marked_at, child_before = frame.mark
            derive = (marked_at - start) - child_before
        with self._lock:
            self.samples["session.wall"].append(end - start)
            self.samples["session.response"].append(step.elapsed_s)
            self.seconds["session.derive"] += derive
            if step.used_prefetch:
                self.counts["prefetch.serves"] += 1
            if step.temporal_seeded:
                self.counts["temporal.serves"] += 1

    def _stream_done(self, _frame, args, _result, _start, _end, swaps_before):
        with self._lock:
            self.counts["streaming.swaps"] += args[0].swaps - swaps_before

    def _admit(self, admit):
        frame_var = self._frame

        @functools.wraps(admit)
        def wrapper(*args, **kwargs):
            ticket = admit(*args, **kwargs)
            frame = frame_var.get()
            if frame is not None:
                frame.ticket = ticket
            return ticket

        return wrapper

    def _request_done(self, frame, _args, response, start, end, _memo):
        queue_wait = frame.ticket.queue_wait_s if frame.ticket else 0.0
        with self._lock:
            self.samples["service.wall"].append(end - start)
            self.samples["service.queue_wait"].append(queue_wait)
            self.samples["service.dispatch"].append(
                (end - start) - frame.child - queue_wait
            )
            if response.shed_reason:
                self.counts["service.sheds"] += 1

    # ------------------------------------------------------------------
    # Per-layer metrics
    # ------------------------------------------------------------------

    def metrics(self, top_wall_s: float) -> dict[str, float]:
        """Layer metrics; ``top_wall_s`` is the traced calls' wall time."""
        s, c, n = self.seconds, self.calls, self.counts
        sessions_wall = sum(self.samples["session.wall"])
        upkeep = s["prefetch.upkeep"] + s["temporal.upkeep"]
        windows = c["temporal.window"]
        loop_evals = n["greedy.loop_evaluations"]
        service_wait = self.samples["service.queue_wait"]
        service_dispatch = self.samples["service.dispatch"]
        responses = self.samples["session.response"]
        unattributed = self.self_seconds["session"] - s["session.derive"]
        return {
            "index.region_queries": c["index.region"],
            "index.region_query_s": s["index.region"],
            "index.conflict_queries": c["index.conflict"],
            "index.conflict_query_s": s["index.conflict"],
            "similarity.kernel_calls": c["similarity.kernel"],
            "similarity.kernel_rows": n["similarity.kernel_rows"],
            # Building a kernel (the population sub-matrix) is kernel
            # work too; only the calls count as kernel calls.
            "similarity.kernel_s": (
                s["similarity.kernel"] + s["similarity.build"]
            ),
            "similarity.mass_s": s["similarity.mass"],
            "greedy.init_s": s["greedy.init"],
            "greedy.loop_s": s["greedy.loop"],
            "greedy.gain_evaluations": n["greedy.gain_evaluations"],
            "greedy.heap_pops": n["greedy.heap_pops"],
            "greedy.pick_yield": (
                n["greedy.picks"] / loop_evals if loop_evals else 0.0
            ),
            "ladder.degraded_steps": n["ladder.degraded_steps"],
            "session.response_ms_p50": (
                percentile(responses, 50) * 1000.0 if responses else 0.0
            ),
            "session.derive_s": s["session.derive"],
            "session.upkeep_share": (
                upkeep / sessions_wall if sessions_wall else 0.0
            ),
            "prefetch.upkeep_s": s["prefetch.upkeep"],
            "prefetch.kinds_built": c["prefetch.upkeep"],
            "prefetch.serves": n["prefetch.serves"],
            "prefetch.use_ratio": (
                n["prefetch.serves"] / c["prefetch.upkeep"]
                if c["prefetch.upkeep"] else 0.0
            ),
            "prefetch.bounds_s": s["prefetch.bounds"],
            "temporal.upkeep_s": s["temporal.upkeep"],
            "temporal.windows_built": windows,
            "temporal.serves": n["temporal.serves"],
            "temporal.use_ratio": (
                n["temporal.serves"] / windows if windows else 0.0
            ),
            "streaming.extend_s": s["streaming.extend"],
            "streaming.expire_s": s["streaming.expire"],
            "streaming.swaps": n["streaming.swaps"],
            "service.queue_wait_ms_p90": (
                percentile(service_wait, 90) * 1000.0 if service_wait else 0.0
            ),
            "service.dispatch_ms_p50": (
                percentile(service_dispatch, 50) * 1000.0
                if service_dispatch else 0.0
            ),
            "service.session_create_s": s["service.session_create"],
            "service.sheds": n["service.sheds"],
            "trace.unattributed_share": (
                unattributed / top_wall_s if top_wall_s else 0.0
            ),
        }
