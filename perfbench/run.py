"""Run one benchmark workload and print its result line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload navigate-text --seed 1 \\
        --seconds 16 --trace 0

Each measurement runs in fresh interpreters started by this script, one
workload at a time, so ``setup_s`` and ``peak_rss_mb`` belong to that
workload alone.  An untraced run starts ``PARTS`` of them (fewer on a
host with fewer CPUs), each pinned to its own CPU and on its own slice
of the seed's inputs.  They set up side by side, measure side by side
for ``--seconds``, starting together, then check their outputs side by
side.  This script pools their samples.  A traced run starts one part.
The program is imported from ``src/`` next to this directory.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Earlier lines carry the host stamp, sample counts and any check
mismatches.  See ``RATIONALE.md`` for what each workload and metric is
for.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

WORKLOADS = ("navigate-text", "time-slider", "service-mix")

#: Fresh interpreters per untraced run, one per CPU.  The host's CPUs
#: change speed independently of each other, so measuring on both at
#: once averages their drift.
PARTS = 2
#: Seconds a whole run may take, its parts' set-up and check included.
RUN_TIMEOUT_S = 170.0
#: Prefix of the line a part prints its samples on.
PART_PREFIX = "part "


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: run part I of N in this interpreter and print its samples.
    parser.add_argument("--part", help=argparse.SUPPRESS)
    parser.add_argument("--spin", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _workload_module(workload: str):
    if workload == "service-mix":
        import service_mix

        return service_mix
    import closed_loop

    return closed_loop


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.spin is not None:
        return _spin(args.spin)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    module = _workload_module(args.workload)

    if args.part is not None:
        part, parts = (int(x) for x in args.part.split("/"))
        cpus = sorted(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpus[part % len(cpus)]})
        result = module.run_part(args.workload, args.seed, args.seconds,
                                 bool(args.trace), part, parts)
        print(PART_PREFIX + json.dumps(result), flush=True)
        return 0

    from common import emit_result, host_stamp

    print("host " + json.dumps(host_stamp()), flush=True)
    cpus = sorted(os.sched_getaffinity(0))
    count = 1 if args.trace else min(PARTS, len(cpus))
    spinners = []
    parts = []
    try:
        for index in range(count):
            spinners.append(_Spinner(args, cpus[index]))
            parts.append(_Part(args, index, count))
        results = _drive(parts, time.monotonic() + RUN_TIMEOUT_S)
    except (TimeoutError, EOFError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        for proc in parts + spinners:
            proc.stop()
    attempted, failed, metrics = module.combine(results, bool(args.trace))
    if args.trace:
        metrics = {
            name: {"value": float(value), "unit": _layer_unit(name)}
            for name, value in metrics.items()
        }
    emit_result(attempted, failed, metrics)
    return 0


def _spin(cpu: int) -> int:
    """Keep ``cpu`` busy at idle priority until the parent process ends.

    The host's CPUs are virtual.  One that halts while idle is woken
    late and finds its caches cold, and the open phase of
    ``service-mix`` is idle most of the time: without a spinner its
    latencies swung by half between runs.  Under ``SCHED_IDLE`` the
    spinner runs only when nothing else wants the CPU, and the kernel
    preempts it as soon as another task wakes.
    """
    os.sched_setaffinity(0, {cpu})
    os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
    parent = os.getppid()
    while os.getppid() == parent:
        for _ in range(100_000):
            pass
    return 0


class _Spinner:
    """One CPU's idle-priority spinner (see :func:`_spin`)."""

    def __init__(self, args, cpu: int):
        self.proc = subprocess.Popen([
            sys.executable, str(Path(__file__).resolve()),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", repr(args.seconds), "--spin", str(cpu),
        ])

    def stop(self) -> None:
        """Kill the spinner and wait until it has ended."""
        self.proc.kill()
        self.proc.wait()


def _drive(parts: list["_Part"], deadline: float) -> list[dict]:
    """Set up, measure and check side by side, each phase together."""
    from common import BARRIER_PREFIX

    for phase in ("measure", "check"):
        for part in parts:
            part.until(BARRIER_PREFIX + phase, deadline)
        for part in parts:
            part.release()
    return [part.result(deadline) for part in parts]


class _Part:
    """One part's interpreter; forwards its lines, prefixed with the part."""

    def __init__(self, args, index: int, count: int):
        self.index = index
        self.proc = subprocess.Popen(
            [
                sys.executable, str(Path(__file__).resolve()),
                "--workload", args.workload,
                "--seed", str(args.seed),
                "--seconds", repr(args.seconds),
                "--trace", str(args.trace),
                "--part", f"{index}/{count}",
            ],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
        )
        self._buffer = b""

    def _line(self, deadline: float) -> str:
        fd = self.proc.stdout.fileno()
        while b"\n" not in self._buffer:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise TimeoutError(f"part {self.index} ran out of time")
            ready, _, _ = select.select([fd], [], [], remaining)
            if ready:
                chunk = os.read(fd, 1 << 16)
                if not chunk:
                    raise EOFError(f"part {self.index} exited early")
                self._buffer += chunk
        line, _, self._buffer = self._buffer.partition(b"\n")
        return line.decode()

    def until(self, marker: str, deadline: float) -> None:
        """Forward the part's lines until it prints ``marker``."""
        while (line := self._line(deadline)) != marker:
            print(f"[part {self.index}] {line}")

    def release(self) -> None:
        self.proc.stdin.write(b"go\n")
        self.proc.stdin.flush()

    def result(self, deadline: float) -> dict:
        """Forward the part's lines until its samples; wait for its exit."""
        while not (line := self._line(deadline)).startswith(PART_PREFIX):
            print(f"[part {self.index}] {line}")
        self.proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        if self.proc.returncode != 0:
            raise ValueError(f"part {self.index} exited with "
                             f"{self.proc.returncode}")
        return json.loads(line[len(PART_PREFIX):])

    def stop(self) -> None:
        """Kill the part if it still runs, and wait until it has ended."""
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdin.close()
        self.proc.stdout.close()


def _layer_unit(name: str) -> str:
    if name.endswith("_ms") or "_ms_" in name:
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_share", "_ratio", "_yield")):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
