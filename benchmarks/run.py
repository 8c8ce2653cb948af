"""bibdex benchmark: CLI children and in-process library calls, closed loop.

    python3 benchmarks/run.py --workload big_author --seed 1 --seconds 30 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 30 --trace 0

One client drives bibdex and issues each call only after the previous one
returns. An iteration runs a workload's CLI children (``python -m bibdex``
with the working tree's ``src`` on PYTHONPATH, one at a time) and then one
cycle of its library operations. Every output is checked against an
integer-only oracle. ``--trace 1`` times every traced bibdex call as a span
and reports per-layer numbers instead of the end-to-end ones.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines above it print every metric with its
unit. Full results, including the run environment, go to
``.bench_out/<workload>-seed<seed>-trace<0|1>.json``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_REPEATS = 7
INTERP_SAMPLES = 5
TAIL_BEYOND = 10  # a run keeps at least this many samples above the tail percentile
# the percentile cli_tail_ms reports on every workload: p90 of store_churn's
# 43 commands spread 0.15 over five seeds, p75 0.06
TAIL_PERCENTILE = 75.0
# The reference times at the speed the end-to-end timings are quoted at:
# `python -c pass` for CLI children, cpu_reference_ms() for in-process work,
# plus file_reference_ms() for in-process work that writes files.
START_REF_MS = 60.0
CPU_REF_MS = 10.0
FILE_REF_MS = 5.0
REF_WINDOW = 4  # reference samples on each side of a measurement that set its speed

WORKLOAD_NAMES = ("big_author", "many_authors", "store_churn")
END_TO_END = (
    ("setup_s", "s"),
    ("cli_p50_ms", "ms"),
    ("cli_tail_ms", "ms"),
    ("cli_peak_rss_mb", "MB"),
    ("lib_items_per_s", "1/s"),
)
COMPARE_KEYS = ("none", "name", "n_papers", "total_citations", "citations_per_paper", "h", "hm")
LAYERS = (
    "profiles.parse_citation_csv",
    "metrics.CitationVector",
    "metrics.h_index",
    "profiles.parse_profile_json",
    "metrics.full_report",
    *(f"report.compare.{key}" for key in COMPARE_KEYS),
    "report.render_markdown",
    "report.render_csv",
    "profiles.serialize_profile",
    "profiles.ProfileStore.save",
    "profiles.ProfileStore.load",
    "profiles.ProfileStore.names",
    "cli.main",
    "cli.main.md",
    "cli.main.csv",
    "cli.main.json",
)
LAYER_COUNTS = (
    ("profiles.parse_citation_csv.bytes", "bytes"),
    ("metrics.h_index.papers", "count"),
    ("profiles.parse_profile_json.bytes", "bytes"),
    ("profiles.parse_profile_json.calls", "count"),
    ("metrics.full_report.calls", "count"),
    *((f"report.compare.{key}.rows", "count") for key in COMPARE_KEYS),
    ("profiles.serialize_profile.bytes", "bytes"),
    ("profiles.ProfileStore.save.calls", "count"),
    ("profiles.ProfileStore.load.calls", "count"),
    ("profiles.ProfileStore.load.errors", "count"),
)
PER_LAYER = (
    *((f"{layer}.s", "s") for layer in LAYERS),
    *LAYER_COUNTS,
    ("cli.interp_start_ms", "ms"),
    ("cli.import_ms", "ms"),
    ("trace.lib_overhead_pct", "%"),
    ("trace.spans", "count"),
)


def _load_bibdex():
    """Import bibdex from the working tree's src/, never an installed copy."""
    if not (SRC / "bibdex" / "__init__.py").is_file():
        sys.exit(f"benchmark: no bibdex sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import bibdex

    if not Path(bibdex.__file__).resolve().is_relative_to(SRC.resolve()):
        sys.exit(f"benchmark: imported bibdex from {bibdex.__file__}, not {SRC}")


def child_env() -> dict[str, str]:
    """The caller's environment without BIBDEX_STORE or PYTHON* settings."""
    env = {
        k: v
        for k, v in os.environ.items()
        if k != "BIBDEX_STORE" and not k.startswith("PYTHON")
    }
    env["PYTHONPATH"] = str(SRC)
    return env


def cpu_reference_ms() -> float:
    """Wall ms of a fixed pure-Python loop that never calls bibdex.

    It allocates almost nothing: a reference that parses and sorts fresh
    objects times page faults too, which swing apart from the CPU's speed.
    """
    start = time.perf_counter_ns()
    total, seen = 0, {}
    for i in range(50_000):
        total += i * i % 7
        seen[i & 255] = total
        if i % 100 == 0:
            f"{i}:{total}"  # formatting work; the string is dropped
    return (time.perf_counter_ns() - start) / 1e6


def file_reference_ms(root: Path) -> float:
    """Wall ms of writing 8 small files as temp files renamed over 4 names,
    the way ``ProfileStore.save`` writes, without bibdex."""
    start = time.perf_counter_ns()
    for i in range(8):
        fd, tmp = tempfile.mkstemp(dir=root)
        os.write(fd, b"0" * 2048)
        os.close(fd)
        os.replace(tmp, root / f"ref{i % 4}")
    return (time.perf_counter_ns() - start) / 1e6


class Speed:
    """The machine's speed through a run, from a reference timed just before
    the measurements it scales.

    On a shared host the CPU speed drifts by up to 2x over seconds to
    minutes, and every wall time moves with it. A measurement is scaled by
    ``quoted_ms`` over the median reference time around it, so the
    end-to-end timings are quoted at one fixed speed: a run in a slow phase
    reads like one in a fast phase, while a change to bibdex, which the
    reference never calls, moves them in full.
    """

    def __init__(self, reference: Callable[[], float], quoted_ms: float):
        self.reference, self.quoted_ms = reference, quoted_ms
        self.ref_ms: list[float] = []

    def mark(self) -> int:
        """Time the reference now; the returned mark locates a measurement."""
        self.ref_ms.append(self.reference())
        return len(self.ref_ms) - 1

    def scale(self, mark: int) -> float:
        """``quoted_ms`` over the median reference time around ``mark``."""
        around = self.ref_ms[max(0, mark - REF_WINDOW) : mark + REF_WINDOW + 1]
        return self.quoted_ms / statistics.median(around)

    def summary(self) -> dict:
        return {
            "quoted_ms": self.quoted_ms,
            "median_ms": statistics.median(self.ref_ms),
            "samples": len(self.ref_ms),
        }


class Spawner:
    """Client of ``spawner.py``, which runs one CLI child at a time."""

    def __init__(self, workdir: Path):
        self.out, self.err = workdir / "child.out", workdir / "child.err"
        self.proc = subprocess.Popen(
            [sys.executable, "-S", str(HERE / "spawner.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            cwd=workdir,
            env=child_env(),
        )

    def run(self, argv) -> tuple[int, float, int, bytes, str]:
        """(exit code, wall ms, peak RSS KiB, stdout, stderr) of one child."""
        self.proc.stdin.write("\t".join([str(self.out), str(self.err), *argv]) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("spawner exited")
        status, wall_ns, rss_kb = map(int, reply.split())
        return (
            os.waitstatus_to_exitcode(status),
            wall_ns / 1e6,
            rss_kb,
            self.out.read_bytes(),
            self.err.read_text(encoding="utf-8", errors="replace"),
        )

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=90)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def cli_failure(case, rc: int, out: bytes, err: str) -> str | None:
    """Why a CLI result breaks its case's contract, or None."""
    if rc != case.rc:
        return f"exit {rc}, expected {case.rc}"
    if "Traceback (most recent call last)" in err:
        return "traceback on stderr"
    if case.error:
        if out:
            return "stdout not empty on error"
        if not any(line.startswith("bibdex: error:") for line in err.splitlines()):
            return "no 'bibdex: error:' line on stderr"
        return None
    if out != case.stdout.encode():
        return "stdout differs from oracle"
    return None


def tail(samples: list[float], pct: float) -> float:
    """The nearest-rank ``pct`` percentile of the samples."""
    ordered = sorted(samples)
    return ordered[math.ceil(pct * len(ordered) / 100) - 1]


def least_cli_samples(cases: int, pct: float) -> int:
    """Fewest samples, in whole rotations of ``cases`` CLI cases, that keep
    at least TAIL_BEYOND samples above the ``pct`` percentile."""
    n = cases
    while n - math.ceil(pct * n / 100) < TAIL_BEYOND:
        n += cases
    return n


class Run:
    """One workload measured for a fixed time, traced or not."""

    def __init__(self, workload_class, size: str, seed: int, seconds: float, trace: bool):
        from spans import Tracer

        self.workload_class, self.size = workload_class, size
        self.wl = None
        self.seed, self.seconds, self.trace = seed, seconds, trace
        self.tracer = Tracer()
        # speed references, see Speed: interpreter start for CLI children,
        # the CPU loop for library operations, and that loop plus file
        # writes for set-ups and library operations that write files
        self.start = self.cpu = self.disk = None
        self.op_writes: list[bool] = []
        self.attempted = self.failed = 0
        self.failures: list[str] = []
        # (wall ms, speed mark) of each measured CLI child
        self.cli_ms: list[tuple[float, int]] = []
        self.rss_kb: list[int] = []
        # per library cycle, its cpu and disk speed marks and each
        # operation's busy ns (None if it failed), kept apart for untraced
        # and traced cycles
        self.cycles = {False: [], True: []}
        self.items_per_cycle = 0
        self.stdout_by_case: dict[int, bytes] = {}
        self.measuring = False

    def _record(self, what: str, failure: str | None) -> None:
        self.attempted += 1
        if failure is not None:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(f"{what}: {failure}")

    def cli(self, spawner: Spawner, index: int, mark: int) -> None:
        case = self.wl.cli_cases[index]
        rc, ms, rss_kb, out, err = spawner.run([sys.executable, "-m", "bibdex", *case.argv])
        if self.measuring:
            self.cli_ms.append((ms, mark))
            self.rss_kb.append(rss_kb)
        self.stdout_by_case.setdefault(index, out)
        self._record(f"cli {' '.join(case.argv[:2])}", cli_failure(case, rc, out, err))
        if self.trace:
            self.cli_in_process(case)

    def cli_in_process(self, case) -> None:
        from bibdex import cli
        from spans import instrumented

        out, err = io.StringIO(), io.StringIO()
        self.tracer.begin_op()
        try:
            with instrumented(self.tracer), redirect_stdout(out), redirect_stderr(err):
                rc = self.tracer.call(f"cli.main.{case.fmt}", cli.main, list(case.argv))
        except Exception as exc:  # an escaped exception is a failed operation
            self._record("cli.main", f"raised {exc!r}")
            return
        failure = cli_failure(case, rc, out.getvalue().encode(), err.getvalue())
        self._record(f"cli.main {' '.join(case.argv[:2])}", failure)

    def lib_cycle(self, traced: bool) -> None:
        from spans import instrumented

        busy: list[int | None] = []
        with instrumented(self.tracer) if traced else nullcontext():
            ops = self.wl.lib_cycle()
            self.op_writes = [op.writes_files for op in ops]
            marks = (self.cpu.mark(), self.disk.mark() if any(self.op_writes) else None)
            for op in ops:
                if traced:
                    self.tracer.begin_op()
                start = time.perf_counter_ns()
                try:
                    result = op.run()
                except Exception as exc:  # an escaped exception is a failed operation
                    busy.append(None)
                    self._record(f"lib {self.wl.name}", f"raised {exc!r}")
                    continue
                busy.append(time.perf_counter_ns() - start)
                self._record(f"lib {self.wl.name}", None if op.check(result) else "wrong result")
        self.wl.end_cycle()
        self.items_per_cycle = sum(op.items for op in ops)
        if self.measuring:
            self.cycles[traced].append((marks, busy))

    def scaled_cycles(self, traced: bool, scale: bool = True) -> list[list[float | None]]:
        """Each cycle's busy ns per operation, at the reference speed."""
        out = []
        for (cpu_mark, disk_mark), busy in self.cycles[traced]:
            cpu = self.cpu.scale(cpu_mark) if scale else 1.0
            disk = self.disk.scale(disk_mark) if scale and disk_mark is not None else cpu
            out.append(
                [
                    t * (disk if writes else cpu) if t is not None else None
                    for t, writes in zip(busy, self.op_writes)
                ]
            )
        return out

    def lib_rate(self, traced: bool, scale: bool = True) -> float:
        """Items per second of a cycle made of each operation's median time.

        Every cycle repeats the same operations, so the median per operation
        over the run's cycles drops the ones a noisy neighbour slowed down.
        """
        cycles = self.scaled_cycles(traced, scale)
        if not cycles:
            return 0.0
        busy_ns = sum(
            statistics.median([t for t in times if t is not None] or [0])
            for times in zip(*cycles)
        )
        return self.items_per_cycle / (busy_ns / 1e9) if busy_ns else 0.0

    def measure(self, spawner: Spawner, deadline: float) -> int:
        """Iterations of CLI children and a library cycle until the deadline.

        The run ends on a whole rotation of the CLI cases, so every case
        counts equally in the CLI statistics, and not before it has
        ``least_cli_samples``. Returns the number of library cycles.
        """
        cases = len(self.wl.cli_cases)
        least = least_cli_samples(cases, TAIL_PERCENTILE)
        cycles = 0
        while True:
            mark = self.start.mark()
            for _ in range(self.wl.cli_per_iteration):
                self.cli(spawner, len(self.cli_ms) % cases, mark)
                n = len(self.cli_ms)
                if n % cases == 0 and n >= least and time.perf_counter() >= deadline:
                    return cycles
            self.lib_cycle(traced=self.trace and cycles % 2 == 1)
            cycles += 1

    def execute(self, spawner: Spawner, workdir: Path) -> dict:
        from spans import Tracer

        self.start = Speed(lambda: spawner.run([sys.executable, "-c", "pass"])[1], START_REF_MS)
        (workdir / "ref").mkdir()
        self.disk = Speed(
            lambda: cpu_reference_ms() + file_reference_ms(workdir / "ref"),
            CPU_REF_MS + FILE_REF_MS,
        )
        self.cpu = Speed(cpu_reference_ms, CPU_REF_MS)
        setup = []
        for r in range(SETUP_REPEATS):
            if r:
                shutil.rmtree(workdir / f"inputs{r - 1}")
            mark = self.disk.mark()
            # a fresh object, so freeing the last one's inputs is not timed
            self.wl = None
            gc.collect()
            self.wl = self.workload_class(self.size)
            target = workdir / f"inputs{r}"
            target.mkdir()
            start = time.perf_counter()
            self.wl.write_inputs(target, self.seed)
            setup.append((time.perf_counter() - start, mark))
        self.wl.expect()

        interp, no_site, imports = [], [], []
        for _ in range(INTERP_SAMPLES):
            interp.append(spawner.run([sys.executable, "-c", "pass"])[1])
            no_site.append(spawner.run([sys.executable, "-S", "-c", "pass"])[1])
            if self.trace:
                imports.append(spawner.run([sys.executable, "-c", "import bibdex.cli"])[1])

        # warm-up: bytecode caches, page cache
        mark = self.start.mark()
        for j in range(self.wl.cli_per_iteration):
            self.cli(spawner, j % len(self.wl.cli_cases), mark)
        self.lib_cycle(traced=False)
        self.tracer = Tracer()
        self.measuring = True
        cycles = self.measure(spawner, time.perf_counter() + self.seconds)
        self.measuring = False

        digest = hashlib.sha256(
            b"".join(self.stdout_by_case[k] for k in sorted(self.stdout_by_case))
        ).hexdigest()
        setup_s = [s * self.disk.scale(mark) for s, mark in setup]
        cli_ms = [ms * self.start.scale(mark) for ms, mark in self.cli_ms]
        wall_cli_ms = [ms for ms, _ in self.cli_ms]
        e2e = {
            "setup_s": statistics.median(setup_s),
            "cli_p50_ms": statistics.median(cli_ms),
            "cli_tail_ms": tail(cli_ms, TAIL_PERCENTILE),
            "cli_peak_rss_mb": max(self.rss_kb) / 1024,
            "lib_items_per_s": self.lib_rate(False),
        }
        wall = {
            "setup_s": statistics.median(s for s, _ in setup),
            "cli_p50_ms": statistics.median(wall_cli_ms),
            "cli_tail_ms": tail(wall_cli_ms, TAIL_PERCENTILE),
            "lib_items_per_s": self.lib_rate(False, scale=False),
        }
        result = {
            "workload": self.wl.name,
            "why": self.wl.why,
            "seed": self.seed,
            "seconds": self.seconds,
            "trace": int(self.trace),
            "environment": {
                "python": platform.python_version(),
                "implementation": platform.python_implementation(),
                "platform": platform.platform(),
                "nproc": len(os.sched_getaffinity(0)),
                "cpu_count": os.cpu_count(),
                "cli.interp_start_ms": statistics.median(interp),
                "cli.interp_start_no_site_ms": statistics.median(no_site),
            },
            "sizes": self.wl.sizes,
            "load": (
                f"closed loop, one client; {self.wl.cli_per_iteration} CLI children "
                "one at a time, then one library cycle, per iteration; whole "
                "rotations of the CLI cases"
            ),
            "iterations": cycles,
            "reference": {
                "start": self.start.summary(),
                "cpu": self.cpu.summary(),
                "disk": self.disk.summary(),
            },
            "setup_s_samples": setup_s,
            "cli_ms_samples": cli_ms,
            "cli_samples": len(self.cli_ms),
            "cli_rotations": len(self.cli_ms) // len(self.wl.cli_cases),
            "cli_tail_percentile": TAIL_PERCENTILE,
            "lib_cycles": len(self.cycles[False]),
            "lib_cycle_s": [sum(t or 0 for t in c) / 1e9 for c in self.scaled_cycles(False)],
            "attempted": self.attempted,
            "failed": self.failed,
            "error_rate": self.failed / self.attempted,
            "failures": self.failures,
            "stdout_sha256": digest,
            "stdout_cases": f"{len(self.stdout_by_case)} of {len(self.wl.cli_cases)}",
            "end_to_end": e2e,
            "end_to_end_wall": wall,
        }
        if self.trace:
            result["per_layer"] = self.per_layer(interp, imports)
            result["layers"] = self.tracer.layers()
        return result

    def per_layer(self, interp: list[float], imports: list[float]) -> dict[str, float]:
        unused = {"calls": 0, "self_s": 0.0}
        layers = self.tracer.layers()
        per_format = [layers.get(f"cli.main.{fmt}", unused) for fmt in ("md", "csv", "json")]
        layers["cli.main"] = {k: sum(entry[k] for entry in per_format) for k in unused}
        out = {}
        for layer in LAYERS:
            entry = layers.get(layer, unused)
            out[f"{layer}.s"] = entry["self_s"] / entry["calls"] if entry["calls"] else 0.0
        for name, _ in LAYER_COUNTS:
            layer, _, count = name.rpartition(".")
            if count == "calls":
                out[name] = layers.get(layer, unused)["calls"]
            else:
                out[name] = self.tracer.counts.get(name, 0)
        ref = statistics.median(interp)
        out["cli.interp_start_ms"] = ref
        out["cli.import_ms"] = statistics.median(imports) - ref
        plain, traced = self.lib_rate(False), self.lib_rate(True)
        out["trace.lib_overhead_pct"] = 100.0 * (plain / traced - 1.0) if plain and traced else 0.0
        out["trace.spans"] = len(self.tracer.start)
        return out


def run_workload(name: str, seed: int, seconds: float, trace: bool, size: str) -> dict:
    from workloads import WORKLOADS

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"work-{name}-", dir=OUT))
    spawner = None
    try:
        spawner = Spawner(workdir)
        run = Run(WORKLOADS[name], size, seed, seconds, trace)
        result = run.execute(spawner, workdir)
        stem = f"{name}-seed{seed}-trace{int(trace)}"
        if trace:
            run.tracer.write(OUT / f"spans-{stem}.csv.gz")
        (OUT / f"{stem}.json").write_text(json.dumps(result, indent=2) + "\n")
        return result
    finally:
        if spawner is not None:
            spawner.close()
        shutil.rmtree(workdir, ignore_errors=True)


def metric_lines(result: dict, trace: bool) -> list[tuple[str, float, str, str]]:
    """(name, value, unit, note) for every reported metric."""
    if trace:
        return [(n, result["per_layer"][n], unit, "") for n, unit in PER_LAYER]
    e2e, wall = result["end_to_end"], result["end_to_end_wall"]
    notes = {
        "cli_p50_ms": f"n={result['cli_samples']}",
        "cli_tail_ms": f"p{result['cli_tail_percentile']:g}, n={result['cli_samples']}",
        "lib_items_per_s": f"per-operation medians over {result['lib_cycles']} cycles",
        "setup_s": f"median of {SETUP_REPEATS}",
    }
    for n in wall:
        notes[n] += f"; unscaled wall {wall[n]:.6g}"
    return [(n, e2e[n], unit, notes.get(n, "")) for n, unit in END_TO_END]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "tiny"), default="full", help="tiny inputs, for the smoke check"
    )
    args = parser.parse_args(argv)
    _load_bibdex()
    sys.path.insert(0, str(HERE))

    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    trace = bool(args.trace)
    metrics, attempted, failed = {}, 0, 0
    for name in names:
        result = run_workload(name, args.seed, args.seconds, trace, args.size)
        attempted += result["attempted"]
        failed += result["failed"]
        prefix = f"{name}." if args.workload == "all" else ""
        for metric, value, unit, note in metric_lines(result, trace):
            print(f"{name:<13} {metric:<40} {value:>16.6g} {unit:<6} {note}")
            metrics[prefix + metric] = {"value": value, "unit": unit}
        print(
            f"{name:<13} {'error_rate':<40} {result['error_rate']:>16.6g} {'1':<6} "
            f"{result['failed']}/{result['attempted']}"
        )
        print(
            f"{name:<13} stdout_sha256 {result['stdout_sha256']} "
            f"({result['stdout_cases']} cases)"
        )
        for failure in result["failures"]:
            print(f"{name:<13} FAILED {failure}", file=sys.stderr)
    print(
        json.dumps(
            {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
