"""Host-time benchmark of the SRM collectives simulator.

Run from the repository root:

    python3 perfbench/run.py --workload paper-grid --seed 1 --seconds 10 --trace 0

``--trace 0`` imports the program and sets the workload up several times,
then runs units for ``--seconds`` and prints the end-to-end metrics, in CPU
time scaled to a reference host speed (``perfbench/hostspeed.py``).
``--trace 1`` runs rounds for ``--seconds`` instead: each round is one
window of units on fresh set-ups, interleaved unit by unit (a reference,
one under the layer profile and entry-point spans, one with observation off
and, on ``persistent-loop``, one with compiled replay off); it prints the
per-layer metrics.  The last line of standard output is one JSON object;
the full result document (identity, every metric with its unit and sample
count, failures, spans) is written to ``perfbench/out/``.  Exit status is 0
only when every collective's output and simulated time matched its
reference.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_REPEATS = 5
#: Top-level names of the modules one set-up imports: the simulator and this
#: benchmark's own modules (which import every layer of it).
PROGRAM_MODULES = ("repro", "workloads", "tracing")
#: The only workload whose calls go through compiled replay (plan starts);
#: ``SRMConfig(compiled_replay=False)`` changes nothing on the others.
REPLAY_WORKLOAD = "persistent-loop"


def _import_numpy() -> float:
    """Import NumPy, which stays loaded across set-ups; returns CPU seconds taken."""
    started = time.process_time()
    import numpy  # noqa: F401

    return time.process_time() - started


def _import_program() -> float:
    """Import the simulator afresh from this checkout's ``src``; returns CPU seconds.

    Modules of an earlier import are dropped first, so every call repeats
    the whole import of the program.
    """
    for name in [name for name in sys.modules if name.split(".")[0] in PROGRAM_MODULES]:
        del sys.modules[name]
    started = time.process_time()
    import repro
    import workloads  # noqa: F401  (imports every layer)

    source = os.path.join(ROOT, "src", "repro") + os.sep
    if not os.path.abspath(repro.__file__).startswith(source):
        raise SystemExit(f"repro imported from {repro.__file__}, not from {source}")
    return time.process_time() - started


def _git_revision() -> str:
    """HEAD's commit from ``.git`` when the checkout is a repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, *ref.split("/"))
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def identity(workload: str, seed: int) -> dict:
    import numpy

    from repro.bench.export import bench_identity, identity_fingerprint

    tasks_per_node = 16 if workload == "paper-grid" else 8
    model = bench_identity(tasks_per_node=tasks_per_node)
    return {
        "workload": workload,
        "seed": seed,
        "git_revision": _git_revision(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cost_model_fingerprint": identity_fingerprint(model),
        "model": model,
    }


class Phase:
    """Units of one workload, with counts snapshotted over its first window."""

    def __init__(self, workload, spans, speed=None) -> None:
        self.workload = workload
        self.window_size = workload.window
        self.spans = spans
        #: ``HostSpeed`` whose kernel runs before every unit, or None (the
        #: traced rounds, whose ratios compare interleaved set-ups instead).
        self.speed = speed
        self.units = []
        #: Each unit's CPU seconds scaled to the reference host speed.
        self.scaled_s: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.raised: list[str] = []
        self._counts0 = workload.counts()
        self._analysis0 = workload.analysis()
        self.window_counts: dict = {}
        self.window_analysis: dict = {}
        #: Peak resident memory once set-up and the first window have run:
        #: a fixed amount of work, so running more units in the same
        #: seconds (the loops' resource-monitor timelines keep growing)
        #: does not read as a memory regression.
        self.window_peak_rss_mb = 0.0

    def step(self) -> bool:
        """Run one unit; False once a unit has raised (the phase then stops)."""
        workload = self.workload
        index = workload.units_run
        scale = self.speed.sample() if self.speed is not None else 1.0
        self.spans.unit = index
        try:
            with self.spans.span("unit"):
                result = workload.run_unit()
        except Exception:  # a raising op (DeadlockError included) is a failed op
            ops = workload.nominal_ops(index)
            self.attempted += ops
            self.failed += ops
            self.raised.append(f"{workload.name} unit {index} raised:\n{traceback.format_exc()}")
            return False
        finally:
            self.spans.unit = None
        self.units.append(result)
        self.scaled_s.append(result.host_s * scale)
        self.attempted += result.ops
        self.failed += result.failed
        if len(self.units) == workload.window:
            self.window_counts = _delta(workload.counts(), self._counts0)
            self.window_analysis = _delta(workload.analysis(), self._analysis0)
            self.window_peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        return True

    def run(self, seconds: float) -> "Phase":
        """Units for ``seconds``, at least one window, ending on a whole round."""
        started = time.perf_counter()
        while self.step():
            if (
                time.perf_counter() - started >= seconds
                and len(self.units) >= self.workload.window
                and self.workload.may_stop()
            ):
                break
        return self

    @property
    def errors(self) -> list[str]:
        return self.raised + self.workload.failures

    @property
    def short(self) -> bool:
        """Whether the phase stopped before a whole window of units."""
        return len(self.units) < self.window_size

    def window(self) -> list:
        return self.units[: self.window_size]

    def summary(self) -> dict:
        return {
            "units": len(self.units),
            "ops": _sum(self.units, "ops"),
            "host_s": _sum(self.units, "host_s"),
            "window_host_s": _sum(self.window(), "host_s"),
            "window_sim_us": _sum(self.window(), "sim_s") * 1e6,
            "attempted": self.attempted,
            "failed": self.failed,
        }


def paired_round(name: str, seed: int, profile, spans) -> dict:
    """One window on fresh set-ups, interleaved unit by unit.

    ``reference`` is untraced with observation and replay on; ``traced``
    runs under ``profile`` and ``spans``; ``observe_off`` and (on the replay
    workload) ``replay_off`` flip one constructor argument each.
    Interleaving puts a slow spell of the host on every side of each ratio
    alike.
    """
    from tracing import Spans

    untraced = Spans(enabled=False)
    with spans.span("setup"):
        traced = Phase(build(name, seed, spans), spans)
    phases = {
        "reference": Phase(build(name, seed, untraced), untraced),
        "traced": traced,
        "observe_off": Phase(build(name, seed, untraced, observe=False), untraced),
    }
    if name == REPLAY_WORKLOAD:
        phases["replay_off"] = Phase(build(name, seed, untraced, replay=False), untraced)
    for _ in range(traced.window_size):
        for phase in phases.values():
            with profile if phase is traced else contextlib.nullcontext():
                ok = phase.step()
            if not ok:
                return phases
    return phases


def paired_rounds(name: str, seed: int, seconds: float) -> tuple:
    """Paired rounds for ``seconds`` (at least one); (rounds, profile, spans, errors).

    Every round repeats the same work, so the reference's exact counts must
    be identical in every round.
    """
    from tracing import LayerProfile, Spans

    profile = LayerProfile(ROOT)
    spans = Spans(enabled=True)
    rounds: list[dict] = []
    errors: list[str] = []
    started = time.perf_counter()
    while True:
        phases = paired_round(name, seed, profile, spans)
        errors += [error for phase in phases.values() for error in phase.errors]
        for phase in phases.values():
            phase.workload = None  # release the machines before the next round
        rounds.append(phases)
        if any(phase.short for phase in phases.values()):
            break
        first, last = rounds[0]["reference"], phases["reference"]
        if (last.window_counts, last.window_analysis) != (first.window_counts, first.window_analysis):
            errors.append(f"round {len(rounds)}: exact counts differ from round 1")
        if time.perf_counter() - started >= seconds:
            break
    return rounds, profile, spans, errors


def _delta(after: dict, before: dict) -> dict:
    return {key: value - before.get(key, 0) for key, value in after.items()}


def _numpy_scalar(value):
    """JSON fallback for the NumPy scalars some simulator counters hold."""
    return value.item()


def _sum(units, field: str) -> float:
    return sum(getattr(unit, field) for unit in units)


def build(name: str, seed: int, spans, **kwargs):
    import workloads

    cls = workloads.WORKLOADS[name]
    if name == "paper-grid":
        return cls(seed, spans, reference_path=os.path.join(ROOT, "BENCH_seed.json"), **kwargs)
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as handle:
        sim_reference = json.load(handle)["unit_sim_us"]
    return cls(seed, spans, sim_reference=sim_reference, **kwargs)


def end_to_end(main: Phase, setup_s: float) -> dict:
    unit_ms = [seconds * 1e3 for seconds in main.scaled_s]
    return {
        "setup_s": (setup_s, "s", SETUP_REPEATS),
        "ops_per_s": (_sum(main.units, "ops") / sum(main.scaled_s), "1/s", len(unit_ms)),
        "unit_ms.p50": (statistics.median(unit_ms), "ms", len(unit_ms)),
        "unit_ms.p90": (statistics.quantiles(unit_ms, n=10)[8], "ms", len(unit_ms)),
        "peak_rss_mb": (main.window_peak_rss_mb, "MB", 1),
    }


def per_layer(rounds: list, profile, spans) -> dict:
    """Per-layer metrics: profile and spans per round, ratios over all rounds."""
    import workloads

    count = len(rounds)
    reference = rounds[0]["reference"]
    window = reference.window()
    units = len(window)
    ops = _sum(window, "ops")
    counts = reference.window_counts
    paired_s = {
        name: sum(_sum(phases[name].window(), "host_s") for phases in rounds) for name in rounds[0]
    }
    metrics: dict = {}
    for layer, row in profile.by_layer().items():
        metrics[f"{layer}.self_s"] = (row["self_s"] / count, "s", count)
        metrics[f"{layer}.calls"] = (row["calls"] / count, "count", count)
    span_self = spans.self_seconds()
    for name in SPAN_NAMES:
        metrics[f"span.{name}.self_s"] = (span_self.get(name, 0.0) / count, "s", count)
    reference_s = paired_s["reference"]
    metrics["trace.overhead_ratio"] = (paired_s["traced"] / reference_s, "ratio", units * count)
    metrics["obs.overhead_ratio"] = (reference_s / paired_s["observe_off"], "ratio", units * count)
    if "replay_off" in paired_s:
        metrics["core.replay.speedup"] = (paired_s["replay_off"] / reference_s, "ratio", units * count)
    else:  # no plan starts, so replay off runs the very same code: 1 by definition
        metrics["core.replay.speedup"] = (1.0, "ratio", 0)

    metrics["sim_us_per_op"] = (_sum(window, "sim_s") * 1e6 / ops, "sim_us", ops)
    metrics["sim.events_per_op"] = (counts["events"] / ops, "count", ops)
    metrics["sim.host_us_per_event"] = (
        reference_s * 1e6 / max(1, counts["events"] * count),
        "us",
        units * count,
    )
    metrics["obs.spans_per_op"] = (counts["spans"] / ops, "count", ops)
    hits, misses = counts["replay.hits"], counts["replay.misses"]
    metrics["core.replay.hits"] = (hits, "count", units)
    metrics["core.replay.misses"] = (misses, "count", units)
    metrics["core.replay.windows"] = (hits + misses, "count", units)
    metrics["core.replay.hit_ratio"] = (hits / (hits + misses) if hits + misses else 0.0, "ratio", hits + misses)
    for metric, counter in PER_OP_COUNTERS.items():
        metrics[metric] = (counts[counter] / ops, "count", ops)
    for name in workloads.MPI_STATS:
        metrics[f"mpi.{name}"] = (counts[f"mpi.{name}"], "count", units)
    metrics["core.dispatch.fallbacks"] = (counts["dispatch.fallbacks"], "count", units)
    analysis = reference.window_analysis
    for state in workloads.WAIT_STATE_NAMES:
        metrics[f"wait_us.{state}"] = (analysis.get(f"wait_us.{state}", 0.0), "sim_us", units)
    for phase in workloads.CRIT_PHASES + (workloads.CRIT_OTHER,):
        name = "untracked" if phase == "(untracked)" else phase
        metrics[f"crit_us.{name}"] = (analysis.get(f"crit_us.{phase}", 0.0), "sim_us", units)
    return metrics


SPAN_NAMES = (
    "setup",
    "unit",
    "machine_init",
    "stack_init",
    "plan_init",
    "launch",
    "plan_start",
    "engine_run",
    "rebind",
    "metrics_summary",
    "critical_path",
    "classify_waits",
)
PER_OP_COUNTERS = {
    "lapi.puts_per_op": "lapi.puts",
    "lapi.bytes_put_per_op": "lapi.bytes_put",
    "shmem.flag_sets_per_op": "shmem.flag_sets",
    "machine.copies_per_op": "task.copies",
    "machine.bytes_copied_per_op": "task.bytes_copied",
    "machine.reduce_ops_per_op": "task.reduce_ops",
}


def timed_run(name: str, seed: int, seconds: float) -> tuple:
    """Set up ``SETUP_REPEATS`` times, then run units for ``seconds``.

    Returns (setup_s, set-up document, timed phase).  Each set-up imports
    the program afresh and builds the workload; NumPy is imported once.
    ``setup_s`` is NumPy's import plus the median set-up, in CPU time scaled
    to the reference host speed by the median kernel sample taken before
    each set-up.
    """
    import hostspeed

    speed = hostspeed.HostSpeed()
    numpy_s = _import_numpy()
    import_s, build_s = [], []
    workload = None
    for _ in range(SETUP_REPEATS):
        workload = None  # release the previous set-up before building the next
        speed.sample()
        import_s.append(_import_program())
        from tracing import Spans

        untraced = Spans(enabled=False)
        started = time.process_time()
        workload = build(name, seed, untraced)
        build_s.append(time.process_time() - started)
    setup_scale = hostspeed.scale(speed.history)
    # Full collections in the timed pass then traverse only what the units
    # allocate and keep, not the modules, the reference snapshot or the
    # kernel's table: one fell on a random unit and added up to half its time.
    gc.collect()
    gc.freeze()
    phase = Phase(workload, untraced, speed).run(seconds)
    setup_s = (numpy_s + statistics.median(i + b for i, b in zip(import_s, build_s))) * setup_scale
    document = {
        "numpy_import_cpu_s": numpy_s,
        "import_cpu_s": import_s,
        "build_cpu_s": build_s,
        "setup_scale": setup_scale,
        "kernel_s": speed.history,
    }
    return setup_s, document, phase


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=("paper-grid", "app-loop", "persistent-loop"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.join(ROOT, "src"))

    document: dict = {"seconds": args.seconds}
    if args.trace:
        _import_program()
        rounds, profile, spans, errors = paired_rounds(args.workload, args.seed, args.seconds)
        phases = [phase for phases in rounds for phase in phases.values()]
        layer_sum = sum(row["self_s"] for row in profile.by_layer().values())
        document["profile"] = {"wall_s": profile.wall_s, "layer_self_s_sum": layer_sum}
        document["rounds"] = [{name: phase.summary() for name, phase in phases.items()} for phases in rounds]
        document["window_counts"] = rounds[0]["reference"].window_counts
        document["spans"] = {
            "columns": ["id", "name", "start_s", "end_s", "parent", "unit"],
            "rows": spans.rows,
        }
        if layer_sum > profile.wall_s * 1.01:
            errors.append(
                f"layer self times sum to {layer_sum:.3f} s, over the traced wall {profile.wall_s:.3f} s"
            )
    else:
        setup_s, document["setup"], main_phase = timed_run(args.workload, args.seed, args.seconds)
        phases = [main_phase]
        errors = main_phase.errors
        document["phases"] = {"main": main_phase.summary()}
        document["unit_cpu_ms"] = [unit.host_s * 1e3 for unit in main_phase.units]
        document["unit_scaled_ms"] = [seconds * 1e3 for seconds in main_phase.scaled_s]
        document["window_counts"] = main_phase.window_counts
        if args.workload == "paper-grid":
            document["cells_sim_us"] = [list(cell) + [us] for cell, us in main_phase.workload.cell_sim_us]
    document["identity"] = identity(args.workload, args.seed)

    attempted = sum(phase.attempted for phase in phases)
    failed = sum(phase.failed for phase in phases)
    short = any(phase.short for phase in phases)
    if short:
        errors.append("a phase stopped before a whole window of units")
    correct = failed == 0 and not errors
    if short:
        metrics = {}  # a window is missing, so the metrics would describe other work
    elif args.trace:
        metrics = per_layer(rounds, profile, spans)
    else:
        metrics = end_to_end(main_phase, setup_s)

    document.update(
        fail_ratio=failed / max(1, attempted),
        errors=errors,
        metrics={name: {"value": v, "unit": u, "samples": n} for name, (v, u, n) in metrics.items()},
    )
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    out_path = os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1, default=_numpy_scalar)

    ident = document["identity"]
    print(
        f"# {args.workload} seed={args.seed} rev={ident['git_revision'][:12]} "
        f"python={ident['python']} numpy={ident['numpy']} nproc={ident['nproc']} "
        f"model={ident['cost_model_fingerprint']} (simulated times: unvalidated model)"
    )
    for name, (value, unit, samples) in metrics.items():
        print(f"{name:34s} {value:>16.6g} {unit:8s} n={samples}")
    print(f"fail_ratio {failed}/{attempted}; document {os.path.relpath(out_path, ROOT)}")
    for error in errors:
        print(f"FAIL {error}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {name: {"value": v, "unit": u} for name, (v, u, _n) in metrics.items()},
            },
            default=_numpy_scalar,
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
