"""Run one mazenav benchmark workload and print its metrics.

    python3 perfbench/run.py --workload datagen --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout: the package is imported from
`src/` beside this directory, never from an installed copy. With
`--trace 0` the last line of standard output is a JSON object with the
end-to-end metrics; with `--trace 1` the run alternates untraced and traced
units and reports the per-layer metrics and the tracing overhead. Lines
before it, starting with `#`, name every figure with its unit. The full
record (environment, fingerprints, failures) goes to `.perfbench/results/`,
and traced spans to `.perfbench/traces/`.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import itertools
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"

# One BLAS thread (at most the CPU count): the model's products are small,
# so extra threads add scheduling noise and little speed.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Set-up runs this many times per run, one after each of the first units so
# that the repeats meet the host at different moments; setup_s is their
# median.
SETUP_REPEATS = 5

# Every run measures at least this many units (of each kind, when traced),
# so that the median of every operation's times is taken over at least three
# and the repeat check runs.
MIN_UNITS = 3

# Timing (perfbench/README.md explains it). Every unit of a run repeats the
# same operations on the same inputs, and each operation's time is its
# median over the run's units. Rates divide the operations by the sum of
# these times (plus those of the untimed gaps between operations); p50 and
# the tail are quantiles of them. The tail is the highest percentile that
# has at least 10 operations beyond it (p99 from 1000 operations on); each
# printed line states it and the count. Every reported time is then
# corrected for the host's speed (HostSpeed).

# End-to-end metrics whose traced-minus-untraced difference is reported
# as the tracing overhead.
OVERHEAD_METRICS = ("inst_per_s", "build_ms_p50", "use_ms_p50")

# The end-to-end metrics under the names each workload's users know them by.
WORKLOAD_NAMES = {
    "datagen": {
        "build_inst_per_s": "gen_inst_per_s", "build_ms_p50": "gen_ms_p50",
        "build_ms_tail": "gen_ms_p99", "use_inst_per_s": "jsonl_read_inst_per_s",
        "use_ms_p50": "jsonl_read_ms_p50", "use_ms_tail": "jsonl_read_ms_p99",
        "success_rate": "gold_stopped_rate"},
    "prequential": {
        "inst_per_s": "preq_inst_per_s", "build_inst_per_s": "train_on_inst_per_s",
        "build_ms_p50": "train_on_ms_p50", "build_ms_tail": "train_on_ms_p99",
        "use_inst_per_s": "decode_inst_per_s", "use_ms_p50": "decode_ms_p50",
        "use_ms_tail": "decode_ms_p99", "success_rate": "preq_success_mean"},
    "train_eval": {
        "build_inst_per_s": "train_inst_per_s", "build_ms_p50": "train_on_ms_p50",
        "build_ms_tail": "train_on_ms_p99", "use_inst_per_s": "decode_inst_per_s",
        "use_ms_p50": "decode_ms_p50", "use_ms_tail": "decode_ms_p99",
        "success_rate": "ensemble_success"},
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("datagen", "prequential", "train_eval"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


class HostSpeed:
    """Times a fixed reference slice between the units of a run and, every
    INTERVAL_S, between the operations of a unit; the slice's fastest time
    over the run gives the host's speed during the run.

    The slice is a loop of small-array numpy calls, the kind of work that
    dominates a mazenav step, and runs no mazenav code. Of the slices we
    tried (this one, a pure-Python loop, a multi-megabyte Adam-like update)
    it tracked the host's changes of speed best: on six prequential runs it
    cut the spread of the timing metrics from 0.13-0.37 to 0.06-0.19.
    """

    SLICES = 10       # per sample between units
    OP_SLICES = 2     # per sample between operations
    INTERVAL_S = 0.5
    # The slice's fastest time on the machine the baseline was measured on;
    # corrected times read as times on that machine.
    NOMINAL_S = 0.0014

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self._np = np
        self._w = rng.standard_normal((64, 64)) / 8
        self._x = rng.standard_normal(64)
        self.slice_s: list[float] = []
        self._last = perf_counter()

    def _slice(self) -> float:
        x = self._x
        for _ in range(500):
            x = self._np.tanh(self._w @ x + 0.1)
        return float(x[0])

    def sample(self, slices: int = SLICES) -> None:
        for _ in range(slices):
            start = perf_counter()
            self._slice()
            self.slice_s.append(perf_counter() - start)
        self._last = perf_counter()

    def between_ops(self) -> None:
        if perf_counter() - self._last >= self.INTERVAL_S:
            self.sample(self.OP_SLICES)

    def floor_s(self) -> float:
        return min(self.slice_s)


def run(setup_fn, unit_fn, seed, sizes, workdir, seconds, tracer=None, host=None):
    """Set up and repeat units for `seconds`; alternate traced ones if `tracer`.

    Returns the set-up times and the Measure of the untraced and of the
    traced units (None without a tracer).
    """
    import workloads

    setup_s: list[float] = []
    state = None

    def set_up():
        nonlocal state
        state = None  # let the previous set-up's data go first
        gc.collect()
        start = perf_counter()
        state = setup_fn(seed, sizes, workdir)
        setup_s.append(perf_counter() - start)
        if host is not None:
            host.sample()

    plain = workloads.Measure()
    traced = workloads.Measure() if tracer is not None else None
    set_up()
    spent = 0.0
    for k in itertools.count():
        m = traced if traced is not None and k % 2 else plain
        gc.collect()
        attempted, failed = m.attempted, m.failed
        m.units.append(workloads.UnitTimes(
            between_ops=host.between_ops if host is not None else None))
        if m is traced:
            tracer.install(workloads.MODULES)
        start = perf_counter()
        try:
            unit_fn(state, m)
        except Exception as exc:  # report the failure instead of dying
            traceback.print_exc(file=sys.stderr)
            m.units.pop()
            lost = m.attempted - attempted - (m.failed - failed)
            m.fail(max(lost, 1), f"unit {len(m.units)} raised {exc!r}")
            break
        finally:
            if m is traced:
                tracer.restore()
        took = perf_counter() - start
        spent += took
        if host is not None:
            host.sample()
        enough = all(len(x.units) >= MIN_UNITS for x in (plain, traced) if x is not None)
        if enough and spent + took > seconds:  # the next unit would overrun
            break
        if len(setup_s) < SETUP_REPEATS:
            set_up()
    while len(setup_s) < SETUP_REPEATS:
        set_up()
    for m in (plain, traced):
        if m is not None:
            drop_unequal_units(m)
    return setup_s, plain, traced


def drop_unequal_units(m) -> None:
    """Every unit does the same work: one that timed other operations than
    the first unit is left out of the timings and counted as a failure."""
    def shape(u):
        return len(u.build_s), len(u.use_s), sorted(u.phase_s), u.instance_ops

    if not m.units:
        return
    same = [u for u in m.units if shape(u) == shape(m.units[0])]
    if len(same) != len(m.units):
        m.fail(len(m.units) - len(same), "a unit timed other operations than the first unit")
        m.units = same


def typical(m):
    """Each timed operation and phase at its median over the run's units:
    (build, use, phases, instance_ops), or empty figures without a unit."""
    if not m.units:
        return [], [], {}, 0
    build = [statistics.median(times) for times in zip(*(u.build_s for u in m.units))]
    use = [statistics.median(times) for times in zip(*(u.use_s for u in m.units))]
    phases = {name: statistics.median(u.phase_s[name] for u in m.units)
              for name in m.units[0].phase_s}
    return build, use, phases, m.units[0].instance_ops


def tail(values):
    """(ms, percentile): the value with max(10, 1%) of the operations beyond it."""
    n = len(values)
    beyond = max(10, math.ceil(n / 100))
    if n <= beyond:
        return (1e3 * max(values) if values else 0.0), 100.0
    return 1e3 * sorted(values)[n - 1 - beyond], 100.0 * (n - beyond) / n


def end_to_end(m, setup_s: list[float], scale: float = 1.0):
    """The end-to-end metrics as {name: (value, unit)}, and notes on them.

    Every time is multiplied by `scale`, the host-speed correction.
    """
    def rate(count, seconds):
        return count / (scale * seconds) if seconds > 0 else 0.0

    def median_ms(values):
        return 1e3 * scale * statistics.median(values) if values else 0.0

    build, use, phases, instance_ops = typical(m)
    build_tail, build_pct = tail(build)
    use_tail, use_pct = tail(use)
    metrics = {
        "setup_s": (scale * statistics.median(setup_s), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "inst_per_s": (rate(instance_ops, sum(build) + sum(use) + sum(phases.values())), "1/s"),
        "build_inst_per_s": (rate(len(build), sum(build) + phases.get("build_rest", 0.0)), "1/s"),
        "build_ms_p50": (median_ms(build), "ms"),
        "build_ms_tail": (scale * build_tail, "ms"),
        "use_inst_per_s": (rate(len(use), sum(use) + phases.get("use_rest", 0.0)), "1/s"),
        "use_ms_p50": (median_ms(use), "ms"),
        "use_ms_tail": (scale * use_tail, "ms"),
        "success_rate": (0.0 if math.isnan(m.quality) else m.quality, "ratio"),
    }
    notes = {"setup_s": f"median of {len(setup_s)} set-ups",
             "build_ms_p50": f"n={len(build)}", "build_ms_tail": f"p{build_pct:.1f}, n={len(build)}",
             "use_ms_p50": f"n={len(use)}", "use_ms_tail": f"p{use_pct:.1f}, n={len(use)}"}
    for name in ("inst_per_s", "build_inst_per_s", "use_inst_per_s"):
        notes[name] = f"median of {len(m.units)} units per operation"
    return metrics, notes


def jsonl_figures(m) -> dict[str, tuple[float, str]]:
    """JSONL write speed and size, for the workload that writes instances."""
    n = m.extra.get("instances", 0)
    if not n:
        return {}
    _, _, phases, _ = typical(m)
    return {"jsonl_write_inst_per_s": (n / phases["write"], "1/s"),
            "jsonl_bytes_per_inst": (m.extra["jsonl_bytes"] / n, "B")}


def git_revision() -> str:
    """HEAD of the checkout, read without running git; 'unknown' outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_sha256() -> str:
    """Hash of the package sources measured, for checkouts without git."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "mazenav").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def environment() -> dict:
    import numpy as np

    blas = {"name": "unknown", "version": "unknown"}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": deps.get("name", "unknown"), "version": deps.get("version", "unknown")}
    except (TypeError, KeyError):  # numpy without the dict form of show_config
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_ENV},
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "git_revision": git_revision(),
        "source_sha256": source_sha256(),
    }


def print_figures(title: str, figures: dict, names=None, notes=None) -> None:
    names, notes = names or {}, notes or {}
    print(f"# {title}")
    for name, (value, unit) in figures.items():
        alias = f"= {names[name]}" if name in names else ""
        note = f"({notes[name]})" if name in notes else ""
        print(f"#   {name:<44} {value:>14.6g} {unit:<6} {alias:<22} {note}".rstrip())


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "mazenav" / "__init__.py").is_file():
        print(f"perfbench: no mazenav sources under {ROOT / 'src'}; run it from the "
              "root of a mazenav source checkout", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    for var in BLAS_ENV:  # before numpy is first imported
        os.environ[var] = str(min(BLAS_THREADS, os.cpu_count() or 1))
    sys.path.insert(0, str(ROOT / "src"))
    import mazenav
    if Path(mazenav.__file__).resolve().parent != ROOT / "src" / "mazenav":
        print(f"perfbench: imported mazenav from {mazenav.__file__}, not from this checkout",
              file=sys.stderr)
        return 2
    import workloads
    from tracer import Tracer

    setup_fn, unit_fn = workloads.WORKLOADS[args.workload]
    tracer = Tracer() if args.trace else None
    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        host = HostSpeed()
        setup_s, plain, traced = run(setup_fn, unit_fn, args.seed, workloads.Sizes(), workdir,
                                     args.seconds, tracer, host)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    scale = HostSpeed.NOMINAL_S / host.floor_s()
    metrics, notes = end_to_end(plain, setup_s, scale)
    raw, _ = end_to_end(plain, setup_s)
    figures = jsonl_figures(plain)
    names = WORKLOAD_NAMES[args.workload]
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "units": len(plain.units), "environment": environment(),
        "fingerprint": plain.fingerprint,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "raw_metrics": {k: {"value": v, "unit": u} for k, (v, u) in raw.items()},
        "host_scale": scale,
        "notes": notes,
        "workload_names": names,
        "workload_figures": {k: {"value": v, "unit": u} for k, (v, u) in figures.items()},
        "extra": plain.extra,
        "unit_loop_s": [sum(u.build_s) + sum(u.use_s) + sum(u.phase_s.values())
                        for u in plain.units],
        "setup_s": setup_s,
        "host_floor_s": host.floor_s(),
        "host_slice_s": host.slice_s,
    }
    traced_note = f", {len(traced.units)} traced" if traced is not None else ""
    print_figures(f"{args.workload} seed {args.seed}: {len(plain.units)} untraced unit(s)"
                  f"{traced_note}, BLAS threads {os.environ[BLAS_ENV[0]]}"
                  + (" (peak RSS includes the traced units)" if traced is not None else ""),
                  metrics, names, notes)
    print_figures(f"as timed, before the host-speed correction (times x {scale:.4f} above)",
                  {k: raw[k] for k in raw if k not in ("peak_rss_mb", "success_rate")})
    if figures:
        print_figures("JSONL figures", figures)
    print(f"# fingerprint sha256 {plain.fingerprint}")
    print(f"# environment {json.dumps(record['environment'], sort_keys=True)}")
    result_metrics = metrics
    if traced is not None:
        layers = tracer.layer_metrics(units=max(len(traced.units), 1))
        # The overhead, estimated from the wrapper's own cost per span, and
        # as measured: traced minus untraced units, alternated in the run.
        spans = len(tracer.spans) / max(len(traced.units), 1)
        cost_ms = spans * Tracer.span_cost_ns() / 1e6
        unit_ms = 1e3 * statistics.median(sum(u.build_s) + sum(u.use_s) + sum(u.phase_s.values())
                                          for u in plain.units) if plain.units else 0.0
        layers["tracing.spans"] = (spans, "count")
        layers["tracing.overhead_ms"] = (cost_ms, "ms")
        layers["tracing.overhead_share"] = (cost_ms / unit_ms if unit_ms else 0.0, "ratio")
        traced_e2e, _ = end_to_end(traced, setup_s, scale)
        for name in OVERHEAD_METRICS:
            value, unit = traced_e2e[name]
            layers[f"tracing.{name}.delta"] = (value - metrics[name][0], unit)
        layers["datastore.jsonl_bytes_per_inst"] = figures.get("jsonl_bytes_per_inst", (0.0, "B"))
        print_figures("per-layer metrics per traced unit; tracing.overhead_* = spans x the "
                      "wrapper's cost per span, tracing.*.delta = traced minus untraced units",
                      layers)
        if traced.fingerprint != plain.fingerprint:
            traced.fail(1, "the traced units' outputs differ from the untraced units'")
        (OUT / "traces").mkdir(exist_ok=True)
        tracer.write_spans(str(OUT / "traces" / f"{args.workload}-seed{args.seed}.jsonl"))
        record["per_layer"] = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
        result_metrics = layers
    measures = [plain] + ([traced] if traced is not None else [])
    attempted = sum(x.attempted for x in measures)
    failed = sum(x.failed for x in measures)
    record["failures"] = [why for x in measures for why in x.failures]
    for why in record["failures"]:
        print(f"# FAILED {why}")

    (OUT / "results").mkdir(exist_ok=True)
    result_path = OUT / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result_metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
