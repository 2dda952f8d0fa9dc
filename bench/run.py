"""Benchmark of ``lidar-cfe explain``: end-to-end metrics, or per-layer metrics with --trace 1.

Usage, from the root of a checkout:

    python3 bench/run.py --workload swerve-1obs --seed 1 --seconds 20 --trace 0

One client runs one ``explain`` at a time (closed loop), each in a fresh
interpreter, while the next one still fits into ``--seconds`` or fewer than
the minimum have run. Every explain of a run answers the same generated query, so each
must write the same ``results.json``; the output gate checks that and the
documented invariants. BLAS and OpenMP are pinned to one thread, and the
benchmark, the explains and the bridge child to one CPU, whose speed a
thread of the benchmark samples so that timings are given at its nominal
speed.

With ``--trace 1`` untraced and traced explains alternate. The traced ones
report per-layer numbers from hooks on the program's public functions (see
probe.py); the untraced ones give the tracing overhead. Human-readable lines
come first; the last line of standard output is one JSON object.
See README.md in this directory for the metrics and what each should move.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:  # before numpy loads, here and in every child
    os.environ[_var] = "1"

import numpy as np  # noqa: E402
from numpy.lib.stride_tricks import sliding_window_view  # noqa: E402
from workloads import N_RAYS, WORKLOADS, write_inputs  # noqa: E402  (after the thread pins)

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"

MIN_EXPLAINS = 5  # untraced explains in a run with --trace 0
MIN_TRACED_PAIRS = 2  # untraced and traced explains each, with --trace 1
RUN_LIMIT_S = 150.0  # for the whole run, so that a hung explain still ends it within 180 s


def declared() -> dict:
    """BENCHMARK.json: the workloads and the end-to-end and per-layer metrics."""
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def die(message: str) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return 2


# ---------------------------------------------------------------------------
# One explain


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


class Explain:
    """One ``lidar-cfe explain`` process and what it left behind."""

    def __init__(self, inputs, out_dir: Path, traced: bool, env: dict, timeout: float, sampler: SpeedSampler) -> None:
        self.out_dir = out_dir
        self.traced = traced
        self.sampler = sampler
        stats_path = out_dir / "probe.json"
        log_path = out_dir / "explain.log"
        out_dir.mkdir(parents=True)
        argv = [
            sys.executable, str(BENCH_DIR / "probe.py"), str(stats_path), "1" if traced else "0",
            "explain", str(inputs.query_path), "--model", inputs.model_spec,
            "-o", str(out_dir), "--seed", str(inputs.query_seed),
        ]  # fmt: skip
        with open(log_path, "wb") as log:
            self.launched = time.monotonic()
            proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT, env=env, cwd=out_dir, start_new_session=True)
            # A blocking wait sees the exit at once; Popen.wait(timeout) polls
            # every 50 ms, which would quantize explain_s.
            killer = threading.Timer(timeout, _kill_group, (proc.pid,))
            killer.start()
            try:
                self.exit_code = proc.wait()
                self.ended = time.monotonic()
            finally:
                killer.cancel()
                killer.join()
            _kill_group(proc.pid)  # anything the explain left running, such as a bridge child
        self.log = log_path.read_text(encoding="utf-8", errors="replace")
        try:
            self.stats = json.loads(stats_path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            self.stats = None

    @property
    def wall_s(self) -> float:
        return self.ended - self.launched

    @property
    def explain_s(self) -> float:
        """Wall seconds at the nominal speed of the CPU."""
        return self.wall_s * self.sampler.speed(self.launched, self.ended)

    def counts(self) -> dict:
        """Work counts that must repeat exactly for a seed."""
        searches = self.stats["searches"]
        terminations = [s["termination"] for s in searches]
        return {
            "ga.evals": sum(s["generations"] * s["population"] for s in searches),
            "ga.generations": sum(s["generations"] for s in searches),
            "ga.searches": len(searches),
            **{f"ga.stop.{t}": terminations.count(t) for t in ("reach_zero", "saturate", "generations")},
        }

    def end_to_end(self) -> dict:
        """The end-to-end metrics of this explain, its timings at the nominal speed of the CPU."""
        search_start, search_end = self.stats["search_start"], self.stats["search_end"]
        search_s = sum(s["seconds"] for s in self.stats["searches"])
        return {
            "setup_s": (search_start - self.launched) * self.sampler.speed(self.launched, search_start),
            "explain_s": self.explain_s,
            "evals_per_s": self.counts()["ga.evals"] / search_s / self.sampler.speed(search_start, search_end),
            "peak_rss_mb": self.stats["peak_rss_kb"] / 1024.0,
        }


# ---------------------------------------------------------------------------
# CPU speed
#
# The speed of a CPU of the host changes by up to half within a second, and
# the two CPUs change independently: a fixed loop pinned to one of them takes
# about 55 ms or 85 ms at random (README.md, Steadiness). So the benchmark
# pins itself, every explain and the bridge child to one CPU, and a thread of
# this process times a fixed slice of work on that CPU every SAMPLE_EVERY_S
# while the explain runs. Each timing is scaled by the CPU's mean speed over
# its interval relative to the slice's nominal time, which no program change
# can move. The slice runs twice and only the second run is timed: the first
# reloads the caches the explain evicted. Timed cold and without the conv
# layer, the slice left about 1.5 times the spread in the scaled explain
# times. The slices take about 3 % of the CPU, on both sides of a comparison.

SAMPLE_EVERY_S = 0.02
SLICE_NOMINAL_S = 3.5e-4  # about the slice's median time on the machine in README.md, so timings read close to wall seconds


def work_slice(a, b, kernels) -> None:
    """A fixed slice of the kinds of work an evaluation does: interpreter loops, float text, small numpy calls, a conv layer."""
    x, table = 1, {}
    for i in range(300):
        x = (x * 1103515245 + 12345) & 0xFFFFFFFF
        table[x & 1023] = i
    for i in range(20):
        float(repr(i / 7.0))
    for _ in range(10):
        c = np.minimum(a, b)
        float(np.sum(np.cos(c)))
        c.max()
    y = a[np.newaxis, :]
    for w, stride in kernels:  # circular 1-D convolutions, as in the conv net
        padded = np.concatenate([y[:, -2:], y, y[:, :2]], axis=1)
        y = np.maximum(np.einsum("ink,oik->on", sliding_window_view(padded, 5, axis=1)[:, ::stride, :], w), 0.0)


class SpeedSampler:
    """Times ``work_slice`` every SAMPLE_EVERY_S from a thread; ``speed`` averages the timings over an interval."""

    def __init__(self) -> None:
        self.ends: list[float] = []  # time.monotonic() at the end of each slice
        self.speeds: list[float] = []  # SLICE_NOMINAL_S / the slice's seconds
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, name="speed-sampler", daemon=True)

    def __enter__(self) -> SpeedSampler:
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def _sample(self) -> None:
        a = np.linspace(0.0, 3.0, N_RAYS)
        b = np.linspace(1.0, 2.0, N_RAYS)
        kernels = [(np.full((4, 1, 5), 0.2), 1), (np.full((8, 4, 5), 0.05), 2)]
        clock = time.perf_counter
        while not self._stop.wait(SAMPLE_EVERY_S):
            work_slice(a, b, kernels)  # untimed: see the comment above SAMPLE_EVERY_S
            t0 = clock()
            work_slice(a, b, kernels)
            t1 = clock()
            self.speeds.append(SLICE_NOMINAL_S / (t1 - t0))
            self.ends.append(time.monotonic())

    def speed(self, start: float, end: float) -> float:
        """The CPU's mean speed from ``start`` to ``end``, relative to nominal; 1 if no slice ended then."""
        i, j = bisect.bisect_left(self.ends, start), bisect.bisect_right(self.ends, end)
        return statistics.fmean(self.speeds[i:j]) if j > i else 1.0


# ---------------------------------------------------------------------------
# Output gate


class Gate:
    """Checks every explain of a run; records each breach."""

    def __init__(self, inputs, verify) -> None:
        self.inputs = inputs
        self.verify = verify  # (results path) -> None, raises on mismatch
        self.verified: set[str] = set()
        self.reference: dict | None = None
        self.breaches: list[str] = []
        self.failed = 0

    def check(self, run: Explain, index: int) -> dict | None:
        """Return the run's facts, or None after recording why it failed."""
        problems, facts = self._inspect(run)
        if not problems:
            return facts
        kind = "traced" if run.traced else "untraced"
        self.breaches += [f"explain {index} ({kind}): {p}" for p in problems]
        self.failed += 1
        return None

    def _inspect(self, run: Explain) -> tuple[list[str], dict | None]:
        if run.exit_code != 0:
            tail = run.log.strip().splitlines()[-3:]
            return [f"exit code {run.exit_code}: {' | '.join(tail)}"], None
        if run.stats is None:
            return ["the probe wrote no statistics"], None
        needed = {"cli.generate_cfes", "cfe.run_ga"} & set(run.stats["missing"])
        if needed:
            return [f"end-to-end hooks missing: {sorted(needed)}"], None
        if any(s["generations"] is None or s["population"] is None for s in run.stats["searches"]):
            return ["run_ga no longer reports generations_run and population"], None
        results_path = run.out_dir / "results.json"
        try:
            raw = results_path.read_bytes()
            data = json.loads(raw)
        except (OSError, json.JSONDecodeError) as exc:
            return [f"unreadable results.json: {exc}"], None
        problems = []
        entries = data.get("results", [])
        if len(entries) != self.inputs.n_cfes:
            problems.append(f"{len(entries)} results, expected {self.inputs.n_cfes}")
        for entry in entries:
            fitness = -math.inf if entry["fitness"] == "-inf" else float(entry["fitness"])
            if not fitness <= 0.0:
                problems.append(f"entry {entry['index']}: fitness {fitness} > 0")
            if entry["satisfied"] != (entry["hinge"] == 0.0):
                problems.append(f"entry {entry['index']}: satisfied={entry['satisfied']} but hinge={entry['hinge']}")
        n_svgs = len(list(run.out_dir.glob("cfe_*.svg")))
        if n_svgs != len(entries):
            problems.append(f"{n_svgs} SVGs for {len(entries)} results")
        if not (run.out_dir / "manifest.json").is_file():
            problems.append("no manifest.json")
        sha = hashlib.sha256(raw).hexdigest()
        if sha not in self.verified:
            try:
                self.verify(results_path)
                self.verified.add(sha)
            except Exception as exc:  # any failure of the verifier is a failed output check
                problems.append(f"verify_results_file: {type(exc).__name__}: {exc}")
        n_evals = run.counts()["ga.evals"]
        if run.traced and run.stats["objective_rows"] not in (0, n_evals):
            problems.append(f"objective scored {run.stats['objective_rows']} genomes, run_ga reports {n_evals}")
        facts = {
            "sha256": sha,
            "bytes": len(raw),
            "counts": run.counts(),
            "satisfied_frac": sum(e["satisfied"] for e in entries) / max(1, len(entries)),
            "mean_hinge": statistics.fmean(e["hinge"] for e in entries) if entries else 0.0,
        }
        if self.reference is None:
            self.reference = {k: facts[k] for k in ("sha256", "counts")}
        elif facts["sha256"] != self.reference["sha256"]:
            problems.append(f"results.json sha256 {sha[:12]} differs from the first explain's {self.reference['sha256'][:12]}")
        elif facts["counts"] != self.reference["counts"]:
            problems.append(f"counts {facts['counts']} differ from the first explain's {self.reference['counts']}")
        return problems, facts


def make_verifier(inputs):
    """``verify_results_file`` against a model loaded the way explain loads it."""
    from lidar_cfe import cli

    def verify(results_path: Path) -> None:
        model = cli.load_model(inputs.model_spec, N_RAYS + 3, inputs.n_outputs)
        try:
            cli.verify_results_file(results_path, model)
        finally:
            close = getattr(model, "close", None)
            if close is not None:
                close()

    return verify


# ---------------------------------------------------------------------------
# Per-layer metrics of one traced explain


def layer_metrics(run: Explain, results_bytes: int, mean_hinge: float) -> dict:
    stats = run.stats
    layers = stats["layers"]

    def layer(name: str) -> dict:
        return layers.get(name, {"calls": 0, "total_s": 0.0, "p50_s": 0.0, "p99_s": 0.0})

    def mean_us(name: str) -> float:
        entry = layer(name)
        return 1e6 * entry["total_s"] / entry["calls"] if entry["calls"] else 0.0

    searches = stats["searches"]
    run_ga_s = sum(s["seconds"] for s in searches)
    objective = layer("cfe.objective")
    rows = stats["objective_rows"]
    counts = run.counts()
    search_ms = sorted(1e3 * s["seconds"] for s in searches)
    return {
        "cli.load_model.s": layer("cli.load_model")["total_s"],
        "cli.output_s": stats["main_end"] - stats["search_end"],
        "cli.results_json_bytes": results_bytes,
        "scenario.load_scenario.s": layer("scenario.load_scenario")["total_s"],
        "cfe.generate_cfes.s": stats["search_end"] - stats["search_start"],
        "cfe.objective.us": 1e6 * objective["total_s"] / rows if rows else 0.0,
        "cfe.rejected_frac": stats["objective_rejected"] / rows if rows else 0.0,
        "cfe.decode_genome.us": mean_us("cfe.decode_genome"),
        "cfe.hinge_loss.us": mean_us("cfe.hinge_loss"),
        "cfe.package.s": (stats["search_end"] - stats["search_start"]) - run_ga_s,
        "cfe.mean_hinge": mean_hinge,
        "geometry.raycast_scan.us": mean_us("geometry.raycast_scan"),
        "geometry.raycast_scan.calls": layer("geometry.raycast_scan")["calls"],
        "geometry.shape_overlaps_disk.s": layer("geometry.shape_overlaps_disk")["total_s"],
        "scan.combine.us": mean_us("scan.combine"),
        "scan.assemble_state.us": mean_us("scan.assemble_state"),
        "scan.proximity_loss.us": mean_us("scan.proximity_loss"),
        "model.act.p50_us": 1e6 * layer("model.act")["p50_s"],
        "model.act.p99_us": 1e6 * layer("model.act")["p99_s"],
        "model.act.calls": layer("model.act")["calls"],
        "model.load_weight_file.s": layer("model.load_weight_file")["total_s"],
        "bridge.act.p50_us": 1e6 * layer("bridge.act")["p50_s"],
        "bridge.act.p99_us": 1e6 * layer("bridge.act")["p99_s"],
        "bridge.act.calls": layer("bridge.act")["calls"],
        "bridge.spawn_s": layer("bridge.spawn")["total_s"],
        "ga.self_s": run_ga_s - objective["total_s"],
        "ga.evals": counts["ga.evals"],
        "ga.generations": counts["ga.generations"],
        "ga.search.p50_ms": statistics.median(search_ms) if search_ms else 0.0,
        "ga.stop.reach_zero": counts["ga.stop.reach_zero"],
        "ga.stop.saturate": counts["ga.stop.saturate"],
        "ga.stop.generations": counts["ga.stop.generations"],
        "plot.cfe_plot_svg.s": layer("plot.cfe_plot_svg")["total_s"],
        "trace.missing_hooks": len(stats["missing"]),
    }


# ---------------------------------------------------------------------------
# Machine facts


def machine_facts() -> dict:
    import numpy as np

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = "unknown"
    try:
        config = np.show_config(mode="dicts")
        info = config["Build Dependencies"]["blas"]
        blas = f"{info.get('name')} {info.get('version')}"
    except (TypeError, KeyError):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


# ---------------------------------------------------------------------------
# Main loop


def median_line(name: str, values: list[float], unit: str) -> str:
    lo, hi = min(values), max(values)
    return f"{name} = {statistics.median(values):.6g} {unit} (median of {len(values)}, min {lo:.6g}, max {hi:.6g})"


def run(args) -> int:
    workload = WORKLOADS[args.workload]
    work = WORK_ROOT / f"{workload.name}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return measure(args, workload, write_inputs(workload, args.seed, work), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass


def measure(args, workload, inputs, work: Path) -> int:
    spec = declared()
    env = dict(os.environ, PYTHONHASHSEED="0")
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})  # inherited by every explain and bridge child
    gate = Gate(inputs, make_verifier(inputs))
    why = next(w["why"] for w in spec["workloads"] if w["name"] == workload.name)
    print(f"workload {workload.name}: {why}")
    print(f"seed {args.seed}: query seed {inputs.query_seed}, n_cfes {inputs.n_cfes}, model {inputs.model_spec}")
    print("machine " + json.dumps(dict(machine_facts(), pinned_cpu=cpu), sort_keys=True))

    untraced: list[tuple[Explain, dict]] = []
    traced: list[tuple[Explain, dict]] = []
    # Stop before an explain that would end past the deadline, once the
    # minimum has run; with --trace 1 stop only after a traced explain.
    minimum = 2 * MIN_TRACED_PAIRS if args.trace else MIN_EXPLAINS
    started = time.monotonic()
    attempted = 0
    with SpeedSampler() as sampler:
        while True:
            elapsed = time.monotonic() - started
            if elapsed >= RUN_LIMIT_S:
                break
            if attempted >= minimum and elapsed * (attempted + 1) / attempted > args.seconds and not (args.trace and attempted % 2):
                break
            traced_now = bool(args.trace and attempted % 2)
            explain = Explain(inputs, work / f"explain-{attempted:03d}", traced_now, env, RUN_LIMIT_S - elapsed, sampler)
            facts = gate.check(explain, attempted)
            attempted += 1
            if facts is not None:
                (traced if explain.traced else untraced).append((explain, facts))
            shutil.rmtree(explain.out_dir, ignore_errors=True)

    failed = gate.failed
    for breach in gate.breaches:
        print(f"FAILED {breach}")
    print(f"failed_frac = {failed / attempted:.6g} ratio ({failed} of {attempted} explains)")
    if not untraced or (args.trace and not traced):
        print(json.dumps({"correct": False, "attempted": attempted, "failed": failed, "metrics": {}}))
        return 1

    facts = untraced[0][1]
    print(f"results.json sha256 {facts['sha256']}")
    print("counts " + json.dumps(facts["counts"], sort_keys=True))
    print(f"mean_hinge = {facts['mean_hinge']:.6g} action")
    print(median_line("cpu speed", [e.sampler.speed(e.launched, e.ended) for e, _ in untraced], "x nominal") + f", {len(sampler.speeds)} slices")
    print(median_line("wall explain_s", [e.wall_s for e, _ in untraced], "s") + ", as measured")
    series = {name: [e.end_to_end()[name] for e, _ in untraced] for name in ("setup_s", "explain_s", "evals_per_s", "peak_rss_mb")}
    values = {name: statistics.median(v) for name, v in series.items()}
    values["satisfied_frac"] = facts["satisfied_frac"]
    for m in spec["end_to_end"]:
        if m["name"] in series:
            print(median_line(m["name"], series[m["name"]], m["unit"]) + f", {m['better']} is better")
        else:
            print(f"{m['name']} = {values[m['name']]:.6g} {m['unit']}, {m['better']} is better")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec["end_to_end"]}

    if args.trace:
        missing = sorted({m for e, _ in traced for m in e.stats["missing"]})
        if missing:
            print("MISSING hooks (their layer metrics read 0): " + ", ".join(missing))
        per_run = [layer_metrics(e, f["bytes"], f["mean_hinge"]) for e, f in traced]
        layers = {name: statistics.median_low(r[name] for r in per_run) for name in per_run[0]}
        traced_s = statistics.median(e.explain_s for e, _ in traced)
        layers["trace.overhead_frac"] = (traced_s - values["explain_s"]) / values["explain_s"]
        metrics = {m["name"]: {"value": layers[m["name"]], "unit": m["unit"]} for m in spec["per_layer"]}
        for name, entry in metrics.items():
            print(f"{name} = {entry['value']:.6g} {entry['unit']} (median of {len(per_run)} traced explains)")

    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="time budget of the measurement")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "lidar_cfe" / "cli.py").is_file():
        return die(f"no program source at {SRC / 'lidar_cfe'}; run from a checkout of the repository")
    if args.seed < 0:
        return die("--seed must be >= 0")
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = str(SRC)  # for explain and the bridge child, as for this process
    import lidar_cfe

    if not Path(lidar_cfe.__file__).resolve().is_relative_to(SRC):
        return die(f"lidar_cfe imports from {lidar_cfe.__file__}, not from {SRC}")
    if args.workload not in WORKLOADS:
        return die(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
