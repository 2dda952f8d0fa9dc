"""Run ``lidar-cfe`` in this interpreter with timing hooks and write what they saw.

Usage: python3 probe.py STATS_JSON TRACE LIDAR_CFE_ARGS...

The program is driven exactly as the ``lidar-cfe`` console script drives it,
through ``lidar_cfe.cli.main``. Hooks replace public functions on the module
objects the program calls them through (``cfe.raycast_scan``,
``cli.load_model``, ...), so no program file changes. With TRACE 0 only the
two hooks the end-to-end metrics need are installed: ``cli.generate_cfes``
(when the search starts and ends) and ``cfe.run_ga`` (evaluations and search
seconds). TRACE 1 adds a hook at every layer boundary. A hook whose function
no longer exists is listed under ``missing`` and the run goes on without it.
"""

from __future__ import annotations

import importlib
import json
import math
import resource
import sys
import time
import types

# (module, attribute, layer name) hooked only in a traced run. The module
# names are those of lidar_cfe; the combine operators share one layer name.
TRACED_HOOKS = (
    ("cli", "load_scenario", "scenario.load_scenario"),
    ("cli", "load_model", "cli.load_model"),
    ("cli", "external_policy", "bridge.spawn"),
    ("model", "load_weight_file", "model.load_weight_file"),
    ("cfe", "fitness_for_query", "cfe.fitness_for_query"),
    ("cfe", "decode_genome", "cfe.decode_genome"),
    ("cfe", "shape_overlaps_disk", "geometry.shape_overlaps_disk"),
    ("cfe", "raycast_scan", "geometry.raycast_scan"),
    ("cfe", "combine_min_distance", "scan.combine"),
    ("cfe", "combine_gen_priority", "scan.combine"),
    ("cfe", "assemble_state", "scan.assemble_state"),
    ("cfe", "hinge_loss", "cfe.hinge_loss"),
    ("cfe", "proximity_loss", "scan.proximity_loss"),
    ("cli", "cfe_plot_svg", "plot.cfe_plot_svg"),
)
# The two combine operators form one layer, missing only when both hooks are.
COMBINE_HOOKS = ("cfe.combine_min_distance", "cfe.combine_gen_priority")


class Probe:
    """Per-call durations by layer name, plus the facts the hooks record."""

    def __init__(self, traced: bool) -> None:
        self.traced = traced
        self.durations: dict[str, list[float]] = {}
        self.missing: list[str] = []
        self.search_start: float | None = None
        self.search_end: float | None = None
        self.searches: list[dict] = []
        self.objective_rows = 0
        self.objective_rejected = 0

    def wrap(self, owner, attr: str, name: str, after=None) -> None:
        """Replace ``owner.attr`` by a timed wrapper; ``after(result, args)`` may replace the result."""
        fn = getattr(owner, attr, None)
        if not callable(fn):
            label = getattr(owner, "__name__", type(owner).__name__).rsplit(".", 1)[-1]
            self.missing.append(f"{label}.{attr}")
            return
        record = self.durations.setdefault(name, []).append
        clock = time.perf_counter

        def hooked(*args, **kwargs):
            t0 = clock()
            result = fn(*args, **kwargs)
            record(clock() - t0)
            return result if after is None else after(result, args)

        setattr(owner, attr, hooked)

    def install(self, modules: dict) -> None:
        """Hook the ``lidar_cfe`` submodules given by short name."""
        self._wrap_search(modules["cli"])
        self.wrap(modules["cfe"], "run_ga", "ga.run_ga", after=self._record_search)
        if not self.traced:
            return
        after = {"cli.load_model": self._wrap_act, "cfe.fitness_for_query": self._wrap_objective}
        for module_name, attr, name in TRACED_HOOKS:
            self.wrap(modules[module_name], attr, name, after=after.get(name))
        if not all(hook in self.missing for hook in COMBINE_HOOKS):
            self.missing = [m for m in self.missing if m not in COMBINE_HOOKS]

    def _wrap_search(self, cli) -> None:
        fn = getattr(cli, "generate_cfes", None)
        if not callable(fn):
            self.missing.append("cli.generate_cfes")
            return

        def hooked(*args, **kwargs):
            if self.search_start is None:
                self.search_start = time.monotonic()
            result = fn(*args, **kwargs)
            self.search_end = time.monotonic()
            return result

        cli.generate_cfes = hooked

    def _record_search(self, run, args):
        config = args[0] if args else None
        self.searches.append(
            {
                "seconds": self.durations["ga.run_ga"][-1],
                "generations": getattr(run, "generations_run", None),
                "population": getattr(config, "population", None),
                "termination": getattr(run, "termination", None),
            }
        )
        return run

    def _wrap_act(self, model, args):
        spec = args[0] if args else ""
        name = "bridge.act" if str(spec).startswith("exec:") else "model.act"
        self.wrap(model, "act", name)
        return model

    def _wrap_objective(self, objective, args):
        record = self.durations.setdefault("cfe.objective", []).append
        clock = time.perf_counter

        def hooked(genomes):
            t0 = clock()
            value = objective(genomes)
            record(clock() - t0)
            if isinstance(value, float):
                self.objective_rows += 1
                self.objective_rejected += value == -math.inf
            else:  # one call scoring a whole population
                values = [float(v) for v in value]
                self.objective_rows += len(values)
                self.objective_rejected += sum(v == -math.inf for v in values)
            return value

        return hooked

    def summary(self, exit_code: int, main_end: float) -> dict:
        layers = {}
        for name, samples in self.durations.items():
            ordered = sorted(samples)
            layers[name] = {
                "calls": len(ordered),
                "total_s": math.fsum(ordered),
                "p50_s": _quantile(ordered, 0.50),
                "p99_s": _quantile(ordered, 0.99),
            }
        return {
            "exit_code": exit_code,
            "main_end": main_end,
            "search_start": self.search_start,
            "search_end": self.search_end,
            "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            "missing": self.missing,
            "searches": self.searches,
            "objective_rows": self.objective_rows,
            "objective_rejected": self.objective_rejected,
            "layers": layers,
        }


def _quantile(ordered: list[float], q: float) -> float:
    """Nearest-rank quantile of sorted samples; 0 for none."""
    if not ordered:
        return 0.0
    return ordered[min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))]


def _import(name: str) -> types.ModuleType:
    """The submodule, or an empty stand-in whose hooks all count as missing."""
    try:
        return importlib.import_module(f"lidar_cfe.{name}")
    except ImportError:
        return types.ModuleType(f"lidar_cfe.{name}")


def main(argv: list[str]) -> int:
    stats_path, traced, cli_args = argv[0], argv[1] == "1", argv[2:]
    from lidar_cfe.cli import main as lidar_cfe_main

    probe = Probe(traced)
    probe.install({name: _import(name) for name in ("cli", "cfe", "model")})
    code = lidar_cfe_main(cli_args)
    main_end = time.monotonic()
    with open(stats_path, "w", encoding="utf-8") as fh:
        json.dump(probe.summary(code, main_end), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
