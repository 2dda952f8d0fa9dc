"""Command-line interface: scan scenarios, generate counterfactuals, validate models.

Exit codes are stable for scripting: 0 success (even when no counterfactual
satisfied the bounds), 2 input error, 3 model error, 4 internal error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import math
import os
import sys
import time
from dataclasses import asdict
from datetime import datetime, timezone
from pathlib import Path

import numpy as np
import yaml

from . import __version__
from .bridge import external_policy
from .cfe import ActionBounds, CfeQuery, CfeResult, _hinge_rows, generate_cfes
from .errors import InputError, LidarCfeError, ModelError
from .ga import GaConfig
from .geometry import CIRCLE, ObstacleShape
from .model import (
    GOAL_SEEKER,
    LEFT_PREFERRER,
    NetworkPolicy,
    PolicyModel,
    ScriptedParams,
    scripted_policy,
)
from .plot import cfe_plot_svg, scan_plot_svg, write_svg
from .scan import GoalFeatures, ModelState, Scan, goal_state, state_rows
from .scenario import load_scenario, load_yaml_mapping, parse_yaml

ENV_OUT_DIR = "LIDAR_CFE_OUT"

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_MODEL = 3
EXIT_INTERNAL = 4

log = logging.getLogger(__name__)


# ---------------------------------------------------------------------------
# File helpers


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _out_dir(args) -> Path:
    out = args.out or os.environ.get(ENV_OUT_DIR) or "."
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _obstacle_payload(shape: ObstacleShape) -> dict:
    if shape.kind == CIRCLE:
        return {"kind": shape.kind, "center": [shape.center.x, shape.center.y], "radius": shape.radius}
    return {
        "kind": shape.kind,
        "center": [shape.center.x, shape.center.y],
        "half_extents": list(shape.half_extents),
        "orientation": shape.orientation,
    }


# ---------------------------------------------------------------------------
# Query loading


def _apply_override(data: dict, dotted: str, raw_value: str) -> None:
    try:
        value = parse_yaml(raw_value)
    except yaml.YAMLError:
        value = raw_value
    node = data
    keys = dotted.split(".")
    for key in keys[:-1]:
        node = node.setdefault(key, {})
        if not isinstance(node, dict):
            raise InputError(f"--set {dotted}: {key} is not a mapping")
    node[keys[-1]] = value


def _floats(raw, where: str) -> tuple[float, ...]:
    try:
        values = tuple(float(v) for v in raw if not isinstance(v, bool))
    except (TypeError, ValueError):
        values = ()
    if len(values) != len(raw):
        raise InputError(f"{where} must be numbers, got {raw!r}")
    return values


def _parse_bounds(raw, where: str) -> ActionBounds:
    if isinstance(raw, dict):
        if set(raw) != {"linear", "angular"}:
            raise InputError(f"{where}: bounds mapping must have exactly the keys linear and angular")
        raw = [raw["linear"], raw["angular"]]
    if not isinstance(raw, list) or not raw:
        raise InputError(f"{where}: bounds must be a list of [lower, upper] pairs")
    pairs = []
    for i, pair in enumerate(raw):
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise InputError(f"{where}: bounds[{i}] must be [lower, upper]")
        pairs.append(_floats(pair, f"{where}: bounds[{i}]"))
    try:
        return ActionBounds.from_pairs(pairs)
    except ValueError as exc:
        raise InputError(f"{where}: {exc}") from None


def _load_base(base_ref: str, query_path: Path) -> tuple[Scan, GoalFeatures, float | None, str]:
    base_path = Path(base_ref)
    if not base_path.is_absolute():
        base_path = query_path.parent / base_path
    if not base_path.exists():
        raise InputError(f"{query_path}: base file {base_path} does not exist")
    if base_path.suffix == ".json":
        try:
            data = json.loads(base_path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise InputError(f"cannot read scan file {base_path}: {exc}") from exc
        if not isinstance(data, dict) or data.get("kind") != "scan":
            raise InputError(f"{base_path}: not a scan file (kind != 'scan')")
        try:
            scan = Scan(np.array(data["readings"], dtype=float), float(data["max_range"]))
            goal = GoalFeatures(data["goal"]["cos"], data["goal"]["sin"], data["goal"]["distance"])
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"{base_path}: {exc}") from None
        d_g_max = data.get("d_g_max")
        return scan, goal, (float(d_g_max) if d_g_max is not None else None), str(base_path)
    scenario = load_scenario(base_path)
    return scenario.base_scan(), scenario.goal_features(), scenario.goal_distance_scale(), str(base_path)


_QUERY_FIELDS = {
    "base",
    "bounds",
    "combination",
    "lambda_y",
    "lambda_p",
    "n_obstacles",
    "d_min",
    "world_bounds",
    "size_limits",
    "d_g_max",
    "n_cfes",
    "seed",
    "ga",
}


def _load_query(path, overrides) -> tuple[CfeQuery, GaConfig, dict]:
    """Build the query and GA config from a YAML query file plus --set overrides."""
    query_path = Path(path)
    data = load_yaml_mapping(query_path)
    where = str(query_path)
    for dotted, raw_value in overrides or []:
        _apply_override(data, dotted, raw_value)
    unknown = set(data) - _QUERY_FIELDS
    if unknown:
        raise InputError(f"{where}: unknown fields {sorted(unknown)}")

    base_ref = data.get("base")
    if not isinstance(base_ref, str):
        raise InputError(f"{where}: 'base' must name a scenario (.yaml) or scan (.json) file")
    scan, goal, base_d_g_max, base_path = _load_base(base_ref, query_path)
    bounds = _parse_bounds(data.get("bounds"), where)

    kwargs = {}
    for field, key in [
        ("combination", "combination"),
        ("lambda_y", "lambda_y"),
        ("lambda_p", "lambda_p"),
        ("n_obstacles", "n_obstacles"),
        ("d_min", "d_min"),
        ("world_bounds", "world_bounds"),
        ("d_g_max", "d_g_max"),
        ("n_cfes", "n_cfes"),
        ("rng_seed", "seed"),
    ]:
        if key in data and data[key] is not None:
            kwargs[field] = data[key]
    if "size_limits" in data and data["size_limits"] is not None:
        raw_sizes = data["size_limits"]
        if not isinstance(raw_sizes, (list, tuple)) or len(raw_sizes) != 2:
            raise InputError(f"{where}: size_limits must be [min, max]")
        kwargs["size_limits"] = _floats(raw_sizes, f"{where}: size_limits")
    if "d_g_max" not in kwargs and base_d_g_max is not None:
        kwargs["d_g_max"] = base_d_g_max
    try:
        query = CfeQuery(base_scan=scan, goal=goal, bounds=bounds, **kwargs)
    except (TypeError, ValueError) as exc:
        raise InputError(f"{where}: {exc}") from None

    ga_raw = data.get("ga") or {}
    if not isinstance(ga_raw, dict):
        raise InputError(f"{where}: 'ga' must be a mapping of engine settings")
    if "rng_seed" in ga_raw:
        raise InputError(f"{where}: ga.rng_seed is not a setting; the top-level seed seeds search i with seed + i")
    try:
        ga_config = GaConfig(**ga_raw)
    except (TypeError, ValueError) as exc:
        raise InputError(f"{where}: ga: {exc}") from None

    meta = {"base": base_path}
    return query, ga_config, meta


# ---------------------------------------------------------------------------
# Model loading


def load_model(spec: str, n_inputs: int, n_outputs: int, timeout: float = 5.0) -> PolicyModel:
    """Resolve a model spec string.

    Forms: ``scripted:goal_seeker``, ``scripted:left_preferrer``,
    ``weights:<path>`` (or a bare weight-file path), ``exec:<command>``.
    """
    if spec.startswith("scripted:"):
        kind = spec.split(":", 1)[1]
        if kind not in (GOAL_SEEKER, LEFT_PREFERRER):
            raise ModelError(f"unknown scripted policy {kind!r}")
        try:
            model: PolicyModel = scripted_policy(kind, ScriptedParams(n_lidar=n_inputs - 3))
        except ValueError as exc:
            raise ModelError(str(exc)) from None
    elif spec.startswith("exec:"):
        model = external_policy(spec.split(":", 1)[1], n_inputs, n_outputs, timeout=timeout)
    else:
        path = spec.split(":", 1)[1] if spec.startswith("weights:") else spec
        model = NetworkPolicy.from_file(path)
    if model.input_size != n_inputs or model.output_size != n_outputs:
        raise ModelError(
            f"model is {model.input_size}->{model.output_size}, run needs {n_inputs}->{n_outputs}"
        )
    return model


def _model_hash(spec: str) -> str | None:
    path = None
    if spec.startswith("weights:"):
        path = spec.split(":", 1)[1]
    elif not spec.startswith(("scripted:", "exec:")):
        path = spec
    if path and Path(path).exists():
        return hashlib.sha256(Path(path).read_bytes()).hexdigest()
    return None


# ---------------------------------------------------------------------------
# Results files


def _query_settings(query: CfeQuery) -> dict:
    """The search settings written to both ``results.json`` and ``manifest.json``."""
    return {
        "bounds": [[float(lo), float(hi)] for lo, hi in zip(query.bounds.lower, query.bounds.upper)],
        "combination": query.combination,
        "lambda_y": query.lambda_y,
        "lambda_p": query.lambda_p,
        "n_obstacles": query.n_obstacles,
        "d_min": query.d_min,
        "world_bounds": query.world_extent,
        "size_limits": list(query.size_limits),
        "d_g_max": query.goal_distance_scale,
        "n_cfes": query.n_cfes,
    }


def _results_payload(query: CfeQuery, results: list[CfeResult]) -> dict:
    goal = query.goal
    entries = []
    for i, r in enumerate(results):
        entries.append(
            {
                "index": i,
                "satisfied": r.satisfied,
                "fitness": r.fitness if math.isfinite(r.fitness) else "-inf",
                "hinge": r.hinge_component,
                "proximity": r.proximity_component,
                "achieved_action": [float(v) for v in r.achieved_action.values],
                "obstacles": [_obstacle_payload(s) for s in r.obstacles],
                "genome": [float(g) for g in r.genome],
                "combined_readings": [float(v) for v in r.combined_scan.readings],
                "search": asdict(r.search),
            }
        )
    return {
        "format": 1,
        "kind": "cfe-results",
        "n_rays": query.base_scan.n,
        "max_range": query.base_scan.max_range,
        "goal": {"cos": goal.cos, "sin": goal.sin, "distance": goal.distance},
        "base_readings": [float(v) for v in query.base_scan.readings],
        **_query_settings(query),
        "seed": query.rng_seed,
        "warning": None if any(r.satisfied for r in results) or not results else "no satisfied counterfactuals",
        "results": entries,
    }


def verify_results_file(path, model: PolicyModel) -> int:
    """Re-run the model on every stored combined state.

    Raises ``LidarCfeError``, naming the file and, for a per-entry field, the
    entry, on any mismatch or malformed field.

    All states go to the model in one ``act_batch`` call. Returns the number
    of entries checked. Used by tests and available for scripting confidence
    checks.
    """
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
        goal = GoalFeatures(data["goal"]["cos"], data["goal"]["sin"], data["goal"]["distance"])
        n_rays, max_range, d_g_max = int(data["n_rays"]), float(data["max_range"]), float(data["d_g_max"])
        bounds = ActionBounds.from_pairs(data["bounds"])
        entries = list(data["results"])
    except KeyError as exc:
        raise LidarCfeError(f"{path}: missing field {exc}") from None
    except (TypeError, ValueError) as exc:
        raise LidarCfeError(f"{path}: {exc}") from None
    if not entries:
        return 0
    for i, entry in enumerate(entries):
        missing = sorted({"index", "combined_readings", "achieved_action", "satisfied"} - set(entry))
        if missing:
            raise LidarCfeError(f"{path}: entry {i} lacks {', '.join(missing)}")
        if len(entry["combined_readings"]) != n_rays:
            raise LidarCfeError(f"{path}: entry {entry['index']} has {len(entry['combined_readings'])} readings, not {n_rays}")
    readings = np.array([entry["combined_readings"] for entry in entries], dtype=float)
    outside = np.flatnonzero(~np.all((readings > 0.0) & (readings <= max_range), axis=1))
    if outside.size:
        raise LidarCfeError(f"{path}: entry {entries[outside[0]]['index']} has a reading outside (0, {max_range:g}]")
    actions = np.asarray(model.act_batch(state_rows(readings, max_range, goal_state(goal, d_g_max))), dtype=float)
    satisfied = _hinge_rows(actions, bounds) == 0.0
    for entry, action, inside in zip(entries, actions, satisfied, strict=True):
        stored = np.array(entry["achieved_action"], dtype=float)
        if not np.array_equal(action, stored):
            raise LidarCfeError(f"{path}: entry {entry['index']} action mismatch: {action} != {stored}")
        if inside != entry["satisfied"]:
            raise LidarCfeError(f"{path}: entry {entry['index']} satisfied flag disagrees with bounds")
    return len(entries)


# ---------------------------------------------------------------------------
# Commands


def cmd_scan(args) -> int:
    scenario = load_scenario(args.scenario)
    scan = scenario.base_scan()
    goal = scenario.goal_features()
    out_dir = _out_dir(args)
    stem = args.name or scenario.name
    payload = {
        "format": 1,
        "kind": "scan",
        "name": stem,
        "n_rays": scan.n,
        "max_range": scan.max_range,
        "readings": [float(v) for v in scan.readings],
        "goal": {"cos": goal.cos, "sin": goal.sin, "distance": goal.distance},
        "d_g_max": scenario.goal_distance_scale(),
    }
    scan_path = out_dir / f"{stem}.scan.json"
    _write_json(scan_path, payload)
    svg_path = out_dir / f"{stem}.scan.svg"
    write_svg(svg_path, scan_plot_svg(scan, goal, label=stem))
    print(f"wrote {scan_path}")
    print(f"wrote {svg_path}")
    return EXIT_OK


def cmd_explain(args) -> int:
    started = time.monotonic()
    started_utc = datetime.now(timezone.utc).isoformat(timespec="seconds")
    overrides = list(args.set or [])
    if args.seed is not None:
        overrides.append(("seed", str(args.seed)))
    query, ga_config, meta = _load_query(args.query, overrides)
    model = load_model(args.model, query.base_scan.n + 3, len(query.bounds), timeout=args.timeout)
    try:
        results = generate_cfes(query, model, ga_config)
    finally:
        close = getattr(model, "close", None)
        if close is not None:
            close()

    out_dir = _out_dir(args)
    payload = _results_payload(query, results)
    results_path = out_dir / "results.json"
    _write_json(results_path, payload)
    if not args.no_plots:
        for i, r in enumerate(results):
            svg = cfe_plot_svg(query.base_scan, r.combined_scan, r.obstacles, query.goal, label=f"counterfactual {i}")
            write_svg(out_dir / f"cfe_{i:03d}.svg", svg)

    manifest = {
        "format": 1,
        "kind": "run-manifest",
        "tool": "lidar-cfe",
        "version": __version__,
        "command": "explain",
        "query_file": str(args.query),
        "base_file": meta["base"],
        "model": {"spec": args.model, "sha256": _model_hash(args.model)},
        "query": _query_settings(query),
        "ga": {k: v for k, v in asdict(ga_config).items() if k != "rng_seed"},
        "seeds": [query.rng_seed + i for i in range(query.n_cfes)],
        "started_utc": started_utc,
        "duration_seconds": round(time.monotonic() - started, 3),
    }
    _write_json(out_dir / "manifest.json", manifest)

    n_satisfied = sum(1 for r in results if r.satisfied)
    print(f"{n_satisfied}/{len(results)} counterfactuals satisfied the bounds")
    if results and n_satisfied == 0:
        print("warning: no satisfied counterfactuals; see results.json for near misses")
    print(f"wrote {results_path}")
    return EXIT_OK


def cmd_validate_model(args) -> int:
    n_inputs = args.n_rays + 3
    model = load_model(args.model, n_inputs, args.outputs, timeout=args.timeout)
    try:
        # Probe with the range-clear state: every ray at max range, goal dead
        # ahead at half the distance scale.
        values = np.concatenate([np.ones(args.n_rays), [1.0, 0.5, 0.5]])
        state = ModelState(values)
        t0 = time.perf_counter()
        action = model.act(state)
        latency = time.perf_counter() - t0
    finally:
        close = getattr(model, "close", None)
        if close is not None:
            close()
    print(f"model: {args.model}")
    print(f"inputs: {model.input_size}  outputs: {model.output_size}")
    print("probe action: [" + ", ".join(f"{v:.4f}" for v in action.values) + "]")
    print(f"probe latency: {latency * 1000.0:.1f} ms")
    print("ok")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Entry point


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lidar-cfe",
        description="Generate realistic counterfactual scans for range-scan controllers.",
    )
    parser.add_argument("--version", action="version", version=f"lidar-cfe {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_scan = sub.add_parser("scan", help="raycast a scenario into a base scan file and plot")
    p_scan.add_argument("scenario", help="scenario YAML file")
    p_scan.add_argument("-o", "--out", help=f"output directory (default: ${ENV_OUT_DIR} or .)")
    p_scan.add_argument("--name", help="output file stem (default: scenario name)")
    p_scan.set_defaults(func=cmd_scan)

    p_explain = sub.add_parser("explain", help="search for counterfactuals answering a query file")
    p_explain.add_argument("query", help="query YAML file")
    p_explain.add_argument("--model", required=True, help="scripted:<name>, weights:<path>, or exec:<command>")
    p_explain.add_argument("-o", "--out", help=f"output directory (default: ${ENV_OUT_DIR} or .)")
    p_explain.add_argument("--seed", type=int, help="override the query's seed")
    p_explain.add_argument("--timeout", type=float, default=5.0, help="bridge response timeout in seconds")
    p_explain.add_argument("--no-plots", action="store_true", help="skip per-counterfactual SVGs")
    p_explain.add_argument(
        "--set",
        action="append",
        metavar="KEY=VALUE",
        type=_parse_set_flag,
        help="override any query or ga field, e.g. --set ga.generations=30 --set n_cfes=5",
    )
    p_explain.set_defaults(func=cmd_explain)

    p_validate = sub.add_parser("validate-model", help="load a model, check shapes, and probe it")
    p_validate.add_argument("--model", required=True)
    p_validate.add_argument("--n-rays", type=int, default=180, help="scan length the model expects")
    p_validate.add_argument("--outputs", type=int, default=2, help="action dimensions the model emits")
    p_validate.add_argument("--timeout", type=float, default=5.0)
    p_validate.set_defaults(func=cmd_validate_model)
    return parser


def _parse_set_flag(text: str) -> tuple[str, str]:
    if "=" not in text:
        raise argparse.ArgumentTypeError(f"expected KEY=VALUE, got {text!r}")
    key, value = text.split("=", 1)
    return key.strip(), value


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    try:
        return args.func(args)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ModelError as exc:
        print(f"model error: {exc}", file=sys.stderr)
        return EXIT_MODEL
    except LidarCfeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except Exception as exc:  # stable exit-code contract over raw tracebacks
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
