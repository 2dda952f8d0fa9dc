"""Command-line interface: scan scenarios, generate counterfactuals, validate models.

Exit codes are stable for scripting: 0 success (even when no counterfactual
satisfied the bounds), 2 input error, 3 model error, 4 internal error.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
import time
from dataclasses import asdict, fields, replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np
import yaml

from . import __version__
from .cfe import GENES_PER_OBSTACLE, ActionBounds, CfeQuery, CfeResult, SearchFacts, _act_rows, _package, generate_cfes
from .errors import InputError, LidarCfeError, ModelError
from .ga import GaConfig, require_int
from .model import NetworkPolicy, PolicyModel, scripted_policy
from .plot import cfe_plot_svg, scan_plot_svg
from .scan import GoalFeatures, Scan
from .scenario import _json_object, _obstacle_entry, _pair, build, load_scenario, parse_yaml, read_mapping, refuse_unknown

ENV_OUT_DIR = "LIDAR_CFE_OUT"

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_MODEL = 3
EXIT_INTERNAL = 4


# ---------------------------------------------------------------------------
# File helpers


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _out_dir(args) -> Path:
    path = Path(args.out or os.environ.get(ENV_OUT_DIR) or ".")
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise InputError(f"cannot create output directory {path}: {exc}") from None
    return path


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
        if node.get(key) is None:  # a key written with no value holds an empty mapping
            node[key] = {}
        node = node[key]
        if not isinstance(node, dict):
            raise InputError(f"--set {dotted}: {key} is not a mapping")
    node[keys[-1]] = value


def _parse_bounds(raw, where: str) -> ActionBounds:
    if isinstance(raw, dict):
        if set(raw) != {"linear", "angular"}:
            raise InputError(f"{where}: bounds mapping must have exactly the keys linear and angular")
        raw = [raw["linear"], raw["angular"]]
    if not isinstance(raw, list) or not raw:
        raise InputError(f"{where}: bounds must be a list of [lower, upper] pairs")
    pairs = [_pair(pair, f"{where}: bounds[{i}]") for i, pair in enumerate(raw)]
    try:
        return ActionBounds.from_pairs(pairs)
    except ValueError as exc:
        raise InputError(f"{where}: {exc}") from None


# The keys of a scan file, in the order ``lidar-cfe scan`` writes them; a query's ``base`` reads back these and no others.
_SCAN_KEYS = ("format", "kind", "name", "n_rays", "max_range", "readings", "goal")


def _load_base(base_ref: str, query_path: Path) -> tuple[Scan, GoalFeatures, str]:
    base_path = Path(base_ref)
    if not base_path.is_absolute():
        base_path = query_path.parent / base_path
    if not base_path.exists():
        raise InputError(f"{query_path}: base file {base_path} does not exist")
    if base_path.suffix != ".json":
        scenario = load_scenario(base_path)
        return scenario.base_scan(), scenario.goal_features(), str(base_path)
    data = read_mapping(base_path)
    if data.get("kind") != "scan":
        raise InputError(f"{base_path}: not a scan file (kind != 'scan')")
    refuse_unknown(data, _SCAN_KEYS, str(base_path))
    try:
        file_format, _, name, n_rays, max_range, readings, goal = (data[key] for key in _SCAN_KEYS)
        require_int("n_rays", n_rays)
        if file_format != 1 or isinstance(file_format, bool) or not isinstance(name, str):
            raise ValueError(f"format must be 1 and name a string, got {file_format!r} and {name!r}")
        scan, goal = Scan(readings, max_range), build(GoalFeatures, goal, str(base_path))
        if n_rays != scan.n:
            raise ValueError(f"n_rays {n_rays} does not match the {scan.n} readings")
    except KeyError as exc:
        raise InputError(f"{base_path}: missing field {exc}") from None
    except (TypeError, ValueError) as exc:
        raise InputError(f"{base_path}: {exc}") from None
    return scan, goal, str(base_path)


def _query_keys() -> list[str]:
    """The query-file keys: the ``CfeQuery`` fields but ``base_scan`` and
    ``goal``, which come from the file that ``base`` names. The file also
    takes ``ga``, the ``GaConfig`` fields."""
    return [f.name for f in fields(CfeQuery) if f.name not in ("base_scan", "goal")]


def _build_query(data: dict, scan: Scan, goal: GoalFeatures, where: str) -> CfeQuery:
    """The query that ``data``'s query-file keys set, for query files and ``results.json`` headers.

    Other keys are ignored. A missing or null key takes the ``CfeQuery`` default.
    """
    values = {name: data[name] for name in _query_keys() if name in data}
    values["bounds"] = _parse_bounds(data.get("bounds"), where)
    return build(CfeQuery, {**values, "base_scan": scan, "goal": goal}, where, {"size_limits": _pair})


def _load_query(path, overrides) -> tuple[CfeQuery, GaConfig, dict]:
    """Build the query and GA config from a YAML query file plus --set overrides."""
    query_path = Path(path)
    data = read_mapping(query_path)
    where = str(query_path)
    for dotted, raw_value in overrides or []:
        _apply_override(data, dotted, raw_value)
    refuse_unknown(data, [*_query_keys(), "base", "ga"], where)

    base_ref = data.get("base")
    if not isinstance(base_ref, str):
        raise InputError(f"{where}: 'base' must name a scenario (.yaml) or scan (.json) file")
    scan, goal, base_path = _load_base(base_ref, query_path)
    query = _build_query(data, scan, goal, where)

    return query, build(GaConfig, {} if data.get("ga") is None else data["ga"], f"{where}: ga"), {"base": base_path}


# ---------------------------------------------------------------------------
# Model loading


def _split_model_spec(spec: str) -> tuple[str, str]:
    """The form (``scripted``, ``exec`` or ``weights``) and argument of a model spec."""
    form, sep, argument = spec.partition(":")
    if sep and form in ("scripted", "exec", "weights"):
        return form, argument
    return "weights", spec  # a bare weight-file path


def external_policy(command: str, n_inputs: int, n_outputs: int, timeout: float) -> PolicyModel:
    """Start an ``exec:`` model; the bridge, and with it subprocess, is imported only here."""
    from .bridge import external_policy
    return external_policy(command, n_inputs, n_outputs, timeout=timeout)


def load_model(spec: str, n_inputs: int, n_outputs: int, timeout: float = 5.0) -> PolicyModel:
    """Resolve a model spec string.

    Forms: ``scripted:goal_seeker``, ``scripted:left_preferrer``,
    ``weights:<path>`` (or a bare weight-file path), ``exec:<command>``.
    """
    form, argument = _split_model_spec(spec)
    if form == "scripted":
        try:
            model: PolicyModel = scripted_policy(argument, n_inputs - 3)
        except ValueError as exc:
            raise ModelError(str(exc)) from None
    elif form == "exec":
        model = external_policy(argument, n_inputs, n_outputs, timeout=timeout)
    else:
        model = NetworkPolicy.from_file(argument)
    if model.input_size != n_inputs or model.output_size != n_outputs:
        raise ModelError(
            f"model is {model.input_size}->{model.output_size}, run needs {n_inputs}->{n_outputs}"
        )
    return model


# ---------------------------------------------------------------------------
# Results files


def _query_settings(query: CfeQuery) -> dict:
    """The query's settings under their query-file keys.

    Written to ``results.json``, and apart from ``seed`` to ``manifest.json``.
    """
    bounds = [[float(lo), float(hi)] for lo, hi in zip(query.bounds.lower, query.bounds.upper)]
    return {**{name: getattr(query, name) for name in _query_keys()}, "bounds": bounds}


def _results_payload(query: CfeQuery, results: list[CfeResult]) -> dict:
    return {
        "format": 1,
        "kind": "cfe-results",
        "n_rays": query.base_scan.n,
        "max_range": query.base_scan.max_range,
        "goal": asdict(query.goal),
        "base_readings": [float(v) for v in query.base_scan.readings],
        **_query_settings(query),
        "warning": None if any(r.satisfied for r in results) or not results else "no satisfied counterfactuals",
        "results": [
            {
                "index": i,
                "satisfied": r.satisfied,
                "fitness": r.fitness if math.isfinite(r.fitness) else "-inf",
                "hinge": r.hinge_component,
                "proximity": r.proximity_component,
                "achieved_action": r.achieved_action.tolist(),
                "obstacles": [_obstacle_entry(s) for s in r.obstacles],
                "genome": [float(g) for g in r.genome],
                "combined_readings": [float(v) for v in r.combined_scan.readings],
                "search": asdict(r.search),
            }
            for i, r in enumerate(results)
        ],
    }


def verify_results_file(path, model: PolicyModel) -> int:
    """Re-package every stored genome, in one batch, under the query the header gives.

    The file must equal the re-packaging field by field. The entries must run
    best fitness first, and their ``search`` blocks must be well formed and
    hold the seeds ``seed`` to ``seed + n_cfes - 1``, each once, in any order;
    the rest of each block is taken as stored. Raises ``LidarCfeError``
    naming the file and the header field, or the entry and its field, that
    is malformed or differs. Returns the number of entries checked.
    """
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"), object_pairs_hook=_json_object)
        query = _build_query(data, Scan(data["base_readings"], data["max_range"]), build(GoalFeatures, data["goal"], str(path)), str(path))
        entries, searches = list(data["results"]), []
        genomes = np.empty((len(entries), GENES_PER_OBSTACLE * query.n_obstacles))
        for i, entry in enumerate(entries):
            lacking = sorted({"genome", "search"} - set(entry))
            if lacking:
                raise LidarCfeError(f"{path}: entry {i} lacks {', '.join(lacking)}")
            try:
                searches.append(SearchFacts(**entry["search"]))
            except (TypeError, ValueError) as exc:
                raise LidarCfeError(f"{path}: entry {i} search: {exc}") from None
            try:
                genome = np.array(entry["genome"], dtype=float)
                if genome.shape != genomes.shape[1:]:
                    raise ValueError(f"must be a list of {genomes.shape[1]} numbers, {GENES_PER_OBSTACLE} per obstacle, got shape {genome.shape}")
            except (TypeError, ValueError, OverflowError) as exc:
                raise LidarCfeError(f"{path}: entry {i} genome: {exc}") from None
            genomes[i] = genome
        results = _package(query, model, genomes, searches)
    except KeyError as exc:
        raise LidarCfeError(f"{path}: missing field {exc}") from None
    except (TypeError, ValueError) as exc:
        raise LidarCfeError(f"{path}: {exc}") from None
    if len(entries) != query.n_cfes:
        raise LidarCfeError(f"{path}: {len(entries)} entries for n_cfes {query.n_cfes}")
    unused = set(range(query.seed, query.seed + query.n_cfes))
    for i, (search, result) in enumerate(zip(searches, results)):
        if search.seed not in unused:
            raise LidarCfeError(f"{path}: entry {i} search seed {search.seed} is not one of header seed {query.seed} + 0 to n_cfes - 1, each once")
        unused.remove(search.seed)
        if i and result.fitness > results[i - 1].fitness:
            raise LidarCfeError(f"{path}: entry {i} fitness {result.fitness} is above entry {i - 1}'s: entries must run best first")
    fresh = _results_payload(query, results)  # each field is compared as JSON text below
    places = [("", data, fresh)] + [(f"entry {i} ", *pair) for i, pair in enumerate(zip(entries, fresh["results"]))]
    for name, stored, expected in places:
        for key in sorted((stored.keys() | expected.keys()) - {"results"}):
            if key not in stored:
                raise LidarCfeError(f"{path}: {name}lacks {key}" if name else f"{path}: missing field {key!r}")
            if key not in expected or json.dumps(stored[key], sort_keys=True) != json.dumps(expected[key], sort_keys=True):
                raise LidarCfeError(f"{path}: {name or 'header field '}{key} differs from its re-packaging")
    return len(entries)


# ---------------------------------------------------------------------------
# Commands


def cmd_scan(args) -> int:
    scenario = load_scenario(args.scenario)
    try:
        scenario = replace(scenario, name=args.name if args.name is not None else scenario.name)
    except ValueError as exc:
        raise InputError(f"--name: {exc}") from None
    scan = scenario.base_scan()
    goal = scenario.goal_features()
    out_dir = _out_dir(args)
    values = (1, "scan", scenario.name, scan.n, scan.max_range, [float(v) for v in scan.readings], asdict(goal))
    scan_path = out_dir / f"{scenario.name}.scan.json"
    _write_json(scan_path, dict(zip(_SCAN_KEYS, values, strict=True)))
    svg_path = out_dir / f"{scenario.name}.scan.svg"
    svg_path.write_text(scan_plot_svg(scan, goal, label=scenario.name), encoding="utf-8")
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
    out_dir = _out_dir(args)  # before the search, so that a bad -o fails fast
    with load_model(args.model, query.base_scan.n + 3, len(query.bounds), timeout=args.timeout) as model:
        results = generate_cfes(query, model, ga_config)

    payload = _results_payload(query, results)
    results_path = out_dir / "results.json"
    _write_json(results_path, payload)
    if not args.no_plots:
        for i, r in enumerate(results):
            svg = cfe_plot_svg(query.base_scan, r.combined_scan, r.obstacles, query.goal, label=f"counterfactual {i}")
            (out_dir / f"cfe_{i:03d}.svg").write_text(svg, encoding="utf-8")

    manifest = {
        "format": 1,
        "kind": "run-manifest",
        "tool": "lidar-cfe",
        "version": __version__,
        "command": "explain",
        "query_file": str(args.query),
        "base_file": meta["base"],
        "model": {"spec": args.model, "sha256": getattr(model, "file_sha256", None)},
        "query": {key: value for key, value in _query_settings(query).items() if key != "seed"},
        "ga": asdict(ga_config),
        "seeds": [query.seed + i for i in range(query.n_cfes)],
        "started_utc": started_utc,
        "duration_seconds": round(time.monotonic() - started, 3),
    }
    _write_json(out_dir / "manifest.json", manifest)

    n_satisfied = sum(1 for r in results if r.satisfied)
    print(f"{n_satisfied}/{len(results)} counterfactuals satisfied the bounds")
    print(f"wrote {results_path}")
    return EXIT_OK


def cmd_validate_model(args) -> int:
    n_inputs = args.n_rays + 3
    with load_model(args.model, n_inputs, args.outputs, timeout=args.timeout) as model:
        # Probe with the range-clear state: every ray at max range, goal dead
        # ahead at half the distance scale.
        state = np.concatenate([np.ones(args.n_rays), [1.0, 0.5, 0.5]])
        t0 = time.perf_counter()
        (action,) = _act_rows(model, state[np.newaxis])
        latency = time.perf_counter() - t0
    print(f"model: {args.model}")
    print(f"inputs: {model.input_size}  outputs: {model.output_size}")
    print("probe action: [" + ", ".join(f"{v:.4f}" for v in action) + "]")
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
    p_explain.add_argument("--timeout", type=_timeout_flag, default=5.0, help="bridge response timeout in seconds")
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
    p_validate.add_argument("--n-rays", type=_positive_int_flag, default=180, help="scan length the model expects")
    p_validate.add_argument("--outputs", type=_positive_int_flag, default=2, help="action dimensions the model emits")
    p_validate.add_argument("--timeout", type=_timeout_flag, default=5.0)
    p_validate.set_defaults(func=cmd_validate_model)
    return parser


def _parse_set_flag(text: str) -> tuple[str, str]:
    if "=" not in text:
        raise argparse.ArgumentTypeError(f"expected KEY=VALUE, got {text!r}")
    key, value = text.split("=", 1)
    return key.strip(), value


def _positive_int_flag(text: str) -> int:
    value = int(text)  # argparse reports a ValueError as an invalid value
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {text!r}")
    return value


def _timeout_flag(text: str) -> float:
    value = float(text)  # argparse reports a ValueError as an invalid value
    if not 0.0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"timeout must be positive and finite, got {text!r}")
    return value


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
        # numpy raises "array is too big" for an array of more bytes than an address can count
        if isinstance(exc, MemoryError) or (isinstance(exc, ValueError) and str(exc).startswith("array is too big")):
            print(f"input error: the input's sizes need more memory than is available ({exc})", file=sys.stderr)
            return EXIT_INPUT
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
