"""The package's public names, as the README lists them, and its library example."""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import lidar_cfe

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")

PUBLIC_API = sorted(
    """
    LidarCfeError InputError ModelError NetworkConfigError BridgeError BridgeTimeout
    CfeQuery CfeResult ActionBounds GoalFeatures Scan generate_cfes fitness_for_query
    run_ga GaConfig
    PolicyModel ModelState ActionVector scripted_policy NetworkPolicy NetworkSpec
    Conv1d Dense Activation load_weight_file save_weight_file external_policy
    load_scenario Scenario
    """.split()
)


def readme_api_list() -> list[str]:
    """The backticked names on the bullet lines of the README's Public API section."""
    section = README.split("### Public API", 1)[1].split("\n#", 1)[0]
    bullets = [line for line in section.splitlines() if line.startswith("- ")]
    return sorted(name for line in bullets for name in re.findall(r"`(\w+)`", line))


def test_all_is_the_documented_list():
    assert len(PUBLIC_API) == 29
    assert sorted(lidar_cfe.__all__) == PUBLIC_API
    assert readme_api_list() == PUBLIC_API


def test_every_public_name_imports():
    namespace = {}
    exec("from lidar_cfe import *", namespace)  # fails on any listed name the package lacks
    assert sorted(set(namespace) - {"__builtins__"}) == PUBLIC_API


def test_readme_library_example_runs(capsys):
    (example,) = re.findall(r"```python\n(.*?)```", README, flags=re.DOTALL)
    exec(compile(example, "README.md", "exec"), {"__name__": "readme_example"})
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == 10  # n_cfes=10, one line per result


PROCESS_MODULES = ("lidar_cfe.bridge", "subprocess", "select", "selectors", "signal", "fcntl", "shlex")


def test_external_policy_is_the_bridge_class():
    import lidar_cfe.bridge

    assert lidar_cfe.external_policy is lidar_cfe.bridge.ExternalPolicy
    with pytest.raises(AttributeError, match="has no attribute 'missing_name'"):
        lidar_cfe.missing_name


def test_the_cli_imports_the_bridge_only_when_an_exec_model_starts(tmp_path):
    child = tmp_path / "policy.py"
    child.write_text('import sys\nprint("HELLO 183 2", flush=True)\nfor line in sys.stdin:\n    print("0.0 0.0", flush=True)\n')
    spec = "exec:" + shlex.join([sys.executable, str(child)])
    code = (
        "import sys, lidar_cfe.cli\n"
        f"loaded = [m for m in {PROCESS_MODULES!r} if m in sys.modules]\n"
        f"status = lidar_cfe.cli.main(['validate-model', '--model', {spec!r}])\n"
        "print(loaded, 'hashlib' in sys.modules, status, 'lidar_cfe.bridge' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(lidar_cfe.__file__).resolve().parent.parent))
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    # hashlib stays eager: numpy.random imports it inside the first search otherwise
    assert run.stdout.splitlines()[-1] == "[] True 0 True"
