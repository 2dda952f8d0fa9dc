"""The package's public names, as the README lists them, and its library example."""

import re
from pathlib import Path

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
