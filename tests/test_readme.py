"""README examples run against the current API."""

import json
import os

from stabsim.scenarios import validate_config

README = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "README.md")


def _code_block(heading: str, language: str) -> str:
    """The first ```language block after `heading` in README.md."""
    with open(README, encoding="utf-8") as fh:
        section = fh.read().split(heading + "\n", 1)[1]
    return section.split(f"```{language}\n", 1)[1].split("```", 1)[0]


def test_library_quick_start_runs(capsys):
    exec(compile(_code_block("## Library quick start", "python"), "README.md", "exec"), {})
    out = capsys.readouterr().out
    assert "steady-state Bell fidelity:" in out and "fidelity at 49 us:" in out


def test_config_example_validates():
    cfg = validate_config(json.loads(_code_block("## CLI", "json")))
    assert cfg["kind"] == "theta_spectroscopy"
