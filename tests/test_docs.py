"""The README's install commands are the ones CI runs, so the two cannot drift apart."""

from __future__ import annotations

from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def readme_install_commands() -> list[str]:
    """The commands of the sh block under README's "Install and test", comments cut."""
    section = (ROOT / "README.md").read_text(encoding="utf-8").split("## Install and test", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    return [line.split("#", 1)[0].strip() for line in block.splitlines() if line.strip()]


def workflow_step_lines(name: str) -> list[str]:
    """The stripped lines of the CI step called ``name``."""
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text(encoding="utf-8")
    step = workflow.split(f"- name: {name}\n", 1)[1].split("- name:", 1)[0]
    return [line.strip().removeprefix("run: ") for line in step.splitlines()]


def test_ci_runs_the_readme_install_commands():
    install, test_dependencies = (cmd for cmd in readme_install_commands() if cmd.startswith("python -m pip install"))
    assert install in workflow_step_lines("Installed package")
    assert test_dependencies in workflow_step_lines("Install test dependencies")
