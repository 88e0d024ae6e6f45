"""What each CLI call imports, read from ``sys.modules`` in fresh interpreters.

Deterministic: the sets of loaded modules are compared, never a time.  Each
case runs one ``cli.main`` call in its own subprocess with ``src`` on the
path, so nothing the test process imported leaks in.  The subprocess runs
with ``-S``: a ``.pth`` file in site-packages can import modules (``typing``,
say) before the program starts, which would hide what the CLI itself loads.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import kuwalls

SRC = Path(kuwalls.__file__).parent.parent

PROBE = """
import contextlib, io, json, sys
import kuwalls.cli
loaded_by_import = sorted(sys.modules)
argv = json.loads(sys.argv[1])
if argv is not None:
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            kuwalls.cli.main(argv)
        except SystemExit:  # argparse ends --version this way
            pass
print(json.dumps([loaded_by_import, sorted(sys.modules)]))
"""

BASE = {"kuwalls", "kuwalls.cli"}
RECORDS = {"kuwalls._record"}


def _python(code: str, *args: str) -> str:
    """Stdout of ``code`` run in a fresh interpreter with ``src`` on the path."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.run(
        [sys.executable, "-S", "-c", code, *args], capture_output=True, text=True, env=env, check=True
    ).stdout


def _loaded(argv: list[str] | None) -> tuple[set[str], set[str]]:
    """Modules loaded after ``import kuwalls.cli``, and after ``cli.main(argv)`` as well."""
    after_import, after_main = json.loads(_python(PROBE, json.dumps(argv)))
    return set(after_import), set(after_main)


def _kuwalls_modules(modules: set[str]) -> set[str]:
    return {name for name in modules if name == "kuwalls" or name.startswith("kuwalls.")}


def test_cli_import_loads_no_dataclasses_inspect_or_typing():
    after_import, _ = _loaded(None)
    assert "dataclasses" not in after_import
    assert "inspect" not in after_import
    assert "typing" not in after_import
    assert _kuwalls_modules(after_import) == BASE


@pytest.mark.parametrize(
    ("argv", "expected"),
    [
        (["--version"], set()),
        (["roots", "--dp", "2"], {"kuwalls.delpezzo", *RECORDS}),
        (["euler", "--degree", "2"], {"kuwalls.chern", "kuwalls.kulattice", *RECORDS}),
        (
            ["walls", "--degree", "2", "--class", "w"],
            {"kuwalls.chern", "kuwalls.catalog", "kuwalls.kulattice", "kuwalls.walls", "kuwalls.diagram", *RECORDS},
        ),
        (
            ["check", "--degree", "5"],
            {
                "kuwalls.chern", "kuwalls.tilt", "kuwalls.walls", "kuwalls.kulattice", "kuwalls.delpezzo",
                "kuwalls.catalog", "kuwalls.checks", *RECORDS,
            },
        ),
    ],
    ids=["version", "roots", "euler", "walls", "check"],
)
def test_each_subcommand_loads_only_its_modules(argv, expected):
    _, after_main = _loaded(argv)
    assert _kuwalls_modules(after_main) == BASE | expected
    assert "dataclasses" not in after_main


def test_package_import_is_lazy():
    probe = "import sys, kuwalls; print(sorted(m for m in sys.modules if m.startswith('kuwalls')))"
    assert _python(probe).strip() == "['kuwalls']"


def test_star_import_gives_every_public_name():
    probe = (
        "import kuwalls.catalog as via_submodule_import\n"
        "import kuwalls\n"
        "from kuwalls import *\n"
        "names = dict(globals())\n"
        "print(all(names[n] is getattr(kuwalls, n) for n in kuwalls.__all__), callable(via_submodule_import),"
        " kuwalls.catalog is catalog, catalog.__module__)"
    )
    # as before the package became lazy, the name ``catalog`` is the function, not its module
    assert _python(probe).split() == ["True", "True", "True", "kuwalls.catalog"]
