"""Golden bytes of the CLI: a refactor must not change what a call prints.

Each case runs ``kuwalls.cli.main`` in process and pins the sha256 of one
record made of the exit code, stdout, stderr and the ``--svg`` file (empty
when the call writes none).  The usage errors are ones whose message
kuwalls itself prints, so the bytes do not depend on argparse's wording in a
given Python version.  After an intended output change, print the new table
with ``PYTHONPATH=src python tests/test_cli_golden.py`` and say in the change
log which calls changed and why.
"""

from __future__ import annotations

import hashlib
import io
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from kuwalls.cli import main

SVG = "{svg}"

README_EXAMPLES = [
    "euler --degree 2",
    f"walls --degree 2 --class w --beta -1/2 --svg {SVG}",
    "walls --degree 3 --class 0,1,-1/2,-1/6 --denoms 2,24",
    "roots --dp 2 --pairs --as-line-diff --nef-check",
    "catalog --degree 4",
    "check --all",
    "check --degree 5",
]

# dict.fromkeys drops the README examples that the per-degree rows repeat
CASES = list(dict.fromkeys([
    *README_EXAMPLES,
    *(f"roots --dp {dp} --list" for dp in range(1, 8)),
    *(f"{command} --degree {d}" for command in ("check", "catalog", "euler") for d in range(1, 6)),
    "walls --degree 5 --class Q_dual --denoms 2,40",
    # the large lattices of the wall-queries benchmark: many candidates on each wall
    "walls --degree 1 --class w --denoms 8,128 --x-bound 40",
    f"walls --degree 5 --class E_p --denoms 4,64 --x-bound 10 --svg {SVG}",
    "euler --degree 7",
    "walls --degree 2 --class mystery",
    "check",
]))

#: sha256 of each case's record, as printed by the command when these were pinned
GOLDEN = {
    "euler --degree 2": "2cd6344474ecf80596aedab65f85b79cdb09a3ea8e35bbd635eccd38e754df2e",
    "walls --degree 2 --class w --beta -1/2 --svg {svg}": "9653a8cd29391cc56edce99cfa92e6e36247d886756ffb7fd4710c0c34a111ae",
    "walls --degree 3 --class 0,1,-1/2,-1/6 --denoms 2,24": "c0c8a0319e0a471048744789eb0c5de51dc8b9fe50e3ca0fb193594c75ee3412",
    "roots --dp 2 --pairs --as-line-diff --nef-check": "575a0e7c08490a8b66b2d0a7d03ce637867329ef6b396972d2ecb19355e1486e",
    "catalog --degree 4": "07b591e2510b27570ee75e8240a4194324e70fcb998d6ee298431eb28e48fcd5",
    "check --all": "6dee9cdac0e33f186d2cc3aa7b422ea0a7be5843530884878db240d56687cc95",
    "check --degree 5": "a9ee206805f026ea585b65201b160909f61b2297d852a3454a4fbe381bee2c03",
    "roots --dp 1 --list": "b12a0ae1922a956cb205b7daf075f0dda45ea3aa407511b61923d7467638b43b",
    "roots --dp 2 --list": "ba7337d8c504844284ed581692c203f743fb0e2acb3322fd991f8e41a8d03d69",
    "roots --dp 3 --list": "2ea930f04f7575699e26ffc8a1bbc5f79cab9e27618b1665bf0b12645ba13117",
    "roots --dp 4 --list": "f772f8a9bb15b0a10fafa973ccdd82b5f84183310f6e87357b8de5bb2d769cc0",
    "roots --dp 5 --list": "f1c5499383eb18bf5684361c01e6d7a9c4bef93e46bdb3f2a1cd159bb5f32492",
    "roots --dp 6 --list": "e4e1f3632ff61c7ba55d5311b7474b6dd63a0d714262e363191e2f33c90fdcc0",
    "roots --dp 7 --list": "adab651136ec12c74316ac950b994eeeb075d67ad1dd9bac523c698dd0604d71",
    "check --degree 1": "3108a00584dcb3940426d438104ff57cb0b142ec0f28ccada6f2261d61878a4c",
    "check --degree 2": "28a973bed62bb14c9b1ef79083f138cc17f204f38e3a38c772e07804b6df76c0",
    "check --degree 3": "4d309e941500f0a3c27057e242d5f678e39560f0a72386de019b45e596e8656e",
    "check --degree 4": "206c4e437a8e780918f93d49d4d8ebbade8550b1a83da64991c2607195a82cdf",
    "catalog --degree 1": "cb533339c918c00ec98effa2d7e735fcb5f951670096b8a5604584f3cd4437d0",
    "catalog --degree 2": "e444bc48b5c86d7be939a52766cf2eabb574271aa34d98148c8a0e20323d8602",
    "catalog --degree 3": "cbc9ef08c0b83f63b05e267a044fbb00429e1ae76117d4754d9fac1bcf2730b2",
    "catalog --degree 5": "2fcd7a7723bbe0d6b6a9fd29e09fd0ca33392d5a028cdc52d4b31d4148f92097",
    "euler --degree 1": "32a5f2145192bb45c763ce624d0cab402e74fb49d8991339b47a76f1b57dbfda",
    "euler --degree 3": "c7f943d0ff67c46d2eca1edd40769558b6b6ee14bbd0667dfdb3d22fda1297cd",
    "euler --degree 4": "b2fd20c246061704e84a60d1ffac7857c355d0d60759552df2be0aba33ba102c",
    "euler --degree 5": "be4129c32d9595b185f5d2bca617d19b52ff363cb454bb199638f2b9958dd1b7",
    "walls --degree 5 --class Q_dual --denoms 2,40": "2559b2474eaa57f0fae02523bfad4a708a6d390fb49d8302e5107011c740d5e6",
    "walls --degree 1 --class w --denoms 8,128 --x-bound 40": "76e2620c56b915a78735fab2e0fc26d2f39b6c4bb777d5a090fb78ddf91b7223",
    "walls --degree 5 --class E_p --denoms 4,64 --x-bound 10 --svg {svg}": "8e08a72b1821bab02b2934f4f76c79d43764c93419bb2cb3e9c3c95b9c059d5c",
    "euler --degree 7": "e199897d03fdbbeb7fb043def383be9b7638fa04717052160e53f6359da00a8b",
    "walls --degree 2 --class mystery": "8c7d8a252fdc75acb96d0bc4985dd718e34d4c1bc6aa3e5128db3b52a5d1c6b2",
    "check": "97b925f4ab8ae9c1e17f2e04a98c7721b02a01d7d613cbea3cba1c1e016fa252",
}


def record(command: str, svg_path: Path) -> bytes:
    """Exit code, stdout, stderr and the SVG file of one call, each length-prefixed."""
    argv = command.replace(SVG, str(svg_path)).split()
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse errors leave main this way
            code = exc.code
    svg = svg_path.read_bytes() if SVG in command else b""
    parts = [str(code).encode(), out.getvalue().encode(), err.getvalue().encode(), svg]
    return b"".join(b"%d:%s\n" % (len(part), part) for part in parts)


def test_every_case_is_pinned():
    assert len(CASES) == len(set(CASES)) == 32
    assert set(GOLDEN) == set(CASES)


@pytest.mark.parametrize("command", CASES)
def test_cli_bytes_are_pinned(command, tmp_path):
    raw = record(command, tmp_path / "walls.svg")
    assert hashlib.sha256(raw).hexdigest() == GOLDEN[command], raw[:400]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        for case in CASES:
            print(f"    {case!r}: {hashlib.sha256(record(case, Path(scratch) / 'walls.svg')).hexdigest()!r},")
