"""Request executors: the benchmark's calls into kuwalls' public functions.

Each executor imports only the kuwalls modules its workload uses, calls them
with explicit arguments (always an explicit lattice and ``x_bound``, never a
worker count), and wraps every call in a tracer span named after the layer.
``execute`` is the timed part of a request; ``outcome`` turns its result into
plain data for the checks in ``oracle``, outside the timed region.
"""

from __future__ import annotations

import importlib
import os
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from gen import CLI_COMMANDS


def load_modules(*names: str):
    # kuwalls re-exports functions named like some modules (``catalog``), so
    # modules are fetched by full name instead of attribute access.
    return [importlib.import_module(f"kuwalls.{name}") for name in names]


@dataclass
class WallOutcome:
    chern: tuple
    twisted: tuple
    chi: Fraction
    chi_ref: Fraction
    coords: tuple | None
    euler: int | None
    crossings: list
    slopes: list
    svg: bytes | None


class WallQueries:
    def __init__(self, svg_path: Path) -> None:
        self.chern, self.tilt, self.walls, self.kulattice, self.catalog, self.diagram = load_modules(
            "chern", "tilt", "walls", "kulattice", "catalog", "diagram"
        )
        self.svg_path = svg_path

    def prepare(self, q) -> None:
        if q.svg and self.svg_path.exists():
            self.svg_path.unlink()

    def execute(self, q, tr):
        chern, tilt, kulattice = self.chern, self.tilt, self.kulattice
        ctx = tr.call("chern.FanoContext", chern.FanoContext, q.degree)
        if isinstance(q.target, str):
            target = tr.call("catalog.lookup", self.catalog.lookup, q.degree, q.target).chern
        else:
            target = tr.call("chern.ChernVector", chern.ChernVector, *q.target)
        twisted = tr.call("chern.twist", chern.twist, target, q.beta)
        chi = tr.call("chern.chi_pair", chern.chi_pair, ctx, target, target)
        dual = tr.call("chern.dual", chern.dual, target)
        product = tr.call("chern.ring_multiply", chern.ring_multiply, dual, target)
        chi_ref = tr.call("chern.hrr_chi", chern.hrr_chi, ctx, product)
        try:
            coords = tr.call("kulattice.class_from_chern", kulattice.class_from_chern, ctx, target)
        except kulattice.NotInKuSpanError:
            coords = None
        euler = None
        if coords is not None and coords.is_integral:
            ku = coords.as_ku_class()
            euler = tr.call("kulattice.euler_form", kulattice.euler_form, q.degree, ku, ku)
        report = tr.call(
            f"walls.chamber_report:{q.size}",
            self.walls.chamber_report,
            ctx,
            target,
            q.beta,
            denoms=q.lattice,
            x_bound=q.x_bound,
        )
        beta = q.beta
        slopes = []
        for crossing in report.walls:
            params = tr.call("tilt.StabilityParams", tilt.StabilityParams, crossing.alpha_sq, beta)
            own = tr.call("tilt.slope_tilt", tilt.slope_tilt, ctx, params, target)
            for cand in crossing.candidates:
                twisted_cand = tr.call("chern.ChernVector", chern.ChernVector, cand.x, cand.y, cand.z, 0)
                other = tr.call("chern.twist", chern.twist, twisted_cand, -beta)
                slopes.append((own, tr.call("tilt.slope_tilt", tilt.slope_tilt, ctx, params, other)))
        if q.svg:
            tr.call("diagram.write_svg", self.diagram.write_svg, report, str(self.svg_path))
        return target, twisted, chi, chi_ref, coords, euler, report, slopes

    def outcome(self, q, result) -> WallOutcome:
        target, twisted, chi, chi_ref, coords, euler, report, slopes = result
        return WallOutcome(
            chern=target.coefficients(),
            twisted=twisted.truncated(),
            chi=chi,
            chi_ref=chi_ref,
            coords=None if coords is None else (coords.a, coords.b),
            euler=euler,
            crossings=[(c.alpha_sq, [(k.x, k.y, k.z) for k in c.candidates]) for c in report.walls],
            slopes=[(own.value, other.value) for own, other in slopes],
            svg=self.svg_path.read_bytes() if q.svg and self.svg_path.exists() else None,
        )


@dataclass
class RootOutcome:
    roots: list
    lines: list
    roots_sat: list | None
    lines_sat: list | None
    partners: list | None
    decompositions: list | None
    nef: list | None


class RootEnumeration:
    def __init__(self) -> None:
        (self.delpezzo,) = load_modules("delpezzo")

    def prepare(self, q) -> None:
        pass

    def execute(self, q, tr):
        dp = self.delpezzo
        ctx = tr.call("delpezzo.DPContext", dp.DPContext, q.dp)
        roots = tr.call("delpezzo.enumerate_roots", dp.enumerate_roots, ctx)
        lines = tr.call("delpezzo.enumerate_lines", dp.enumerate_lines, ctx)
        roots_sat = lines_sat = partners = decompositions = nef = None
        if q.saturate:
            roots_sat = tr.call("delpezzo.enumerate_roots:extra_box", dp.enumerate_roots, ctx, extra_box=1)
            lines_sat = tr.call("delpezzo.enumerate_lines:extra_box", dp.enumerate_lines, ctx, extra_box=1)
        if q.dp == 2:
            minus_k = -ctx.canonical
            partners = tr.call("delpezzo.PicVector:pairing", lambda: [minus_k - line for line in lines])
            decompositions = [
                tr.call("delpezzo.root_as_line_difference", dp.root_as_line_difference, ctx, root) for root in roots
            ]
            two_k = ctx.canonical.scale(2)
            nef = [tr.call("delpezzo.nef_position", dp.nef_position, ctx, root - two_k) for root in roots]
        return roots, lines, roots_sat, lines_sat, partners, decompositions, nef

    def outcome(self, q, result) -> RootOutcome:
        roots, lines, roots_sat, lines_sat, partners, decompositions, nef = result

        def tuples(vectors):
            return None if vectors is None else [v.as_tuple() for v in vectors]

        return RootOutcome(
            roots=tuples(roots),
            lines=tuples(lines),
            roots_sat=tuples(roots_sat),
            lines_sat=tuples(lines_sat),
            partners=tuples(partners),
            decompositions=None
            if decompositions is None
            else [None if pair is None else (pair[0].as_tuple(), pair[1].as_tuple()) for pair in decompositions],
            nef=None if nef is None else [position.value for position in nef],
        )


class Cli:
    """Fresh ``python -m kuwalls.cli`` processes with ``src`` on PYTHONPATH."""

    TIMEOUT_S = 120

    def __init__(self, src: Path, workdir: Path) -> None:
        self.env = dict(os.environ, PYTHONPATH=str(src))
        self.env.pop("KUWALLS_THREADS", None)
        self.workdir = workdir
        self.svg_path = workdir / "walls.svg"
        self.commands = {
            name: [arg.format(svg=self.svg_path) for arg in args] for name, args in CLI_COMMANDS
        }

    def run(self, args: list[str], python_flags: tuple[str, ...] = ()) -> tuple[float, subprocess.CompletedProcess]:
        """Wall seconds and result of one child interpreter run with ``args``."""
        argv = [sys.executable, *python_flags, *args]
        start = time.perf_counter()
        proc = subprocess.run(argv, env=self.env, cwd=self.workdir, capture_output=True, text=True, timeout=self.TIMEOUT_S)
        return time.perf_counter() - start, proc

    def command(self, name: str) -> tuple[float, subprocess.CompletedProcess]:
        return self.run(["-m", "kuwalls.cli", *self.commands[name]])

    def read_svg(self, name: str) -> bytes | None:
        if "--svg" not in self.commands[name] or not self.svg_path.exists():
            return None
        return self.svg_path.read_bytes()
