"""Span and counter tracing of the program's layers, from outside the program.

Tracer.start() replaces the program's public functions at the names their
callers look up (for example cli.force_theta, dressed.grad_rabi,
greens.quad) with wrappers that record spans (name, start, end, parent) or
bump counters; Tracer.stop() puts the originals back. Spans stay in memory
and are written out when the benchmark ends. Nothing here changes what the
program computes.
"""

from __future__ import annotations

import time
from collections import Counter

# span names whose quadrature calls are attributed to them
_QUAD_OWNERS = {"greens.scattering": "greens.integrand_evals",
                "greens.kk": "greens.kk_func_evals"}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # --------------------------------------------------------- wrappers
    def _span(self, name: str, fn, rows=None):
        spans, stack, counts = self.spans, self._stack, self.counts

        def wrapper(*args, **kwargs):
            rec = [name, time.perf_counter(), None, stack[-1] if stack else -1]
            spans.append(rec)
            stack.append(len(spans) - 1)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
            if rows is not None:
                counts[f"{name}.rows"] += rows(args, kwargs, out)
            return out

        return wrapper

    def _count(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _quad(self, fn):
        spans, stack, counts = self.spans, self._stack, self.counts

        def wrapper(f, *args, **kwargs):
            owner = "greens.other_evals"
            for i in reversed(stack):
                if spans[i][0] in _QUAD_OWNERS:
                    owner = _QUAD_OWNERS[spans[i][0]]
                    break

            def counted(x, *a):
                counts[owner] += 1
                return f(x, *a)

            return fn(counted, *args, **kwargs)

        return wrapper

    def _patch(self, owner, attr: str, new) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    # ------------------------------------------------------ install/remove
    def start(self) -> None:
        from cavityvdw import cli, dressed, greens, modecoupling, planarcavity, tabular, weakfield

        table_rows = lambda a, k, out: len(k["rows"] if "rows" in k else a[2] if len(a) > 2 else ())
        out_rows = lambda a, k, out: len(out)
        arg_rows = lambda a, k, out: len(a[0])

        self._patch(cli, "load_config", self._span("config.load_config", cli.load_config))
        self._patch(cli, "run", self._span("cli.run", cli.run))
        self._patch(cli, "export", self._span("cli.export", cli.export, arg_rows))
        self._patch(cli, "scan_rabi",
                    self._span("planarcavity.scan_rabi", cli.scan_rabi, out_rows))
        self._patch(cli, "force_theta", self._span("dressed.force_theta", cli.force_theta))
        self._patch(cli, "resonant_potential",
                    self._span("weakfield.resonant_potential", cli.resonant_potential))
        kk = self._span("greens.kk", greens.kk_real_from_imag)
        for mod in (cli, weakfield, greens):
            self._patch(mod, "kk_real_from_imag", kk)
        self._patch(greens, "planar_cavity_green",
                    self._span("greens.planar_cavity_green", greens.planar_cavity_green))
        self._patch(greens, "planar_scattering_components",
                    self._span("greens.scattering", greens.planar_scattering_components))
        self._patch(greens, "quad", self._quad(greens.quad))
        self._patch(modecoupling, "coupling_strength_sq",
                    self._span("modecoupling.coupling_strength_sq",
                               modecoupling.coupling_strength_sq))
        self._patch(modecoupling, "fit_lorentzian",
                    self._span("modecoupling.fit_lorentzian", modecoupling.fit_lorentzian))
        self._patch(dressed, "grad_rabi", self._count("dressed.grad_rabi_calls", dressed.grad_rabi))
        from_coupling = dressed.DressedSystem.__dict__["from_coupling"].__func__
        self._patch(dressed.DressedSystem, "from_coupling",
                    classmethod(self._count("dressed.from_coupling_calls", from_coupling)))
        self._patch(tabular.Table, "__init__",
                    self._span("tabular.table_build", tabular.Table.__init__, table_rows))
        scn = planarcavity.PlanarScenario
        self._patch(scn, "__post_init__",
                    self._count("planarcavity.scenarios_built", scn.__post_init__))
        self._patch(scn, "rabi", self._count("planarcavity.rabi_calls", scn.rabi))

    def stop(self) -> None:
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)

    def take(self) -> tuple[list, Counter]:
        """Hand over the spans and counts recorded so far and start afresh."""
        spans, counts = self.spans, self.counts
        self.spans, self.counts = [], Counter()
        self._stack.clear()
        return spans, counts


def layer_totals(spans: list, factor: float = 1.0) -> dict[str, list[float]]:
    """Per span name: [calls, total seconds, self seconds], times scaled by
    factor. Self time is the span minus the time its direct children cover
    (children of one span never overlap: the program is single-threaded)."""
    child = [0.0] * len(spans)
    for name, t0, t1, parent in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    out: dict[str, list[float]] = {}
    for i, (name, t0, t1, _) in enumerate(spans):
        agg = out.setdefault(name, [0, 0.0, 0.0])
        agg[0] += 1
        agg[1] += (t1 - t0) * factor
        agg[2] += (t1 - t0 - child[i]) * factor
    return out
