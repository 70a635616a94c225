"""Spans and counters around fockladder's public functions, from outside.

``Tracer.install`` replaces each traced function at every place it is
bound: its defining module, each fockladder module that imported it by
name (``ladder_matvec`` lives in kernels, majorization, experiments and
suite) and the package namespace. Modules imported later bind the wrapper
too. A span's self time is its duration minus the traced calls nested in
it; the time the tracer spends computing counters is charged to no span.

Counters are computed from arguments and returned objects, so they are
exact and repeat from run to run.
"""

from __future__ import annotations

import statistics
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

from fockladder import transition

TINY = np.finfo(np.float64).tiny  # smallest normal double


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _fill(tr, args, kwargs, rows):
    tr.count["kernels.fill.cells"] += rows.size
    tr.count["kernels.fill.subnormal"] += int(np.count_nonzero(
        (rows != 0.0) & (np.abs(rows) < TINY)))


def _matvec(tr, args, kwargs, out):
    tr.count["kernels.matvec.cells"] += len(out)
    tr.count["kernels.matvec.in_cells"] += len(_arg(args, kwargs, 3, "v"))
    tr.matvec_lens.append(len(out))


def _grid(tr, args, kwargs, grid):
    tail_tol = _arg(args, kwargs, 2, "tail_tol", transition.DEFAULT_TAIL_TOL)
    hard_cap = _arg(args, kwargs, 4, "hard_cap", transition.HARD_CAP)
    cols = grid.n_max + 1
    # first column where every row's cumulative mass reaches 1 - tail_tol
    reached = (np.cumsum(grid.rows, axis=1) >= 1.0 - tail_tol).all(axis=0)
    tr.count["transition.grid.cols"] += cols
    tr.count["transition.grid.useful_cols"] += (int(np.argmax(reached)) + 1
                                                if reached.any() else cols)
    tr.count["transition.grid.n_max"] += grid.n_max
    tr.count["transition.grid.cap_hits"] += grid.n_max >= hard_cap


def _multinomial(tr, args, kwargs, row):
    tr.count["transition.multinomial.signed"] += _arg(args, kwargs, 0, "params").gamma < 0.0


def _series(tr, args, kwargs, rect):
    tr.count["transition.series.cells"] += rect.size


def _verdict(tr, args, kwargs, verdict):
    p, q = _arg(args, kwargs, 0, "p"), _arg(args, kwargs, 1, "q")
    tr.count["majorization.verdict_len"] += max(len(p.weights), len(q.weights))
    if tr.open["experiments.scan"]:
        tr.count["experiments.scan.verdicts"] += 1


def _scan(tr, args, kwargs, report):
    tr.count["experiments.scan.checks"] += report.n_swap_checks + report.n_chain_steps


def _ladder(tr, args, kwargs, report):
    tr.count["experiments.witness_checks"] += len(report.verdicts)  # one D t(i) per step


def _shift(tr, args, kwargs, verdict):
    tr.count["experiments.witness_checks"] += _arg(args, kwargs, 2, "k") > 0


def _lowest(tr, args, kwargs, verdict):
    tr.count["experiments.witness_checks"] += 1


# (module, function, span, counter hook)
TARGETS = (
    ("fockladder.kernels", "recurrence_grid", "kernels.fill", _fill),
    ("fockladder.kernels", "ladder_matvec", "kernels.matvec", _matvec),
    ("fockladder.transition", "grid_recurrence", "transition.grid", _grid),
    ("fockladder.transition", "row_multinomial", "transition.multinomial", _multinomial),
    ("fockladder.transition", "series_rectangle", "transition.series", _series),
    ("fockladder.majorization", "majorize_compare", "majorization.verdict", _verdict),
    ("fockladder.majorization", "fock_compare", "majorization.verdict", _verdict),
    ("fockladder.majorization", "mix", "majorization.mix", None),
    ("fockladder.majorization", "apply_D_power", "majorization.power", None),
    ("fockladder.entropy", "chain_check", "entropy.chain", None),
    ("fockladder.experiments", "ladder_verify", "experiments.ladder", _ladder),
    ("fockladder.experiments", "conjecture_scan", "experiments.scan", _scan),
    ("fockladder.experiments", "mixture_shift_check", "experiments.mixture", _shift),
    ("fockladder.experiments", "mixture_vs_lowest_fock", "experiments.mixture", _lowest),
    ("fockladder.experiments", "counterexample_search", "experiments.counterexample", None),
)


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.self_time = defaultdict(float)
        self.count = defaultdict(int)
        self.matvec_lens = []
        self.open = defaultdict(int)   # spans of each name currently open
        self._stack = [[0.0]]          # traced child time of each open span
        self._patched = []

    def _wrap(self, span, fn, hook):
        stack, opened = self._stack, self.open
        calls, self_time = self.calls, self.self_time

        def traced(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            opened[span] += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                opened[span] -= 1
                calls[span] += 1
                self_time[span] += t1 - t0 - children[0]
                stack[-1][0] += t1 - t0
            if hook is not None:
                hook(self, args, kwargs, result)
                stack[-1][0] += perf_counter() - t1
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if name == "fockladder" or name.startswith("fockladder.")]
        for module, name, span, hook in TARGETS:
            original = getattr(sys.modules[module], name)
            wrapped = self._wrap(span, original, hook)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapped)
                        self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def metrics(self, passes: int, seconds: float) -> dict:
        """Per-layer metrics per sweep pass, as {name: (value, unit)}, for
        `passes` traced passes that took `seconds`."""
        c, s, n = self.count, self.self_time, self.calls

        def per_pass(x):
            return x / passes

        def ratio(a, b):
            return a / b if b else 0.0

        fill_cells, mv_cells = c["kernels.fill.cells"], c["kernels.matvec.cells"]
        verdicts = n["majorization.verdict"]
        out = {
            "kernels.fill.calls": (per_pass(n["kernels.fill"]), "count"),
            "kernels.fill.cells": (per_pass(fill_cells), "count"),
            "kernels.fill.s": (per_pass(s["kernels.fill"]), "s"),
            "kernels.fill.ns_per_cell": (1e9 * ratio(s["kernels.fill"], fill_cells), "ns"),
            # one read of the previous row and one write of the current row per cell
            "kernels.fill.bytes_computed": (per_pass(16 * fill_cells), "B"),
            "kernels.fill.subnormal_frac": (ratio(c["kernels.fill.subnormal"], fill_cells), "frac"),
            "kernels.matvec.calls": (per_pass(n["kernels.matvec"]), "count"),
            "kernels.matvec.cells": (per_pass(mv_cells), "count"),
            "kernels.matvec.s": (per_pass(s["kernels.matvec"]), "s"),
            "kernels.matvec.ns_per_cell": (1e9 * ratio(s["kernels.matvec"], mv_cells), "ns"),
            # read v once, write the output once
            "kernels.matvec.bytes_computed": (
                per_pass(8 * (c["kernels.matvec.in_cells"] + mv_cells)), "B"),
            "kernels.matvec.median_len": (
                float(statistics.median(self.matvec_lens)) if self.matvec_lens else 0.0,
                "entries"),
            "kernels.self_frac": ((s["kernels.fill"] + s["kernels.matvec"]) / seconds, "frac"),
            "transition.grid.calls": (per_pass(n["transition.grid"]), "count"),
            "transition.grid.s": (per_pass(s["transition.grid"]), "s"),
            "transition.grid.fills_per_call": (
                ratio(n["kernels.fill"], n["transition.grid"]), "count"),
            "transition.grid.n_max_mean": (
                ratio(c["transition.grid.n_max"], n["transition.grid"]), "columns"),
            "transition.grid.cap_hits": (per_pass(c["transition.grid.cap_hits"]), "count"),
            "transition.grid.useful_col_frac": (
                ratio(c["transition.grid.useful_cols"], c["transition.grid.cols"]), "frac"),
            "transition.multinomial.calls": (per_pass(n["transition.multinomial"]), "count"),
            "transition.multinomial.s": (per_pass(s["transition.multinomial"]), "s"),
            "transition.multinomial.signed_frac": (
                ratio(c["transition.multinomial.signed"], n["transition.multinomial"]), "frac"),
            "transition.series.calls": (per_pass(n["transition.series"]), "count"),
            "transition.series.s": (per_pass(s["transition.series"]), "s"),
            "transition.series.cells": (per_pass(c["transition.series.cells"]), "count"),
            "majorization.verdicts": (per_pass(verdicts), "count"),
            "majorization.verdict_s": (per_pass(s["majorization.verdict"]), "s"),
            "majorization.verdict_us": (1e6 * ratio(s["majorization.verdict"], verdicts), "us"),
            "majorization.verdict_len_mean": (
                ratio(c["majorization.verdict_len"], verdicts), "entries"),
            "majorization.mix.calls": (per_pass(n["majorization.mix"]), "count"),
            "majorization.mix.s": (per_pass(s["majorization.mix"]), "s"),
            "majorization.power.calls": (per_pass(n["majorization.power"]), "count"),
            "majorization.power.s": (per_pass(s["majorization.power"]), "s"),
            "entropy.chain.calls": (per_pass(n["entropy.chain"]), "count"),
            "entropy.chain.s": (per_pass(s["entropy.chain"]), "s"),
        }
        for part in ("ladder", "scan", "mixture", "counterexample"):
            out[f"experiments.{part}.s"] = (per_pass(s[f"experiments.{part}"]), "s")
        out["experiments.scan.checks"] = (per_pass(c["experiments.scan.checks"]), "count")
        out["experiments.scan.cache_hit_frac"] = (
            1.0 - ratio(c["experiments.scan.verdicts"], c["experiments.scan.checks"])
            if c["experiments.scan.checks"] else 0.0, "frac")
        out["experiments.witness_checks"] = (per_pass(c["experiments.witness_checks"]), "count")
        return out

