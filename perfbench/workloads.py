"""Seeded inputs and sweeps of the four benchmark workloads.

A sweep is a list of blocks, one per channel. A block's ``prepare`` builds
what its items share (a grid, a series rectangle); each item is the unit a
sweep user waits on and returns an Outcome: the checks it verified and the
failures the gate found. Every workload keeps a fixed structure (families,
beta strata, sizes, draw shapes) and takes only parameter jitter, draw
order and mixture weights from the seed, so every seed asks for the same
amount of work and the figures of two seeds are comparable.

fockladder is imported from the ``src/`` directory next to this one, never
from an installed copy.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable, Optional

import numpy as np

SRC = Path(__file__).resolve().parent.parent / "src"
if not (SRC / "fockladder" / "__init__.py").is_file():
    raise ImportError(f"fockladder sources not found under {SRC}")
sys.path.insert(0, str(SRC))

import fockladder as fl  # noqa: E402
from fockladder.experiments import CorpusPair  # noqa: E402

import gate  # noqa: E402

if not Path(fl.__file__).resolve().is_relative_to(SRC.resolve()):
    raise ImportError(f"fockladder imported from {fl.__file__}, not from {SRC}")

LIBRARY_ERRORS = (fl.TruncationError, fl.WitnessError, fl.NormalizationError,
                  fl.DomainError)


@dataclass
class Outcome:
    checks: int = 0
    failures: list = field(default_factory=list)


@dataclass
class Block:
    label: str
    prepare: Optional[Callable[[], object]]
    items: list  # callables taking the prepared context, returning an Outcome


def channel(family: str, beta: float, y: float = 0.0) -> fl.ChannelSpec:
    """The channel of the family whose geometric ratio abgx(spec).beta is
    beta, with environment y = N/(N+1); lossy needs y > beta, conj y <= beta."""
    N = y / (1.0 - y)
    if family == "lossy":
        return fl.make_channel("lossy", eta=(y - beta) / (y * (1.0 - beta)), thermal_N=N)
    if family == "amp":
        return fl.make_channel("amp", g=(1.0 - beta * y) / (1.0 - beta), thermal_N=N)
    if family == "noise":
        return fl.make_channel("noise", added_n=beta / (1.0 - beta))
    return fl.make_channel("conj", g=(1.0 - y) / (1.0 - beta), thermal_N=N)


def _jittered(rng, family, beta, y, d_beta, d_y) -> fl.ChannelSpec:
    return channel(family, beta + rng.uniform(-d_beta, d_beta),
                   y + rng.uniform(-d_y, d_y) if y else 0.0)


def _grid(params, i_max):
    # looked up at call time, so the tracer's wrapper is the one called
    return fl.grid_recurrence(params, i_max)


# ---------------------------------------------------------------------------
# deep_ladder: long arrays, few verdicts. beta >= 0.95 sends the cutoff
# guess straight to the 20000-column hard cap, so kernel fill and matvec
# dominate. The grids differ in subnormal content (noise has the most).
# At this cutoff the rows of cancelling channels (gamma < 0) sum above 1 by
# up to about 1.3e-14 per input photon, and majorize_compare raises
# NormalizationError once the excess passes 1e-12, which happens from
# i_max of about 75. i_max stays at or below 62 so the excess stays under
# half of that tolerance. An odd number of strata puts the median item
# inside one stratum rather than between two.
# ---------------------------------------------------------------------------

DEEP_STRATA = (("lossy", 0.960, 0.990, 40), ("amp", 0.978, 0.300, 45),
               ("conj", 0.970, 0.300, 50), ("noise", 0.952, 0.0, 50),
               ("noise", 0.952, 0.0, 60))
POWER_K = 3
RENYI_ORDER = 2.0


def _deep_item(spec, i_max, _ctx) -> Outcome:
    params = fl.abgx(spec)
    report = fl.ladder_verify(spec, i_max, gate.TOL)
    grid = fl.grid_recurrence(params, i_max)
    shannon = fl.chain_check(grid)
    renyi = fl.chain_check(grid, RENYI_ORDER)
    image = fl.apply_D_power(params, POWER_K, fl.FockDiagonalState.from_grid_row(grid, 0),
                             grid.n_max + 1)
    failures = (gate.ladder(report, i_max) + gate.chain(shannon, i_max)
                + gate.chain(renyi, i_max) + gate.power(image.weights, grid.rows[POWER_K]))
    checks = (2 * len(report.verdicts) + len(shannon.values) - 1
              + len(renyi.values) - 1 + 1)
    return Outcome(checks, failures)


def deep_ladder(rng, strata=DEEP_STRATA) -> list[Block]:
    blocks = []
    for family, beta, y, i_max in strata:
        spec = _jittered(rng, family, beta, y, 0.002, 0.003)
        i_max += int(rng.integers(-2, 3))
        blocks.append(Block(f"{spec.label()} i_max={i_max}", None,
                            [partial(_deep_item, spec, i_max)]))
    return blocks


# ---------------------------------------------------------------------------
# passive_scan: tens of thousands of tiny verdicts plus pattern
# enumeration; the grids are short (beta <= 0.55), so kernels barely run.
# Lengths start at 6: with 2..10 the p90 sits on the edge between the
# length-9 and length-10 items and jumps between channels from run to run;
# with 6..10 it is the middle of the length-10 items. Lengths 2..5 cost about
# 1% of a pass.
# ---------------------------------------------------------------------------

SCAN_STRATA = (("lossy", 0.25, 0.60), ("lossy", 0.45, 0.80), ("amp", 0.30, 0.20),
               ("amp", 0.50, 0.60), ("noise", 0.35, 0.0), ("noise", 0.55, 0.0),
               ("conj", 0.30, 0.20), ("conj", 0.50, 0.30))
SCAN_LENGTHS = tuple(range(6, 11))


def _scan_item(spec, length, expected_steps, grid) -> Outcome:
    report = fl.conjecture_scan(spec, length, gate.TOL, grid=grid)
    return Outcome(report.n_swap_checks + report.n_chain_steps,
                   gate.scan(report, length, expected_steps))


def passive_scan(rng, strata=SCAN_STRATA, lengths=SCAN_LENGTHS) -> list[Block]:
    expected = {length: gate.passive_steps(length) for length in lengths}
    blocks = []
    for family, beta, y in strata:
        spec = _jittered(rng, family, beta, y, 0.02, 0.02)
        blocks.append(Block(
            spec.label(), partial(_grid, fl.abgx(spec), max(lengths) - 1),
            [partial(_scan_item, spec, length, expected[length]) for length in lengths]))
    return blocks


# ---------------------------------------------------------------------------
# mixture_draws: many short banded products (vectors of a few hundred
# entries) and small verdicts; the opposite end of the kernel layer from
# deep_ladder. Every (size, shift) shape is drawn once per channel.
# ---------------------------------------------------------------------------

MIX_STRATA = (("lossy", 0.80, 0.90), ("amp", 0.85, 0.50), ("noise", 0.80, 0.0),
              ("conj", 0.82, 0.40))
MIX_SIZES = tuple(range(1, 7))
MIX_SHIFTS = tuple(range(0, 6))
MIX_I_MAX = 12
CORPUS_LEVELS = MIX_I_MAX + 1
CORPUS_RANDOM = 20


def _state(weights) -> fl.FockDiagonalState:
    return fl.FockDiagonalState.from_weights(np.asarray(weights, dtype=np.float64))


def make_corpus(rng, n_random=CORPUS_RANDOM, levels=CORPUS_LEVELS):
    """Energy-ordered and Fock-ordered input pairs; returns the corpus and
    the number of pairs of each kind."""
    pairs = []
    # Fock state 2 against p|0> + (1-p)|k> of no lower energy: the outputs are
    # incomparable on every channel of the mixture strata, so each search
    # finds a witness whatever the seed.
    for p, k in ((0.5, 4), (0.6, 5), (0.7, 7), (0.7, 8)):
        sigma = np.zeros(k + 1)
        sigma[[0, k]] = p, 1.0 - p
        pairs.append(CorpusPair(fl.FockDiagonalState.point_mass(2), _state(sigma),
                                "energy", f"fock2-vs-{p}|0>+|{k}>"))
    for j in range(n_random):
        w = np.zeros((2, levels))
        for row in w:
            size = int(rng.integers(2, 5))
            row[rng.choice(levels, size=size, replace=False)] = rng.dirichlet(np.ones(size))
        energy = w @ np.arange(levels)
        lo, hi = (0, 1) if energy[0] <= energy[1] else (1, 0)
        pairs.append(CorpusPair(_state(w[lo]), _state(w[hi]), "energy", f"energy-{j}"))
    n_energy = len(pairs)

    for i, j in ((0, 1), (1, 3), (2, 5)):
        pairs.append(CorpusPair(fl.FockDiagonalState.point_mass(i, j + 1),
                                fl.FockDiagonalState.point_mass(j, j + 1), "fock",
                                f"fock{i}-vs-fock{j}"))
    for j in range(n_random):
        size = int(rng.integers(3, 7))
        sigma = np.zeros(levels - 2)
        sigma[rng.choice(len(sigma), size=size, replace=False)] = rng.dirichlet(np.ones(size))
        rho = sigma.copy()
        for _ in range(int(rng.integers(1, 4))):  # move mass toward lower levels
            src = int(rng.integers(1, len(rho)))
            dst = int(rng.integers(0, src))
            amount = rho[src] * rng.uniform(0.2, 1.0)
            rho[src] -= amount
            rho[dst] += amount
        pairs.append(CorpusPair(_state(rho), _state(sigma), "fock", f"fock-{j}"))
    return pairs, n_energy, len(pairs) - n_energy


def _mixture_item(spec, coeffs, k, grid) -> Outcome:
    shift = fl.mixture_shift_check(spec, coeffs, k, gate.TOL, grid=grid)
    lowest = fl.mixture_vs_lowest_fock(spec, coeffs, k, gate.TOL, grid=grid)
    # two verdicts plus the D**k witness (k > 0) and the convex-combination witness
    return Outcome(2 + (k > 0) + 1, gate.mixture(shift, lowest))


def _counterexample_item(spec, corpus, n_energy, n_fock, grid) -> Outcome:
    findings = fl.counterexample_search(spec, corpus, gate.TOL, grid=grid)
    return Outcome(findings.n_energy_pairs + findings.n_fock_pairs,
                   gate.counterexample(findings, n_energy, n_fock))


def mixture_draws(rng, strata=MIX_STRATA, sizes=MIX_SIZES, shifts=MIX_SHIFTS) -> list[Block]:
    corpus, n_energy, n_fock = make_corpus(rng)
    blocks = []
    for family, beta, y in strata:
        spec = _jittered(rng, family, beta, y, 0.01, 0.02)
        shapes = [(m, k) for m in sizes for k in shifts]
        order = rng.permutation(len(shapes))
        items = [partial(_mixture_item, spec, rng.dirichlet(np.ones(shapes[j][0])), shapes[j][1])
                 for j in order]
        items.append(partial(_counterexample_item, spec, corpus, n_energy, n_fock))
        blocks.append(Block(spec.label(),
                            partial(_grid, fl.abgx(spec), MIX_I_MAX), items))
    return blocks


# ---------------------------------------------------------------------------
# oracle_audit: the independent oracles. Five of the eight strata have
# gamma < 0, which sends row_multinomial down its Decimal path.
# ---------------------------------------------------------------------------

ORACLE_STRATA = (("lossy", 0.30, 0.60), ("lossy", 0.60, 0.80), ("amp", 0.60, 0.20),
                 ("amp", 0.60, 0.85), ("noise", 0.40, 0.0), ("noise", 0.70, 0.0),
                 ("conj", 0.60, 0.30), ("conj", 0.70, 0.60))
ORACLE_I_MAX = 40
ORACLE_WINDOW = 100  # closed-form columns per row, widened to cover the row's bulge


def _oracle_prepare(params, i_max):
    grid = _grid(params, i_max)
    return grid, fl.series_rectangle(params, i_max, grid.n_max)


def _oracle_item(params, i, ctx) -> Outcome:
    grid, rect = ctx
    n_win = min(grid.n_max, max(ORACLE_WINDOW, int(np.argmax(grid.rows[i])) + 20))
    row = fl.row_multinomial(params, i, n_win)
    return Outcome(3, gate.oracle(row, grid.rows[i], rect[i]))


def oracle_audit(rng, strata=ORACLE_STRATA, i_max=ORACLE_I_MAX) -> list[Block]:
    blocks = []
    for family, beta, y in strata:
        params = fl.abgx(_jittered(rng, family, beta, y, 0.01, 0.02))
        blocks.append(Block(f"{family} gamma={params.gamma:+.3f}",
                            partial(_oracle_prepare, params, i_max),
                            [partial(_oracle_item, params, i) for i in range(i_max + 1)]))
    return blocks


WORKLOADS = {
    "deep_ladder": (deep_ladder, dict(strata=(("lossy", 0.5, 0.9, 8),))),
    "passive_scan": (passive_scan, dict(strata=SCAN_STRATA[:1], lengths=(3, 6))),
    "mixture_draws": (mixture_draws, dict(strata=MIX_STRATA[:1], sizes=(1, 2), shifts=(0, 1))),
    "oracle_audit": (oracle_audit, dict(strata=ORACLE_STRATA[-1:], i_max=5)),
}


def build(name: str, seed: int, warm: bool = False) -> list[Block]:
    """The workload's sweep for the seed; warm=True gives a small sweep over
    the same code paths, for warming up before the timed runs."""
    make, warm_sizes = WORKLOADS[name]
    rng = np.random.default_rng(seed)
    return make(rng, **warm_sizes) if warm else make(rng)
