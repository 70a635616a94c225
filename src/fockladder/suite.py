"""The acceptance battery: every headline claim, runnable in one call.

Each criterion function returns a CriterionResult, and CRITERIA lists
them in order. The CLI `suite` subcommand runs them, prints one line per
criterion and exits nonzero when any fails; the pytest acceptance module
wraps the same functions.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .channel import LimitRoute, abgx, make_channel, noise_limit_params
from .entropy import chain_check
from .errors import WitnessError
from .experiments import (BinaryPattern, conjecture_scan, counterexample_search,
                          ladder_verify, make_counterexample_corpus, mixture_checks,
                          passive_path, standard_grid, DEFAULT_SEED)
from .kernels import ladder_matvec
from .majorization import (RELATIONS, FockDiagonalState, build_D,
                           check_column_stochastic, compare_stack, holds_left, mix)
from .transition import (analytic_special, grid_recurrence, row_multinomial,
                         series_rectangle)

MULTINOMIAL_WINDOW = 100  # dense comparison window for the closed-form oracle


@dataclass(frozen=True)
class CriterionResult:
    key: str
    description: str
    passed: bool
    detail: str
    seconds: float

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status}  {self.key}  {self.description}: {self.detail} [{self.seconds:.1f}s]"


def _result(key, description, passed, detail, t0) -> CriterionResult:
    return CriterionResult(key, description, bool(passed), detail,
                           time.perf_counter() - t0)


def criterion_1_ladder() -> CriterionResult:
    t0 = time.perf_counter()
    worst = math.inf
    failed = []
    specs = standard_grid()
    for spec in specs:
        report = ladder_verify(spec, i_max=30)
        worst = min(worst, report.worst_slack)
        if not report.passed:
            failed.append(spec.label())
    elapsed = time.perf_counter() - t0
    passed = not failed and worst >= -1e-12 and elapsed < 30.0
    return _result("C1", "output ladder, every standard channel, i<=30", passed,
                   f"{len(specs)} channels, worst_slack={worst:.2e}, "
                   f"elapsed={elapsed:.1f}s (budget 30s)"
                   + (f", failed={failed}" if failed else ""), t0)


def criterion_2_oracle_triangle() -> CriterionResult:
    t0 = time.perf_counter()
    dev_rs = dev_rm = dev_sm = 0.0
    for spec in standard_grid():
        params = abgx(spec)
        grid = grid_recurrence(params, 40)
        rect = series_rectangle(params, 40, grid.n_max)
        dev_rs = max(dev_rs, float(np.abs(grid.rows - rect).max()))
        n_win = min(grid.n_max, MULTINOMIAL_WINDOW)
        for i in range(41):
            if i == 40:
                # widen the window so the heaviest row's bulge is covered
                n_win = min(grid.n_max, max(n_win, int(np.argmax(grid.rows[40])) + 20))
            row = row_multinomial(params, i, n_win)
            dev_rm = max(dev_rm, float(np.abs(row - grid.rows[i, :n_win + 1]).max()))
            dev_sm = max(dev_sm, float(np.abs(row - rect[i, :n_win + 1]).max()))
    worst = max(dev_rs, dev_rm, dev_sm)
    return _result("C2", "recurrence/closed-form/series pairwise agreement, i<=40",
                   worst <= 1e-12,
                   f"recurrence-series={dev_rs:.2e}, recurrence-closedform={dev_rm:.2e}, "
                   f"series-closedform={dev_sm:.2e} (tol 1e-12)", t0)


def criterion_3_special_cases() -> CriterionResult:
    t0 = time.perf_counter()
    dev = 0.0
    n_laws = 0
    for spec in standard_grid():
        params = abgx(spec)
        grid = grid_recurrence(params, 40)
        for i in range(41):
            law = analytic_special(spec, i, grid.n_max)
            if law is None:
                continue
            n_laws += 1
            dev = max(dev, float(np.abs(law - grid.rows[i]).max()))
    return _result("C3", "binomial / negative-binomial / vacuum-geometric laws",
                   dev <= 1e-12, f"{n_laws} rows matched, max dev={dev:.2e} "
                   "(tol 1e-12)", t0)


def criterion_4_stochastic_witness() -> CriterionResult:
    t0 = time.perf_counter()
    ok = True
    min_entry = 0.0
    col_dev = row_max = 0.0
    step_err = power_err = 0.0
    for spec in standard_grid():
        params = abgx(spec)
        rep = check_column_stochastic(build_D(params, 200))
        ok = ok and rep.ok
        min_entry = min(min_entry, rep.min_entry)
        if rep.n_interior:
            col_dev = max(col_dev, rep.max_interior_col_dev)
        row_max = max(row_max, rep.max_row_sum)
        grid = grid_recurrence(params, 30)
        image = ladder_matvec(params.alpha, params.beta, params.nu, grid.rows[:-1])
        step_err = max(step_err, float(np.abs(image - grid.rows[1:]).max()))
        # i-fold power applied to the vacuum output row must reproduce row i
        v = grid.rows[0]
        for i in range(1, 31):
            v = ladder_matvec(params.alpha, params.beta, params.nu, v)
            power_err = max(power_err, float(np.abs(v - grid.rows[i]).max()))
    passed = (ok and min_entry >= -1e-15 and col_dev <= 1e-12
              and row_max <= 1.0 + 1e-12 and step_err <= 1e-12
              and power_err <= 1e-11)
    return _result("C4", "ladder matrix: stochasticity at dim=200 and both witnesses",
                   passed,
                   f"min_entry={min_entry:.1e}, interior_col_dev={col_dev:.2e}, "
                   f"max_row_sum={row_max:.15f}, step_err={step_err:.2e} (tol 1e-12), "
                   f"power_err={power_err:.2e} (tol 1e-11)", t0)


def criterion_5_trace_preservation() -> CriterionResult:
    t0 = time.perf_counter()
    worst_tail = 0.0
    worst_residual = 0.0
    for spec in standard_grid():
        grid = grid_recurrence(abgx(spec), 30)
        for i in range(31):
            total = math.fsum(grid.rows[i])
            worst_residual = max(worst_residual, abs(total + grid.tails[i] - 1.0))
            worst_tail = max(worst_tail, 1.0 - total)
    passed = worst_tail <= 1e-10 and worst_residual <= 1e-13
    return _result("C5", "row sums = 1 - tail with tail <= 1e-10", passed,
                   f"max tail={worst_tail:.2e}, max |sum+tail-1|={worst_residual:.2e}", t0)


def criterion_6_entropy_chain() -> CriterionResult:
    t0 = time.perf_counter()
    worst = -math.inf
    for spec in standard_grid():
        grid = grid_recurrence(abgx(spec), 30)
        for order in (None, 0.5, 2.0, math.inf):
            rep = chain_check(grid, order)
            worst = max(worst, rep.worst_violation)
            if not rep.monotone:
                return _result("C6", "entropy chains", False,
                               f"violation {rep.worst_violation:.2e} on "
                               f"{spec.label()} order={order}", t0)
    return _result("C6", "Shannon and Renyi(0.5, 2, inf) chains non-decreasing",
                   worst <= 1e-12, f"worst step decrease={worst:.2e} (tol 1e-12)", t0)


def criterion_7_noise_limit() -> CriterionResult:
    t0 = time.perf_counter()
    ratios = []
    for n in (0.5, 1.0, 2.0):
        target = abgx(make_channel("noise", added_n=n))
        tvec = np.array([target.alpha, target.beta, target.gamma, target.chi,
                         target.nu])
        for route in (LimitRoute.VIA_LOSS, LimitRoute.VIA_AMP):
            errs = []
            for eps in (1e-2, 5e-3, 2.5e-3):
                p = noise_limit_params(n, eps, route)
                pvec = np.array([p.alpha, p.beta, p.gamma, p.chi, p.nu])
                errs.append(float(np.abs(pvec - tvec).max()))
            ratios.append(errs[1] / errs[0])
            ratios.append(errs[2] / errs[1])
    passed = all(0.4 <= r <= 0.6 for r in ratios)
    return _result("C7", "added-noise row reached linearly via both limits", passed,
                   f"halving ratios in [{min(ratios):.3f}, {max(ratios):.3f}] "
                   "(required [0.4, 0.6])", t0)


def criterion_8_mixture_properties() -> CriterionResult:
    t0 = time.perf_counter()
    n_checks = 0
    for idx, spec in enumerate(standard_grid()):
        grid = grid_recurrence(abgx(spec), 10)
        rng = np.random.default_rng([DEFAULT_SEED, idx])
        draws = [(rng.dirichlet(np.ones(int(rng.integers(1, 7)))), int(rng.integers(0, 6)))
                 for _ in range(100)]
        try:
            shift = mixture_checks(spec, "shift", draws, grid=grid)
            lowest = mixture_checks(spec, "lowest", draws, grid=grid)
        except WitnessError as exc:
            return _result("C8", "mixture properties", False,
                           f"witness identity failed on {spec.label()}: {exc}", t0)
        holds = holds_left(shift.codes) & holds_left(lowest.codes)
        if not holds.all():
            r = int(holds.argmin())  # the first draw whose left direction fails
            return _result("C8", "mixture properties", False,
                           f"unexpected verdict on {spec.label()}: "
                           f"{RELATIONS[shift.codes[r]].value}/"
                           f"{RELATIONS[lowest.codes[r]].value}", t0)
        n_checks += 2 * len(draws)
    return _result("C8", "shifted-mixture and lowest-Fock dominance, 100 draws/channel",
                   True, f"{n_checks} seeded checks, all verdicts and witnesses ok", t0)


def _pattern_state(grid, pattern: BinaryPattern) -> FockDiagonalState:
    """Output of the uniform mixture over the pattern's occupied levels."""
    ones = [i for i, b in enumerate(pattern.bits) if b]
    return mix([FockDiagonalState.from_grid_row(grid, i) for i in ones],
               np.full(len(ones), 1.0 / len(ones)))


def criterion_9_conjecture_scan() -> CriterionResult:
    t0 = time.perf_counter()
    expected_path = ["101001", "101010", "101100", "111000"]
    n_patterns = n_steps = n_swaps = 0
    worst = math.inf
    for spec in standard_grid():
        grid = grid_recurrence(abgx(spec), 9)
        for length in range(2, 11):
            rep = conjecture_scan(spec, length, grid=grid)
            if not rep.passed:
                return _result("C9", "passive-path scan", False,
                               f"violations on {spec.label()} L={length}: "
                               f"{rep.violations[:3]}", t0)
            n_patterns += rep.n_patterns
            n_steps += rep.n_chain_steps
            n_swaps += rep.n_swap_checks
            worst = min(worst, rep.worst_slack)
        path = passive_path(BinaryPattern.from_string("101001"))
        if [str(p) for p in path] != expected_path:
            return _result("C9", "passive-path scan", False,
                           f"unexpected path {[str(p) for p in path]}", t0)
        chain = [_pattern_state(grid, p) for p in path]
        weights = np.array([s.weights for s in chain])
        tails = np.array([s.tail for s in chain])
        steps = compare_stack(weights[1:], weights[:-1], tails[1:], tails[:-1])
        for cur, nxt, code in zip(path, path[1:], steps.codes):
            if not holds_left(code):  # the next output does not majorize the current one
                return _result("C9", "passive-path scan", False,
                               f"chain step {cur}->{nxt} gave {RELATIONS[code].value} "
                               f"on {spec.label()}", t0)
    return _result("C9", "binary patterns L<=10: swaps, paths, reference chain",
                   True, f"{n_patterns} patterns, {n_swaps} swap checks, "
                   f"{n_steps} path steps, worst_slack={worst:.2e}, zero violations", t0)


def criterion_10_counterexamples() -> CriterionResult:
    t0 = time.perf_counter()
    corpus = make_counterexample_corpus(seed=DEFAULT_SEED)
    n_witnesses = 0
    fock_worst = math.inf
    for spec in standard_grid():
        findings = counterexample_search(spec, corpus)
        n_witnesses += len(findings.energy_witnesses)
        fock_worst = min(fock_worst, findings.fock_worst_slack)
        if not findings.fock_ok:
            return _result("C10", "counterexample search", False,
                           f"Fock-order dominance lost on {spec.label()}", t0)
    passed = n_witnesses >= 1 and fock_worst >= -1e-12
    return _result("C10", "energy order fails, Fock order survives", passed,
                   f"{n_witnesses} energy-ordered witness pairs found "
                   f"(seed {DEFAULT_SEED}), fock_worst_slack={fock_worst:.2e}", t0)


CRITERIA = [
    criterion_1_ladder,
    criterion_2_oracle_triangle,
    criterion_3_special_cases,
    criterion_4_stochastic_witness,
    criterion_5_trace_preservation,
    criterion_6_entropy_chain,
    criterion_7_noise_limit,
    criterion_8_mixture_properties,
    criterion_9_conjecture_scan,
    criterion_10_counterexamples,
]

