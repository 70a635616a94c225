"""Correctness gate: what the theory requires of each result a sweep returns.

Every function returns a list of failure messages, empty when the result is
right. Expected counts are computed here without the library, so a change
that drops or duplicates checks shows up as a failure, not as a speed-up.
"""

from __future__ import annotations

import itertools

import numpy as np

TOL = 1e-12        # verdict tolerance and oracle agreement bound
POWER_TOL = 1e-11  # D**k t(0) against t(k), k banded products (suite criterion C4)


def ladder(report, i_max: int, tol: float = TOL) -> list[str]:
    """Each output row majorizes the next and D t(i) reproduces t(i+1)."""
    out = []
    if len(report.verdicts) != i_max:
        out.append(f"ladder: {len(report.verdicts)} steps, expected {i_max}")
    bad = [i for i, v in enumerate(report.verdicts) if not v.holds_left]
    if bad:
        out.append(f"ladder: {len(bad)} failing steps, first {bad[0]} gave "
                   f"{report.verdicts[bad[0]].relation.value}")
    elif not report.passed:
        out.append("ladder: report failed with every step holding")
    if not report.witness_max_err <= tol:
        out.append(f"ladder: witness error {report.witness_max_err:.3e} > {tol:.0e}")
    return out


def chain(report, i_max: int, tol: float = TOL) -> list[str]:
    """Entropies of the Fock outputs never decrease along the chain."""
    out = []
    values = np.asarray(report.values)
    if len(values) != i_max + 1:
        out.append(f"chain: {len(values)} entropies, expected {i_max + 1}")
    if not report.monotone or np.any(np.diff(values) < -tol):
        out.append(f"chain(order={report.order}): decreases by {report.worst_violation:.3e}")
    return out


def power(image, row, tol: float = POWER_TOL) -> list[str]:
    """The k-th ladder power applied to t(0) reproduces t(k) entrywise."""
    err = float(np.abs(np.asarray(image) - np.asarray(row)).max())
    return [] if err <= tol else [f"power: witness error {err:.3e} > {tol:.0e}"]


def passive_steps(length: int) -> int:
    """Passive-path moves over every binary pattern of the length with at
    least two ones. A move sorts, in descending order, the shortest suffix
    that is not already sorted."""
    total = 0
    for bits in itertools.product((0, 1), repeat=length):
        if sum(bits) < 2:
            continue
        bits = list(bits)
        while bits != sorted(bits, reverse=True):
            cut = len(bits) - 2
            while bits[cut:] == sorted(bits[cut:], reverse=True):
                cut -= 1
            bits[cut:] = sorted(bits[cut:], reverse=True)
            total += 1
    return total


def scan(report, length: int, expected_steps: int) -> list[str]:
    """Zero violations, and exactly the checks the enumeration implies."""
    out = []
    if report.violations or not report.passed:
        out.append(f"scan L={length}: {len(report.violations)} violations, "
                   f"first {report.violations[:1]}")
    expected = {"n_patterns": 2 ** length - length - 1,
                "n_swap_checks": 2 ** (length - 3) if length >= 3 else 0,
                "n_chain_steps": expected_steps}
    for name, want in expected.items():
        got = getattr(report, name)
        if got != want:
            out.append(f"scan L={length}: {name}={got}, expected {want}")
    return out


def mixture(shift_verdict, lowest_verdict) -> list[str]:
    """The unshifted mixture's output majorizes the shifted one's, and the
    lowest Fock component's output majorizes the mixture's."""
    out = []
    if not shift_verdict.holds_left:
        out.append(f"mixture shift: {shift_verdict.relation.value}")
    if not lowest_verdict.holds_left:
        out.append(f"mixture lowest-Fock: {lowest_verdict.relation.value}")
    return out


def counterexample(findings, n_energy: int, n_fock: int, tol: float = TOL) -> list[str]:
    """Fock-order dominance survives the channel, every pair is accounted
    for, and energy ordering fails for at least one pair."""
    out = []
    if not findings.fock_ok or findings.fock_worst_slack < -tol:
        out.append(f"counterexample: Fock order lost, slack {findings.fock_worst_slack:.3e}")
    if findings.n_fock_pairs != n_fock:
        out.append(f"counterexample: {findings.n_fock_pairs} Fock pairs, expected {n_fock}")
    if findings.n_energy_pairs + findings.n_skipped != n_energy:
        out.append(f"counterexample: {findings.n_energy_pairs}+{findings.n_skipped} "
                   f"energy pairs, expected {n_energy}")
    if not findings.energy_witnesses:
        out.append("counterexample: no energy-ordered witness pair")
    return out


def oracle(row_closed_form, grid_row, series_row, tol: float = TOL) -> list[str]:
    """The recurrence, the trinomial sum and the series extraction agree
    pairwise; the closed form covers a window at the start of the row."""
    m = np.asarray(row_closed_form)
    n = len(m)
    devs = {"recurrence-series": np.abs(grid_row - series_row).max(),
            "recurrence-closedform": np.abs(m - grid_row[:n]).max(),
            "series-closedform": np.abs(m - series_row[:n]).max()}
    return [f"oracle: {name} {float(dev):.3e} > {tol:.0e}"
            for name, dev in devs.items() if not dev <= tol]
