"""The correctness gate catches wrong results; the harness counts them.

    python3 -m pytest perfbench/test_gate.py
"""

import dataclasses
import unittest

import numpy as np

import gate
import run
import workloads
from workloads import Block, Outcome, fl


def _flip(verdict):
    return dataclasses.replace(verdict, relation=fl.Relation.RIGHT_MAJORIZES)


class GateTest(unittest.TestCase):
    def test_ladder_flags_a_flipped_verdict(self):
        spec = workloads.channel("amp", 0.6, 0.5)
        report = fl.ladder_verify(spec, 6)
        self.assertEqual(gate.ladder(report, 6), [])
        steps = list(report.verdicts)
        steps[2] = _flip(steps[2])
        flipped = dataclasses.replace(report, verdicts=tuple(steps))
        self.assertTrue(any("first 2 " in f for f in gate.ladder(flipped, 6)))

    def test_ladder_flags_a_missing_step(self):
        report = fl.ladder_verify(workloads.channel("noise", 0.5), 5)
        self.assertTrue(gate.ladder(report, 6))

    def test_mixture_flags_a_flipped_verdict(self):
        spec = workloads.channel("conj", 0.7, 0.4)
        shift = fl.mixture_shift_check(spec, [0.3, 0.7], 2)
        lowest = fl.mixture_vs_lowest_fock(spec, [0.3, 0.7], 2)
        self.assertEqual(gate.mixture(shift, lowest), [])
        self.assertTrue(gate.mixture(shift, _flip(lowest)))

    def test_oracle_flags_a_perturbed_row(self):
        params = fl.abgx(workloads.channel("lossy", 0.6, 0.8))  # gamma < 0: Decimal path
        grid = fl.grid_recurrence(params, 10)
        rect = fl.series_rectangle(params, 10, grid.n_max)
        row = fl.row_multinomial(params, 7, 30)
        self.assertEqual(gate.oracle(row, grid.rows[7], rect[7]), [])
        row[4] += 1e-10
        failures = gate.oracle(row, grid.rows[7], rect[7])
        self.assertEqual(len(failures), 2)  # both comparisons with the closed form
        bad_grid_row = grid.rows[7].copy()
        bad_grid_row[-1] += 1e-10  # outside the closed-form window
        self.assertTrue(any("recurrence-series" in f
                            for f in gate.oracle(row, bad_grid_row, rect[7])))

    def test_scan_counts_come_from_the_enumeration(self):
        spec = workloads.channel("lossy", 0.3, 0.6)
        report = fl.conjecture_scan(spec, 7)
        self.assertEqual(gate.scan(report, 7, gate.passive_steps(7)), [])
        short = dataclasses.replace(report, n_chain_steps=report.n_chain_steps - 1)
        self.assertTrue(gate.scan(short, 7, gate.passive_steps(7)))

    def test_counterexample_requires_fock_order_and_a_witness(self):
        spec = workloads.channel("amp", 0.85, 0.5)
        corpus, n_energy, n_fock = workloads.make_corpus(np.random.default_rng(3))
        findings = fl.counterexample_search(spec, corpus)
        self.assertEqual(gate.counterexample(findings, n_energy, n_fock), [])
        lost = dataclasses.replace(findings, fock_ok=False)
        self.assertTrue(gate.counterexample(lost, n_energy, n_fock))
        none = dataclasses.replace(findings, energy_witnesses=())
        self.assertTrue(gate.counterexample(none, n_energy, n_fock))


class HarnessTest(unittest.TestCase):
    def test_raised_errors_and_gate_failures_count_as_failed(self):
        def raises(_ctx):
            raise fl.WitnessError("identity failed")

        sweep = [Block("b", None, [raises, lambda _ctx: Outcome(3, ["wrong"]),
                                   lambda _ctx: Outcome(2, [])])]
        tally = run.Tally()
        run.run_pass(sweep, tally, workloads.LIBRARY_ERRORS)
        self.assertEqual((tally.attempted, tally.failed, tally.checks), (3, 2, 5))

    def test_every_seeded_sweep_builds(self):
        for name in run.WORKLOAD_NAMES:
            for seed in (0, 1, 2**31):
                self.assertTrue(workloads.build(name, seed))


if __name__ == "__main__":
    unittest.main()
