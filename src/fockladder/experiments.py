"""Runnable verifications: the output-majorization ladder; its two mixture
consequences, decided and witnessed by one batched engine (mixture_checks)
in which both witnesses are a polynomial in the ladder matrix D applied to
one output; the passive-path scan over binary Fock mixtures; and the
counterexample searches for the generalizations that fail.

Everything here is deterministic: random corpora come from seeded
generators and aggregation follows input order.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields
from typing import Optional

import numpy as np

from .channel import ChannelSpec, Family, abgx, make_channel
from .errors import SCAN_CHUNK_CELLS, WitnessError, check_index, require
from .kernels import ladder_matvec
from .majorization import (DEFAULT_TOL, RELATIONS, FockDiagonalState, MajorizationVerdict,
                           VerdictStack, check_coefficient_rows, check_coefficient_shape,
                           check_rows, check_tol,
                           compare_stack, decide, holds_left, prefix_sums, raw_prefix_sums)
from .transition import DEFAULT_TAIL_TOL, TransitionGrid, grid_recurrence

DEFAULT_SEED = 20240


def standard_grid() -> list[ChannelSpec]:
    """The fixed channel battery used by every 'standard grid' check:
    noiseless through strongly noisy instances of all four families."""
    specs = []
    for eta in (0.1, 0.3, 0.5, 0.7, 0.9):
        for N in (0.0, 0.5, 2.0):
            specs.append(make_channel(Family.LOSSY, eta=eta, thermal_N=N))
    for family in (Family.AMP, Family.CONJ):
        for g in (1.2, 2.0, 5.0):
            for N in (0.0, 0.5, 2.0):
                specs.append(make_channel(family, g=g, thermal_N=N))
    for n in (0.5, 1.0, 2.0):
        specs.append(make_channel(Family.NOISE, added_n=n))
    return specs


# ---------------------------------------------------------------------------
# Ladder verification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LadderReport:
    """Step-by-step comparison of consecutive output rows.

    worst_slack aggregates the left-direction prefix margins of all steps
    (the direction the ladder asserts); witness_max_err is the largest
    entrywise deviation of D @ t(i) from t(i+1). passed requires every
    step to hold in the left direction and witness_max_err <= tol.
    """

    channel: ChannelSpec
    i_max: int
    verdicts: tuple
    worst_slack: float
    witness_max_err: float
    passed: bool

    def to_json_dict(self) -> dict:
        return {
            "channel": self.channel.to_json_dict(),
            "i_max": self.i_max,
            "steps": [v.to_json_dict() for v in self.verdicts],
            "worst_slack": self.worst_slack,
            "witness_max_err": self.witness_max_err,
            "pass": self.passed,
        }


def _ensure_grid(spec, i_need, grid, tail_tol=DEFAULT_TAIL_TOL) -> TransitionGrid:
    """The supplied grid, which must be the channel's and hold input levels
    0..i_need, or a new adaptive grid of rows 0..i_need."""
    if grid is None:
        return grid_recurrence(abgx(spec), i_need, tail_tol)
    require(grid.params == abgx(spec), "grid.params", grid.params,
            "the parameters of the channel checked")
    require(grid.i_max >= i_need, "grid.i_max", grid.i_max, f"grid.i_max >= {i_need}")
    return grid


def ladder_verify(spec: ChannelSpec, i_max: int = 30, tol: float = DEFAULT_TOL,
                  tail_tol: float = DEFAULT_TAIL_TOL,
                  grid: Optional[TransitionGrid] = None) -> LadderReport:
    """Check that each output row majorizes the next one, for Fock inputs
    0..i_max, and cross-check each step through the ladder matrix.

    One check_rows call validates rows 0..i_max. The steps are then walked
    in blocks of whole rows, at most SCAN_CHUNK_CELLS cells each (one row
    at least): each block's next rows are sorted and summed once
    (raw_prefix_sums, with the stable sort that suits unimodal rows),
    their margins taken against the prefix row before
    them (the previous block's last) and decided in one decide call, and
    one ladder_matvec over the block's rows, against the rows one further,
    witnesses its steps. Every row is compared with the next exactly as
    compare_stack would compare rows[:-1] with rows[1:], so the blocks
    leave no trace in the report, and no temporary is larger than a few
    blocks. The rows are those of grid when one is supplied (rows 0..i_max
    of it; tail_tol then plays no part), else of a new adaptive grid.
    Raises DomainError unless 1 <= i_max <= HARD_CAP, check_tol accepts
    tol and the grid is the channel's with grid.i_max >= i_max (tail_tol
    as grid_recurrence), and NormalizationError naming the first row t[r]
    that is not a distribution."""
    i_max = check_index("i_max", i_max, 1)
    check_tol(tol)
    grid = _ensure_grid(spec, i_max, grid, tail_tol)
    params, rows, tails = grid.params, grid.rows[:i_max + 1], grid.tails[:i_max + 1]
    check_rows(rows, tails, "t")
    block = max(1, SCAN_CHUNK_CELLS // rows.shape[1])
    prefix = np.empty((min(block, i_max) + 1, rows.shape[1]))
    raw_prefix_sums(rows[:1], sort=True, out=prefix[:1], kind="stable")
    stacks, witness_err = [], 0.0
    for lo in range(0, i_max, block):
        hi = min(lo + block, i_max)  # steps lo..hi-1 compare rows lo..hi
        n = hi - lo
        raw_prefix_sums(rows[lo + 1:hi + 1], sort=True, out=prefix[1:n + 1], kind="stable")
        stacks.append(decide(prefix[:n] - prefix[1:n + 1], tol, tails[lo:hi],
                             tails[lo + 1:hi + 1]))
        prefix[0] = prefix[n]
        image = ladder_matvec(params.alpha, params.beta, params.nu, rows[lo:hi])
        image -= rows[lo + 1:hi + 1]
        witness_err = max(witness_err, float(np.abs(image, out=image).max()))
    steps = VerdictStack(*(np.concatenate([getattr(s, f.name) for s in stacks])
                           for f in fields(VerdictStack)))
    verdicts = tuple(steps.verdict(i) for i in range(i_max))
    passed = all(v.holds_left for v in verdicts) and witness_err <= tol
    return LadderReport(channel=spec, i_max=i_max, verdicts=verdicts,
                        worst_slack=float(steps.left_slack.min()),
                        witness_max_err=witness_err, passed=passed)


# ---------------------------------------------------------------------------
# Mixture properties
# ---------------------------------------------------------------------------

def _output_of_weights(grid: TransitionGrid, W,
                       offset: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Channel outputs of the Fock mixtures sum_i W[..., i] |i+offset><i+offset|,
    one per row of a stack W: the weights W @ rows[offset:offset+L] and
    the tails W @ tails[offset:offset+L], L = W.shape[-1]."""
    W = np.asarray(W, dtype=np.float64)
    levels = slice(offset, offset + W.shape[-1])
    return W @ grid.rows[levels], W @ grid.tails[levels]


def mixture_checks(spec: ChannelSpec, mode: str, draws, tol: float = DEFAULT_TOL,
                   grid: Optional[TransitionGrid] = None) -> VerdictStack:
    """One mixture check per draw (coeffs, k); row r of the returned stack is
    draw r's verdict, left output against right.

    mode "shift": the mixture sum_j coeffs[j] |j><j| against itself shifted
    up by k levels; "lowest": Fock state k against sum_j coeffs[j] |k+j><k+j|.
    The right output must equal D**k or sum_j coeffs[j] D**j applied to the
    left one. All 2R outputs come from one 2R-row weight matrix (R left
    mixtures, then R right ones), one prefix_sums pass and one decide call,
    and each degree of D is one ladder_matvec over the R left outputs.
    Every draw's k and coefficient shape are checked first, draw by draw;
    then check_coefficient_rows tests all the coefficient vectors at once
    and names the first that is not a probability distribution (with one
    draw, in check_coefficients' words). So a k or shape error in a later
    draw is raised before a value error in an earlier one, and each draw's
    verdict is the one it gets alone. Raises WitnessError naming the first
    draw that deviates beyond tol, DomainError for an unknown mode or no
    draws, and as check_index, check_coefficients and check_tol for the
    other arguments, all before any grid is built.
    """
    require(mode in ("shift", "lowest"), "mode", mode, "'shift' or 'lowest'")
    draws = [(check_index("k", k), check_coefficient_shape(c)) for c, k in draws]
    require(len(draws) > 0, "draws", draws, "at least one (coeffs, k) draw")
    check_coefficient_rows([c for _, c in draws])
    top = check_index("k + len(coeffs) - 1", max(k + len(c) - 1 for k, c in draws))
    check_tol(tol)
    grid = _ensure_grid(spec, top, grid)
    R, shift = len(draws), mode == "shift"
    low = 0 if shift else min(k for k, _ in draws)
    W = np.zeros((2 * R, top + 1 - low))
    poly = np.zeros((R, 1 + max(k if shift else len(c) - 1 for k, c in draws)))
    for r, (k, c) in enumerate(draws):
        W[R + r, k - low:k - low + len(c)] = c
        if shift:
            W[r, :len(c)] = c
            poly[r, k] = 1.0
        else:
            W[r, k - low] = 1.0
            poly[r, :len(c)] = c
    out, tails = _output_of_weights(grid, W, offset=low)
    prefix = prefix_sums(out, tails, sort=True, name="mixture output")
    verdicts = decide(prefix[:R] - prefix[R:], tol, tails[:R], tails[R:])
    p, v = grid.params, out[:R]
    image = poly[:, :1] * v
    for d in range(1, poly.shape[1]):
        v = ladder_matvec(p.alpha, p.beta, p.nu, v)
        image += poly[:, d:d + 1] * v
    err = np.abs(image - out[R:]).max(axis=1)
    if (err > tol).any():
        r = int(np.argmax(err > tol))
        what = (f"D^{draws[r][0]} image deviates from the shifted output" if shift
                else "convex-combination image deviates from the mixture output")
        raise WitnessError(f"draw {r}: {what} by {err[r]:.3e}")
    return verdicts


def mixture_shift_check(spec: ChannelSpec, coeffs, k: int, tol: float = DEFAULT_TOL,
                        grid: Optional[TransitionGrid] = None) -> MajorizationVerdict:
    """Output of a Fock mixture against the output of the same mixture
    shifted up by k levels, witnessed through D**k: one mixture_checks row."""
    return mixture_checks(spec, "shift", [(coeffs, k)], tol, grid).verdict(0)


def mixture_vs_lowest_fock(spec: ChannelSpec, coeffs, k: int, tol: float = DEFAULT_TOL,
                           grid: Optional[TransitionGrid] = None) -> MajorizationVerdict:
    """Output of Fock state k against that of a mixture whose lowest component
    is k, witnessed through sum_j coeffs[j] D**j: one mixture_checks row."""
    return mixture_checks(spec, "lowest", [(coeffs, k)], tol, grid).verdict(0)


# ---------------------------------------------------------------------------
# Passive-path scan over binary Fock mixtures
# ---------------------------------------------------------------------------

MAX_SCAN_LENGTH = 16
# Consecutive groups of patterns are merged into spans of at most
# SCAN_CHUNK_CELLS cells, each decided in one prefix_sums and one decide
# call; a larger group is done in row chunks of this size. Temporaries
# beyond the chunks are two arrays the size of the largest group,
# C(L, L//2) x width floats (62 MiB at L = 16, width 314).


def _passive_move(code):
    """One passive-path move on a pattern encoded as an integer whose most
    significant of `length` bits is Fock level 0 (so enumeration order is
    numeric order); works elementwise on integer arrays.

    The shortest unsorted suffix of a pattern reads 0 1..1 0..0, ending in
    its highest occupied levels; sorting it descending moves that run of
    ones one level lower, which adds the run to the code. The result is
    at least 1 << length exactly when the pattern was already passive.
    """
    return code + (code & ~(code + (code & -code)))


@dataclass(frozen=True)
class BinaryPattern:
    """Uniform mixture of the Fock states flagged by a 0/1 occupation string.

    Bit position 0 is Fock index 0, so pushing ones to the left lowers the
    energy; the passive arrangement has all ones first.
    """

    bits: tuple

    def __post_init__(self):
        require(all(b in (0, 1) for b in self.bits) and 1 in self.bits, "bits",
                self.bits, "0s and 1s with at least one occupied level")

    @classmethod
    def from_string(cls, text: str) -> "BinaryPattern":
        return cls(tuple(int(ch) if ch in "01" else ch for ch in text))

    def __str__(self) -> str:
        return "".join(str(b) for b in self.bits)


def passive_path(pattern: BinaryPattern) -> list[BinaryPattern]:
    """Path from the pattern to its passive arrangement.

    Each move keeps the longest possible prefix fixed and rearranges the
    remaining suffix to its minimal-energy order; the conjecture under
    test says every such move lowers the output disorder.
    """
    length = len(pattern.bits)
    path = [pattern]
    code = _passive_move(int(str(pattern), 2))
    while not code >> length:
        path.append(BinaryPattern.from_string(format(code, f"0{length}b")))
        code = _passive_move(code)
    return path


@dataclass(frozen=True)
class _ScanPlan:
    """The channel-independent part of a passive-path scan of one length.

    Rows are the patterns with at least two ones, grouped by their number
    of ones. Every check compares a non-passive pattern with its passive-
    path move (for the swap check, core+110 is the move of core+011), so
    it is named by that pattern's row: one verdict per row decides every
    check. `compared` lists the checks, swaps first, then the path moves
    of every pattern in enumeration order.

    A pattern's parent is the same pattern with its highest occupied level
    cleared, so it sits in the group with one fewer one. For k = 2 the
    parent holds a single one, which is not a row: parent then holds that
    level, the grid row the output is built from.
    """

    bits: np.ndarray      # (rows, length) 0/1 matrix
    groups: tuple         # (k, first row, (rows, k) levels of the ones) per number of ones k
    next_row: np.ndarray  # row of each pattern's move, -1 for the passive pattern
    parent: np.ndarray    # row of the pattern without its highest one; for k = 2, its level
    compared: np.ndarray
    n_patterns: int
    n_swap: int
    n_steps: int
    energy_violations: tuple  # checks whose move raises the input energy


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@functools.lru_cache(maxsize=MAX_SCAN_LENGTH + 1)
def _scan_plan(length: int) -> _ScanPlan:
    codes = np.arange(1 << length)
    bits_all = (codes[:, None] >> np.arange(length - 1, -1, -1)) & 1
    n_ones = bits_all.sum(axis=1)
    moves = _passive_move(codes)
    passive = (moves >> length) != 0
    starts = codes[n_ones >= 2]

    # path moves of every start pattern, in enumeration order
    depth = np.zeros(len(starts), dtype=np.intp)
    cur = starts.copy()
    while True:
        alive = ~passive[cur]
        if not alive.any():
            break
        depth += alive
        cur[alive] = moves[cur[alive]]
    offsets = np.cumsum(depth) - depth
    steps = np.empty(int(depth.sum()), dtype=np.intp)
    cur = starts.copy()
    for s in range(int(depth.max(initial=0))):
        alive = depth > s
        steps[offsets[alive] + s] = cur[alive]
        cur[alive] = moves[cur[alive]]
    swaps = np.arange(1 << length >> 3) << 3 | 0b011  # core+011 for every core
    checked = np.concatenate([swaps, steps])

    order = starts[np.argsort(n_ones[starts], kind="stable")]
    row_of = np.full(2 << length, -1, dtype=np.intp)  # moves of passive codes land at -1
    row_of[order] = np.arange(len(order))
    bits = bits_all[order].astype(np.uint8)
    next_row = row_of[moves[order]]
    parent = row_of[order - (order & -order)]  # the lowest bit is the highest level
    groups = []
    for k in range(2, length + 1):
        rows = np.flatnonzero(n_ones[order] == k)
        if len(rows):
            ones = np.nonzero(bits[rows])[1].reshape(len(rows), k)
            groups.append((k, int(rows[0]), _readonly(ones)))
            if k == 2:
                parent[rows] = ones[:, 0]

    energy = (bits * np.arange(length)).sum(axis=1) / n_ones[order]
    raises = (next_row >= 0) & (energy[next_row] > energy)
    compared = row_of[checked]
    return _ScanPlan(
        bits=_readonly(bits), groups=tuple(groups), next_row=_readonly(next_row),
        parent=_readonly(parent),
        compared=_readonly(compared), n_patterns=len(starts), n_swap=len(swaps),
        n_steps=len(steps), energy_violations=tuple(np.flatnonzero(raises[compared]).tolist()))


def _label(bits) -> str:
    return "".join(str(int(b)) for b in bits)


def _spans(groups, chunk_rows: int) -> list:
    """Consecutive groups merged while their rows fit in chunk_rows; a larger
    group is a span of its own. The lone passive pattern of k = length
    compares with nothing and is left out."""
    spans, rows = [], 0
    for group in groups:
        n = len(group[2])
        if n < 2:
            continue
        if spans and rows + n <= chunk_rows:
            spans[-1].append(group)
            rows += n
        else:
            spans.append([group])
            rows = n
    return spans


def _decide_plan(grid: TransitionGrid, plan: _ScanPlan, tol: float):
    """Relation code (index into RELATIONS), worst slack and left slack of every row's check on
    this grid (unset for passive rows).

    Each pattern's unnormalized output is its parent's plus the grid row of
    its highest level: the rows accumulate in ascending level order, as
    grid.rows[ones].sum(axis=0) does, so every output is bit-identical to
    a per-pattern computation. A move keeps the number of ones, so no pair
    crosses a group: each span of whole groups (see _spans) is validated,
    sorted and summed in one prefix_sums call and decided in one decide
    call, and only a group larger than the chunk is done in row chunks.
    The previous group's sums are dropped once the next group is built
    from them, before any prefix sums exist, so beyond chunk-sized
    temporaries at most two arrays the size of the largest group are held.
    """
    n_rows, width = len(plan.bits), grid.rows.shape[1]
    chunk_rows = max(1, SCAN_CHUNK_CELLS // width)
    relation = np.zeros(n_rows, dtype=np.int8)
    worst = np.zeros(n_rows)
    left_slack = np.full(n_rows, np.inf)
    prev, prev_first = grid.rows, 0  # group k-1's sums; the grid rows for k = 2
    for span in _spans(plan.groups, chunk_rows):
        first = span[0][1]
        n = sum(len(ones) for _, _, ones in span)
        sums, scale, tails = np.empty((n, width)), np.empty((n, 1)), np.empty(n)
        for k, start, ones in span:
            at = start - first
            for lo in range(0, len(ones), chunk_rows):
                hi = min(lo + chunk_rows, len(ones))
                out = sums[at + lo:at + hi]
                np.take(prev, plan.parent[start + lo:start + hi] - prev_first, axis=0,
                        out=out, mode="clip")  # in range; "raise" would buffer out
                out += grid.rows[ones[lo:hi, -1]]
            prev, prev_first = sums[at:at + len(ones)], start
            scale[at:at + len(ones)] = k
            tails[at:at + len(ones)] = grid.tails[ones].sum(axis=1) / k
        prefix = np.empty((n, width))
        for lo in range(0, n, chunk_rows):
            prefix[lo:lo + chunk_rows] = prefix_sums(
                sums[lo:lo + chunk_rows] / scale[lo:lo + chunk_rows],
                tails[lo:lo + chunk_rows], sort=True, name="pattern output")
        right = np.flatnonzero(plan.next_row[first:first + n] >= 0)
        left = plan.next_row[first + right] - first
        for lo in range(0, len(right), chunk_rows):
            a, b = left[lo:lo + chunk_rows], right[lo:lo + chunk_rows]
            v = decide(prefix[a] - prefix[b], tol, tails[a], tails[b])
            relation[first + b] = v.codes
            worst[first + b] = v.worst_slack
            left_slack[first + b] = v.left_slack
        del prefix, sums  # prev keeps the last group's sums alive
    return relation, worst, left_slack


@dataclass(frozen=True)
class ConjectureReport:
    channel: ChannelSpec
    length: int
    seed: int
    n_patterns: int
    n_swap_checks: int
    n_chain_steps: int
    worst_slack: float
    violations: tuple
    passed: bool
    exploratory: tuple  # non-binary samples; reported, never asserted

    def to_json_dict(self) -> dict:
        return {
            "channel": self.channel.to_json_dict(),
            "length": self.length,
            "seed": self.seed,
            "n_patterns": self.n_patterns,
            "n_swap_checks": self.n_swap_checks,
            "n_chain_steps": self.n_chain_steps,
            "worst_slack": self.worst_slack,
            "violations": list(self.violations),
            "pass": self.passed,
            "exploratory": list(self.exploratory),
        }


def conjecture_scan(spec: ChannelSpec, length: int, tol: float = DEFAULT_TOL,
                    nonbinary_samples: int = 0, seed: int = DEFAULT_SEED,
                    grid: Optional[TransitionGrid] = None) -> ConjectureReport:
    """Exhaustively test, over binary patterns of the given length, that
    moving occupation toward lower Fock levels never increases the output
    disorder.

    Two checks per the scan contract: (a) for every core prefix, the
    pattern core+110 (ones left) must produce an output majorizing that
    of core+011; (b) along every pattern's passive path, input energy
    decreases and each output majorizes its predecessor's. Optionally
    samples occupation numbers beyond {0, 1}, where the relation is known
    to break down; those verdicts are reported but never asserted.

    The enumeration is planned once per length and cached; each scan then
    builds every pattern's output from its parent's with one row added,
    and decides every distinct compared pair in a few wide spans of whole
    groups of patterns with the same number of ones (see _decide_plan).
    Raises DomainError, before any grid is built, unless 2 <= length <= 16,
    check_tol accepts tol and nonbinary_samples and seed are indices.
    """
    length = check_index("length", length, 2, MAX_SCAN_LENGTH)
    check_tol(tol)
    nonbinary_samples = check_index("nonbinary_samples", nonbinary_samples)
    seed = check_index("seed", seed, 0, math.inf)
    grid = _ensure_grid(spec, length - 1, grid)
    plan = _scan_plan(length)
    relation, slack, left_slack = _decide_plan(grid, plan, tol)

    events = []
    for c in plan.energy_violations:
        r = plan.compared[c]
        events.append(((c, 0), {"check": "path-energy", "pattern": _label(plan.bits[r]),
                                "next": _label(plan.bits[plan.next_row[r]])}))
    for c in np.flatnonzero(~holds_left(relation[plan.compared])):
        r = plan.compared[c]
        found = {"check": "swap" if c < plan.n_swap else "path",
                 "pattern": _label(plan.bits[r])}
        if c >= plan.n_swap:
            found["next"] = _label(plan.bits[plan.next_row[r]])
        found["relation"] = RELATIONS[relation[r]].value
        found["slack"] = float(slack[r])
        events.append(((int(c), 1), found))
    violations = [found for _, found in sorted(events, key=lambda e: e[0])]

    exploratory = []
    if nonbinary_samples > 0:
        rng = np.random.default_rng(seed)
        samples = []
        for _ in range(nonbinary_samples):
            occ = rng.integers(0, 3, size=length)
            if occ.sum() < 2 or occ.max() < 2:
                continue
            cut = int(rng.integers(0, length - 1))
            rearranged = np.concatenate([occ[:cut], np.sort(occ[cut:])[::-1]])
            if (rearranged == occ).all():
                continue
            samples.append((occ, rearranged))
        if samples:
            W = np.array([[r / r.sum() for _, r in samples],
                          [occ / occ.sum() for occ, _ in samples]])
            out, tails = _output_of_weights(grid, W)
            v = compare_stack(out[0], out[1], tails[0], tails[1], tol)
            for r, (occ, rearranged) in enumerate(samples):
                exploratory.append({"occupation": occ.tolist(),
                                    "rearranged": rearranged.tolist(),
                                    "relation": RELATIONS[v.codes[r]].value,
                                    "slack": float(v.worst_slack[r])})

    worst = float(left_slack.min(initial=np.inf))
    worst = worst if np.isfinite(worst) else 0.0
    return ConjectureReport(
        channel=spec, length=length, seed=seed, n_patterns=plan.n_patterns,
        n_swap_checks=plan.n_swap, n_chain_steps=plan.n_steps,
        worst_slack=worst, violations=tuple(violations), passed=not violations,
        exploratory=tuple(exploratory))


# ---------------------------------------------------------------------------
# Counterexample search
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CorpusPair:
    """An ordered input pair: either energy(rho) <= energy(sigma), or rho
    dominates sigma in unsorted (Fock-order) prefix sums."""

    rho: FockDiagonalState
    sigma: FockDiagonalState
    kind: str  # "energy" or "fock"
    label: str


def make_counterexample_corpus(seed: int = DEFAULT_SEED) -> list[CorpusPair]:
    """Seeded corpus of ordered input pairs, 24 random ones of each kind.

    Energy-ordered pairs mix a low Fock state against spread-out mixtures
    of higher mean energy (the kind of pair whose outputs typically become
    incomparable); Fock-ordered pairs are built by moving mass toward
    lower levels, which enforces dominance by construction.
    """
    seed = check_index("seed", seed, 0, math.inf)
    rng = np.random.default_rng(seed)
    pairs = []

    def fds(values) -> FockDiagonalState:
        return FockDiagonalState.from_weights(np.asarray(values, dtype=np.float64))

    spread = {
        "fock1-vs-mix03": (fds([0, 1]), fds([0.5, 0, 0, 0.5])),
        "fock1-vs-mix04": (fds([0, 1]), fds([0.5, 0, 0, 0, 0.5])),
        "fock2-vs-mix05": (fds([0, 0, 1]), fds([0.5, 0, 0, 0, 0, 0.5])),
        "fock1-vs-mix004": (fds([0, 1]), fds([0.6, 0, 0, 0, 0.4])),
    }
    for label, (rho, sigma) in spread.items():
        if rho.energy <= sigma.energy:
            pairs.append(CorpusPair(rho, sigma, "energy", label))

    for j in range(24):
        size_r = int(rng.integers(2, 5))
        size_s = int(rng.integers(2, 5))
        sup_r = rng.choice(13, size=size_r, replace=False)
        sup_s = rng.choice(13, size=size_s, replace=False)
        a = np.zeros(13)
        b = np.zeros(13)
        a[sup_r] = rng.dirichlet(np.ones(size_r))
        b[sup_s] = rng.dirichlet(np.ones(size_s))
        rho, sigma = fds(a), fds(b)
        if rho.energy > sigma.energy:
            rho, sigma = sigma, rho
        pairs.append(CorpusPair(rho, sigma, "energy", f"random-energy-{j}"))

    for i, j in ((0, 1), (1, 3), (2, 5)):
        pairs.append(CorpusPair(FockDiagonalState.point_mass(i, j + 1),
                                FockDiagonalState.point_mass(j, j + 1),
                                "fock", f"fock{i}-vs-fock{j}"))
    for j in range(24):
        size = int(rng.integers(3, 7))
        sigma_w = np.zeros(11)
        sigma_w[rng.choice(11, size=size, replace=False)] = rng.dirichlet(np.ones(size))
        rho_w = sigma_w.copy()
        for _ in range(int(rng.integers(1, 4))):
            src = int(rng.integers(1, 11))
            dst = int(rng.integers(0, src))
            amount = rho_w[src] * rng.uniform(0.2, 1.0)
            rho_w[src] -= amount
            rho_w[dst] += amount
        pairs.append(CorpusPair(fds(rho_w), fds(sigma_w), "fock", f"random-fock-{j}"))
    return pairs


@dataclass(frozen=True)
class FindingsReport:
    """Search outcome on one channel: energy-ordered pairs whose outputs
    fail to majorize (the sought witnesses), and confirmation that Fock-order
    dominance survives the channel for every fock-ordered pair."""

    channel: ChannelSpec
    n_energy_pairs: int
    n_fock_pairs: int
    n_skipped: int
    energy_witnesses: tuple
    fock_worst_slack: float
    fock_ok: bool


def counterexample_search(spec: ChannelSpec, corpus: list[CorpusPair],
                          tol: float = DEFAULT_TOL,
                          grid: Optional[TransitionGrid] = None) -> FindingsReport:
    """Push every corpus pair through the channel.

    Energy-ordered pairs whose outputs are incomparable (or majorize the
    wrong way) are returned as witnesses that input energy ordering does
    not control output majorization. Fock-ordered pairs must keep their
    Fock-order dominance at the output; the worst margin is reported.
    Pairs whose energy ordering could be explained by truncated tail mass
    are skipped, not guessed. An input's tail mass is carried into its
    output's tail. All outputs come from one matrix product, and each kind
    of pair is decided in one compare_stack call. Raises DomainError for an
    empty corpus or a tol that check_tol rejects, before any grid is built.
    """
    require(len(corpus) > 0, "corpus", corpus, "at least one pair")
    check_tol(tol)
    levels = max(len(s.weights) for p in corpus for s in (p.rho, p.sigma))
    grid = _ensure_grid(spec, levels - 1, grid)
    W = np.zeros((2, len(corpus), levels))
    input_tails = np.zeros((2, len(corpus)))
    energy, fock = [], []
    for j, pair in enumerate(corpus):
        W[0, j, :len(pair.rho.weights)] = pair.rho.weights
        W[1, j, :len(pair.sigma.weights)] = pair.sigma.weights
        input_tails[:, j] = pair.rho.tail, pair.sigma.tail
        if pair.kind != "energy":
            fock.append(j)
            continue
        _, hi_r = pair.rho.energy_bounds()
        lo_s, _ = pair.sigma.energy_bounds()
        if not (hi_r > lo_s and pair.rho.tail + pair.sigma.tail > 0):
            energy.append(j)
    out, tails = _output_of_weights(grid, W)
    # an input's tail sits on levels beyond its weights, so its image is
    # output mass of unknown place: it joins the output tail
    tails += input_tails

    v = compare_stack(out[0, energy], out[1, energy], tails[0, energy], tails[1, energy], tol)
    witnesses = []
    for r in np.flatnonzero(~holds_left(v.codes)):
        found = v.verdict(r)
        witnesses.append({"label": corpus[energy[r]].label,
                          "relation": found.relation.value,
                          "slack": found.worst_slack,
                          "at_index": found.at_index})
    f = compare_stack(out[0, fock], out[1, fock], tails[0, fock], tails[1, fock], tol,
                      sort=False)
    return FindingsReport(
        channel=spec, n_energy_pairs=len(energy), n_fock_pairs=len(fock),
        n_skipped=len(corpus) - len(energy) - len(fock),
        energy_witnesses=tuple(witnesses),
        fock_worst_slack=float(f.left_slack.min()) if fock else 0.0,
        fock_ok=bool(holds_left(f.codes).all()))
