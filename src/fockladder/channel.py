"""Single-mode phase-covariant/contravariant bosonic Gaussian channels.

The four families are parametrized by their native physical quantities and
mapped to the four-tuple (alpha, beta, gamma, chi) that generates all
photon-number transition probabilities through

    h(x, z) = chi / (1 - alpha*x - beta*z - gamma*x*z).

Trace preservation forces alpha + beta + gamma = 1 and beta + chi = 1, so
each channel carries two independent parameters. The derived combination
nu = gamma + beta*alpha appears in the ladder matrix and is nonnegative
for every in-domain channel.
"""

from __future__ import annotations

import enum
import math
from dataclasses import asdict, dataclass
from fractions import Fraction
from typing import Optional

from .errors import check_real, require


class Family(str, enum.Enum):
    """The four channel families."""

    LOSSY = "lossy"        # beam splitter of transmittance eta, thermal environment N
    AMP = "amp"            # two-mode squeezer of gain g, thermal environment N
    NOISE = "noise"        # classical additive noise, n added thermal photons
    CONJ = "conj"          # phase-conjugating amplifier (output on the idler mode)

    @classmethod
    def parse(cls, text) -> "Family":
        aliases = {
            "lossy": cls.LOSSY, "loss": cls.LOSSY, "e": cls.LOSSY,
            "amp": cls.AMP, "amplifier": cls.AMP, "a": cls.AMP,
            "noise": cls.NOISE, "additive": cls.NOISE, "n": cls.NOISE,
            "conj": cls.CONJ, "conjugate": cls.CONJ, "atilde": cls.CONJ,
        }
        key = str(text).strip().lower()
        require(key in aliases, "family", text, f"one of {sorted(set(aliases))}")
        return aliases[key]


@dataclass(frozen=True)
class ChannelSpec:
    """A validated channel instance.

    Only the fields relevant to the family are set; the rest stay None.
    thermal_N is the mean photon number of the environment mode and enters
    the parameter table through y = N/(N+1), so 0 <= y < 1 always.
    """

    family: Family
    eta: Optional[float] = None        # transmittance, LOSSY only, in [0, 1]
    g: Optional[float] = None          # gain, AMP/CONJ only, >= 1
    thermal_N: Optional[float] = None  # environment mean photon number, >= 0
    added_n: Optional[float] = None    # added classical noise photons, NOISE only

    @property
    def y(self) -> float:
        N = self.thermal_N or 0.0
        return N / (N + 1.0)

    def label(self) -> str:
        if self.family is Family.LOSSY:
            return f"lossy(eta={self.eta:g},N={self.thermal_N:g})"
        if self.family is Family.AMP:
            return f"amp(g={self.g:g},N={self.thermal_N:g})"
        if self.family is Family.CONJ:
            return f"conj(g={self.g:g},N={self.thermal_N:g})"
        return f"noise(n={self.added_n:g})"

    def to_json_dict(self) -> dict:
        """Flat record with the CLI flag names: family, eta, g, N, n."""
        out = {"family": self.family.value}
        for key, attr in (("eta", "eta"), ("g", "g"), ("N", "thermal_N"),
                          ("n", "added_n")):
            value = getattr(self, attr)
            if value is not None:
                out[key] = value
        return out


@dataclass(frozen=True)
class ChannelParams:
    """The generating-function four-tuple plus the derived nu = gamma + beta*alpha."""

    alpha: float
    beta: float
    gamma: float
    chi: float
    nu: float

    def to_json_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of the parameter identity and sign checks."""

    checks: dict
    ok: bool
    notes: tuple


def make_channel(family, eta=None, g=None, thermal_N=None, added_n=None) -> ChannelSpec:
    """Validate native parameters and build a ChannelSpec.

    Raises DomainError naming the offending parameter. Boundary values
    (eta=1, g=1, added_n=0) are admitted and give the identity channel,
    except for the conjugating family where g=1 replaces the input with
    the environment state (flagged by validate_params). Parameters whose
    binary64 table row has y = 1 or beta = 1 (chi = 0) are out of domain.
    """
    if not isinstance(family, Family):
        family = Family.parse(family)

    if family is Family.NOISE:
        spec = ChannelSpec(family, added_n=check_real(
            "added_n", added_n, "added_n >= 0", lambda x: x >= 0.0))
    else:
        N = check_real("thermal_N", 0.0 if thermal_N is None else thermal_N,
                       "thermal_N >= 0", lambda x: x >= 0.0)
        if family is Family.LOSSY:
            spec = ChannelSpec(family, thermal_N=N, eta=check_real(
                "eta", eta, "0 <= eta <= 1", lambda x: 0.0 <= x <= 1.0))
        else:
            spec = ChannelSpec(family, thermal_N=N,
                               g=check_real("g", g, "g >= 1", lambda x: x >= 1.0))
    require(spec.y < 1.0, "thermal_N", spec.thermal_N,
            "thermal_N/(thermal_N+1) < 1 in binary64")
    strength = {Family.LOSSY: "thermal_N", Family.NOISE: "added_n"}.get(family, "g")
    require(abgx(spec).beta < 1.0, strength, getattr(spec, strength),
            "a table row with beta < 1 in binary64")
    return spec


def abgx(spec: ChannelSpec) -> ChannelParams:
    """Evaluate the parameter table row for the given channel.

    With y = N/(N+1):

        lossy:  alpha = (1-eta)/(1-eta*y)   beta = y*(1-eta)/(1-eta*y)
                gamma = (eta-y)/(1-eta*y)   chi  = (1-y)/(1-eta*y)
        amp:    alpha = y*(g-1)/(g-y)       beta = (g-1)/(g-y)
                gamma = (1-g*y)/(g-y)       chi  = (1-y)/(g-y)
        noise:  alpha = n/(n+1)             beta = n/(n+1)
                gamma = (1-n)/(n+1)         chi  = 1/(n+1)
        conj:   alpha = (g*y-y+1)/g         beta = (g+y-1)/g
                gamma = -y                  chi  = (1-y)/g

    The tuple is then moved to the binary64 values nearest exact trace
    preservation. chi = 1 - beta, which is exact for beta >= 1/2 by
    Sterbenz's lemma. gamma becomes the binary64 value nearest the exact
    1 - alpha - beta (math.fsum rounds the exact sum once), a move within
    the rounding of the table (below 1e-15); a gamma the table gives as
    exactly 0 stays 0, and alpha = 1 - beta instead. Each output row sums
    to (alpha+gamma)/(1-beta) times the previous one, so a residual
    alpha+beta+gamma-1 of one ulp would grow by a factor 1/(1-beta) per
    row (about 1e-12 by row 50 at beta = 0.995).
    """
    y = spec.y
    if spec.family is Family.LOSSY:
        eta = spec.eta
        d = 1.0 - eta * y
        alpha = (1.0 - eta) / d
        beta = y * (1.0 - eta) / d
        gamma = (eta - y) / d
    elif spec.family is Family.AMP:
        g = spec.g
        d = g - y
        alpha = y * (g - 1.0) / d
        beta = (g - 1.0) / d
        gamma = (1.0 - g * y) / d
    elif spec.family is Family.NOISE:
        n = spec.added_n
        alpha = beta = n / (n + 1.0)
        gamma = (1.0 - n) / (n + 1.0)
    else:
        g = spec.g
        alpha = (g * y - y + 1.0) / g
        beta = (g + y - 1.0) / g
        gamma = -y
    if gamma == 0.0:
        alpha = 1.0 - beta
    else:
        gamma = math.fsum((1.0, -alpha, -beta))
    return ChannelParams(alpha, beta, gamma, 1.0 - beta, nu=gamma + beta * alpha)


def validate_params(p: ChannelParams,
                    spec: Optional[ChannelSpec] = None) -> ValidationReport:
    """Check the two affine identities and the sign conditions.

    Each entry of the report maps a check name to (passed, residual). The
    residuals of the three identities are evaluated exactly in rationals
    and then rounded to binary64, so a reported 0.0 means the identity
    holds exactly for the binary64 tuple; an identity passes within 1e-14.
    Sign conditions get 1e-15 slack on top of exact bounds.
    """
    slack = 1e-15
    alpha, beta, gamma, chi, nu = map(Fraction, (p.alpha, p.beta, p.gamma, p.chi, p.nu))
    residuals = {
        "alpha+beta+gamma=1": float(alpha + beta + gamma - 1),
        "beta+chi=1": float(beta + chi - 1),
        "nu=gamma+beta*alpha": float(nu - gamma - beta * alpha),
    }
    checks = {name: (abs(r) <= 1e-14, r) for name, r in residuals.items()}
    checks.update({
        "alpha>=0": (p.alpha >= -slack, p.alpha),
        "0<=beta<1": (-slack <= p.beta < 1.0, p.beta),
        "nu>=0": (p.nu >= -slack, p.nu),
        "0<chi<=1": (slack < p.chi <= 1.0 + slack, p.chi),
    })
    notes = []
    if spec is not None and spec.family is Family.CONJ and spec.g == 1.0:
        notes.append("conj family at g=1: every input is replaced by the "
                     "environment thermal state (nu=0, all output rows equal)")
    ok = all(passed for passed, _ in checks.values())
    return ValidationReport(checks=checks, ok=ok, notes=tuple(notes))


class LimitRoute(str, enum.Enum):
    """How to realize added classical noise as a limit of the other families."""

    VIA_LOSS = "loss"   # eta = 1 - eps, N = n/eps
    VIA_AMP = "amp"     # g = 1 + eps, N = n/eps


def noise_limit_params(n: float, eps: float, route: LimitRoute) -> ChannelParams:
    """Parameters of the added-noise channel approached through a weak-coupling
    limit: transmittance 1-eps (or gain 1+eps) with environment N = n/eps.

    Converges linearly in eps to the direct added-noise row; exists for
    validating that row, which production code evaluates directly.
    """
    eps = check_real("eps", eps, "0 < eps < 1", lambda x: 0.0 < x < 1.0)
    n = check_real("n", n, "n >= 0", lambda x: x >= 0.0)
    require(route in tuple(LimitRoute), "route", route,
            f"one of {[r.value for r in LimitRoute]}")
    route = LimitRoute(route)
    if route is LimitRoute.VIA_LOSS:
        return abgx(make_channel(Family.LOSSY, eta=1.0 - eps, thermal_N=n / eps))
    return abgx(make_channel(Family.AMP, g=1.0 + eps, thermal_N=n / eps))
