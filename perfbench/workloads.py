"""Workload definitions and the seeded input generator.

Every input is a JSON document in the ``gencliff verify --input`` format,
made from the workload seed alone, so the same seed gives byte-identical
inputs.  Coefficients are signed ratios of distinct primes drawn without
replacement, so sums of their products do not cancel by coincidence: the
sparsity of every generated structure -- and with it the amount of work --
does not depend on the seed (one sparsity pattern over seeds 0-59).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction

PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# Fixed monomial support of the R^3 flux coefficient (exponents of x1, x2, x3).
R3_FLUX_SUPPORT = ((0, 0, 0), (1, 0, 0), (0, 1, 1), (0, 0, 2))


@dataclass(frozen=True)
class Workload:
    name: str
    structure: str          # "r3-flux" or "hk4b"
    suites: tuple
    max_degree: int
    samples: int

    def verify_flags(self, seed: int) -> list:
        return ["--suite", ",".join(self.suites),
                "--max-degree", str(self.max_degree),
                "--samples", str(self.samples), "--seed", str(seed)]


WORKLOADS = {w.name: w for w in (
    Workload("axioms-r3-flux", "r3-flux", ("axioms",), 1, 1),
    Workload("integrability-hk4b", "hk4b",
             ("relations", "induced", "theorem11"), 1, 2),
    Workload("twistor-tduality-hk4b", "hk4b", ("theorem13", "tduality"), 1,
             5),
)}


@dataclass(frozen=True)
class Control:
    """A negative control: an input every correct verifier must reject."""
    name: str
    document: dict
    flags: tuple
    expected: dict          # suite name -> expected status
    witness_prefix: str     # every witness of the failing suite starts so


def seeded_rationals(seed: int, count: int) -> list:
    """``count`` nonzero rationals +-p/q over distinct primes."""
    if 2 * count > len(PRIMES):
        raise ValueError("not enough distinct primes")
    rng = random.Random(seed)
    primes = rng.sample(PRIMES, 2 * count)
    return [Fraction(rng.choice((-1, 1)) * primes[2 * k], primes[2 * k + 1])
            for k in range(count)]


def _term(coeff: Fraction, exps) -> str:
    mono = "*".join(f"x{i + 1}^{e}" if e > 1 else f"x{i + 1}"
                    for i, e in enumerate(exps) if e)
    return f"({coeff})" + (f"*{mono}" if mono else "")


def r3_flux_document(seed: int) -> dict:
    """A chart-only R^3 input with a polynomial flux.  Every 3-form on R^3
    is closed, so the Courant axioms hold and ``pass`` is the truth."""
    coeffs = seeded_rationals(seed, len(R3_FLUX_SUPPORT))
    expr = " + ".join(_term(c, m) for c, m in zip(coeffs, R3_FLUX_SUPPORT))
    return {"chart": {"dim": 3, "coords": ["x1", "x2", "x3"]},
            "flux": [{"indices": [1, 2, 3], "coeff": expr}]}


def _triple_document(gens) -> dict:
    chart = gens[0].chart
    return {"chart": {"dim": chart.dim, "coords": list(chart.names)},
            "triple": {f"I{k + 1}": [[str(f) for f in row]
                                     for row in E.entries]
                       for k, E in enumerate(gens)},
            "tduality": {"dual_index": 1}}


def _bfield_triple(B) -> list:
    import gencliff
    return [gencliff.bfield_transform(E, B)
            for E in gencliff.hyperkahler_r4().generators]


def hk4b_document(seed: int) -> dict:
    """``hyperkahler_r4`` transformed by a constant B-field with six nonzero
    seeded entries.  A constant B is closed, so the transformed triple is
    integrable with zero flux and every suite must pass."""
    from gencliff import KForm, ScalarField, standard_chart
    chart = standard_chart(4)
    pairs = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    coeffs = {p: ScalarField.constant(chart, c)
              for p, c in zip(pairs, seeded_rationals(seed, len(pairs)))}
    return _triple_document(_bfield_triple(KForm(chart, 2, coeffs)))


def document(workload: Workload, seed: int) -> dict:
    if workload.structure == "r3-flux":
        return r3_flux_document(seed)
    return hk4b_document(seed)


def controls() -> list:
    """The two negative controls; they are the same for every seed."""
    from gencliff import KForm, ScalarField, standard_chart
    chart = standard_chart(4)
    B = KForm.basis(chart, (1, 2)).scale(ScalarField.variable(chart, 0))
    return [
        # dH = dx4^dx1^dx2^dx3 != 0 breaks the twisted Jacobi identity.
        Control("nonclosed-flux-r4",
                {"chart": {"dim": 4},
                 "flux": [{"indices": [1, 2, 3], "coeff": "x4"}]},
                ("--suite", "axioms", "--max-degree", "0"),
                {"axioms": "fail"}, "Jacobi (twisted) fails"),
        # B = x1 dx2^dx3 is not closed; without its flux dB the transformed
        # triple keeps the Clifford relations but is not integrable.
        Control("nonclosed-bfield-hk4",
                _triple_document(_bfield_triple(B)),
                ("--suite", "relations,theorem11", "--max-degree", "1"),
                {"relations": "pass", "theorem11": "fail"}, "N("),
    ]


def dumps(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=1) + "\n"
