"""Test helper: the dense EndField oracle of the Clifford relations and the
induced bi-quaternion algebra.

``clifford.check_relations`` decides the relations on one table of kernel
products of the generators' numerators over their base
(``clifford._ProductTable``); ``induce`` derives the multiplication table
from the six Clifford relations and ``project`` the projection identities
from the table, neither multiplying it out.  Here the same identities are
checked literally, one ScalarField ``EndField`` product at a time, and
G+-, I_i+- are multiplied out.
"""

from fractions import Fraction

from gencliff.clifford import (RelationCheck, RelationsReport, levi_civita)
from gencliff.gcs import EndField, is_orthogonal
from gencliff.scalar import ScalarField


def check_relations(T):
    """I_i I_j + I_j I_i = -2 delta_ij Id for the six unordered pairs, then
    orthogonality of each generator."""
    chart = T.chart
    gens = T.generators
    checks = []
    minus2 = EndField.identity(chart).scale(ScalarField.constant(chart, -2))
    for i in range(3):
        for j in range(i, 3):
            anti = (gens[i] @ gens[j]) + (gens[j] @ gens[i])
            if i == j:
                ok = anti.entries_equal(minus2)
                checks.append(RelationCheck(f"I{i+1}^2 = -Id", ok))
            else:
                checks.append(RelationCheck(
                    f"I{i+1} I{j+1} + I{j+1} I{i+1} = 0", anti.is_zero))
    for i, E in enumerate(gens):
        checks.append(RelationCheck(f"I{i+1} orthogonal", is_orthogonal(E)))
    checks = tuple(checks)
    return RelationsReport(checks, all(c.ok for c in checks))


def induce(T):
    """(J1, J2, J3, G, table_ok): J_i = eps_ijk I_j I_k / 2, G = -I1 I2 I3
    and the full multiplication table checked product by product."""
    chart = T.chart
    I = (None,) + T.generators
    half = ScalarField.constant(chart, Fraction(1, 2))
    J = [None, None, None, None]
    for i in (1, 2, 3):
        acc = None
        for j in (1, 2, 3):
            for k in (1, 2, 3):
                e = levi_civita(i, j, k)
                if e == 0:
                    continue
                term = (I[j] @ I[k]).scale(half)
                if e < 0:
                    term = -term
                acc = term if acc is None else acc + term
        J[i] = acc
    G = -(I[1] @ I[2] @ I[3])
    ident = EndField.identity(chart)

    def combo(base, i, j, fam):
        out = -base if i == j else None
        for k in (1, 2, 3):
            e = levi_civita(i, j, k)
            if e == 0:
                continue
            t = fam[k] if e > 0 else -fam[k]
            out = t if out is None else out + t
        return out

    ok = (G @ G).entries_equal(ident)
    for i in (1, 2, 3):
        for j in (1, 2, 3):
            ok = ok and (I[i] @ I[j]).entries_equal(combo(ident, i, j, J))
            ok = ok and (J[i] @ J[j]).entries_equal(combo(ident, i, j, J))
            ok = ok and (I[i] @ J[j]).entries_equal(combo(G, i, j, I))
            ok = ok and (J[i] @ I[j]).entries_equal(combo(G, i, j, I))
    return J[1], J[2], J[3], G, ok


def project(J, G, T):
    """(Gp, Gm, Ip, Im, identities_ok) for the J_i and G of ``induce``:
    G+- = (Id +- G)/2, I_i+- = (J_i +- I_i)/2, and (G+-)^2 = G+-,
    G+ + G- = Id, I_i+- I_j+- = -d_ij G+- + e_ijk I_k+- and every mixed
    +- product zero, checked product by product."""
    chart = T.chart
    half = ScalarField.constant(chart, Fraction(1, 2))
    ident = EndField.identity(chart)
    Gp = (ident + G).scale(half)
    Gm = (ident - G).scale(half)
    I = (None,) + T.generators
    J = (None,) + tuple(J)
    Ip = tuple((J[i] + I[i]).scale(half) for i in (1, 2, 3))
    Im = tuple((J[i] - I[i]).scale(half) for i in (1, 2, 3))

    ok = (Gp @ Gp).entries_equal(Gp) and (Gm @ Gm).entries_equal(Gm)
    ok = ok and (Gp + Gm).entries_equal(ident)
    for fam, gsec in ((Ip, Gp), (Im, Gm)):
        for i in (1, 2, 3):
            for j in (1, 2, 3):
                want = None
                if i == j:
                    want = -gsec
                for k in (1, 2, 3):
                    e = levi_civita(i, j, k)
                    if e == 0:
                        continue
                    t = fam[k - 1] if e > 0 else -fam[k - 1]
                    want = t if want is None else want + t
                ok = ok and (fam[i - 1] @ fam[j - 1]).entries_equal(want)
    for i in (1, 2, 3):
        ok = ok and (Gp @ Im[i - 1]).is_zero and (Gm @ Ip[i - 1]).is_zero
        ok = ok and (Ip[i - 1] @ Gm).is_zero and (Im[i - 1] @ Gp).is_zero
        for j in (1, 2, 3):
            ok = ok and (Ip[i - 1] @ Im[j - 1]).is_zero
            ok = ok and (Im[i - 1] @ Ip[j - 1]).is_zero
    ok = ok and (Gp @ Gm).is_zero and (Gm @ Gp).is_zero
    return Gp, Gm, Ip, Im, ok
