"""Generalized structures: orthogonality, the Nijenhuis tensors, vanishing
sweeps, the generalized metric, B-field transforms, lemma identities."""

import itertools
import random
from fractions import Fraction

import pytest

from gencliff.scalar import (GaussianRational, Poly, ScalarField, parse_expr,
                             standard_chart)
from gencliff.cartan import KForm, exterior_d
from gencliff.courant import (FluxForm, Section, frame_sections,
                              monomials_up_to, pairing)
from gencliff._core import kernel as K
from gencliff.gcs import (EndField, FluxMismatchError, _PowerDen, _eval_kernel,
                          _kernel_generators, _kernel_setup, _operand,
                          _residuals, bind_concomitant,
                          bind_nijenhuis, bind_real_nijenhuis, concomitant,
                          eigen_sections, bfield_transform, form_to_matrix,
                          generalized_metric, is_almost_gcs, is_almost_real,
                          is_orthogonal, lemma_identities, mat_inv, mat_mul,
                          nijenhuis, real_nijenhuis, vanishes,
                          generator_labels)
from gencliff.examples import QUAT_I, diag_type, hyperkahler_r4
from tests.layout import integral, packed, section_kernel_components
from tests.test_scalar import rnd_field


def generator_sections(chart, degree_bound):
    """Sections m * e_a in the same order as generator_labels."""
    out = []
    monos = monomials_up_to(chart, degree_bound)
    for a in range(2 * chart.dim):
        e = Section.frame(chart, a)
        for m in monos:
            out.append(e.scale(ScalarField.from_poly(m)))
    return out


def tensoriality_probe(tensor, f, A, B):
    """Defect N(fA, B) - f N(A, B); zero iff the binding is tensorial in its
    first slot at (A, B).  Reported, not asserted, for mixed concomitants."""
    return tensor.evaluate(A.scale(f), B) - tensor.evaluate(A, B).scale(f)


def concomitant_anomaly(W, m, a, mprime, b):
    """Closed-form Dorfman-Leibniz defect of the mixed concomitant for a
    commuting skew-adjoint pair (I, J) with W = I J constant, on the
    generator pair (m * e_a, m' * e_b):

        N(I,J)(f u, g v) = 2 g ( <u,v> W(df) - <u, W v> df ),

    u and v frame sections.  Derived by expanding all eight bracket terms
    with the Leibniz rules [fA,B] = f[A,B] - (rho(B)f) A + 2<A,B> df and
    [A,gB] = g[A,B] + (rho(A)g) B; the section-type terms cancel
    unconditionally and the df terms cancel exactly when I and J
    anticommute, leaving this expression in the commuting case (proof in
    ``gcs._commuting_symbol``; the kernel form is the defect of
    ``clifford._commuting_family_report``)."""
    chart = W.chart
    u = Section.frame(chart, a)
    v = Section.frame(chart, b)
    mp = ScalarField.from_poly(mprime) if not isinstance(mprime, ScalarField) \
        else mprime
    mf = ScalarField.from_poly(m) if not isinstance(m, ScalarField) else m
    df = Section.from_form(exterior_d(KForm.from_scalar(mf)))
    out = W.apply(df).scale(pairing(u, v)) - df.scale(pairing(u, W.apply(v)))
    return out.scale(mp * ScalarField.constant(chart, 2))

R2 = standard_chart(2)
R4 = standard_chart(4)


def identity_like(chart):
    return EndField.identity(chart)


def symplectic_r2():
    w = KForm.basis(R2, (0, 1))
    Wm = form_to_matrix(w)
    Winv = mat_inv(Wm, R2)
    zero = [[ScalarField.zero(R2)] * 2 for _ in range(2)]
    return EndField.from_blocks(R2, zero,
                                [[-x for x in r] for r in Winv], Wm, zero)


def metric_r2():
    one, zero = ScalarField.one(R2), ScalarField.zero(R2)
    return generalized_metric([[one, zero], [zero, one]],
                              [[zero, zero], [zero, zero]])


def diag_r2():
    return diag_type(((0, -1), (1, 0)), R2)


def rnd_section(rng, chart):
    return Section.from_components(
        chart, [rnd_field(rng, chart) for _ in range(2 * chart.dim)])


def oracle_mat_mul(A, B):
    """Entrywise ScalarField sum of products, written independently."""
    size = len(A)
    chart = A[0][0].chart
    return [[sum((A[i][k] * B[k][j] for k in range(size)),
                 ScalarField.zero(chart)) for j in range(size)]
            for i in range(size)]


def rnd_matrix(rng, chart):
    """Random 2n x 2n polynomial matrix with about a third zero entries."""
    size = 2 * chart.dim
    return [[ScalarField.zero(chart) if rng.random() < 0.35
             else rnd_field(rng, chart) for _ in range(size)]
            for _ in range(size)]


class TestMatMul:
    @pytest.mark.parametrize("n", [2, 3])
    def test_polynomial_operands_match_oracle(self, n):
        chart = standard_chart(n)
        rng = random.Random(40 + n)
        for _ in range(6):
            A, B = rnd_matrix(rng, chart), rnd_matrix(rng, chart)
            got = mat_mul(A, B)
            assert got == oracle_mat_mul(A, B)
            assert all(f.is_polynomial for row in got for f in row)
        # cancellation down to an exact zero entry
        one = ScalarField.one(chart)
        zero = ScalarField.zero(chart)
        size = 2 * n
        A = [[one] * size for _ in range(size)]
        B = [[zero] * size for _ in range(size)]
        B[0][0], B[1][0] = one, -one
        got = mat_mul(A, B)
        assert got == oracle_mat_mul(A, B)
        assert all(f.is_zero for row in got for f in row)

    def test_rational_operand_takes_scalar_route(self):
        chart = standard_chart(2)
        rng = random.Random(7)
        A, B = rnd_matrix(rng, chart), rnd_matrix(rng, chart)
        x1 = Poly.variable(chart, 0)
        B[1][2] = ScalarField(x1, x1 + 1)
        assert not B[1][2].is_polynomial
        for L, R in ((A, B), (B, A)):
            assert mat_mul(L, R) == oracle_mat_mul(L, R)


class TestStructurePredicates:
    def test_orthogonality(self):
        assert is_orthogonal(identity_like(R2))
        assert is_orthogonal(diag_r2())
        # a scaling is not orthogonal for the neutral pairing
        two = ScalarField.constant(R2, 2)
        one = ScalarField.one(R2)
        zero = ScalarField.zero(R2)
        E = EndField(R2, [[two, zero, zero, zero],
                          [zero, one, zero, zero],
                          [zero, zero, one, zero],
                          [zero, zero, zero, one]])
        assert not is_orthogonal(E)

    def test_almost_gcs(self):
        assert is_almost_gcs(symplectic_r2())
        assert is_almost_gcs(diag_r2())
        assert not is_almost_gcs(identity_like(R2))
        assert not is_almost_gcs(metric_r2())   # squares to +Id

    def test_almost_real(self):
        assert is_almost_real(identity_like(R2))
        assert is_almost_real(metric_r2())
        assert not is_almost_real(symplectic_r2())


class TestConcomitant:
    def test_constant_diag_pair_vanishes_on_frames(self):
        J = diag_r2()
        for A in frame_sections(R2):
            for B in frame_sections(R2):
                assert concomitant(J, J, A, B).is_zero

    def test_coincides_with_nijenhuis(self):
        rng = random.Random(6)
        J = symplectic_r2()
        for _ in range(10):
            A, B = rnd_section(rng, R2), rnd_section(rng, R2)
            assert concomitant(J, J, A, B) == nijenhuis(J, A, B)

    def test_commuting_pair_vanishes_on_frames(self):
        # diag-type and symplectic-type on R^2 commute (the Kahler pair)
        I, J = diag_r2(), symplectic_r2()
        assert (I @ J).entries_equal((J @ I))
        for A in frame_sections(R2):
            for B in frame_sections(R2):
                assert concomitant(I, J, A, B).is_zero

    def test_commuting_pair_anomaly_on_monomials(self):
        # the mixed concomitant is NOT tensorial for commuting pairs: on
        # monomial multiples it equals the closed-form Dorfman-Leibniz defect
        I, J = diag_r2(), symplectic_r2()
        W = I @ J
        x1 = Poly.variable(R2, 0)
        one = Poly.one(R2)
        for a in range(4):
            for b in range(4):
                A = Section.frame(R2, a).scale(ScalarField.variable(R2, 0))
                B = Section.frame(R2, b)
                got = concomitant(I, J, A, B)
                want = concomitant_anomaly(W, x1, a, one, b)
                assert got == want

    def test_flux_mismatch_rejected(self):
        H = FluxForm.zero(R2)
        Hx = FluxForm(KForm.zero(R2, 3))
        I = diag_r2()
        chart4 = standard_chart(4)
        J4 = diag_type(QUAT_I, chart4,
                       FluxForm(KForm(chart4, 3,
                                      {(0, 1, 2): ScalarField.one(chart4)})))
        J0 = diag_type(QUAT_I, chart4)
        with pytest.raises(FluxMismatchError):
            concomitant(J4, J0, Section.frame(chart4, 0),
                        Section.frame(chart4, 1))


class TestNijenhuis:
    def test_constant_structures_integrable(self):
        for E in (diag_r2(), symplectic_r2()):
            rep = vanishes(bind_nijenhuis(E), 2)
            assert rep.vanished and rep.sample_count == (4 * 6) ** 2

    def test_bfield_example_untwisted_fails_twisted_passes(self):
        # dB needs a nonzero (0,3)-part for the untwisted failure, so the
        # smallest honest chart is R^6 (on R^4 every 2-form transform of a
        # diag-type structure stays untwisted-integrable: Lambda^{0,3} = 0)
        chart = standard_chart(6)
        J6 = [[0] * 6 for _ in range(6)]
        for blk in (0, 2, 4):
            J6[blk + 1][blk] = 1
            J6[blk][blk + 1] = -1
        E = diag_type(tuple(tuple(r) for r in J6), chart)
        B = KForm(chart, 2, {(2, 4): ScalarField.variable(chart, 0)})
        Et = bfield_transform(E, B)
        assert Et.flux is not None and not Et.flux.is_zero
        assert Et.flux.H == exterior_d(B)
        untwisted = EndField(chart, Et.entries, None)
        rep = vanishes(bind_nijenhuis(untwisted), 1, max_witnesses=3)
        assert not rep.vanished and rep.witnesses
        rep2 = vanishes(bind_nijenhuis(Et), 1)
        assert rep2.vanished

    def test_bfield_transform_on_r4_stays_integrable(self):
        # regression: on a 4-dim chart no 2-form can break untwisted
        # integrability of a diag-type structure
        E = diag_type(QUAT_I, R4)
        B = KForm(R4, 2, {(1, 2): ScalarField.variable(R4, 0)})
        Et = bfield_transform(E, B)
        untwisted = EndField(R4, Et.entries, None)
        assert vanishes(bind_nijenhuis(untwisted), 1).vanished
        assert vanishes(bind_nijenhuis(Et), 1).vanished

    def test_tensoriality_probe_zero_for_nijenhuis(self):
        rng = random.Random(12)
        for E in (diag_r2(), symplectic_r2()):
            t = bind_nijenhuis(E)
            for _ in range(8):
                f = rnd_field(rng, R2)
                A, B = rnd_section(rng, R2), rnd_section(rng, R2)
                assert tensoriality_probe(t, f, A, B).is_zero

    def test_tensoriality_probe_reports_mixed_defect(self):
        # measured, not asserted to vanish: the commuting concomitant defect
        t = bind_concomitant(diag_r2(), symplectic_r2())
        f = ScalarField.variable(R2, 0)
        A = Section.frame(R2, 0)
        B = Section.frame(R2, 0)
        defect = tensoriality_probe(t, f, A, B)
        assert not defect.is_zero


class TestRealNijenhuis:
    def test_identity_vanishes(self):
        rng = random.Random(2)
        G = identity_like(R2)
        for _ in range(6):
            A, B = rnd_section(rng, R2), rnd_section(rng, R2)
            assert real_nijenhuis(G, A, B).is_zero

    def test_metric_witness(self):
        G = metric_r2()
        x1 = ScalarField.variable(R2, 0)
        A = Section.frame(R2, 0).scale(x1) + Section.frame(R2, 2).scale(x1)
        out = real_nijenhuis(G, A, A)
        want = Section.frame(R2, 2).scale(
            ScalarField.constant(R2, 4) * x1) - \
            Section.frame(R2, 0).scale(ScalarField.constant(R2, 4) * x1)
        assert out == want

    def test_involutive_eigenbundles_vanish(self):
        one, zero = ScalarField.one(R2), ScalarField.zero(R2)
        Gd = EndField.from_blocks(R2, [[one, zero], [zero, one]],
                                  [[zero] * 2] * 2, [[zero] * 2] * 2,
                                  [[-one, zero], [zero, -one]])
        rep = vanishes(bind_real_nijenhuis(Gd), 1)
        assert rep.vanished

    def test_non_involution_rejected(self):
        with pytest.raises(ValueError):
            real_nijenhuis(symplectic_r2(), Section.frame(R2, 0),
                           Section.frame(R2, 1))


class TestVanishes:
    def test_degree_zero_trivially_consistent(self):
        rep = vanishes(bind_nijenhuis(diag_r2()), 0)
        assert rep.vanished and rep.sample_count == 16

    def test_metric_witness_found_at_degree_one(self):
        rep = vanishes(bind_real_nijenhuis(metric_r2()), 1, max_witnesses=3)
        assert not rep.vanished
        assert len(rep.witnesses) == 3
        assert rep.witnesses[0][2] != "0"

    def test_reports_are_deterministic(self):
        a = vanishes(bind_real_nijenhuis(metric_r2()), 1, max_witnesses=5)
        b = vanishes(bind_real_nijenhuis(metric_r2()), 1, max_witnesses=5)
        assert a.witnesses == b.witnesses and a.sample_count == b.sample_count


def rational_tensors():
    """Bound tensors on R^3 with rational structures or a rational flux:
    N_G of a metric with g^-1 rational, a concomitant of that metric with a
    constant one, and N_J of a polynomial metric; all twisted by the closed
    flux dx1^dx2^dx3 / (1 + x2^2)."""
    R3 = standard_chart(3)
    zero = ScalarField.zero(R3)

    def metric(g1, g2, b12):
        g = [[parse_expr(g1, R3), zero, zero],
             [zero, parse_expr(g2, R3), zero],
             [zero, zero, ScalarField.one(R3)]]
        b12 = parse_expr(b12, R3)
        return generalized_metric(g, [[zero, b12, zero], [-b12, zero, zero],
                                      [zero, zero, zero]])

    H = FluxForm(KForm(R3, 3, {(0, 1, 2): parse_expr("1/(1+x2^2)", R3)}))
    G = metric("1+x1^2", "1", "x3")
    return [bind_real_nijenhuis(G, "N_G", H),
            bind_concomitant(G, metric("1", "2", "1"), "N(G,G')", H),
            bind_nijenhuis(metric("1", "1", "x1"), "N(E,E)", H)]


def rational_tensor(name):
    """The tensor of rational_tensors() with that name."""
    return next(t for t in rational_tensors() if t.name == name)


class TestRationalVanishes:
    # built inside the test, so that a defect in EndField arithmetic fails
    # these tests rather than the collection of the module
    @pytest.mark.parametrize("name", ["N_G", "N(G,G')", "N(E,E)"])
    def test_matches_reference_on_every_pair(self, name):
        # the kernel sweep over the LCM base against the ScalarField
        # formulas, witness by witness, at degree 1
        tensor = rational_tensor(name)
        chart = tensor.chart
        labels = generator_labels(chart, 1)
        gens = generator_sections(chart, 1)
        want = []
        for i, A in enumerate(gens):
            for j, B in enumerate(gens):
                out = tensor.evaluate(A, B)
                if not out.is_zero:
                    want.append((labels[i], labels[j], str(out)))
        rep = vanishes(tensor, 1, max_witnesses=len(gens) ** 2)
        assert rep.sample_count == len(gens) ** 2
        assert want and rep.witnesses == want
        assert not rep.vanished


class TestIntegralBase:
    """Over a rational structure's base L m (``_PowerDen.lcm``) every
    numerator the sweep builds has Gaussian-integer coefficients."""

    @pytest.mark.parametrize("name", ["N_G", "N(G,G')", "N(E,E)"])
    def test_numerators_jacobians_and_pairs_are_integral(self, name,
                                                          monkeypatch):
        # the structures and the flux over m^1, the square over m^2, every
        # degree-1 generator's operand and its images' (numerators, plain
        # Jacobians and power of m, ``_PowerDen.operand``), and the
        # tensor on every pair, with no accumulator merging two
        # denominators; a concomitant's output is half an integral
        # numerator (the 1/2 of N(I,J) is applied last)
        tensor = rational_tensor(name)
        mats, kflux, nums, square = _kernel_setup(tensor)

        def refuse(*args):
            raise AssertionError("two denominators merged")
        monkeypatch.setattr(K, "_merge", refuse)
        base = mats["base"]
        assert not base.unit and integral(base.m)
        assert integral(*kflux.values())
        assert integral(*(p for M in [S.rows for S in nums] + [square]
                          for row in M for p in row))
        for A in _kernel_generators(tensor.chart, 1):
            for S, jac, _ in _operand(tensor.kind, mats, A):
                assert integral(*S)
                assert integral(*(d for row in jac if row for d in row))
        double = (2, 0, 1) if tensor.kind == "concomitant" else K.C_ONE
        count = 0
        for _, _, P in _residuals(tensor, 1)[2]:
            assert integral(*(K.p_scale(p, double) for p in P))
            count += 1
        assert count == len(_kernel_generators(tensor.chart, 1)) ** 2

    def test_base_without_the_integer_factor_is_rational(self):
        # N(G,G') needs L = 2: its numerators over the LCM m alone, the
        # monic (1 + x1^2)(1 + x2^2), are not all integral
        base = _kernel_setup(rational_tensor("N(G,G')"))[0]["base"]
        L = base.m[0][0]
        assert L == 2
        plain = _PowerDen(base.chart, K.p_scale(base.m, (1, 0, L)))
        tensor = rational_tensor("N(G,G')")
        assert not integral(*(plain.numerator(f) for S in tensor.structures
                              for row in S.entries for f in row))


def gauss_rank(vectors):
    """Rank of a list of GaussianRational vectors, by elimination."""
    rows = [list(v) for v in vectors]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(rank, len(rows))
                    if not rows[i][col].is_zero), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = rows[rank][col].inverse()
        for i in range(rank + 1, len(rows)):
            f = rows[i][col] * inv
            if not f.is_zero:
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def defined_point(tensor):
    """The lex-first point of {0..D}^n (D the summed degrees of the
    denominators) where every entry of the tensor's J and its flux is
    defined."""
    from gencliff._core import kernel as K
    J = tensor.structures[0]
    fields = [f for row in J.entries for f in row]
    if tensor.flux is not None:
        fields += list(tensor.flux.H.coeffs.values())
    dens = {f.den for f in fields}
    bound = sum(max(map(K.degree, d.terms)) for d in dens)
    return next(p for p in itertools.product(range(bound + 1),
                                             repeat=J.chart.dim)
                if not any(d.evaluate(p).is_zero for d in dens))


def complex_frame(tensor):
    """The J-complex frame of an N_J, recomputed from J's ScalarField
    entries at defined_point: e_b is kept iff it raises the rank of the
    kept e_r and their images J e_r."""
    J = tensor.structures[0]
    size = J.size
    point = defined_point(tensor)
    Jp = [[f.evaluate(point) for f in row] for row in J.entries]
    span, keep = [], []
    for b in range(size):
        e = [GaussianRational(int(i == b)) for i in range(size)]
        if gauss_rank(span + [e]) > gauss_rank(span):
            keep.append(b)
            span += [e, [Jp[c][b] for c in range(size)]]
    return keep


def half_pairs(reps):
    """The pairs (a, b) with a < b within each half of the J-complex frame
    reps, split in its index order: the frame pairs the certificate
    evaluates for a skew N_J, C(h, 2) + C(r - h, 2) of them for r = |reps|
    and h = floor(r/2)."""
    h = len(reps) // 2
    return {(a, b) for part in (reps[:h], reps[h:])
            for a in part for b in part if a < b}


def nonclosed_bfield_nijenhuis():
    """N_J of I1 of hyperkahler_r4 transformed by B = x1 dx2^dx3, bound
    without the flux dB: a polynomial tensor that does not vanish."""
    B = KForm.basis(R4, (1, 2)).scale(ScalarField.variable(R4, 0))
    E = EndField(R4, bfield_transform(hyperkahler_r4().I1, B).entries)
    return bind_nijenhuis(E, "N(I1,I1)")


def random_concomitant():
    """N(I,J) of two seeded random polynomial structures on R^3 of degree
    <= 1 that do not commute, are not orthogonal and square to neither Id
    nor -Id."""
    from tests.test_scalar import rnd_poly
    R3 = standard_chart(3)
    rng = random.Random(29)

    def rnd_structure():
        return EndField(R3, [[ScalarField.from_poly(
            rnd_poly(rng, R3, deg=1, terms=2)) if rng.random() < 0.4
            else ScalarField.zero(R3) for _ in range(6)] for _ in range(6)])
    I, J = rnd_structure(), rnd_structure()
    assert not (I @ J).entries_equal(J @ I)
    for S in (I, J):
        assert not (is_orthogonal(S) or (S @ S).is_constant)
    return bind_concomitant(I, J, "N(I,J)")


def scaled_nijenhuis():
    """N_J of J = 2 I1 of hyperkahler_r4: J^2 = -4 Id, so the second slot's
    Leibniz term -(rho(A)g)(J^2 + 1)B = 3 (rho(A)g)B survives."""
    J = hyperkahler_r4().I1.scale(ScalarField.constant(R4, 2))
    return bind_nijenhuis(J, "N(2I1,2I1)")


class TestSymbolCertificate:
    """The certificate's premise, checked on tensors that do not vanish:
    N(f e_a, g e_b) = fg N0 + g sum_k d_k f P_k + f sum_k d_k g Q_k with
    N0, P_k and Q_k read from the pairs (e_a, e_b), (x_k e_a, e_b) and
    (e_a, x_k e_b).  A bracket with a df.dg term, with a second derivative
    of f or g, or with a wrong (rho(A)g)B term in its second slot breaks
    it."""

    # id: (tensor builder, the parts of its symbol that are nonzero
    # somewhere, what _tensoriality proves).  N_J is C-infinity-bilinear and
    # skew; the concomitant and N_G of this metric have Q_k = 0 but not
    # P_k = 0; N_J of 2 I1 (J^2 = -4 Id) has neither
    CASES = {"N_J": (nonclosed_bfield_nijenhuis, {"N0"}, "skew"),
             "N_G": (lambda: rational_tensor("N_G"), {"N0", "P"},
                     "second_slot"),
             "N(I,J)": (random_concomitant, {"N0", "P"}, "second_slot"),
             "N(2I1,2I1)": (scaled_nijenhuis, {"P", "Q"}, None)}

    @staticmethod
    def pairs(tensor, degree_bound):
        """(base, {(a, k, b, l): numerators over m^3}) over the pairs
        _residuals yields, k and l the variable index of the monomials (None
        for 1)."""
        from gencliff.courant import monomials_up_to
        from gencliff.gcs import _residuals
        base, degree, pairs = _residuals(tensor, degree_bound)
        var = [next((k for k, e in enumerate(next(iter(m.coeffs()))) if e),
                    None)
               for m in monomials_up_to(tensor.chart, degree)]
        got = {}
        for i, j, P in pairs:
            (a, mi), (b, mj) = divmod(i, len(var)), divmod(j, len(var))
            got[a, var[mi], b, var[mj]] = P
        return base, got

    @classmethod
    def symbol(cls, tensor):
        """({(a, b): (N0, [P_k], [Q_k])}, the keys of the certificate's
        pairs).  The symbol is read from the pairs (e_a, e_b), (x_k e_a, e_b)
        and (e_a, x_k e_b) of the degree-1 sweep; every pair the certificate
        evaluates must give the sweep's numerators."""
        chart = tensor.chart
        n = chart.dim
        base, sweep = cls.pairs(tensor, 1)
        _, cert = cls.pairs(tensor, None)
        assert all(sweep[key] == P for key, P in cert.items())
        x = [ScalarField.variable(chart, k) for k in range(n)]
        out = {}
        for a in range(2 * n):
            for b in range(2 * n):
                N0 = base.section(sweep[a, None, b, None], 3)
                out[a, b] = (
                    N0,
                    [base.section(sweep[a, k, b, None], 3) - N0.scale(x[k])
                     for k in range(n)],
                    [base.section(sweep[a, None, b, k], 3) - N0.scale(x[k])
                     for k in range(n)])
        return out, set(cert)

    @staticmethod
    def certificate_keys(n, proven, reps=None):
        """The pairs the certificate evaluates: when the tensor is proven
        bilinear and skew, the frame pairs a < b, 28 at n = 4, or, given
        the J-complex frame reps of N_J, those within its halves
        (``half_pairs``), 2 at n = 4; else (e_a, e_b) and (x_k e_a, e_b),
        plus (e_a, x_k e_b) unless Q_k = 0 is proven: 320 and 576 pairs at
        n = 4."""
        frames = range(2 * n)
        if proven == "skew":
            pairs = ({(a, b) for a in frames for b in frames if a < b}
                     if reps is None else half_pairs(reps))
            return {(a, None, b, None) for a, b in pairs}
        keys = {(a, k, b, None) for a in frames for b in frames
                for k in [None, *range(n)]}
        if proven is None:
            keys |= {(a, None, b, k) for a in frames for b in frames
                     for k in range(n)}
        return keys

    @staticmethod
    def rnd_poly(rng, chart):
        """A seeded polynomial of degree 3 with at most six terms."""
        from gencliff.courant import monomials_up_to
        monos = monomials_up_to(chart, 3)
        terms = {next(iter(m.coeffs())): Fraction(rng.choice((-1, 1))
                                                * rng.randint(1, 5),
                                                rng.randint(1, 4))
                 for m in [monos[-1]] + rng.sample(monos, 5)}
        return ScalarField.from_poly(Poly.from_coeffs(chart, terms))

    @pytest.mark.parametrize("case", list(CASES))
    def test_symbol_predicts_every_section_pair(self, case):
        from gencliff.gcs import _kernel_setup, _tensoriality
        build, parts, proven = self.CASES[case]
        tensor = build()
        chart = tensor.chart
        n = chart.dim
        mats, _, nums, square = _kernel_setup(tensor)
        assert _tensoriality(tensor.kind, mats["base"], nums, square) == \
            proven
        symbol, keys = self.symbol(tensor)
        nonzero = {name for N0, P, Q in symbol.values()
                   for name, secs in (("N0", [N0]), ("P", P), ("Q", Q))
                   if any(not s.is_zero for s in secs)}
        assert nonzero == parts
        reps = complex_frame(tensor) if tensor.kind == "nijenhuis" else None
        assert keys == self.certificate_keys(n, proven, reps)
        if proven == "skew":
            assert all(N0 == -symbol[b, a][0]
                       for (a, b), (N0, _, _) in symbol.items())
        rng = random.Random(61 + n)
        for (a, b), (N0, P, Q) in symbol.items():
            f, g = self.rnd_poly(rng, chart), self.rnd_poly(rng, chart)
            want = N0.scale(f * g)
            for k in range(n):
                want = (want + P[k].scale(g * f.diff(k))
                        + Q[k].scale(f * g.diff(k)))
            got = tensor.evaluate(Section.frame(chart, a).scale(f),
                                  Section.frame(chart, b).scale(g))
            assert got == want, (a, b)

    def test_q_is_the_second_slot_leibniz_term(self):
        # N_J(A, gB) = g N_J(A, B) - (rho(A)g)(J^2 + 1)B with J^2 = -4 Id:
        # Q_k at (e_a, e_b) is 3 e_b when e_a = d/dx_k, else 0
        symbol, _ = self.symbol(scaled_nijenhuis())
        for (a, b), (_, _, Q) in symbol.items():
            for k, q in enumerate(Q):
                want = Section.frame(R4, b).scale(ScalarField.constant(R4, 3))
                assert q == (want if a == k else Section.zero(R4)), (a, b, k)

    def test_q_nonzero_keeps_every_pair_and_the_sweep_verdict(self):
        tensor = scaled_nijenhuis()
        every = (8 * 5) ** 2
        cert = vanishes(tensor, max_witnesses=every)
        sweep = vanishes(tensor, 1, max_witnesses=every)
        assert not cert.vanished and not sweep.vanished
        assert cert.sample_count == 8 * 8 * (1 + 2 * 4)
        assert cert.witnesses == [w for w in sweep.witnesses
                                  if not ("*" in w[0] and "*" in w[1])]
        # a witness on a pair (e_a, x_k e_b), which only Q_k makes nonzero
        assert any("*" in w[1] and "*" not in w[0] for w in cert.witnesses)


def gate_triple(case):
    """hyperkahler_r4 transformed by B = x1 dx2^dx3 and bound without the
    flux dB ("nonclosed"), or with the closed flux x4 dx1^dx2^dx4 instead
    ("flux"): Clifford relations hold, integrability does not.  Returned
    with its relations checked, so that induce accepts it."""
    from gencliff.clifford import (CliffordTriple, TripleStatus,
                                   check_relations)
    B = KForm.basis(R4, (1, 2)).scale(ScalarField.variable(R4, 0))
    H = None if case == "nonclosed" else FluxForm(
        KForm(R4, 3, {(0, 1, 3): ScalarField.variable(R4, 3)}))
    T = CliffordTriple(*[EndField(R4, bfield_transform(E, B).entries, H)
                         for E in hyperkahler_r4().generators], H)
    return T.with_status(TripleStatus(check_relations(T), ()))


def gate_tensors(case):
    """N_{I1}, N(I1,I2), N(I1,I1) and N(I1,J2) of gate_triple(case)."""
    from gencliff.clifford import induce
    T = gate_triple(case)
    I1, I2, J2 = T.I1, T.I2, induce(T).J2
    return [bind_nijenhuis(I1, "N_I1", T.flux),
            bind_concomitant(I1, I2, "N(I1,I2)", T.flux),
            bind_concomitant(I1, I1, "N(I1,I1)", T.flux),
            bind_concomitant(I1, J2, "N(I1,J2)", T.flux)]


def gate_refused():
    """Tensors _tensoriality must not prove bilinear and skew, by name:
    N_J of 2 I1 (J^2 = -4 Id), N_J of a J with J^2 = -Id that is not
    orthogonal, N(I1, x1 I1) (I J + J I = -2 x1 Id, a non-constant
    multiple), the commuting N(I1,J1) (I J + J I = -2 G) and N_G of the
    induced G."""
    from gencliff.clifford import (TripleStatus, check_relations, induce)
    T = hyperkahler_r4()
    T = T.with_status(TripleStatus(check_relations(T), ()))
    ind = induce(T)
    one, zero = ScalarField.one(R4), ScalarField.zero(R4)
    # Q = Id + the shear d2 -> d1 + d2 of the vector block alone
    Q = EndField(R4, [[one if i == j or (i, j) == (0, 1) else zero
                       for j in range(8)] for i in range(8)])
    sheared = Q @ T.I1 @ Q.inverse()
    x1 = ScalarField.variable(R4, 0)
    return {"N(2I1,2I1)": scaled_nijenhuis(),
            "N_sheared": bind_nijenhuis(sheared, "N_sheared"),
            "N(I1,x1I1)": bind_concomitant(T.I1, T.I1.scale(x1),
                                           "N(I1,x1I1)"),
            "N(I1,J1)": bind_concomitant(T.I1, ind.J1, "N(I1,J1)"),
            "N_G": bind_real_nijenhuis(ind.G, "N_G")}


class TestTensorialityGate:
    """The frame-pair certificate rests on _tensoriality's claim that the
    tensor is C-infinity-bilinear and skew.  Where it makes the claim, the
    degree-1 sweep must bear it out on every pair; where it must not, the
    certificate must keep the pairs the symbol needs and agree with the
    sweep on them."""

    @pytest.mark.parametrize("case", ["nonclosed", "flux"])
    def test_bilinear_and_skew_on_every_sweep_pair(self, case):
        from gencliff._core import kernel as K
        from gencliff.gcs import _kernel_setup, _tensoriality
        x = [packed({tuple(int(t == k) for t in range(4)): K.C_ONE})
             for k in range(4)]
        nonzero = 0
        for tensor in gate_tensors(case):
            mats, _, nums, square = _kernel_setup(tensor)
            assert _tensoriality(tensor.kind, mats["base"], nums,
                                 square) == "skew", tensor.name
            _, got = TestSymbolCertificate.pairs(tensor, 1)
            assert len(got) == (8 * 5) ** 2
            for (a, k, b, l), P in got.items():
                # N(A, B) + N(B, A) = 0
                assert K.sec_is_zero(K.sec_add(P, got[b, l, a, k])), \
                    (tensor.name, a, k, b, l)
                # N(x_k e_a, B) = x_k N(e_a, B)
                if k is not None:
                    want = [K.p_mul(p, x[k]) for p in got[a, None, b, l]]
                    assert P == want, (tensor.name, a, k, b, l)
                nonzero += not K.sec_is_zero(P)
        assert nonzero      # the identities are not checked on zeros alone

    @pytest.mark.parametrize("name", ["N(2I1,2I1)", "N_sheared",
                                      "N(I1,x1I1)", "N(I1,J1)", "N_G"])
    def test_refused_keeps_the_sweep_verdict_and_witnesses(self, name):
        from gencliff.gcs import _kernel_setup, _tensoriality
        tensor = gate_refused()[name]
        mats, _, nums, square = _kernel_setup(tensor)
        proven = _tensoriality(tensor.kind, mats["base"], nums, square)
        assert proven != "skew"
        every = (8 * 5) ** 2
        cert = vanishes(tensor, max_witnesses=every)
        sweep = vanishes(tensor, 1, max_witnesses=every)
        keys = TestSymbolCertificate.certificate_keys(4, proven)
        assert cert.sample_count == len(keys)

        def evaluated(w):
            # (e_a, e_b) and (x_k e_a, e_b), and (e_a, x_k e_b) unless
            # Q_k = 0 is proven; a label carries '*' iff its monomial is
            # not 1
            return "*" not in w[1] or (proven is None and "*" not in w[0])
        assert not sweep.vanished
        assert cert.vanished == sweep.vanished
        assert cert.witnesses == [w for w in sweep.witnesses if evaluated(w)]
        if name == "N(I1,x1I1)":
            # P_k = 0 here, but N(A,B) + N(B,A) = -<A,B> D(-2 x1) is not
            from gencliff._core import kernel as K
            _, got = TestSymbolCertificate.pairs(tensor, 1)
            assert any(not K.sec_is_zero(K.sec_add(P, got[b, l, a, k]))
                       for (a, k, b, l), P in got.items())


def antidiagonal_structure():
    """J d_i = -dx^i, J dx^i = d_i on R^4: J^2 = -Id and every column is
    +-a frame element, but J is not skew-adjoint for the pairing."""
    one, zero = ScalarField.one(R4), ScalarField.zero(R4)
    ident = [[one if i == j else zero for j in range(4)] for i in range(4)]
    nil = [[zero] * 4 for _ in range(4)]
    return EndField.from_blocks(R4, nil, ident,
                                [[-f for f in row] for row in ident], nil)


def sparse_section(rng, chart, comps, rational=False):
    """A section with seeded fields in the components comps, zero in the
    others; small enough for the ScalarField formulas."""
    return Section.from_components(chart, [
        rnd_field(rng, chart, rational) if k in comps
        else ScalarField.zero(chart) for k in range(2 * chart.dim)])


def pole_nijenhuis(flux):
    """N_J of I1 of hyperkahler_r4 transformed by B = dx2^dx3 / (x1 + x2),
    bound with its flux dB (integrable) or without it (not): the base
    m = x1 + x2 or (x1 + x2)^2 vanishes at the origin."""
    B = KForm.basis(R4, (1, 2)).scale(parse_expr("1 / (x1 + x2)", R4))
    E = bfield_transform(hyperkahler_r4().I1, B)
    return bind_nijenhuis(E if flux else EndField(R4, E.entries), "N_pole")


class TestOrbitReduction:
    """The J-complex frame of the N_J frame-pair certificate: N_J's
    identities under J, the point the frame is chosen at, and where it
    must not be applied."""

    def test_orbit_identities_on_the_reference_formula(self):
        # N_J(A, JB) = -J N_J(A, B) = N_J(JA, B) for any J^2 = -Id, on the
        # ScalarField formula with seeded rational sections; J is I1 under
        # the non-closed B = x1 dx2^dx3, so N_J is not zero
        J = nonclosed_bfield_nijenhuis().structures[0]
        rng = random.Random(73)
        for _ in range(2):
            # N_J(d1, d2) and N_J(e2, e4) are not zero
            A = sparse_section(rng, R4, (0, 5), rational=True)
            B = sparse_section(rng, R4, (1, 7), rational=True)
            want = -J.apply(nijenhuis(J, A, B))
            assert not want.is_zero
            assert nijenhuis(J, A, J.apply(B)) == want
            assert nijenhuis(J, J.apply(A), B) == want

    @pytest.mark.parametrize("name", ["N(I1,I2)", "N_G", "N_antidiagonal"])
    def test_not_applied_outside_skew_nijenhuis(self, name):
        # every structure here maps each frame element to +- another, so the
        # reduction would keep 4 of the 8 if it were applied: a concomitant
        # and N_G keep their pairs, and so does an N_J that _tensoriality
        # proves only second_slot
        from gencliff.clifford import TripleStatus, check_relations, induce
        from gencliff.gcs import (_complex_frame, _kernel_setup,
                                  _tensoriality)
        T = hyperkahler_r4()
        T = T.with_status(TripleStatus(check_relations(T), ()))
        tensor = {"N(I1,I2)": lambda: bind_concomitant(T.I1, T.I2),
                  "N_G": lambda: bind_real_nijenhuis(induce(T).G),
                  "N_antidiagonal": lambda: bind_nijenhuis(
                      antidiagonal_structure())}[name]()
        mats, _, nums, square = _kernel_setup(tensor)
        assert all(len(_complex_frame(mats["base"], S.rows)) == 4
                   for S in nums)
        proven = _tensoriality(tensor.kind, mats["base"], nums, square)
        assert proven == ("skew" if name == "N(I1,I2)" else "second_slot")
        rep = vanishes(tensor, max_witnesses=8 * 8 * (1 + 4))
        assert rep.sample_count == (8 * 7 // 2 if proven == "skew"
                                    else 8 * 8 * (1 + 4))
        assert rep.vanished == vanishes(tensor, 1).vanished

    @pytest.mark.parametrize("flux", [False, True])
    def test_grid_point_when_the_base_vanishes_at_the_origin(self, flux):
        # m = x1 + x2 (times itself with the flux) vanishes at the origin:
        # the frame is chosen at (0, 1, 0, 0), the first point of
        # {0..deg m}^4 in lex order where m does not, and the certificate
        # has the verdict of the degree-0 sweep and its witnesses on the
        # pairs within the halves of the frame
        from gencliff.gcs import _base_point, _complex_frame, _kernel_setup
        tensor = pole_nijenhuis(flux)
        mats, _, nums, _ = _kernel_setup(tensor)
        assert mats["base"].m.get(0) is None
        assert _base_point(mats["base"]) == [0, 1, 0, 0]
        assert defined_point(tensor) == (0, 1, 0, 0)
        reps = _complex_frame(mats["base"], nums[0].rows)
        assert reps == complex_frame(tensor) and len(reps) == 4
        every = 8 * 8
        cert = vanishes(tensor, max_witnesses=every)
        sweep = vanishes(tensor, 0, max_witnesses=every)
        assert cert.sample_count == 2 * (2 * 1 // 2)
        assert cert.vanished == sweep.vanished == flux
        assert bool(cert.witnesses) is not flux
        labels = generator_labels(R4, 0)
        assert cert.witnesses == [
            w for w in sweep.witnesses
            if (labels.index(w[0]), labels.index(w[1])) in half_pairs(reps)]


def kernel_evaluate(tensor, A, B):
    """tensor(A, B) by the kernel evaluator ``gcs._eval_kernel`` when the
    structures, the flux and the sections are polynomial; by the ScalarField
    reference ``BoundTensor.evaluate`` otherwise."""
    P, Q = section_kernel_components(A), section_kernel_components(B)
    mats, kflux, _, _ = _kernel_setup(tensor)
    if P is None or Q is None or not mats["base"].unit:
        return tensor.evaluate(A, B)
    kind = tensor.kind
    out = _eval_kernel(kind, mats, kflux, tensor.chart.dim,
                       _operand(kind, mats, P), _operand(kind, mats, Q))
    return mats["base"].section(out, 3)


class TestKernelEvaluate:
    def test_matches_the_reference_formula(self):
        # polynomial structures and sections take the kernel evaluator, a
        # rational section the reference: N_J without flux and a twisted
        # concomitant
        rng = random.Random(74)
        for tensor in (nonclosed_bfield_nijenhuis(), gate_tensors("flux")[3]):
            for _ in range(2):
                A, B = (sparse_section(rng, R4, rng.sample(range(8), 2))
                        for _ in range(2))
                assert kernel_evaluate(tensor, A, B) == tensor.evaluate(A, B)
            A = Section.frame(R4, 1).scale(parse_expr("x3 / (1 + x2^2)", R4))
            assert kernel_evaluate(tensor, A, B) == tensor.evaluate(A, B)

    def test_constant_frame_pairs_with_and_without_flux(self):
        # constant structures on constant frame sections over the unit
        # base: without flux every bracket is zero and so is the tensor;
        # a constant flux makes the H-twist ι_Y ι_X H nonzero, and the
        # evaluator must agree with the reference on every frame pair
        T = hyperkahler_r4()
        one = [[ScalarField.one(R4) if i == j else ScalarField.zero(R4)
                for j in range(4)] for i in range(4)]
        G = generalized_metric(one, [[ScalarField.zero(R4)] * 4
                                     for _ in range(4)], R4)
        H = FluxForm(KForm(R4, 3, {(0, 1, 3): ScalarField.constant(R4, 3)}))
        frames = frame_sections(R4)
        for flux in (None, H):
            tensors = (bind_nijenhuis(T.I1, flux=flux),
                       bind_concomitant(T.I1, T.I2, flux=flux),
                       bind_real_nijenhuis(G, flux=flux))
            nonzero = 0
            for tensor in tensors:
                for A, B in itertools.product(frames, repeat=2):
                    got = kernel_evaluate(tensor, A, B)
                    assert got == tensor.evaluate(A, B)
                    nonzero += not got.is_zero
            assert bool(nonzero) is (flux is not None)


class TestEndFieldArithmetic:
    """+, - and scaling equal the ScalarField operations entry for
    entry."""

    @staticmethod
    def rotated_triple():
        from gencliff.clifford import TripleStatus, check_relations
        from gencliff.twistor import rotate_family, sample_points
        T = hyperkahler_r4()
        T = T.with_status(TripleStatus(check_relations(T), ()))
        return rotate_family(T, sample_points(4, seed=3)[3])

    def test_polynomial_entries_equal_scalar_route(self):
        K1, K2, K3 = self.rotated_triple().generators
        B = KForm.basis(R4, (0, 1)).scale(ScalarField.variable(R4, 2))
        P = bfield_transform(K3, B).with_flux(None)     # polynomial entries
        assert K1.is_constant and not P.is_constant
        assert all(f.is_polynomial for row in P.entries for f in row)
        consts = [ScalarField.constant(R4, c) for c in
                  (0, 1, -1, Fraction(-3, 7), GaussianRational(2, -5))]
        for X, Y in ((K1, K2), (K2, K1), (K1, P), (P, K3), (K1, K1)):
            pairs = zip(X.entries, Y.entries)
            assert (X + Y).entries == tuple(
                tuple(a + b for a, b in zip(r, s)) for r, s in pairs)
            pairs = zip(X.entries, Y.entries)
            assert (X - Y).entries == tuple(
                tuple(a - b for a, b in zip(r, s)) for r, s in pairs)
        for X in (K1, P):
            for c in consts:
                assert X.scale(c).entries == tuple(
                    tuple(a * c for a in r) for r in X.entries)
        assert (K1 - K1).is_zero

    def test_rational_entries_take_scalar_route(self):
        K1 = self.rotated_triple().I1
        x1 = Poly.variable(R4, 0)
        rows = [list(r) for r in K1.entries]
        rows[0][1] = ScalarField(x1, x1 + 1)
        Q = EndField(R4, rows)
        half = ScalarField.constant(R4, Fraction(1, 2))
        assert (Q + K1).entries[0][1] == rows[0][1] + K1.entries[0][1]
        assert (K1 - Q).entries[0][1] == K1.entries[0][1] - rows[0][1]
        assert Q.scale(half).entries[0][1] == rows[0][1] * half
        # a non-constant factor
        assert K1.scale(ScalarField.from_poly(x1)).entries[0][0] == \
            K1.entries[0][0] * ScalarField.from_poly(x1)


class TestGeneralizedMetric:
    def test_flat_block_form(self):
        G = metric_r2()
        one, zero = ScalarField.one(R2), ScalarField.zero(R2)
        want = EndField.from_blocks(R2, [[zero] * 2] * 2,
                                    [[one, zero], [zero, one]],
                                    [[one, zero], [zero, one]],
                                    [[zero] * 2] * 2)
        assert G.entries_equal(want)

    def test_random_pairs_pass_almost_real(self):
        # block-algebra oracle: construction checks G^2 = Id and
        # orthogonality internally for random exact (g, b), n <= 3
        rng = random.Random(10)
        for n in (1, 2, 3):
            chart = standard_chart(n)
            for _ in range(5):
                g = [[ScalarField.constant(chart, 0)] * n for _ in range(n)]
                for i in range(n):
                    for j in range(i, n):
                        v = Fraction(rng.randint(-2, 2))
                        g[i][j] = g[j][i] = ScalarField.constant(chart, v)
                    g[i][i] = ScalarField.constant(
                        chart, Fraction(rng.randint(3, 6)))
                b = [[ScalarField.constant(chart, 0)] * n for _ in range(n)]
                for i in range(n):
                    for j in range(i + 1, n):
                        v = Fraction(rng.randint(-2, 2))
                        b[i][j] = ScalarField.constant(chart, v)
                        b[j][i] = ScalarField.constant(chart, -v)
                G = generalized_metric(g, b, chart)
                assert is_almost_real(G)

    def test_polynomial_b(self):
        one, zero = ScalarField.one(R2), ScalarField.zero(R2)
        x1 = ScalarField.variable(R2, 0)
        G = generalized_metric([[one, zero], [zero, one]],
                               [[zero, x1], [-x1, zero]])
        assert is_almost_real(G)

    def test_positivity_at_sample_points(self):
        # <G d1, d1> = <e1, d1> = 1/2 > 0 with the half-normalized pairing
        G = metric_r2()
        A = Section.frame(R2, 0)
        val = pairing(G.apply(A), A)
        for pt in ((0, 0), (1, 2), (Fraction(1, 3), Fraction(-2, 5))):
            v = val.evaluate(pt)
            assert v.is_real and v.re > 0
        assert val == ScalarField.constant(R2, Fraction(1, 2))
        # and for a random nonzero constant section
        S = Section.frame(R2, 0) + Section.frame(R2, 1) - Section.frame(R2, 3)
        v = pairing(G.apply(S), S).evaluate((0, 0))
        assert v.is_real and v.re > 0

    def test_singular_g_rejected(self):
        zero = ScalarField.zero(R2)
        with pytest.raises(ZeroDivisionError):
            generalized_metric([[zero, zero], [zero, zero]],
                               [[zero, zero], [zero, zero]])


class TestBField:
    def test_zero_b_unchanged(self):
        E = diag_r2()
        out = bfield_transform(E, KForm.zero(R2, 2))
        assert out.entries_equal(E)

    def test_clifford_relations_preserved(self):
        T = hyperkahler_r4()
        B = KForm(R4, 2, {(1, 2): ScalarField.variable(R4, 0)})
        outs = [bfield_transform(E, B) for E in T.generators]
        minus2 = EndField.identity(R4).scale(ScalarField.constant(R4, -2))
        for i in range(3):
            for j in range(3):
                anti = (outs[i] @ outs[j]) + (outs[j] @ outs[i])
                if i == j:
                    assert anti.entries_equal(minus2)
                else:
                    assert all(f.is_zero for row in anti.entries for f in row)

    def test_exponential_inverse(self):
        one, zero = ScalarField.one(R2), ScalarField.zero(R2)
        B = KForm(R2, 2, {(0, 1): ScalarField.variable(R2, 0)})
        from gencliff.gcs import form_to_matrix
        n = 2
        Bm = form_to_matrix(B)
        lower = [[Bm[i][j] for i in range(n)] for j in range(n)]
        ident = [[one if i == j else zero for j in range(n)]
                 for i in range(n)]
        zeros = [[zero] * n for _ in range(n)]
        eB = EndField.from_blocks(R2, ident, zeros, lower, ident)
        eBm = EndField.from_blocks(R2, ident, zeros,
                                   [[-x for x in row] for row in lower],
                                   ident)
        assert (eB @ eBm).entries_equal(EndField.identity(R2))


class TestEigenSections:
    def test_metric_plus_sections(self):
        G = metric_r2()
        out = eigen_sections(G, 1)
        d1e1 = Section.frame(R2, 0) + Section.frame(R2, 2)
        d2e2 = Section.frame(R2, 1) + Section.frame(R2, 3)
        assert out[0] == d1e1 and out[1] == d2e2

    def test_plus_sections_have_metric_form(self):
        # every +1 eigen-section has the graph form X + (b + g)(X)
        one, zero = ScalarField.one(R2), ScalarField.zero(R2)
        x1 = ScalarField.variable(R2, 0)
        b = [[zero, x1], [-x1, zero]]
        g = [[one, zero], [zero, one]]
        G = generalized_metric(g, b)
        for s in eigen_sections(G, 1):
            X = s.vec.components
            cov = [sum(((g[j][i] + b[j][i]) * X[i] for i in range(2)),
                       zero) for j in range(2)]
            want = Section.from_components(R2, list(X) + cov)
            assert s == want

    def test_diag_involution_sign_plus_spans_tm(self):
        one, zero = ScalarField.one(R2), ScalarField.zero(R2)
        Gd = EndField.from_blocks(R2, [[one, zero], [zero, one]],
                                  [[zero] * 2] * 2, [[zero] * 2] * 2,
                                  [[-one, zero], [zero, -one]])
        out = eigen_sections(Gd, 1)
        assert out[0] == Section.frame(R2, 0).scale(
            ScalarField.constant(R2, 2))
        assert out[2].is_zero     # covector frames are killed


class TestEigenbundleClosure:
    def test_lemma_2_8_closure_for_integrable_involution(self):
        # diag(Id, -Id) has vanishing real Nijenhuis; brackets of eigen
        # sections (including monomial multiples) stay in the eigenbundle
        from gencliff.courant import dorfman
        one, zero = ScalarField.one(R2), ScalarField.zero(R2)
        Gd = EndField.from_blocks(R2, [[one, zero], [zero, one]],
                                  [[zero] * 2] * 2, [[zero] * 2] * 2,
                                  [[-one, zero], [zero, -one]])
        assert vanishes(bind_real_nijenhuis(Gd), 1).vanished
        x1 = ScalarField.variable(R2, 0)
        for sign in (1, -1):
            base = [s for s in eigen_sections(Gd, sign) if not s.is_zero]
            for u in base:
                for v in base:
                    for mult in (ScalarField.one(R2), x1):
                        w = dorfman(u.scale(mult), v.scale(x1))
                        Gw = Gd.apply(w)
                        want = w if sign == 1 else -w
                        assert Gw == want


class TestLemmaIdentities:
    def test_anticommuting_pair_constant_frames(self):
        T = hyperkahler_r4()
        out = lemma_identities(T.I1, T.I2, Section.frame(R4, 0),
                               Section.frame(R4, 1))
        assert all(eq for _, lhs, rhs, eq in out)
        assert all(lhs.is_zero and rhs.is_zero for _, lhs, rhs, _ in out)

    def test_polynomial_sections(self):
        T = hyperkahler_r4()
        x1 = ScalarField.variable(R4, 0)
        A = Section.frame(R4, 0).scale(x1)
        B = Section.frame(R4, 1)
        out = lemma_identities(T.I1, T.I2, A, B)
        assert all(eq for _, lhs, rhs, eq in out)

    def test_nontrivial_sides_for_nonintegrable_pair(self):
        # a non-closed B-transform of the product pair keeps the algebraic
        # preconditions but kills integrability, so the identities relate
        # genuinely nonzero tensors
        from gencliff.examples import product_flip
        from gencliff.gcs import bfield_transform
        P = product_flip()
        R8 = P.chart
        B = KForm(R8, 2, {(2, 4): ScalarField.variable(R8, 0)})
        I1t = EndField(R8, bfield_transform(P.I1, B).entries, None)
        I2t = EndField(R8, bfield_transform(P.I2, B).entries, None)
        assert not nijenhuis(I1t, Section.frame(R8, 0),
                             Section.frame(R8, 2)).is_zero
        out = lemma_identities(I1t, I2t, Section.frame(R8, 0),
                               Section.frame(R8, 2))
        assert all(eq for _, _, _, eq in out)
        assert any(not lhs.is_zero for _, lhs, _, _ in out)

    def test_randomized_pairs(self):
        # 10 cases here; the 100-case sweep is acceptance criterion 2
        rng = random.Random(7)
        T = hyperkahler_r4()
        for _ in range(10):
            A, B = rnd_section(rng, R4), rnd_section(rng, R4)
            out = lemma_identities(T.I1, T.I2, A, B)
            assert all(eq for _, _, _, eq in out)

    def test_precondition_violations(self):
        T = hyperkahler_r4()
        with pytest.raises(ValueError):
            lemma_identities(metric_r2(), identity_like(R2),
                             Section.frame(R2, 0), Section.frame(R2, 1))
        with pytest.raises(ValueError):
            lemma_identities(T.I1, T.I1, Section.frame(R4, 0),
                             Section.frame(R4, 1))


class TestLemma22Conclusions:
    def test_product_and_concomitant_vanish(self):
        T = hyperkahler_r4()
        IJ = T.I1 @ T.I2
        assert vanishes(bind_nijenhuis(IJ), 1).vanished
        assert vanishes(bind_concomitant(T.I1, T.I2), 1).vanished
