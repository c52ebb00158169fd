"""Spin(3) rotation family, connection identities, the twistor structure."""

import random
from fractions import Fraction

import pytest

from gencliff import twistor
from gencliff._core import kernel as K
from gencliff.scalar import GaussianRational, Poly, ScalarField
from gencliff.courant import Section, dorfman
from gencliff.gcs import (_PowerDen, _sparse_rows, bind_nijenhuis,
                          generator_labels, is_almost_gcs, vanishes)
from gencliff.clifford import induce, project, theorem_1_1, verify_triple
from gencliff.examples import hyperkahler_r4, product_flip
from tests.layout import packed
from tests.test_gcs import frame_representatives
from gencliff.twistor import (TwistorPoint, _sphere_base,
                              check_cross_commutator, check_dI_commutator,
                              check_flatness, connection_data, rot_T,
                              rot_field, rotate_family, sample_points,
                              sphere_chart, sphere_gcs, stereo_field,
                              stereo_vec, theorem_1_3, twistor_structure)

GR = GaussianRational
I = GR(0, 1)


def verified_triple():
    return verify_triple(hyperkahler_r4(), 0)


def flip_triple():
    """product_flip: the n = 8 builtin, on a 12-coordinate product chart."""
    return verify_triple(product_flip(), 0)


class TestStereo:
    def test_values(self):
        assert stereo_vec(GR(0)) == (1, 0, 0)
        assert stereo_vec(GR(1)) == (0, 0, -1)
        assert stereo_vec(I) == (0, 1, 0)

    def test_unit_norm_random(self):
        for p in sample_points(25, seed=3):
            c = stereo_vec(p.zeta1)
            assert sum(x * x for x in c) == 1


class TestRotations:
    def test_frozen_matrices(self):
        assert rot_T(GR(0)).rows == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
        assert rot_T(GR(1)).rows == ((0, 0, -1), (0, 1, 0), (1, 0, 0))
        assert rot_T(I).rows == ((0, 1, 0), (-1, 0, 0), (0, 0, 1))

    def test_invariants_at_25_points(self):
        # orthogonality, det 1 and the row cross-product identities are
        # checked on construction; first row equals the stereographic vector
        for p in sample_points(25, seed=42):
            for z in (p.zeta1, p.zeta2):
                M = rot_T(z)
                assert M.rows[0] == stereo_vec(z)

    def test_symbolic_field_matches_pointwise(self):
        S4 = sphere_chart()
        rf = rot_field(S4, 0, 1)
        for p in sample_points(6, seed=1):
            z = p.zeta1
            pt = (z.re, z.im, Fraction(0), Fraction(0))
            M = rot_T(z)
            for i in range(3):
                for j in range(3):
                    v = rf[i][j].evaluate(pt)
                    assert v.is_real and v.re == M[i][j]

    def test_symbolic_first_row_is_stereo_field(self):
        S4 = sphere_chart()
        rf = rot_field(S4, 0, 1)
        sf = stereo_field(S4, 0, 1)
        assert all(rf[0][i] == sf[i] for i in range(3))

    def test_two_symbolic_constructions_of_ihat_agree(self):
        # path A: c.I+ + d.I- (the connection data's Ihat); path B: the
        # literal rotation formula K1 = T(I_l + prods)/2 + S(prods - I_l)/2
        # with symbolic matrix rows -- identical numerators over the sphere
        # base m, at n = 4 and n = 8
        S4 = sphere_chart()
        base = _sphere_base(S4)
        t = rot_field(S4, 0, 1)
        s = rot_field(S4, 2, 3)
        coeffs = [base.numerator(f) for f in t[0] + s[0]]
        for T in (verified_triple(), flip_triple()):
            I = T.generators
            prods = (I[1] @ I[2], I[2] @ I[0], I[0] @ I[1])
            half = ScalarField.constant(T.chart, Fraction(1, 2))
            unit = _PowerDen(T.chart)
            mats = [_sparse_rows(unit.numerators(E.scale(half)), True)
                    for E in [I[l] + prods[l] for l in range(3)]
                    + [prods[l] - I[l] for l in range(3)]]
            assert connection_data(T).Ihat == \
                (twistor._sector_sum(coeffs, mats), 1)


class TestRotateFamily:
    def test_origin_gives_induced_triple(self):
        T = verified_triple()
        ind = induce(T)
        R = rotate_family(T, TwistorPoint(GR(0), GR(0)))
        assert R.I1.entries_equal(ind.J1)
        assert R.I2.entries_equal(ind.J2)
        assert R.I3.entries_equal(ind.J3)

    def test_sample_point_relations_and_integrability(self):
        T = verified_triple()
        R = rotate_family(T, TwistorPoint(GR(1), I))
        assert R.status.relations_ok
        Rv = verify_triple(R, 1)
        assert Rv.status.integrable
        rep = theorem_1_1(Rv, 0)
        assert rep.status == "pass"

    def test_unverified_triple_rejected(self):
        from gencliff.clifford import CliffordTriple
        T = hyperkahler_r4()
        raw = CliffordTriple(T.I1, T.I2, T.I3)
        with pytest.raises(ValueError):
            rotate_family(raw, TwistorPoint(GR(0), GR(0)))


class TestConnection:
    def test_data_and_identities(self):
        T = verified_triple()
        conn = connection_data(T)   # unit identities asserted inside
        assert check_dI_commutator(conn)
        assert check_flatness(conn)

    def test_product_flip_identities(self):
        # every chart dimension: the n = 8 builtin's connection data (16 x
        # 16 numerator matrices) satisfies the same identities
        conn = connection_data(flip_triple())
        assert len(conn.Ihat[0]) == 16
        assert check_dI_commutator(conn)
        assert check_flatness(conn)

    def test_plus_sector_has_no_second_factor_dependence(self):
        # the c-dependent half of Ihat is constant along (u2, v2): its
        # numerators over m^1 have derivative numerators zero over m^2
        T = verified_triple()
        conn = connection_data(T)
        base = _sphere_base(conn.chart)
        half = twistor._sector_sum([base.numerator(x) for x in conn.c],
                                   conn.Ip)
        assert not base.mat_is_zero(half)
        for w in (2, 3):
            d, k = base.mat_diff(half, 1, w)
            assert k == 2 and base.mat_is_zero(d)

    def test_cross_commutator(self):
        T = verified_triple()
        proj = project(induce(T), T)
        assert check_cross_commutator((1, 0, 0), (0, 1, 0), proj)
        assert check_cross_commutator((1, 2, 3), (1, 2, 3), proj)
        assert check_cross_commutator((2, 0, 5), (0, 1, 0), proj)
        # a zero vector combines to the zero endomorphism
        assert check_cross_commutator((0, 0, 0), (1, 2, 3), proj)
        # [I1+, I2+] = 2 I3+ directly
        lhs = (proj.Ip[0] @ proj.Ip[1]) - (proj.Ip[1] @ proj.Ip[0])
        rhs = proj.Ip[2].scale(ScalarField.constant(proj.Ip[0].chart, 2))
        assert lhs.entries_equal(rhs)


class TestSphereGcs:
    def test_structural(self):
        E = sphere_gcs()
        assert is_almost_gcs(E)
        assert vanishes(bind_nijenhuis(E), 1).vanished

    def test_eigenbundle_orientation(self):
        # +i eigenbundle: d/d_zeta vectors and d_zetabar covectors of the
        # stereographic coordinate (the fiber-holomorphic coordinate is the
        # conjugate of the stereographic one; see sphere_gcs docstring)
        E = sphere_gcs()
        chart = E.chart
        i_unit = ScalarField.constant(chart, GaussianRational(0, 1))
        # vector d_zeta1 ~ d_u1 - i d_v1
        v = [ScalarField.zero(chart)] * 8
        v = list(v)
        v[0] = ScalarField.one(chart)
        v[1] = -i_unit
        sec = Section.from_components(chart, v)
        out = E.apply(sec)
        want = Section.from_components(
            chart, [i_unit * f for f in sec.to_components()])
        assert out == want
        # covector d_zetabar1 ~ e_u1 - i e_v1
        w = [ScalarField.zero(chart)] * 8
        w[4] = ScalarField.one(chart)
        w[5] = -i_unit
        sec2 = Section.from_components(chart, w)
        out2 = E.apply(sec2)
        want2 = Section.from_components(
            chart, [i_unit * f for f in sec2.to_components()])
        assert out2 == want2


class TestFixedDenominatorBracket:
    def test_matches_reference_bracket(self):
        # the kernel bracket with quotient-rule derivatives, on numerators
        # of P / m^j and Q / m^k, against the Cartan-calculus route on the
        # same rational sections
        S4 = sphere_chart()
        base = _sphere_base(S4)
        rng = random.Random(5)

        def numerators():
            P = [{} for _ in range(8)]
            for a in rng.sample(range(8), 3):
                m = tuple(int(t == rng.randrange(5)) for t in range(4))
                P[a] = packed({m: (rng.choice((-2, -1, 1, 3)),
                                   rng.choice((0, 1)), 1)})
            return P

        def section(P, j):
            den = Poly(S4, base.mpow(j))
            return Section.from_components(
                S4, [ScalarField(Poly(S4, p), den) for p in P])

        for j in range(3):
            for k in range(3):
                P, Q = numerators(), numerators()
                R, e = base.dorfman(P, j, Q, k)
                assert e == j + k + 1
                assert section(R, e) == dorfman(section(P, j),
                                                 section(Q, k))


class TestTwistorStructure:
    def test_block_at_origin_is_J1(self):
        T = verified_triple()
        E = twistor_structure(T)
        ind = induce(T)
        Z = E.chart
        origin = (0,) * 8
        for i in range(8):
            for j in range(8):
                src = i if i < 4 else 8 + (i - 4)
                dst = j if j < 4 else 8 + (j - 4)
                got = E.entries[src][dst].evaluate(origin)
                want = ind.J1.entries[i][j].constant_value()
                assert got == want

    def test_is_almost_gcs(self):
        T = verified_triple()
        E = twistor_structure(T)
        assert is_almost_gcs(E)

    @pytest.mark.parametrize("make",
                             [verified_triple, lambda: hk4b_triple(),
                              flip_triple],
                             ids=["hyperkahler_r4", "hk4b", "product_flip"])
    def test_blocks_equal_connection_data(self, make):
        # twistor_structure builds Ihat on the product chart, without the
        # connection form; the numerators of its entries over the sphere
        # base m must equal the blocks assembled from connection_data's
        # Ihat on the sphere chart (exponents padded by n leading zeros) and the
        # sphere structure's constants times m
        T = make()
        n = T.chart.dim
        E = twistor_structure(T)
        base = _sphere_base(E.chart)
        conn = connection_data(T)
        rows, k = conn.Ihat
        assert k == 1

        def mslot(i):
            return i if i < n else i + 4

        def sslot(i):
            return n + i if i < 4 else 2 * n + i
        size = 2 * (n + 4)
        want = [[{} for _ in range(size)] for _ in range(size)]
        for i in range(2 * n):
            for j in range(2 * n):
                want[mslot(i)][mslot(j)] = packed({
                    (0,) * n + K.exponents(mono, 4): c
                    for mono, c in rows[i][j].items()})
        for i, row in enumerate(sphere_gcs().entries):
            for j, f in enumerate(row):
                if not f.is_zero:
                    want[sslot(i)][sslot(j)] = K.p_scale(
                        base.m, f.num.terms[0])
        assert base.numerators(E) == want
        assert E.flux is None

    def test_requires_constant_triple(self):
        from gencliff.cartan import KForm
        from gencliff.gcs import bfield_transform
        T = verified_triple()
        B = KForm(T.chart, 2, {(1, 2): ScalarField.variable(T.chart, 0)})
        gens = [bfield_transform(E, B) for E in T.generators]
        from gencliff.clifford import CliffordTriple, check_relations
        from gencliff.clifford import TripleStatus
        Tb = CliffordTriple(gens[0], gens[1], gens[2], gens[0].flux)
        Tb = Tb.with_status(TripleStatus(check_relations(Tb), ()))
        with pytest.raises(ValueError):
            twistor_structure(Tb)


def hk4b_triple():
    """hyperkahler_r4 transformed by a constant B-field with six nonzero
    entries: closed, so the triple stays integrable, and it carries the zero
    flux dB."""
    from gencliff.cartan import KForm
    from gencliff.clifford import CliffordTriple
    from gencliff.gcs import bfield_transform
    chart = hyperkahler_r4().chart
    pairs = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    coeffs = (Fraction(-3, 7), Fraction(5, 2), Fraction(11, 13),
              Fraction(-2, 3), Fraction(17, 5), Fraction(-19, 23))
    B = KForm(chart, 2, {p: ScalarField.constant(chart, c)
                         for p, c in zip(pairs, coeffs)})
    return verify_triple(CliffordTriple(*[
        bfield_transform(E, B) for E in hyperkahler_r4().generators]))


def flip_orientation(monkeypatch):
    """J_zeta d_u = +d_v on both spheres: the +i eigenbundle of the twistor
    structure is then not involutive (see sphere_gcs)."""
    right = twistor.sphere_gcs
    monkeypatch.setattr(twistor, "sphere_gcs",
                        lambda chart=None: -right(chart))


def representative_pair(witness, frames, reps):
    """True iff a witness (..., label_a, label_b, note) is a frame pair
    a < b within reps."""
    a, b = frames.index(witness[-3]), frames.index(witness[-2])
    return a < b and a in reps and b in reps


class TestTheorem13:
    # the twistor structure is orthogonal with square -Id, so its Nijenhuis
    # tensor is C-infinity-bilinear and skew: the frame pairs a < b of the
    # product chart decide it, and the sphere structure maps d_v1, d_v2,
    # dv1, dv2 to +-d_u1, +-d_u2, +-du1, +-du2, so N_J(A, JB) = -J N_J(A, B)
    # leaves the 12 * 11 / 2 pairs among the 8 M-frame sections and d_u1,
    # d_u2, du1, du2 at n = 4, and the 20 * 19 / 2 pairs among 16 and 4 at
    # n = 8
    CERT_PAIRS = 12 * 11 // 2

    @pytest.mark.parametrize("build, pairs",
                             [(verified_triple, CERT_PAIRS),
                              (hk4b_triple, CERT_PAIRS),
                              (flip_triple, 20 * 19 // 2)],
                             ids=["hyperkahler_r4", "hk4b", "product_flip"])
    def test_symbolic_certificate(self, build, pairs):
        rep = theorem_1_3(build())
        assert rep.status == "pass"
        assert rep.nijenhuis_checks == pairs
        assert rep.mixed_ok
        assert rep.mode == "symbolic"

    def test_zero_flux_is_no_flux(self):
        # the T-dual of hyperkahler_r4 carries the zero flux of the target
        # chart; the product-chart structure carries none
        from gencliff.tduality import conjugate_triple, make_torus_duality
        R4 = hyperkahler_r4()
        T = verify_triple(conjugate_triple(
            make_torus_duality(R4.chart, 0), R4))
        assert T.flux is not None and T.flux.is_zero
        assert twistor_structure(T).flux is None
        rep = theorem_1_3(T)
        assert rep.status == "pass"
        assert rep.nijenhuis_checks == self.CERT_PAIRS

    def test_symbolic_sweep(self):
        # the opt-in cross-check: every ordered frame pair
        T = verified_triple()
        rep = theorem_1_3(T, degree_bound=0)
        assert rep.status == "pass"
        assert rep.nijenhuis_checks == 256
        assert rep.mixed_ok
        assert rep.mode == "symbolic"

    def test_sampled_mode(self):
        T = verified_triple()
        rep = theorem_1_3(T, samples=sample_points(2, seed=11))
        assert rep.status == "pass"
        assert rep.mode == "sampled"
        assert rep.nijenhuis_checks == 2 * self.CERT_PAIRS

    @pytest.mark.parametrize("samples", [None, sample_points(2, seed=11)])
    def test_opposite_orientation_fails(self, monkeypatch, samples):
        # negative control, in both modes: the certificate fails, with the
        # witnesses of the degree-0 sweep on the representative pairs
        flip_orientation(monkeypatch)
        T = verified_triple()
        rep = theorem_1_3(T, samples=samples)
        assert rep.status == "fail"
        assert len(rep.witnesses) == 10 * (len(samples) if samples else 1)
        assert all(w[-1].startswith("nonzero") for w in rep.witnesses)
        every = 16 * 16
        cert = theorem_1_3(T, samples=samples, max_witnesses=every)
        sweep = theorem_1_3(T, 0, samples=samples, max_witnesses=every)
        assert cert.nijenhuis_checks == \
            self.CERT_PAIRS * (len(samples) if samples else 1)
        E = twistor_structure(T)
        reps = frame_representatives(E)
        assert len(reps) == 12
        frames = generator_labels(E.chart, 0)
        assert cert.witnesses == [w for w in sweep.witnesses
                                  if representative_pair(w, frames, reps)]

    def test_opposite_orientation_fails_at_n8(self, monkeypatch):
        # the same negative control on the 12-coordinate product chart of
        # product_flip: witnesses only on representative pairs
        flip_orientation(monkeypatch)
        T = flip_triple()
        rep = theorem_1_3(T)
        assert rep.status == "fail"
        assert len(rep.witnesses) == 10
        E = twistor_structure(T)
        reps = frame_representatives(E)
        assert len(reps) == 20
        frames = generator_labels(E.chart, 0)
        assert all(w[-1] == "nonzero" and representative_pair(w, frames, reps)
                   for w in rep.witnesses)

    @pytest.mark.parametrize("flip", [False, True])
    def test_vanishes_sweeps_the_twistor_structure(self, monkeypatch, flip):
        # the twistor structure is one more input of gcs.vanishes: 66
        # frame pairs that pass, and with the opposite orientation the
        # witnesses of theorem_1_3's symbolic certificate
        if flip:
            flip_orientation(monkeypatch)
        T = verified_triple()
        rep = vanishes(bind_nijenhuis(twistor_structure(T)))
        assert rep.vanished is not flip
        if flip:
            assert [w[:2] for w in rep.witnesses] == \
                [w[:2] for w in theorem_1_3(T).witnesses]
        else:
            assert rep.sample_count == self.CERT_PAIRS

    def test_mixed_bracket_identities_direct(self):
        # Lemma-4.4 style: [alpha, v] = L_{rho(alpha)} v for a sphere vector
        # and a sphere-dependent M-section; zero for a sphere 1-form
        T = verified_triple()
        E = twistor_structure(T)
        Z = E.chart
        v = E.column(0)
        alpha = Section.frame(Z, 4)          # d_u1
        lhs = dorfman(alpha, v)
        rhs = Section.from_components(Z, [f.diff(4)
                                          for f in v.to_components()])
        assert lhs == rhs
        form = Section.frame(Z, 12)          # e_u1 = du1
        assert dorfman(form, v).is_zero
        # the suite's check brackets the numerators of v over the sphere
        # base m on the kernel: the same bracket over m^2
        base = _sphere_base(Z)
        vn = [base.numerator(f) for f in v.to_components()]
        for frame, want in ((alpha, lhs), (form, Section.zero(Z))):
            P = [f.num.terms for f in frame.to_components()]
            got, k = base.dorfman(P, 0, vn, 1)
            assert k == 2 and base.section(got, 2) == want
        assert twistor._mixed_bracket_checks(E, T)


class TestSamplePoints:
    def test_deterministic_and_includes_basics(self):
        a = sample_points(10, seed=5)
        b = sample_points(10, seed=5)
        assert a == b
        assert a[0] == TwistorPoint(GR(0), GR(0))
        assert a[1] == TwistorPoint(GR(1), I)
