"""Spin(3) rotation family, connection identities, the twistor structure."""

import dataclasses
import random
from fractions import Fraction

import pytest

from gencliff import twistor
from gencliff._core import kernel as K
from gencliff.scalar import GaussianRational, Poly, ScalarField
from gencliff.courant import Section, dorfman
from gencliff.gcs import (EndField, _PowerDen,
                          _kernel_generators, _kernel_setup, _mat_mul_terms,
                          _operand, _residuals, _sparse_rows,
                          bind_nijenhuis, generator_labels, is_almost_gcs,
                          vanishes)
from gencliff.clifford import induce, project, theorem_1_1, verify_triple
from gencliff.examples import hyperkahler_r4, product_flip
from tests import connection_oracle as oracle
from tests.layout import integral, packed
from tests.test_gcs import (complex_frame, gauss_rank, generator_sections,
                            half_pairs)
from gencliff.twistor import (TwistorPoint, _sphere_base,
                              check_dI_commutator, check_flatness,
                              connection_data, rot_T, rot_field,
                              rotate_family, sample_points, sphere_chart,
                              sphere_gcs, stereo_field, stereo_vec,
                              theorem_1_3, twistor_structure)

GR = GaussianRational
I = GR(0, 1)


def verified_triple():
    return verify_triple(hyperkahler_r4(), 0)


def flip_triple():
    """product_flip: the n = 8 builtin, on a 12-coordinate product chart."""
    return verify_triple(product_flip(), 0)


def sphere_scale(chart, base):
    """The integer L > 0 with base.m = L (1+u1^2+v1^2)(1+u2^2+v2^2) on
    chart: the integral sphere base that _ihat builds."""
    L, b, d = base.m[0]
    assert b == 0 and d == 1 and L > 0
    assert base.m == _sphere_base(chart, L).m
    return L


def mixed_brackets_hold(T):
    """The mixed-bracket oracle on T's twistor-structure numerators."""
    Z, base, rows = twistor._twistor_numerators(T)
    return oracle.mixed_bracket_checks(Z, T.chart.dim, base, rows)


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
        # with symbolic matrix rows -- identical numerators over the
        # connection data's integral sphere base m, at n = 4 and n = 8
        S4 = sphere_chart()
        t = rot_field(S4, 0, 1)
        s = rot_field(S4, 2, 3)
        for T in (verified_triple(), flip_triple()):
            conn = connection_data(T)
            sphere_scale(S4, conn.base)
            coeffs = [conn.base.numerator(f) for f in t[0] + s[0]]
            I = T.generators
            prods = (I[1] @ I[2], I[2] @ I[0], I[0] @ I[1])
            half = ScalarField.constant(T.chart, Fraction(1, 2))
            unit = _PowerDen(T.chart)
            mats = [_sparse_rows(unit.numerators(E.scale(half)), True)
                    for E in [I[l] + prods[l] for l in range(3)]
                    + [prods[l] - I[l] for l in range(3)]]
            assert conn.Ihat == (twistor._sector_sum(coeffs, mats), 1)


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


def corrupt_projection(monkeypatch):
    """``project`` as the twistor layer sees it, with the verdict of a
    corrupted sector algebra: with I_1+ negated, I_1+ I_2+ = -I_3+, so
    identities_ok is False."""
    right = twistor.project

    def corrupted(ind, T):
        proj = right(ind, T)
        assert not (-proj.Ip[0] @ proj.Ip[1]).entries_equal(proj.Ip[2])
        return dataclasses.replace(proj, identities_ok=False)
    monkeypatch.setattr(twistor, "project", corrupted)


class TestConnection:
    @pytest.mark.parametrize("make",
                             [verified_triple, lambda: hk4b_triple(),
                              flip_triple],
                             ids=["hyperkahler_r4", "hk4b", "product_flip"])
    def test_data_and_identities(self, make):
        # the checks on c, d, omega1, omega2 and the sector algebra agree
        # with the dense-matrix oracle, at n = 4 (integer and rational
        # sector generators) and n = 8 (16 x 16 numerator matrices)
        T = make()
        conn = connection_data(T)
        assert len(conn.Ihat[0]) == 2 * T.chart.dim
        assert conn.identities_ok
        assert check_dI_commutator(conn) and oracle.dI_commutator(conn)
        assert check_flatness(conn) and oracle.flatness(conn)

    def test_omega1_with_a_second_factor_component_fails(self):
        # omega1 + du2 breaks d_u2 c = omega1_u2 x c and sector locality:
        # both checks and both oracles refuse it
        from gencliff.cartan import KForm
        conn = connection_data(verified_triple())
        du2 = KForm.basis(conn.chart, (2,))
        bad = dataclasses.replace(
            conn, omega1=(conn.omega1[0] + du2,) + conn.omega1[1:])
        assert not check_dI_commutator(bad)
        assert not check_flatness(bad)
        assert not oracle.dI_commutator(bad)
        assert not oracle.flatness(bad)

    def test_failed_projection_identities_fail_the_suites(self, monkeypatch):
        # _ihat refuses the triple; twistor, flatness and theorem13 report
        # the refused connection data alike, as one failed check
        from gencliff.cli import RunConfig, load_model, run
        corrupt_projection(monkeypatch)
        with pytest.raises(ValueError, match="projection identities"):
            connection_data(verified_triple())
        report, code = run(load_model(builtin="hyperkahler_r4"), RunConfig(
            suites=["twistor", "flatness", "theorem13"]))
        assert code == 1
        refused = ["connection data: projection identities (G+-, I_i+-) "
                   "fail"]
        got = [(r["status"], r["witnesses"], r["checks"])
               for r in report["suites"]]
        assert got == [("fail", refused, 1)] * 3

    def test_plus_sector_has_no_second_factor_dependence(self):
        # the c-dependent half of Ihat is constant along (u2, v2): its
        # numerators over m^1 have derivative numerators zero over m^2
        T = verified_triple()
        conn = connection_data(T)
        base = _sphere_base(conn.chart)
        half = twistor._sector_sum([base.numerator(x) for x in conn.c],
                                   conn.Ip)
        assert not oracle.mat_is_zero(half)
        for w in (2, 3):
            d, k = oracle.mat_diff(base, half, 1, w)
            assert k == 2 and oracle.mat_is_zero(d)

    def test_cross_commutator(self):
        # the commutators identities_ok implies, as EndField identities
        T = verified_triple()
        proj = project(induce(T), T)
        assert oracle.cross_commutator((1, 0, 0), (0, 1, 0), proj)
        assert oracle.cross_commutator((1, 2, 3), (1, 2, 3), proj)
        assert oracle.cross_commutator((2, 0, 5), (0, 1, 0), proj)
        # a zero vector combines to the zero endomorphism
        assert oracle.cross_commutator((0, 0, 0), (1, 2, 3), proj)
        # [I1+, I2+] = 2 I3+ directly
        lhs = (proj.Ip[0] @ proj.Ip[1]) - (proj.Ip[1] @ proj.Ip[0])
        rhs = proj.Ip[2].scale(ScalarField.constant(proj.Ip[0].chart, 2))
        assert lhs.entries_equal(rhs)


class TestSphereGcs:
    def test_structural(self):
        E = sphere_gcs()
        assert is_almost_gcs(E)
        assert vanishes(bind_nijenhuis(E), 1).vanished

    def test_flipped_pattern_is_the_negative(self, monkeypatch):
        # flip_orientation negates SPHERE_PATTERN, so sphere_gcs and the
        # twistor numerators both read the opposite orientation
        E = sphere_gcs()
        flip_orientation(monkeypatch)
        F = twistor.sphere_gcs()
        assert is_almost_gcs(F)
        assert F == -E

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
        # the Leibniz-rule bracket (_PowerDen.dorfman) on numerators of
        # P / m^j and Q / m^k, over m^(j+k+1) and lifted once more, against
        # the Cartan-calculus route on the same rational sections; among
        # them m^j times a constant section, kept over m^0
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

        constant = [{}, packed({(0,) * 4: (2, -1, 1)}), {}, {}, {}, {}, {},
                    packed({(0,) * 4: (-3, 0, 1)})]
        for j in range(3):
            for k in range(3):
                P, Q = numerators(), numerators()
                if j == k:
                    P = [K.p_mul(p, base.mpow(j)) if p else {}
                         for p in constant]
                A, B = base.operand(P, j), base.operand(Q, k)
                assert A[2] == (0 if j == k else j)
                want = dorfman(section(P, j), section(Q, k))
                for top in (j + k + 1, j + k + 2):
                    R = base.dorfman(A, B, None, top)
                    assert section(R, top) == want


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
        # connection form; the numerators of its entries over the integral
        # sphere base m = L q1 q2 of connection_data must equal the blocks
        # assembled from connection_data's Ihat on the sphere chart
        # (exponents padded by n leading zeros) and the sphere structure's
        # constants times m
        T = make()
        n = T.chart.dim
        E = twistor_structure(T)
        conn = connection_data(T)
        base = _sphere_base(E.chart, sphere_scale(conn.chart, conn.base))
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
    structure is then not involutive (see sphere_gcs).  Both sphere_gcs and
    the twistor numerators read SPHERE_PATTERN."""
    monkeypatch.setattr(twistor, "SPHERE_PATTERN", tuple(
        (i, j, -s) for i, j, s in twistor.SPHERE_PATTERN))


def representative_pair(witness, frames, reps=None):
    """True iff a witness (..., label_a, label_b, note) is a frame pair
    a < b, within one half of reps, split in its index order, when reps
    is given: the pairs the certificate evaluates on a J-complex frame."""
    a, b = frames.index(witness[-3]), frames.index(witness[-2])
    return a < b if reps is None else (a, b) in half_pairs(reps)


class TestTheorem13:
    # the twistor structure is orthogonal with square -Id, so its Nijenhuis
    # tensor is C-infinity-bilinear and skew: the frame pairs a < b of the
    # product chart decide it, and so do the pairs within each half of a
    # J-complex frame, the 8 (12) frame elements that with their images
    # form a basis at the origin: 2 * (4 * 3 / 2) pairs at n = 4,
    # 2 * (6 * 5 / 2) at n = 8.  The sampled mode keeps every frame pair
    # a < b, 16 * 15 / 2 at n = 4
    CERT_PAIRS = 2 * (4 * 3 // 2)
    SAMPLED_PAIRS = 16 * 15 // 2

    @pytest.mark.parametrize("build, pairs, frame",
                             [(verified_triple, CERT_PAIRS,
                               "d1 d3 d5 d7 e1 e3 e5 e7"),
                              (hk4b_triple, CERT_PAIRS,
                               "d1 d2 d3 d4 d5 d7 e5 e7"),
                              (flip_triple, 2 * (6 * 5 // 2),
                               "d1 d3 d5 d7 d9 d11 e1 e3 e5 e7 e9 e11")],
                             ids=["hyperkahler_r4", "hk4b", "product_flip"])
    def test_symbolic_certificate(self, build, pairs, frame):
        # the J-complex frame, its count, and the verdict of the degree-0
        # sweep over every ordered frame pair
        from gencliff.gcs import _complex_frame, _kernel_setup
        T = build()
        rep = theorem_1_3(T)
        assert rep.status == "pass"
        assert rep.nijenhuis_checks == pairs
        assert mixed_brackets_hold(T)
        assert rep.mode == "symbolic"
        tensor = bind_nijenhuis(twistor_structure(T))
        mats, _, nums, _ = _kernel_setup(tensor)
        reps = _complex_frame(mats["base"], nums[0].rows)
        assert reps == complex_frame(tensor)
        labels = generator_labels(tensor.chart, 0)
        assert " ".join(labels[r] for r in reps) == frame
        assert theorem_1_3(T, 0).status == rep.status

    def test_reads_the_numerators_not_the_structure(self, monkeypatch):
        # theorem_1_3 evaluates the numerators of _twistor_numerators over
        # the sphere base; the normalized twistor_structure is not built
        T = hk4b_triple()
        want = theorem_1_3(T)

        def refuse(*args, **kwargs):
            raise AssertionError("twistor_structure, sphere_gcs or an "
                                 "EndField product built")
        # the sphere block is written from SPHERE_PATTERN: no EndField is
        # built or multiplied
        monkeypatch.setattr(twistor, "twistor_structure", refuse)
        monkeypatch.setattr(twistor, "sphere_gcs", refuse)
        monkeypatch.setattr(EndField, "__matmul__", refuse)
        got = theorem_1_3(T)
        assert (got.status, got.nijenhuis_checks) == \
            (want.status, want.nijenhuis_checks) == ("pass", self.CERT_PAIRS)

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
        assert rep.mode == "symbolic"

    def test_sampled_mode(self):
        # the J-complex frame is a basis on a dense set only, so at points
        # every frame pair a < b is evaluated
        T = verified_triple()
        rep = theorem_1_3(T, samples=sample_points(2, seed=11))
        assert rep.status == "pass"
        assert rep.mode == "sampled"
        assert rep.nijenhuis_checks == 2 * self.SAMPLED_PAIRS

    def test_complex_frame_is_a_basis_on_a_dense_set_only(self):
        # the frame chosen at the origin, with its images under the twistor
        # structure, spans 14 of 16 dimensions at (1, i) and (i, 1)
        E = twistor_structure(verified_triple())
        reps = complex_frame(bind_nijenhuis(E))
        ranks = []
        for p in sample_points(5, seed=0):
            point = (0,) * 4 + (p.zeta1.re, p.zeta1.im, p.zeta2.re,
                                p.zeta2.im)
            Jp = [[f.evaluate(point) for f in row] for row in E.entries]
            ranks.append(gauss_rank(
                [[GR(int(i == r)) for i in range(16)] for r in reps]
                + [[row[r] for row in Jp] for r in reps]))
        assert ranks == [16, 14, 14, 16, 16]

    @pytest.mark.parametrize("samples", [None, sample_points(2, seed=11)])
    def test_opposite_orientation_fails(self, monkeypatch, samples):
        # negative control, in both modes: the certificate fails, with the
        # witnesses of the degree-0 sweep on the pairs within the halves of
        # the J-complex frame, or on every pair a < b at points
        flip_orientation(monkeypatch)
        T = verified_triple()
        rep = theorem_1_3(T, samples=samples)
        assert rep.status == "fail"
        # 10 a point, or 6 of the certificate's 12 pairs
        assert len(rep.witnesses) == (10 * len(samples) if samples else 6)
        assert all(w[-1].startswith("nonzero") for w in rep.witnesses)
        every = 16 * 16
        cert = theorem_1_3(T, samples=samples, max_witnesses=every)
        sweep = theorem_1_3(T, 0, samples=samples, max_witnesses=every)
        E = twistor_structure(T)
        if samples:
            assert cert.nijenhuis_checks == self.SAMPLED_PAIRS * len(samples)
            reps = None
        else:
            assert cert.nijenhuis_checks == self.CERT_PAIRS
            reps = complex_frame(bind_nijenhuis(E))
            assert len(reps) == 8
        frames = generator_labels(E.chart, 0)
        assert cert.witnesses == [w for w in sweep.witnesses
                                  if representative_pair(w, frames, reps)]

    def test_opposite_orientation_fails_at_n8(self, monkeypatch):
        # the same negative control on the 12-coordinate product chart of
        # product_flip: the witnesses of the degree-0 sweep on the pairs
        # within the halves of the J-complex frame
        flip_orientation(monkeypatch)
        T = flip_triple()
        rep = theorem_1_3(T)
        assert rep.status == "fail"
        # 4 of the certificate's 30 pairs
        assert len(rep.witnesses) == 4
        assert all(w[-1] == "nonzero" for w in rep.witnesses)
        every = 24 * 24
        cert = theorem_1_3(T, max_witnesses=every)
        sweep = theorem_1_3(T, 0, max_witnesses=every)
        assert cert.nijenhuis_checks == 2 * (6 * 5 // 2)
        E = twistor_structure(T)
        reps = complex_frame(bind_nijenhuis(E))
        assert len(reps) == 12
        frames = generator_labels(E.chart, 0)
        assert cert.witnesses == [w for w in sweep.witnesses
                                  if representative_pair(w, frames, reps)]

    @pytest.mark.parametrize("flip", [False, True])
    def test_vanishes_sweeps_the_twistor_structure(self, monkeypatch, flip):
        # the twistor structure is one more input of gcs.vanishes: 12
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
        # the suite's check brackets the numerators of v over the integral
        # sphere base m of _twistor_numerators by the Leibniz rules
        # (_PowerDen.dorfman): the same bracket over m^2
        Zn, base, rows = twistor._twistor_numerators(T)
        sphere_scale(Z, base)
        vn = base.operand([base.numerator(f) for f in v.to_components()], 1)
        for frame, want in ((alpha, lhs), (form, Section.zero(Z))):
            P = [f.num.terms for f in frame.to_components()]
            got = base.dorfman(base.operand(P, 0), vn, None, 2)
            assert base.section(got, 2) == want
        # the oracle brackets the numerators of E over m directly
        assert Zn == Z
        assert rows == [[base.numerator(f) for f in row] for row in E.entries]
        assert mixed_brackets_hold(T)

    @pytest.mark.parametrize("flip", [False, True])
    @pytest.mark.parametrize("build", [verified_triple, hk4b_triple,
                                       flip_triple],
                             ids=["hyperkahler_r4", "hk4b", "product_flip"])
    def test_square_from_the_proof_is_the_product(self, monkeypatch, build,
                                                  flip):
        # theorem_1_3 hands -m^2 Id to the skew gate as the square of the
        # twistor structure's numerators over m (_twistor_tensor) instead
        # of multiplying them: it is their product, with either orientation
        if flip:
            flip_orientation(monkeypatch)
        _, tensor = twistor._twistor_tensor(build())
        _, _, (S,), square = _kernel_setup(tensor)
        assert square == _mat_mul_terms(S.rows, S.rows)


def refuse_merge(*args):
    raise AssertionError("two denominators merged")


def seed0_hk4b_triple():
    """The seed-0 hk4b triple of the benchmark's input generator, its
    relations verified."""
    from gencliff.cli import load_model
    from tests.test_cli import hk4b_document
    return verify_triple(load_model(text=hk4b_document()).triple)


class TestIntegralBase:
    """Over the sphere base m = L q1 q2 of ``_ihat`` every numerator
    theorem_1_3 builds has Gaussian-integer coefficients."""

    @pytest.mark.parametrize("build", [verified_triple, seed0_hk4b_triple,
                                       flip_triple],
                             ids=["hyperkahler_r4", "hk4b-seed0",
                                  "product_flip"])
    def test_numerators_jacobians_and_pairs_are_integral(self, build,
                                                          monkeypatch):
        # the structure's numerators over m^1, every frame generator's
        # operand and its image's (numerators, plain Jacobians and power of
        # m, ``_PowerDen.operand``), and the tensor on every frame
        # pair a < b (pointwise, so more brackets than the certificate's);
        # no accumulator merges two denominators on the way
        T = build()
        Z, tensor = twistor._twistor_tensor(T)
        (rec,) = tensor.numerators
        base, rows = rec.base, rec.rows
        monkeypatch.setattr(K, "_merge", refuse_merge)
        assert integral(base.m, *(p for row in rows for p in row))
        setup = _kernel_setup(tensor)
        for A in _kernel_generators(Z, 0):
            for S, jac, _ in _operand("nijenhuis", setup[0], A):
                assert integral(*S)
                assert integral(*(d for row in jac if row for d in row))
        _, _, pairs = _residuals(tensor, None, pointwise=True)
        count = 0
        for _, _, P in pairs:
            assert integral(*P)
            count += 1
        assert count == len(rows) * (len(rows) - 1) // 2

    def test_witnesses_match_the_structure(self, monkeypatch):
        # with the opposite orientation the integral numerators fail on the
        # pairs where the normalized twistor structure's tensor is nonzero
        flip_orientation(monkeypatch)
        T = seed0_hk4b_triple()
        rep = theorem_1_3(T, max_witnesses=100)
        E = twistor_structure(T)
        tensor = bind_nijenhuis(E)
        labels = generator_labels(E.chart, 0)
        frames = generator_sections(E.chart, 0)
        want = [(labels[r], labels[s], "nonzero")
                for r, s, _ in _residuals(tensor, None)[2]
                if not tensor.evaluate(frames[r], frames[s]).is_zero]
        assert rep.status == "fail" and want
        assert rep.witnesses == want


class TestTwoHalves:
    """The pairs within the two halves of a J-complex frame R decide a
    skew N_J (proof in ``gcs._complex_frame``), checked against what the
    proof rests on and against every pair within R."""

    def test_involutivity_tensor_is_totally_skew(self, monkeypatch):
        # T_L(l_r, l_s, l_t) = <(1 + iJ) N_J(e_r, e_s), l_t> up to a
        # factor -1/2, l_t = e_t - iJ e_t, on the 8 * 7 * 6 ordered triples
        # of distinct indices of R, exactly at a rational sphere point of
        # the flipped twistor structure of hk4b, where N_J does not vanish:
        # it changes sign under both transpositions
        from gencliff.gcs import _residuals
        flip_orientation(monkeypatch)
        E = twistor_structure(hk4b_triple())
        tensor = bind_nijenhuis(E)
        R = complex_frame(tensor)
        size, n = E.size, E.chart.dim
        point = (0,) * 4 + (Fraction(1, 2), Fraction(-1, 3), Fraction(2),
                            Fraction(1, 5))
        Jp = [[f.evaluate(point) for f in row] for row in E.entries]
        base, _, pairs = _residuals(tensor, 0)
        m3 = Poly(E.chart, base.mpow(3)).evaluate(point)
        N = {(r, s): [Poly(E.chart, p).evaluate(point) / m3 for p in P]
             for r, s, P in pairs if r in R and s in R and r != s}

        def pair(A, B):
            return sum((A[a] * B[(a + n) % size] for a in range(size)),
                       GR(0)) * Fraction(1, 2)

        def plus_iJ(v):
            return [v[a] + I * sum((Jp[a][b] * v[b] for b in range(size)),
                                   GR(0)) for a in range(size)]
        ell = {t: [GR(int(a == t)) - I * Jp[a][t] for a in range(size)]
               for t in R}
        projected = {rs: plus_iJ(v) for rs, v in N.items()}
        TL = {(r, s, t): pair(projected[r, s], ell[t])
              for r, s in N for t in R if t not in (r, s)}
        assert len(TL) == 8 * 7 * 6
        assert all(v == -TL[s, r, t] and v == -TL[r, t, s]
                   for (r, s, t), v in TL.items())
        assert any(not v.is_zero for v in TL.values())

    @pytest.mark.parametrize("case", ["n4", "n8", "nonclosed"])
    def test_halves_decide_as_every_pair_within_the_frame(self, monkeypatch,
                                                          case):
        # the certificate's verdict on the pairs within the halves of R is
        # the verdict over every pair a < b within R, read from the degree-0
        # sweep: on the flipped twistor structure of hk4b (n = 4) and of
        # product_flip (n = 8), and on the three N(Ii,Ii) of the
        # nonclosed-bfield-hk4 control (hyperkahler_r4 under B = x1 dx2^dx3
        # without its flux dB)
        from tests.test_gcs import gate_triple
        # (tensor, the certificate's verdict, the sweep's witnesses)
        if case == "nonclosed":
            runs = [(tensor, vanishes(tensor).vanished,
                     vanishes(tensor, 0, max_witnesses=8 * 8).witnesses)
                    for tensor in map(bind_nijenhuis,
                                      gate_triple("nonclosed").generators)]
        else:
            flip_orientation(monkeypatch)
            T = hk4b_triple() if case == "n4" else flip_triple()
            every = (2 * T.chart.dim + 8) ** 2
            runs = [(bind_nijenhuis(twistor_structure(T)),
                     theorem_1_3(T).status == "pass",
                     theorem_1_3(T, 0, max_witnesses=every).witnesses)]
        for tensor, vanished, witnesses in runs:
            R = complex_frame(tensor)
            frames = generator_labels(tensor.chart, 0)
            within = [(a, b) for a, b in (
                (frames.index(w[0]), frames.index(w[1])) for w in witnesses)
                if a < b and a in R and b in R]
            assert vanished == (not within)
            assert not vanished

class TestSamplePoints:
    def test_deterministic_and_includes_basics(self):
        a = sample_points(10, seed=5)
        b = sample_points(10, seed=5)
        assert a == b
        assert a[0] == TwistorPoint(GR(0), GR(0))
        assert a[1] == TwistorPoint(GR(1), I)


def twisted_bfield_triple():
    """hyperkahler_r4 transformed by the non-closed B = x1 dx2^dx3 and twisted
    by its flux dB: an integrable triple with non-constant generators."""
    from gencliff.cartan import KForm
    from gencliff.clifford import CliffordTriple
    from gencliff.gcs import bfield_transform
    chart = hyperkahler_r4().chart
    B = KForm.basis(chart, (1, 2)).scale(ScalarField.variable(chart, 0))
    return verify_triple(CliffordTriple(*[
        bfield_transform(E, B) for E in hyperkahler_r4().generators]))


def nonclosed_bfield():
    from tests.test_clifford import nonclosed_bfield_triple
    return verify_triple(nonclosed_bfield_triple())


def pointwise_verdict(T, points):
    """The per-point path theorem_1_2 replaces: rotate_family, then
    verify_triple and theorem_1_1 of each rotated triple."""
    for p in points:
        R = verify_triple(rotate_family(T, p))
        if not R.status.integrable or theorem_1_1(R).status != "pass":
            return "fail"
    return "pass"


class TestTheorem12:
    @pytest.mark.parametrize("build, verdict", [
        (verified_triple, "pass"), (flip_triple, "pass"),
        (hk4b_triple, "pass"), (twisted_bfield_triple, "pass"),
        (nonclosed_bfield, "fail")])
    def test_certificate_matches_pointwise_oracle(self, build, verdict):
        T = build()
        rep = twistor.theorem_1_2(T)
        assert rep.status == pointwise_verdict(T, sample_points(3, seed=0)) \
            == verdict
        assert len(rep.families) == 24
        n = T.chart.dim
        if verdict == "pass":
            # 24 skew families on the n(2n - 1) frame pairs: 672 at n = 4,
            # 2,880 at n = 8
            assert sum(f.sample_count for f in rep.families) == \
                24 * n * (2 * n - 1)
        else:
            assert rep.witnesses()

    def test_twisted_bfield_base_theorem_1_1_passes(self):
        # the base triple's diagonal families share the non-constant
        # W = -G, so theorem_1_1 decides them as the differences
        # N(I1,J1) - N(I2,J2) and N(I1,J1) - N(I3,J3) on 28 frame pairs each
        rep = theorem_1_1(twisted_bfield_triple())
        assert rep.status == "pass"
        diffs = [f for f in rep.families if f.identity == "difference"]
        assert [f.name for f in diffs] == ["N(I1,J1)-N(I2,J2)",
                                           "N(I1,J1)-N(I3,J3)"]
        assert [f.sample_count for f in diffs] == [28, 28]
        assert len(rep.families) == 20
        assert all(f.sample_count == 28 for f in rep.families)

    def test_twisted_bfield_base_passes_the_theorem11_suite(self):
        # the same triple as a CLI document with its flux
        # dB = dx1^dx2^dx3: for each generator, the 2 * (2 * 1 / 2) pairs
        # within the halves of its 4-element J-complex frame, then the 20
        # reports of theorem_1_1 on 28 frame pairs each
        import json
        from gencliff.cli import RunConfig, load_model, run
        T = twisted_bfield_triple()
        doc = {"chart": {"dim": 4, "coords": list(T.chart.names)},
               "triple": {f"I{k + 1}": [[str(f) for f in row]
                                        for row in E.entries]
                          for k, E in enumerate(T.generators)},
               "flux": [{"indices": [1, 2, 3], "coeff": "1"}]}
        report, code = run(load_model(text=json.dumps(doc)),
                           RunConfig(suites=["theorem11"]))
        assert code == 0
        res = report["suites"][0]
        assert (res["status"], res["checks"]) == \
            ("pass", 3 * 2 * (2 * 1 // 2) + 20 * 28)

    def test_nonclosed_bfield_fails_on_its_generators(self):
        # without its flux dB the triple is not integrable: the theorem11
        # suite fails on the generators' own N(Ii,Ii), before theorem_1_1
        import json
        from gencliff.cli import RunConfig, load_model, run
        T = nonclosed_bfield()
        doc = {"chart": {"dim": 4, "coords": list(T.chart.names)},
               "triple": {f"I{k + 1}": [[str(f) for f in row]
                                        for row in E.entries]
                          for k, E in enumerate(T.generators)}}
        report, code = run(load_model(text=json.dumps(doc)),
                           RunConfig(suites=["theorem11"]))
        res = report["suites"][0]
        assert code == 1 and res["status"] == "fail" and res["witnesses"]
        assert {w.split(" at ")[0] for w in res["witnesses"]} <= \
            {"N(I1,I1)", "N(I2,I2)", "N(I3,I3)"}

    @pytest.mark.parametrize("build", [
        verified_triple, flip_triple, hk4b_triple, twisted_bfield_triple,
        nonclosed_bfield])
    def test_theorem_1_1_verdict_matches_theorem_1_2(self, build):
        # the generator conditions and the 21 families (theorem11) against
        # the 24 families of the rotated family (theorem_1_2)
        T = build()
        verdict = ("pass" if T.status.integrable
                   and theorem_1_1(T).status == "pass" else "fail")
        assert verdict == twistor.theorem_1_2(T).status

    def test_flipped_rotation_field_fails(self, monkeypatch):
        right = twistor.rot_field

        def flipped(chart, iu, iv):
            R = [list(row) for row in right(chart, iu, iv)]
            R[1][2] = -R[1][2]
            return tuple(tuple(row) for row in R)
        monkeypatch.setattr(twistor, "rot_field", flipped)
        twistor._unit_rot_field.cache_clear()
        try:
            rep = twistor.theorem_1_2(verified_triple())
        finally:
            twistor._unit_rot_field.cache_clear()
        assert rep.status == "fail" and not rep.families
        assert rep.note.startswith("rotation field not in SO(3): ")
        assert "row 2 . row 3" in rep.note
