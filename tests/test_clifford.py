"""Clifford triples: relations, induced bi-quaternion algebra, projections,
and the simultaneous-integrability suite."""

import pytest

from gencliff.scalar import GaussianRational, ScalarField, standard_chart
from gencliff.courant import Section
from gencliff.gcs import EndField
from gencliff.clifford import (CliffordTriple, check_relations, induce,
                               levi_civita, project, theorem_1_1,
                               verify_triple)
from gencliff.examples import hyperkahler_r4, product_flip
from tests.test_gcs import complex_frame, concomitant_anomaly, half_pairs

R4 = standard_chart(4)


def flat_metric(chart):
    one, zero = ScalarField.one(chart), ScalarField.zero(chart)
    n = chart.dim
    ident = [[one if i == j else zero for j in range(n)] for i in range(n)]
    zeros = [[zero] * n for _ in range(n)]
    return EndField.from_blocks(chart, zeros, ident, ident, zeros)


class TestLeviCivita:
    def test_values(self):
        assert levi_civita(1, 2, 3) == 1
        assert levi_civita(2, 3, 1) == 1
        assert levi_civita(2, 1, 3) == -1
        assert levi_civita(1, 1, 3) == 0

    def test_total_antisymmetry(self):
        for i in (1, 2, 3):
            for j in (1, 2, 3):
                for k in (1, 2, 3):
                    assert levi_civita(i, j, k) == -levi_civita(j, i, k)
                    assert levi_civita(i, j, k) == -levi_civita(i, k, j)


class TestRelations:
    def test_hyperkahler_passes(self):
        rel = check_relations(hyperkahler_r4())
        assert rel.ok and len(rel.checks) == 9

    def test_duplicated_generator_fails(self):
        T = hyperkahler_r4()
        bad = CliffordTriple(T.I1, T.I2, T.I1)
        rel = check_relations(bad)
        assert not rel.ok
        assert "I1 I3 + I3 I1 = 0" in rel.failures

    def test_product_triple(self):
        P = product_flip()
        rel = check_relations(P)
        assert rel.ok
        prod = P.I1 @ P.I2
        assert not prod.entries_equal(P.I3)
        minus_id = EndField.identity(P.chart).scale(
            ScalarField.constant(P.chart, -1))
        assert (prod @ prod).entries_equal(minus_id)


class TestInduce:
    def test_hyperkahler_table(self):
        T = verify_triple(hyperkahler_r4(), 0)
        ind = induce(T)
        assert ind.table_ok
        assert ind.G.entries_equal(flat_metric(R4))
        assert (ind.J1 @ ind.J2).entries_equal(ind.J3)
        assert (ind.G @ ind.G).entries_equal(EndField.identity(R4))

    def test_requires_verified_relations(self):
        # builders hand out relation-checked triples; a hand-assembled one
        # starts unverified and must be rejected
        T = hyperkahler_r4()
        raw = CliffordTriple(T.I1, T.I2, T.I3)
        with pytest.raises(ValueError):
            induce(raw)


class TestAlgebraCache:
    def test_induce_and_project_cached_on_triple(self):
        T = verify_triple(hyperkahler_r4(), 0)
        ind = induce(T)
        assert induce(T) is ind
        proj = project(ind, T)
        assert project(induce(T), T) is proj

    def test_with_status_copy_shares_the_cache_and_keeps_guards(self):
        # a copy has the same generators and flux, so it shares the cache;
        # the relations guard still runs on the copy's own status
        from gencliff.clifford import TripleStatus
        T = verify_triple(hyperkahler_r4(), 0)
        ind = induce(T)
        raw = T.with_status(TripleStatus())
        with pytest.raises(ValueError):
            induce(raw)
        again = T.with_status(T.status)
        assert induce(again) is ind
        assert project(ind, again) is project(ind, T)
        # filled by a copy made before the cache was: seen by the original
        U = verify_triple(hyperkahler_r4(), 0)
        copy = U.with_status(U.status)
        assert induce(U) is induce(copy)
        assert project(induce(copy), copy) is project(induce(U), U)

    def test_project_guard_runs_with_a_filled_cache(self):
        import dataclasses
        T = verify_triple(hyperkahler_r4(), 0)
        project(induce(T), T)
        bad = dataclasses.replace(induce(T), table_ok=False)
        with pytest.raises(ValueError):
            project(bad, T)

    def test_project_of_foreign_induced_not_cached(self):
        T = verify_triple(hyperkahler_r4(), 0)
        U = verify_triple(hyperkahler_r4(), 0)
        own = project(induce(T), T)
        other = project(induce(U), T)
        assert other is not own
        assert project(induce(T), T) is own
        assert other.Gp.entries_equal(own.Gp)


class TestProject:
    def test_identities(self):
        T = verify_triple(hyperkahler_r4(), 0)
        ind = induce(T)
        proj = project(ind, T)
        assert proj.identities_ok
        assert (proj.Gp + proj.Gm).entries_equal(EndField.identity(R4))
        assert (proj.Ip[0] @ proj.Ip[1]).entries_equal(proj.Ip[2])
        mixed = proj.Ip[0] @ proj.Im[1]
        assert all(f.is_zero for row in mixed.entries for f in row)

    def test_rank_split_at_origin(self):
        T = verify_triple(hyperkahler_r4(), 0)
        proj = project(induce(T), T)
        origin = (0,) * 4

        def rank_at(E):
            M = [[f.evaluate(origin) for f in row] for row in E.entries]
            rows = [[GaussianRational(v.re, v.im) for v in r] for r in M]
            rank = 0
            col = 0
            size = len(rows)
            for col in range(size):
                piv = next((r for r in range(rank, size)
                            if not rows[r][col].is_zero), None)
                if piv is None:
                    continue
                rows[rank], rows[piv] = rows[piv], rows[rank]
                inv = rows[rank][col].inverse()
                rows[rank] = [x * inv for x in rows[rank]]
                for r in range(size):
                    if r != rank and not rows[r][col].is_zero:
                        f = rows[r][col]
                        rows[r] = [a - f * b
                                   for a, b in zip(rows[r], rows[rank])]
                rank += 1
            return rank

        assert rank_at(proj.Gp) + rank_at(proj.Gm) == 8


class TestTheorem11:
    def test_unverified_is_inconclusive(self):
        rep = theorem_1_1(hyperkahler_r4(), 1)
        assert rep.status == "inconclusive"

    def test_verified_passes_with_anomaly_classification(self):
        T = verify_triple(hyperkahler_r4(), 1)
        rep = theorem_1_1(T, 1)
        assert rep.status == "pass"
        assert len(rep.families) == 21
        assert "N(I1,J1)" in rep.note

    def test_strict_mode_exposes_commuting_families(self):
        # the literal reading fails exactly on the three commuting diagonal
        # concomitants; the witnesses match the closed-form Leibniz defect
        T = verify_triple(hyperkahler_r4(), 1)
        rep = theorem_1_1(T, 1, mode="strict")
        assert rep.status == "fail"
        failing = {f.name for f in rep.families if not f.vanished}
        assert failing == {"N(I1,J1)", "N(I2,J2)", "N(I3,J3)"}

    def test_anomaly_formula_matches_direct_witness(self):
        from gencliff.gcs import concomitant
        from gencliff.scalar import Poly
        T = verify_triple(hyperkahler_r4(), 0)
        ind = induce(T)
        W = T.I1 @ ind.J1
        x4 = ScalarField.variable(R4, 3)
        A = Section.frame(R4, 0).scale(x4)
        B = Section.frame(R4, 0)
        got = concomitant(T.I1, ind.J1, A, B)
        want = concomitant_anomaly(W, Poly.variable(R4, 3), 0,
                                   Poly.one(R4), 0)
        assert got == want
        # the witness itself: N(I1, J1)(x4 d1, d1) = e4
        assert got == Section.frame(R4, 7)


def nonclosed_bfield_triple():
    """hyperkahler_r4 transformed by B = x1 dx2^dx3 with the flux dB
    dropped: the Clifford relations hold, integrability does not."""
    from gencliff.cartan import KForm
    from gencliff.gcs import bfield_transform
    B = KForm.basis(R4, (1, 2)).scale(ScalarField.variable(R4, 0))
    return CliffordTriple(*[EndField(R4, bfield_transform(E, B).entries)
                            for E in hyperkahler_r4().generators])


FRAMES = ["d1", "d2", "d3", "d4", "e1", "e2", "e3", "e4"]


def certificate_pair(witness, reps):
    """True iff a witness's generator pair is a frame pair (e_a, e_b) with
    a < b within one half of reps, the certificate's pairs when N_J is
    proven C-infinity-bilinear and skew (reps: J's complex frame; a
    generator label carries a '*' iff its monomial is not 1)."""
    a, b = witness[:2]
    return (a in FRAMES and b in FRAMES
            and (FRAMES.index(a), FRAMES.index(b)) in half_pairs(reps))


class TestSymbolCertificate:
    """The Leibniz-symbol certificate (degree_bound None) against the
    degree-1 sweep it replaces on the fast path."""

    # N_J with Ii^2 = -Id and Ii orthogonal, and every family with
    # IJ + JI = c Id for a constant c, are C-infinity-bilinear and skew:
    # the 2n(2n - 1)/2 frame pairs a < b.  For verify_triple's N_J (the
    # first three reports) only the pairs within the halves of the
    # J-complex frame are kept: 4 of the 8 frame elements, with their
    # images under Ii, form a basis, so 2 * (2 * 1 / 2) pairs;
    # theorem_1_1's concomitant N(Ii,Ii) keeps all 28.  The diagonal pairs
    # N(Ii,Ji), with IJ + JI = 2 Ii Ji, are matched against the closed-form
    # anomaly; W = Ii Ji is constant, so the residual is C-infinity-bilinear
    # and skew and keeps the 28 frame pairs a < b too
    # (2n * 2n * (1 + n) = 320 before the gate proved it)
    SKEW_PAIRS = 8 * 7 // 2
    ORBIT_PAIRS = 2 * (2 * 1 // 2)
    CERT_PAIRS = 8 * 7 // 2
    DIAGONAL = {"N(I1,J1)", "N(I2,J2)", "N(I3,J3)"}

    def test_verdicts_agree_with_degree_one_sweep(self):
        cert = verify_triple(hyperkahler_r4())
        sweep = verify_triple(hyperkahler_r4(), 1)
        reports = list(zip(cert.status.integrability,
                           sweep.status.integrability))
        for mode in ("verify", "strict"):
            c = theorem_1_1(cert, mode=mode)
            s = theorem_1_1(sweep, 1, mode=mode)
            assert c.status == s.status
            assert "Leibniz-symbol certificate" in c.note
            assert "sweep" in s.note
            reports += list(zip(c.families, s.families))
        assert len(reports) == 3 + 2 * 21
        for k, (c, s) in enumerate(reports):
            assert c.name == s.name
            assert c.vanished == s.vanished, c.name
            assert c.method == "symbol_certificate" and s.method == "sweep"
            assert c.identity == s.identity
            if c.vanished:      # a failing family stops at 10 witnesses
                assert c.sample_count == (
                    self.ORBIT_PAIRS if k < 3
                    else self.CERT_PAIRS if c.name in self.DIAGONAL
                    else self.SKEW_PAIRS), c.name
                assert s.sample_count == (8 * 5) ** 2
        # the non-tensorial commuting families are seen by the certificate
        assert {c.name for c, _ in reports if not c.vanished} == \
            self.DIAGONAL

    def test_witnesses_are_the_sweep_restricted_to_certificate_pairs(self):
        from gencliff.gcs import bind_nijenhuis, vanishes
        T = nonclosed_bfield_triple()
        assert check_relations(T).ok
        every = (8 * 5) ** 2
        for i, E in enumerate(T.generators):
            tensor = bind_nijenhuis(E, f"N(I{i + 1},I{i + 1})")
            cert = vanishes(tensor, max_witnesses=every)
            sweep = vanishes(tensor, 1, max_witnesses=every)
            assert not cert.vanished and cert.witnesses
            # B vanishes at the origin, where the frame is chosen; with
            # their images under Ii, 4 frame elements form a basis there:
            # 2 * (2 * 1 / 2) pairs within its halves
            reps = complex_frame(tensor)
            assert len(reps) == 4
            assert cert.sample_count == 2 * (2 * 1 // 2)
            assert cert.witnesses == [w for w in sweep.witnesses
                                      if certificate_pair(w, reps)]

    def test_shared_witness_budget(self):
        # the three N(Ii,Ii) reports share 10 witnesses: the same first 10
        # as per-generator reports.  The triple is hyperkahler_r4 under
        # B = x1 dx2^dx3 bound with the closed flux x4 dx1^dx2^dx4 in place
        # of dB.  The certificate's 2 * (2 * 1 / 2) pairs a generator give
        # 2, 1 and 1 witnesses, within the budget; the degree-0 sweep's 8 * 8
        # pairs give more than 10 each, so N(I1,I1) spends the budget at its
        # 13th pair and N(I2,I2) and N(I3,I3) are not evaluated
        from gencliff.gcs import bind_nijenhuis, vanishes
        from tests.test_gcs import gate_triple
        T = gate_triple("flux")

        def witnesses(reports):
            return [(r.name, w) for r in reports for w in r.witnesses]
        for degree_bound, found, counts in (
                (None, 2 + 1 + 1, [2 * (2 * 1 // 2)] * 3),
                (0, 3 * 10, [13])):
            ref = [vanishes(bind_nijenhuis(E, f"N(I{i+1},I{i+1})", T.flux),
                            degree_bound)
                   for i, E in enumerate(T.generators)]
            status = verify_triple(T, degree_bound).status
            assert len(witnesses(ref)) == found
            assert witnesses(status.integrability) == witnesses(ref)[:10]
            assert [r.sample_count for r in status.integrability] == counts
            assert not status.integrable and status.relations_ok


def nonclosed_flip_triple(terms):
    """product_flip (n = 8) transformed by B = sum x_v dx_i^dx_j over the
    0-based (i, j, v) terms, with the flux dB dropped: the Clifford
    relations hold, integrability need not."""
    from gencliff.cartan import KForm
    from gencliff.gcs import bfield_transform
    T = product_flip()
    B = KForm.zero(T.chart, 2)
    for i, j, v in terms:
        B = B + KForm.basis(T.chart, (i, j)).scale(
            ScalarField.variable(T.chart, v))
    return CliffordTriple(*[EndField(T.chart, bfield_transform(E, B).entries)
                            for E in T.generators])


@pytest.mark.parametrize("terms, alone, shared", [
    # N(I2,I2) gets the 5 witnesses N(I1,I1) left, of its 6; N(I3,I3) is
    # not evaluated
    (((3, 5, 0), (5, 6, 3), (3, 6, 2)), [5, 6, 3], [5, 5]),
    # N(I2,I2) keeps its 6 of the 7 left, N(I3,I3) gets the last 1 of its 5
    (((2, 6, 7), (0, 1, 5), (3, 5, 6)), [3, 6, 5], [3, 6, 1])],
    ids=["second_truncated", "third_gets_one"])
def test_partial_witness_budget(terms, alone, shared):
    # a later generator of a failing n = 8 triple gets part of the 10
    # shared witnesses: its report is the one vanishes gives with the
    # budget the earlier ones left as its max_witnesses, so it stops at the
    # last witness it may record.  Each N(Ii,Ii) alone is evaluated on its
    # 12 pairs
    from gencliff.gcs import bind_nijenhuis, vanishes
    T = nonclosed_flip_triple(terms)
    assert check_relations(T).ok
    tensors = [bind_nijenhuis(E, f"N(I{i+1},I{i+1})")
               for i, E in enumerate(T.generators)]
    ref = [vanishes(t) for t in tensors]
    assert [len(r.witnesses) for r in ref] == alone
    assert [r.sample_count for r in ref] == [2 * (4 * 3 // 2)] * 3
    status = verify_triple(T).status
    assert [len(r.witnesses) for r in status.integrability] == shared
    left = [10 - sum(shared[:i]) for i in range(len(shared))]
    assert list(status.integrability) == [
        vanishes(t, max_witnesses=k) for t, k in zip(tensors, left)]
    assert [w for r in status.integrability for w in r.witnesses] == \
        [w for r in ref for w in r.witnesses][:10]
    assert not status.integrable and status.relations_ok


def frame_pair(witness):
    """True iff a witness's generator pair is a frame pair (e_a, e_b) with
    a < b, the pairs of a proven C-infinity-bilinear, skew residual."""
    a, b = witness[:2]
    return a in FRAMES and b in FRAMES and FRAMES.index(a) < FRAMES.index(b)


def diagonal_family(T, flux=None, i=0):
    """N(I_i,J_i) of a relation-checked triple, bound with flux or with the
    triple's own flux."""
    from gencliff.gcs import bind_concomitant
    I, J = T.generators[i], induce(T).J[i]
    if flux is not None:
        I, J = I.with_flux(flux), J.with_flux(flux)
    return bind_concomitant(I, J, f"N(I{i + 1},J{i + 1})", flux or T.flux)


def commuting_cases():
    """Commuting-family bindings by name, with (_commuting_symbol's
    (identity, skew), whether the family meets its identity).  The constant
    cases
    have W = I1 J1 constant: hyperkahler_r4, hk4b and hyperkahler_r4 under
    the constant flux dx1^dx2^dx3, whose H-twist the closed form does not
    hold (it fails on frame pairs).  The fallbacks: (I1, I2), which
    anticommute with the constant W = I1 I2; (S, S) for the antidiagonal S
    (S^2 = -Id, W = -Id) that is not skew-adjoint; N(I1,J1) of the twisted
    triple, whose W = -G is not constant, without a partner."""
    from gencliff.cartan import KForm
    from gencliff.courant import FluxForm
    from gencliff.gcs import bind_concomitant
    from tests.test_gcs import antidiagonal_structure
    from tests.test_twistor import hk4b_triple, twisted_bfield_triple
    T = verify_triple(hyperkahler_r4())
    H = FluxForm(KForm.basis(R4, (0, 1, 2)))
    S = antidiagonal_structure()
    return {
        "hyperkahler_r4": (diagonal_family(T), ("anomaly_matched", True),
                           True),
        "hk4b": (diagonal_family(hk4b_triple()), ("anomaly_matched", True),
                 True),
        "flux": (diagonal_family(T, H), ("anomaly_matched", True), False),
        "non_commuting": (bind_concomitant(T.I1, T.I2, "N(I1,I2)"),
                          ("anomaly_matched", False), False),
        "not_skew_adjoint": (bind_concomitant(S, S, "N(S,S)"),
                             ("anomaly_matched", False), False),
        "no_partner": (diagonal_family(twisted_bfield_triple()),
                       ("vanishes", False), False),
    }


class TestCommutingGate:
    """gcs._commuting_symbol proves the frame pairs a < b decide a
    commuting family's closed-form match (W = I J constant) or the
    difference of two families with one W.  Where it proves it, the
    certificate must be the degree-1 sweep restricted to those pairs; where
    it must not, the certificate keeps 2n * 2n * (1 + n) pairs and the
    sweep's verdict."""

    EVERY = (8 * 5) ** 2
    CERT_PAIRS = 8 * 8 * (1 + 4)

    @staticmethod
    def symbol(fam, partner=None):
        from gencliff.gcs import _commuting_symbol, _kernel_setup
        return _commuting_symbol(
            _kernel_setup(fam),
            None if partner is None else _kernel_setup(partner))

    @pytest.mark.parametrize("case", ["hyperkahler_r4", "hk4b", "flux"])
    def test_frame_pairs_are_the_sweep_restricted(self, case):
        from gencliff.clifford import _commuting_family_report
        fam, proven, verdict = commuting_cases()[case]
        assert self.symbol(fam) == proven
        cert = _commuting_family_report(fam, None, self.EVERY)
        sweep = _commuting_family_report(fam, 1, self.EVERY)
        assert cert.identity == sweep.identity == "anomaly_matched"
        assert cert.sample_count == 8 * 7 // 2
        assert sweep.sample_count == self.EVERY
        assert cert.vanished == sweep.vanished == verdict
        assert cert.witnesses == [w for w in sweep.witnesses
                                  if frame_pair(w)]
        if not verdict:
            assert cert.witnesses

    @pytest.mark.parametrize("case", ["non_commuting", "not_skew_adjoint",
                                      "no_partner"])
    def test_fallback_keeps_the_pairs_and_the_sweep_verdict(self, case):
        from gencliff.clifford import _commuting_family_report
        from gencliff.gcs import vanishes
        fam, proven, verdict = commuting_cases()[case]
        assert self.symbol(fam) == proven
        cert = _commuting_family_report(fam, None, self.EVERY)
        sweep = _commuting_family_report(fam, 1, self.EVERY)
        assert cert.identity == sweep.identity
        assert cert.sample_count == self.CERT_PAIRS
        assert cert.vanished == sweep.vanished == verdict
        # (e_a, e_b) and (x_k e_a, e_b): a label carries '*' iff its
        # monomial is not 1
        assert cert.witnesses == [w for w in sweep.witnesses
                                  if "*" not in w[1]]
        if case == "no_partner":
            # no closed form for a non-constant W: N itself must vanish
            assert cert.identity == "vanishes"
            assert cert == vanishes(fam, max_witnesses=self.EVERY)

    def test_difference_needs_the_same_w(self):
        # the twisted triple's diagonal families share W = -G; N(I1,I2)
        # anticommutes, and hyperkahler_r4's N(I1,J1) has another W
        from gencliff.gcs import bind_concomitant
        from tests.test_twistor import twisted_bfield_triple
        T = twisted_bfield_triple()
        d1, d2 = diagonal_family(T, i=0), diagonal_family(T, i=1)
        assert self.symbol(d2, d1) == self.symbol(d1, d2) == \
            ("difference", True)
        unproven = ("vanishes", False)
        assert self.symbol(d2) == unproven
        assert self.symbol(d2, bind_concomitant(T.I1, T.I2, "N(I1,I2)",
                                                T.flux)) == unproven
        flat = verify_triple(hyperkahler_r4())
        assert self.symbol(diagonal_family(flat)) == \
            ("anomaly_matched", True)
        assert self.symbol(d2, diagonal_family(flat)) == unproven

    def test_difference_is_the_sweep_restricted(self):
        # Delta_12 = N(I1,J1) - N(I2,J2) of the twisted triple: zero on all
        # 1,600 pairs of degree <= 1, and on the 28 frame pairs a < b
        from gencliff.clifford import _commuting_family_report
        from tests.test_twistor import twisted_bfield_triple
        T = twisted_bfield_triple()
        d1, d2 = diagonal_family(T, i=0), diagonal_family(T, i=1)
        for degree_bound, count in ((None, 8 * 7 // 2), (1, self.EVERY)):
            rep = _commuting_family_report(d2, degree_bound, 10, d1)
            assert rep.name == "N(I1,J1)-N(I2,J2)"
            assert rep.identity == "difference"
            assert rep.vanished and rep.sample_count == count


def conjugate_triple(T, Q):
    """Q I_i Q^-1 for an invertible constant Q."""
    Qinv = Q.inverse()
    gens = [EndField(T.chart, (Q @ E @ Qinv).entries) for E in T.generators]
    return CliffordTriple(*gens)


class TestConjugation:
    def _orthogonal_q(self, chart):
        # diag(A, A^-T) preserves the neutral pairing for any invertible A
        A = ((1, 1, 0, 0), (0, 1, 0, 0), (0, 0, 1, 2), (0, 0, 0, 1))
        Ainv_t = ((1, 0, 0, 0), (-1, 1, 0, 0), (0, 0, 1, 0), (0, 0, -2, 1))
        one = lambda v: ScalarField.constant(chart, v)
        zero = [[one(0)] * 4 for _ in range(4)]
        return EndField.from_blocks(
            chart,
            [[one(v) for v in row] for row in A], zero, zero,
            [[one(v) for v in row] for row in Ainv_t])

    def test_relations_invariant_under_conjugation(self):
        T = hyperkahler_r4()
        Q = self._orthogonal_q(R4)
        from gencliff.gcs import is_orthogonal
        assert is_orthogonal(Q)
        Tc = conjugate_triple(T, Q)
        assert check_relations(Tc).ok
        bad = CliffordTriple(T.I1, T.I2, T.I1)
        badc = conjugate_triple(bad, Q)
        assert not check_relations(badc).ok

    def test_induce_commutes_with_conjugation(self):
        T = verify_triple(hyperkahler_r4(), 0)
        Q = self._orthogonal_q(R4)
        Qinv = Q.inverse()
        Tc = verify_triple(conjugate_triple(T, Q), 0)
        ind = induce(T)
        indc = induce(Tc)
        for M, Mc in ((ind.J1, indc.J1), (ind.J2, indc.J2),
                      (ind.J3, indc.J3), (ind.G, indc.G)):
            assert Mc.entries_equal(Q @ M @ Qinv)

    def test_project_commutes_with_conjugation(self):
        T = verify_triple(hyperkahler_r4(), 0)
        Q = self._orthogonal_q(R4)
        Qinv = Q.inverse()
        Tc = verify_triple(conjugate_triple(T, Q), 0)
        proj = project(induce(T), T)
        projc = project(induce(Tc), Tc)
        assert projc.Gp.entries_equal(Q @ proj.Gp @ Qinv)
        for i in range(3):
            assert projc.Ip[i].entries_equal(Q @ proj.Ip[i] @ Qinv)
            assert projc.Im[i].entries_equal(Q @ proj.Im[i] @ Qinv)


def rational_bfield_triple():
    """hyperkahler_r4 under B = x1/(1 + x2^2) dx2^dx3 with its flux dB: a
    rational, non-constant triple, so the product table's base is
    m = 1 + x2^2, not the unit."""
    from gencliff.cartan import KForm
    from gencliff.gcs import bfield_transform
    x2 = ScalarField.variable(R4, 1)
    f = ScalarField.variable(R4, 0) / (ScalarField.one(R4) + x2 * x2)
    B = KForm.basis(R4, (1, 2)).scale(f)
    return CliffordTriple(*[bfield_transform(E, B)
                            for E in hyperkahler_r4().generators])


def tdual_hk4b_triple():
    from gencliff.tduality import conjugate_triple, make_torus_duality
    from tests.test_twistor import hk4b_triple
    return conjugate_triple(make_torus_duality(R4, 1), hk4b_triple())


def broken_triple():
    """(I1, I2, I1) of hyperkahler_r4: I1 I3 + I3 I1 = -2 Id != 0."""
    T = hyperkahler_r4()
    return CliffordTriple(T.I1, T.I2, T.I1)


def table_triples():
    from tests.test_twistor import hk4b_triple, twisted_bfield_triple
    return {"hyperkahler_r4": hyperkahler_r4, "product_flip": product_flip,
            "hk4b": hk4b_triple, "hk4b_dual": tdual_hk4b_triple,
            "twisted_bfield": twisted_bfield_triple,
            "rational_bfield": rational_bfield_triple,
            "broken": broken_triple}


class TestProductTable:
    """check_relations, induce and project decide on one kernel product
    table per triple; the dense EndField oracle (tests/clifford_oracle.py)
    must give the same failure names and flags, and entrywise the same
    J_i, G, G+- and I_i+-, with the same fluxes."""

    @pytest.mark.parametrize("name", list(table_triples()))
    def test_agrees_with_the_dense_oracle(self, name):
        from gencliff.clifford import (RelationsReport, TripleStatus,
                                       _table)
        from tests import clifford_oracle as oracle
        T = table_triples()[name]()
        rel = check_relations(T)
        assert rel == oracle.check_relations(T)
        assert rel.ok is (name != "broken")
        if name == "broken":
            assert rel.failures == ["I1 I3 + I3 I1 = 0"]
            # induce the table all the same, past the relations guard
            rel = RelationsReport((), True)
        base = _table(T).base
        if name in ("hk4b", "hk4b_dual"):
            # a constant rational triple: the table is over an integer
            assert not base.unit and list(base.m) == [0]
        else:
            assert base.unit is (name != "rational_bfield")
        T = T.with_status(TripleStatus(rel, ()))
        ind = induce(T)
        J1, J2, J3, G, table_ok = oracle.induce(T)
        assert ind.table_ok is table_ok is (name != "broken")
        assert ind.J + (ind.G,) == (J1, J2, J3, G)
        Gp, Gm, Ip, Im, identities_ok = oracle.project((J1, J2, J3), G, T)
        if name == "broken":
            assert not identities_ok
            with pytest.raises(ValueError, match="table not verified"):
                project(ind, T)
            return
        proj = project(ind, T)
        assert proj.identities_ok is identities_ok is True
        assert (proj.Gp, proj.Gm, proj.Ip, proj.Im) == (Gp, Gm, Ip, Im)

    def test_13_kernel_products_and_none_in_the_setups(self, monkeypatch):
        # hk4b: 12 products for the relations, 1 more (G) for the induced
        # algebra, none for the projections or for theorem_1_1's choice of
        # the commuting families; once the table exists, verify_triple,
        # theorem_1_1 and theorem_1_2 read every setup product off it and
        # multiply none, and bind the store's records, so they construct
        # no EndField either (on the rational B-field triple the store
        # builds its non-polynomial records through EndFields)
        from gencliff import clifford, gcs
        from gencliff.twistor import theorem_1_2
        from tests.test_twistor import hk4b_triple
        T = CliffordTriple(*hk4b_triple().generators)     # no table yet
        P = product_flip()
        R = rational_bfield_triple()
        calls, setup_calls, made = [], [], []
        real = clifford._mat_mul_terms
        monkeypatch.setattr(clifford, "_mat_mul_terms",
                            lambda A, B: calls.append(1) or real(A, B))
        monkeypatch.setattr(gcs, "_mat_mul_terms",
                            lambda A, B: setup_calls.append(1) or real(A, B))

        def refuse(self, other):
            raise AssertionError("EndField product")
        monkeypatch.setattr(EndField, "__matmul__", refuse)
        init = EndField.__init__
        monkeypatch.setattr(EndField, "__init__", lambda self, *a, **kw: (
            made.append(1), init(self, *a, **kw))[1])
        T = T.with_status(clifford.TripleStatus(check_relations(T), ()))
        assert len(calls) == 12
        project(induce(T), T)
        assert len(calls) == 13
        made.clear()
        assert theorem_1_1(verify_triple(T)).status == "pass"
        assert theorem_1_2(T).status == "pass"
        assert len(calls) == 13 and setup_calls == [] and made == []
        check_relations(P)
        calls.clear()
        assert theorem_1_1(verify_triple(P)).status == "pass"
        assert len(calls) == 1 and setup_calls == []    # G alone
        R = R.with_status(clifford.TripleStatus(check_relations(R), ()))
        project(induce(R), R)
        calls.clear()
        assert theorem_1_2(R).status == "pass"
        assert calls == [] and setup_calls == []

    @pytest.mark.parametrize(
        "name", [k for k in table_triples() if k != "broken"])
    def test_read_products_are_the_numerator_products(self, name):
        # every family's setup reads I J, J I and I J + J I (and
        # verify_triple's setups S S) off the table, as signed rows of the
        # numerator store: theorem_1_1's 21 families and theorem_1_2's 24;
        # over the family's own base, and over the base a diagonal family
        # shares with its partner, they must be the products of its
        # numerators entry by entry
        import dataclasses
        from gencliff import gcs
        from gencliff.clifford import (_DIAGONAL, _store,
                                       theorem_1_1_families)
        from gencliff.twistor import theorem_1_2_families
        T = verify_triple(table_triples()[name]())
        fams = theorem_1_1_families(T, induce(T))
        assert project(induce(T), T).identities_ok
        for k, fam in enumerate(fams + theorem_1_2_families(T)):
            assert len(fam.products) == 3, fam.name
            both = gcs._family_base(fams[_DIAGONAL[0]], fam)
            for base in (None, both) if k in _DIAGONAL else (None,):
                mats, _, (I, J), square = gcs._kernel_setup(fam, base)
                IJ, JI = (gcs._mat_mul_terms(I.rows, J.rows),
                          gcs._mat_mul_terms(J.rows, I.rows))
                assert mats["products"] == (IJ, JI), fam.name
                plain = gcs._kernel_setup(
                    dataclasses.replace(fam, products=()), base)
                assert square == plain[3], fam.name
        for i in range(3):
            tensor = gcs.BoundTensor("nijenhuis", f"N(I{i+1},I{i+1})",
                                     (_store(T)[f"I{i+1}"],), T.flux,
                                     ((-1, None),))
            _, _, (S,), square = gcs._kernel_setup(tensor)
            assert square == gcs._mat_mul_terms(S.rows, S.rows)

    @pytest.mark.parametrize(
        "name", [k for k in table_triples() if k != "broken"])
    def test_read_products_give_the_generic_reports(self, name,
                                                    monkeypatch):
        # the same bound tensors, with their products multiplied by the
        # generic _kernel_setup path, give equal reports; so do theorem_1_2's
        # families set up from their EndFields (tests/setup_oracle.py)
        from gencliff import clifford, gcs, twistor
        from tests.setup_oracle import kernel_setup
        T = table_triples()[name]()
        read = verify_triple(T)
        suite, rotations = theorem_1_1(read), twistor.theorem_1_2(read)
        assert rotations.status == "pass"

        def unproven(kind, name, records, flux, products=()):
            return gcs.BoundTensor(kind, name, records, flux)
        monkeypatch.setattr(clifford, "BoundTensor", unproven)
        monkeypatch.setattr(twistor, "BoundTensor", unproven)
        plain = verify_triple(T)
        assert read.status == plain.status
        assert suite == theorem_1_1(plain)
        assert rotations == twistor.theorem_1_2(plain)
        monkeypatch.undo()
        monkeypatch.setattr(gcs, "_kernel_setup", kernel_setup)
        assert rotations == twistor.theorem_1_2(verify_triple(T))

    def test_table_ok_is_the_clifford_verdict(self):
        # P^-1 I_i P for a constant P that is not orthogonal keeps the
        # Clifford relations and loses orthogonality: the literal
        # multiplication table still holds, and table_ok says so
        from gencliff.clifford import _table
        from gencliff.gcs import mat_inv
        from tests import clifford_oracle as oracle
        one, zero = ScalarField.one(R4), ScalarField.zero(R4)
        P = EndField(R4, [[one if i == j else
                           ScalarField.constant(R4, 2) if j == i + 1 else zero
                           for j in range(8)] for i in range(8)])
        Pinv = EndField(R4, mat_inv(P.entries, R4))
        T = CliffordTriple(*[Pinv @ E @ P
                             for E in hyperkahler_r4().generators])
        rel = check_relations(T)
        assert rel == oracle.check_relations(T)
        assert rel.failures == [f"I{i} orthogonal" for i in (1, 2, 3)]
        assert _table(T).induced[2] is oracle.induce(T)[4] is True

    def test_a_second_theorem_1_1_gives_the_same_report(self):
        # the families share the table's and the structures' numerator
        # dicts; a run that mutated one would change the next report
        T = verify_triple(rational_bfield_triple())
        first = theorem_1_1(T)
        assert first.status == "pass"
        assert theorem_1_1(T) == first
        assert verify_triple(T).status == T.status

    def test_project_of_a_foreign_triple_raises(self):
        T = verify_triple(hyperkahler_r4(), 0)
        flip = verify_triple(product_flip(), 0)
        P = verify_triple(CliffordTriple(T.I2, T.I1, T.I3), 0)
        for other in (flip, P):
            with pytest.raises(ValueError, match="another triple"):
                project(induce(other), T)
        import dataclasses
        with pytest.raises(ValueError, match="another triple"):
            project(dataclasses.replace(induce(T), generators=()), T)

    @pytest.mark.parametrize("name", ["hyperkahler_r4", "hk4b",
                                      "twisted_bfield"])
    def test_commuting_families_are_the_diagonal(self, name):
        # theorem_1_1 reads the commuting families off the verified table;
        # the dense products agree family by family
        from gencliff.clifford import _COMMUTING, theorem_1_1_families
        T = verify_triple(table_triples()[name]())
        fams = theorem_1_1_families(T, induce(T))
        assert len(fams) == 21
        for k, fam in enumerate(fams):
            A, B = fam.structures
            assert (A @ B).entries_equal(B @ A) is (k in _COMMUTING), \
                fam.name
            assert (fam.name[3] == fam.name[6]) is (k in _COMMUTING)

    def test_commuting_symbol_reads_the_setup_products(self, monkeypatch):
        # the gate reads I J and J I from _kernel_setup, which built them
        # for _tensoriality, and multiplies nothing itself
        from gencliff import gcs
        T = verify_triple(hyperkahler_r4())
        setup = gcs._kernel_setup(diagonal_family(T))

        def refuse(A, B):
            raise AssertionError("numerator product")
        monkeypatch.setattr(gcs, "_mat_mul_terms", refuse)
        assert gcs._commuting_symbol(setup) == ("anomaly_matched", True)


def oracle_structures(T):
    """Every structure of T's numerator store, by name, from the dense
    EndField oracle (tests/clifford_oracle.py)."""
    from tests import clifford_oracle as oracle
    J1, J2, J3, G, _ = oracle.induce(T)
    Gp, Gm, Ip, Im, _ = oracle.project((J1, J2, J3), G, T)
    out = dict(zip(("I1", "I2", "I3", "J1", "J2", "J3", "G", "G+", "G-"),
                   T.generators + (J1, J2, J3, G, Gp, Gm)))
    for l in range(3):
        out[f"I{l + 1}+"], out[f"I{l + 1}-"] = Ip[l], Im[l]
        for b in range(3):
            out[f"X{l + 1}{b + 1}"] = Ip[l] + Im[b]
    return out


def monic_lcm(*polys):
    """The monic LCM of kernel polynomials, {0: 1} for none."""
    from gencliff import polygcd as G
    from gencliff._core import kernel as K
    out = {0: K.C_ONE}
    for p in polys:
        out = G.p_monic(K.p_mul(out, G.p_divexact(p, G.p_gcd(out, p))))
    return out


class TestNumeratorStore:
    """Each structure of a triple (I_i, J_i, G, G+- and I_i+-) is kept once,
    as numerators over its own base, in the triple's numerator store
    (``clifford._Store``); every family reads it from there."""

    @pytest.mark.parametrize(
        "name", [k for k in table_triples() if k != "broken"])
    def test_records_are_the_numerators_over_their_own_bases(self, name):
        # a polynomial structure over the unit base, any other over the
        # LCM of its entries' denominators in lowest terms times an integer
        # that makes it integral; the rows are its numerators there
        from gencliff import polygcd as G
        from gencliff.clifford import _store
        from tests.layout import integral
        from tests.setup_oracle import STORE_NAMES
        T = verify_triple(table_triples()[name]())
        dense = oracle_structures(T)
        store = _store(T)
        for key in STORE_NAMES:
            S, E = store[key], dense[key]
            dens = [f.den.terms for row in E.entries for f in row
                    if not f.is_polynomial]
            assert S.base.unit is not dens, key
            if dens:
                assert G.p_monic(S.base.m) == monic_lcm(*dens), key
                assert integral(S.base.m, *(p for r in S.rows for p in r))
            assert S.rows == S.base.numerators(E), key
            assert S.const is E.is_constant, key

    def test_family_bases_are_the_lcm_of_their_structures_bases(self):
        # CI's rational B-field triple: the table is over (1 + x2^2)^2, and
        # a family over the LCM of its structures' own bases and of the
        # flux's 1 + x2^2 -- 15 of the 21 over 1 + x2^2 alone
        from gencliff import polygcd as G
        from gencliff.clifford import _table, theorem_1_1_families
        from gencliff.gcs import _family_base
        T = verify_triple(rational_bfield_triple())
        q = monic_lcm({0: (1, 0, 1), 2 << 16: (1, 0, 1)})   # 1 + x2^2
        assert G.p_monic(_table(T).base.m) == monic_lcm(
            q, {0: (1, 0, 1), 2 << 16: (2, 0, 1), 4 << 16: (1, 0, 1)})
        bases = []
        for fam in theorem_1_1_families(T, induce(T)):
            own = [S.base.m for S in fam.numerators]
            base = G.p_monic(_family_base(fam).m)
            assert base == monic_lcm(q, *own), fam.name
            bases.append(base == q)
        assert sum(bases) == 15

    @pytest.mark.parametrize("build,n", [("hk4b", 4), ("product_flip", 8)])
    def test_each_structure_is_set_up_once(self, build, n, monkeypatch):
        # relations, induced and theorem11: the six structures I_i, J_i
        # get their numerators, kernel rows and skew-adjointness verdict
        # once each (and G its numerators, which the I_i J_i families read
        # as their products), and their images on the 2n frame generators
        # once each, over the one unit base of every family; the I_i are
        # their generators' entries (_Structure.of), J_i and G the
        # table's (_Structure.own)
        from gencliff import gcs
        from gencliff.clifford import TripleStatus, _store
        T = CliffordTriple(*table_triples()[build]().generators)
        counts = {"of": 0, "own": 0, "rows": 0, "skew": 0, 0: 0, 1: 0}
        of, own = gcs._Structure.of.__func__, gcs._Structure.own.__func__
        rows, skew = gcs._sparse_rows, gcs._skew_adjoint
        operand = gcs._PowerDen.operand

        def count(key, fn):
            def wrapped(*args):
                counts[key] += 1
                return fn(*args)
            return wrapped
        monkeypatch.setattr(gcs._Structure, "of",
                            classmethod(count("of", of)))
        monkeypatch.setattr(gcs._Structure, "own",
                            classmethod(count("own", own)))
        monkeypatch.setattr(gcs, "_sparse_rows", count("rows", rows))
        monkeypatch.setattr(gcs, "_skew_adjoint", count("skew", skew))
        monkeypatch.setattr(gcs._PowerDen, "operand", lambda base, P, k: (
            counts.__setitem__(k, counts[k] + 1) or operand(base, P, k)))
        T = T.with_status(TripleStatus(check_relations(T), ()))
        project(induce(T), T)
        assert theorem_1_1(verify_triple(T)).status == "pass"
        assert sorted(_store(T)) == ["G", "I1", "I2", "I3", "J1", "J2",
                                     "J3"]
        assert counts == {"of": 3, "own": 4, "rows": 6, "skew": 6,
                          0: 2 * n, 1: 6 * 2 * n}

    def test_no_denominator_merges_on_hk4b(self, monkeypatch):
        # a constant rational triple's product table is over an integer,
        # and its structures over the unit base: the relations, the
        # induced structures and projections, the integrability checks,
        # theorem13's certificate and the T-duality transport take no
        # accumulator merge of two denominators
        from gencliff._core import kernel as K
        from gencliff.clifford import TripleStatus
        from gencliff.tduality import make_torus_duality, props_5_2_to_5_4
        from gencliff.twistor import theorem_1_3
        from tests.test_twistor import hk4b_triple

        def refuse(*args):
            raise AssertionError("two denominators merged")
        T = CliffordTriple(*hk4b_triple().generators)
        monkeypatch.setattr(K, "_merge", refuse)
        T = T.with_status(TripleStatus(check_relations(T), ()))
        ind = induce(T)
        proj = project(ind, T)
        assert ind.J + (ind.G, proj.Gp, proj.Gm) + proj.Ip + proj.Im
        T = verify_triple(T)
        assert theorem_1_1(T).status == "pass"
        assert theorem_1_3(T).status == "pass"
        assert props_5_2_to_5_4(make_torus_duality(T.chart, 0), T).ok

    @pytest.mark.parametrize("name", [k for k in table_triples()
                                      if k != "broken"] + ["nonclosed"])
    def test_reports_equal_the_per_family_oracle(self, name, monkeypatch):
        # every setup built again from the family's own EndFields, with
        # its products multiplied out (tests/setup_oracle.py), gives the
        # same reports, witnesses included
        from gencliff import gcs
        from tests.setup_oracle import kernel_setup
        build = (nonclosed_bfield_triple if name == "nonclosed"
                 else table_triples()[name])
        T = verify_triple(build())
        store = (T.status, theorem_1_1(T) if T.status.verified else None)
        monkeypatch.setattr(gcs, "_kernel_setup", kernel_setup)
        T = verify_triple(build())
        oracle = (T.status, theorem_1_1(T) if T.status.verified else None)
        assert store == oracle
        assert name != "nonclosed" or not store[0].integrable
