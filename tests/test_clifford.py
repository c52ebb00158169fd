"""Clifford triples: relations, induced bi-quaternion algebra, projections,
and the simultaneous-integrability suite."""

import pytest

from gencliff.scalar import GaussianRational, ScalarField, standard_chart
from gencliff.courant import Section
from gencliff.gcs import EndField
from gencliff.clifford import (CliffordTriple, check_relations,
                               concomitant_anomaly, induce,
                               levi_civita, project, theorem_1_1,
                               verify_triple)
from gencliff.examples import hyperkahler_r4, product_flip
from tests.test_gcs import frame_representatives

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

    def test_with_status_copy_starts_empty_and_keeps_guards(self):
        from gencliff.clifford import TripleStatus
        T = verify_triple(hyperkahler_r4(), 0)
        ind = induce(T)
        raw = T.with_status(TripleStatus())
        with pytest.raises(ValueError):
            induce(raw)
        again = T.with_status(T.status)
        assert induce(again) is not ind
        assert induce(again).J1.entries_equal(ind.J1)

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
    a < b, both in reps, the certificate's pairs when N_J is proven
    C-infinity-bilinear and skew (reps: J's orbit representatives; a
    generator label carries a '*' iff its monomial is not 1)."""
    a, b = witness[:2]
    return (a in FRAMES and b in FRAMES and FRAMES.index(a) < FRAMES.index(b)
            and FRAMES.index(a) in reps and FRAMES.index(b) in reps)


class TestSymbolCertificate:
    """The Leibniz-symbol certificate (degree_bound None) against the
    degree-1 sweep it replaces on the fast path."""

    # N_J with Ii^2 = -Id and Ii orthogonal, and every family with
    # IJ + JI = c Id for a constant c, are C-infinity-bilinear and skew:
    # the 2n(2n - 1)/2 frame pairs a < b.  For verify_triple's N_J (the
    # first three reports) only the pairs within the J-orbit
    # representatives are kept: each hyperkaehler Ii maps every frame
    # element to +- another, which leaves 4 of the 8, so 4 * 3 / 2 pairs;
    # theorem_1_1's concomitant N(Ii,Ii) keeps all 28.  The diagonal pairs
    # N(Ii,Ji), with IJ + JI = 2 Ii Ji, keep (e_a, e_b) and
    # (x_k e_a, e_b): 2n * 2n * (1 + n) pairs
    SKEW_PAIRS = 8 * 7 // 2
    ORBIT_PAIRS = 4 * 3 // 2
    CERT_PAIRS = 8 * 8 * (1 + 4)
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
            # the B-field moves the columns of two of the four orbits off
            # the frame, so only two frame elements drop: 6 * 5 / 2 pairs
            reps = frame_representatives(E)
            assert len(reps) == 6
            assert cert.sample_count == 6 * 5 // 2
            assert cert.witnesses == [w for w in sweep.witnesses
                                      if certificate_pair(w, reps)]

    def test_shared_witness_budget(self):
        # the three N(Ii,Ii) reports share 10 witnesses: the same first 10
        # as per-generator reports, with N(I2,I2) stopped at its first
        # witness and N(I3,I3) not evaluated (15 + 1 pairs, not 3 * 15)
        from gencliff.gcs import bind_nijenhuis, vanishes
        T = nonclosed_bfield_triple()
        ref = [vanishes(bind_nijenhuis(E, f"N(I{i+1},I{i+1})", T.flux))
               for i, E in enumerate(T.generators)]

        def witnesses(reports):
            return [(r.name, w) for r in reports for w in r.witnesses]
        status = verify_triple(T).status
        assert [r.sample_count for r in ref] == [15] * 3
        assert len(witnesses(ref)) > 10
        assert witnesses(status.integrability) == witnesses(ref)[:10]
        assert [r.sample_count for r in status.integrability] == [15, 1]
        assert not status.integrable and status.relations_ok


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
