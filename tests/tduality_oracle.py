"""Test helper: Lemma 5.1 on one pair of invariant sections.

``tduality.check_intertwine`` certifies Phi[A, B] = [Phi A, Phi B] on every
invariant section, and ``tduality.conjugate`` builds I~ = Phi I Phi^-1, which
together imply N_H~(I~, J~)(Phi A, Phi B) = Phi N_H(I, J)(A, B) (proof in the
``check_intertwine`` docstring).  Here both sides are computed independently
on one pair, by the ScalarField reference ``BoundTensor.evaluate``.
"""

from gencliff.gcs import bind_concomitant
from gencliff.tduality import NonInvariantSectionError, conjugate


def is_invariant_section(phi, A) -> bool:
    return all(f.diff(k).is_zero for f in A.to_components()
               for k in phi.invariant_coords)


def lemma_5_1_instance(phi, I, J, A, B) -> bool:
    """N_H~(I~, J~)(Phi A, Phi B) = Phi(N_H(I, J)(A, B)) on the invariant
    sections A, B."""
    if not (is_invariant_section(phi, A) and is_invariant_section(phi, B)):
        raise NonInvariantSectionError("sections vary along a dualized "
                                       "coordinate")
    It, Jt = conjugate(phi, I), conjugate(phi, J)
    lhs = bind_concomitant(It, Jt, flux=phi.target_flux).evaluate(
        phi.apply(A), phi.apply(B))
    rhs = phi.apply(bind_concomitant(I, J, flux=phi.source_flux).evaluate(
        A, B))
    return lhs == rhs
