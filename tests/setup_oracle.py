"""Test helper: the per-family setup of a Nijenhuis-type tensor, the
reference the numerator store is compared against.

``gcs._kernel_setup`` reads a family's structures from the triple's
numerator store (``clifford._Store``), each kept once over its own base,
and its products I J and J I as signed rows of the store.  Here every
family builds everything again from its own EndFields: the base is the LCM
of the denominators of every entry of its structures and of its flux
coefficients, the structures are their numerators over that base, and the
products are multiplied out.
"""

from gencliff.gcs import _PowerDen, _Structure, _numerator_setup

# every structure of a triple's numerator store
STORE_NAMES = (("I1", "I2", "I3", "J1", "J2", "J3", "G", "G+", "G-")
               + tuple(f"I{l}{s}" for l in (1, 2, 3) for s in "+-"))


def kernel_setup(tensor, base=None):
    """``gcs._kernel_setup``'s tuple for the tensor, built from its
    EndFields alone; the store records and the products it carries are
    not read."""
    flux = {} if tensor.flux is None else tensor.flux.H.coeffs
    if base is None:
        base = _PowerDen.lcm(tensor.chart, [
            f for S in tensor.structures for row in S.entries for f in row]
            + list(flux.values()))
    structs = [_Structure(base, base.numerators(S))
               for S in tensor.structures]
    kflux = {idx: base.numerator(f) for idx, f in flux.items()}
    return _numerator_setup(tensor.kind, base, structs, kflux or None)
