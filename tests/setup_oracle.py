"""Test helper: the per-family setup of a Nijenhuis-type tensor, the
reference the numerator store is compared against.

``gcs._kernel_setup`` lifts a family's records (``BoundTensor.numerators``,
each kept once over its own base, in the triple's numerator store
``clifford._Store`` or as ``gcs.bind_*`` converts its EndFields) to the
family's base, and reads its products I J and J I as signed rows of the
store.  Here every family builds everything again from its EndFields
(``BoundTensor.structures``): the base is the LCM of the denominators of
every entry of its structures and of its flux coefficients, the structures
are their numerators over that base, and the products are multiplied out.
"""

from gencliff import gcs
from gencliff.gcs import BoundTensor, _PowerDen, _Structure

# every structure of a triple's numerator store
STORE_NAMES = (("I1", "I2", "I3", "J1", "J2", "J3", "G", "G+", "G-")
               + tuple(f"I{l}{s}" for l in (1, 2, 3) for s in "+-")
               + tuple(f"X{a}{b}" for a in (1, 2, 3) for b in (1, 2, 3)))

# the library's setup, kept before a test puts kernel_setup in its place
_library_setup = gcs._kernel_setup


def kernel_setup(tensor, base=None):
    """``gcs._kernel_setup``'s tuple for the tensor, built from its
    EndFields alone; the records it is bound to and the products it
    carries are not read.  The library's setup is handed records over the
    oracle's base and no products, so it lifts nothing and multiplies
    every product."""
    flux = {} if tensor.flux is None else tensor.flux.H.coeffs
    if base is None:
        base = _PowerDen.lcm(tensor.chart, [
            f for S in tensor.structures for row in S.entries for f in row]
            + list(flux.values()))
    records = tuple(_Structure(base, base.numerators(S))
                    for S in tensor.structures)
    return _library_setup(BoundTensor(tensor.kind, tensor.name, records,
                                      tensor.flux), base)
