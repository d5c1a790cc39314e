import functools

import pytest

from cihom.fields import PrimeField, field_by_tag
from cihom.fmodules import ModulePresentation
from cihom.polynomials import PolyRing
from cihom.rings import RingPresentation

FIELD = PrimeField(32003)


@pytest.fixture(scope="session")
def ring_two_nodes():
    """k[x,y,z,u]/(xy, zu): dimension two, codimension two."""
    pr = PolyRing(FIELD, ["x", "y", "z", "u"])
    x, y, z, u = (pr.variable(v) for v in "xyzu")
    return RingPresentation(pr, [x * y, z * u], label="R_xyzu")


@pytest.fixture(scope="session")
def ring_quadric():
    """k[x,y,w,z]/(xw - yz): three-dimensional hypersurface domain."""
    pr = PolyRing(FIELD, ["x", "y", "w", "z"])
    x, y, w, z = (pr.variable(v) for v in "xywz")
    f = x * w - y * z
    return RingPresentation(pr, [f], label="R_quadric", minimal_primes=[[f]])


@pytest.fixture(scope="session")
def ring_node():
    """k[x,y]/(xy): the node."""
    pr = PolyRing(FIELD, ["x", "y"])
    x, y = pr.variable("x"), pr.variable("y")
    return RingPresentation(pr, [x * y], label="R_node")


@pytest.fixture(scope="session")
def ring_node3():
    """k[x,y,z]/(xy)."""
    pr = PolyRing(FIELD, ["x", "y", "z"])
    x, y, z = (pr.variable(v) for v in "xyz")
    return RingPresentation(pr, [x * y], label="R_node3")


def _three_rings(field):
    """The node, the two-node ring and the quadric over one field."""
    node = PolyRing(field, ["x", "y"])
    x, y = node.variable("x"), node.variable("y")
    two = PolyRing(field, ["x", "y", "z", "u"])
    a, b, c, e = (two.variable(v) for v in "xyzu")
    quad = PolyRing(field, ["x", "y", "w", "z"])
    p, q, r, s = (quad.variable(v) for v in "xywz")
    f = p * r - q * s
    return (RingPresentation(node, [x * y], label="R_node"),
            RingPresentation(two, [a * b, c * e], label="R_xyzu"),
            RingPresentation(quad, [f], label="R_quadric", minimal_primes=[[f]]))


@pytest.fixture(scope="session")
def rings_over():
    """rings_over(tag): the node, the two-node ring and the quadric over the
    field with that tag, built once per tag."""
    return functools.cache(lambda tag: _three_rings(field_by_tag(tag)))


def var(ring, name):
    return ring.poly_ring.variable(name)


@pytest.fixture(scope="session")
def mod_M_two_nodes(ring_two_nodes):
    """M = R/(y, u) over the two-node ring."""
    y, u = var(ring_two_nodes, "y"), var(ring_two_nodes, "u")
    return ModulePresentation.quotient_by_ideal(ring_two_nodes, [y, u], label="M")


@pytest.fixture(scope="session")
def mod_N_two_nodes(ring_two_nodes):
    """N = coker [[0, u], [-z, x], [y, 0]] over the two-node ring."""
    pr = ring_two_nodes.poly_ring
    x, z, u, y = (pr.variable(v) for v in "xzuy")
    zero = pr.zero()
    return ModulePresentation.from_relations(
        ring_two_nodes, (0, 0, 0), [[zero, -z, y], [u, x, zero]], label="N")


@pytest.fixture(scope="session")
def mod_quadric(ring_quadric):
    """coker of the column (w, y, x, z) over the quadric hypersurface."""
    pr = ring_quadric.poly_ring
    x, y, w, z = (pr.variable(v) for v in "xywz")
    return ModulePresentation.from_relations(ring_quadric, (0, 0, 0, 0),
                                             [[w, y, x, z]], label="Mq")


@pytest.fixture(scope="session")
def node_pair(ring_node):
    """(R/(x), R/(y)) over the node."""
    x, y = var(ring_node, "x"), var(ring_node, "y")
    Mx = ModulePresentation.quotient_by_ideal(ring_node, [x], label="Mx")
    My = ModulePresentation.quotient_by_ideal(ring_node, [y], label="My")
    return Mx, My


@pytest.fixture(scope="session")
def periodic_pair(ring_two_nodes):
    """(R/(x), R/(xz)) over the two-node ring."""
    pr = ring_two_nodes.poly_ring
    x, z = pr.variable("x"), pr.variable("z")
    M = ModulePresentation.quotient_by_ideal(ring_two_nodes, [x], label="Mx")
    N = ModulePresentation.quotient_by_ideal(ring_two_nodes, [x * z], label="Nxz")
    return M, N
