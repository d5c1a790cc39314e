import functools

import pytest

from cihom import catalog
from cihom.fields import PrimeField, field_by_tag
from cihom.fmodules import ModulePresentation

FIELD = PrimeField(32003)


@pytest.fixture(scope="session")
def ring_two_nodes():
    """k[x,y,z,u]/(xy, zu): dimension two, codimension two."""
    return catalog.ring("R_xyzu", FIELD)


@pytest.fixture(scope="session")
def ring_quadric():
    """k[x,y,w,z]/(xw - yz): three-dimensional hypersurface domain."""
    return catalog.ring("R_quadric", FIELD)


@pytest.fixture(scope="session")
def ring_node():
    """k[x,y]/(xy): the node."""
    return catalog.ring("R_node", FIELD)


@pytest.fixture(scope="session")
def ring_node3():
    """k[x,y,z]/(xy)."""
    return catalog.ring("R_node3", FIELD)


@pytest.fixture(scope="session")
def rings_over():
    """rings_over(tag): the node, the two-node ring and the quadric over the
    field with that tag, built once per tag."""
    return functools.cache(lambda tag: tuple(
        catalog.ring(name, field_by_tag(tag)) for name in ("R_node", "R_xyzu", "R_quadric")))


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
