"""The half-spinor legs, for the tests that read the generators there."""

from spincas import clifford


def half_spinor_blocks(r: int, eps: str) -> tuple:
    """The rotation generators compressed to the half-spinor leg Delta_eps;
    the layout is read through ``clifford``, so a patched one reaches it.
    """
    indices = clifford.chirality_indices(r, eps)
    return tuple(g.restrict(indices) for g in clifford.rotation_generators(r))
