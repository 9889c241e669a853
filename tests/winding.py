"""Field-level charge checks, made with the readout's own winding routine."""

from vortexcascade.interferometry import _windings_on_circles


def assert_winding(field, radius, ell):
    """The field's phase winds ell times, within 1e-6, on the centred circle of this radius."""
    (winding,) = _windings_on_circles(field.values, field.spec, (0.0, 0.0), [radius])
    assert abs(winding - ell) <= 1e-6, (winding, ell, radius)
