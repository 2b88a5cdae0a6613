"""The Magri-Morosi concomitant table as it was built pair by pair before
`pn.magri_morosi_table` read all its operands at once, kept verbatim as a
differential oracle: each pair builds both one-form Lie derivatives in
full (their dt components too, which the Poisson map drops), maps them
through `poisson_apply` and adds the three vector fields as containers.
"""
from jetlift.pn import poisson_apply
from jetlift.tensors import adjoint_tensor11, apply_tensor11, lie_derivative


def magri_morosi_table(Rt, sigmas, zs) -> list:
    """[mu(sigma, Z) for sigma in sigmas for Z in zs], where
    mu(sigma, Z) = (L_{P(sigma)} Rt)(Z) - P(L_Z(Rt(sigma)))
    + P(L_{Rt(Z)} sigma). The Lie derivative in the middle term runs along
    the vector argument Z. L_{P(sigma)} Rt and Rt(sigma) are built once per
    sigma and Rt(Z) once per Z, then combined per pair."""
    Rt_zs = [apply_tensor11(Rt, Z) for Z in zs]
    out = []
    for sigma in sigmas:
        L_Rt = lie_derivative(poisson_apply(sigma), Rt)
        Rt_sigma = adjoint_tensor11(Rt, sigma)
        for Z, Rt_Z in zip(zs, Rt_zs):
            t1 = apply_tensor11(L_Rt, Z)
            t2 = poisson_apply(lie_derivative(Z, Rt_sigma))
            t3 = poisson_apply(lie_derivative(Rt_Z, sigma))
            out.append(t1 - t2 + t3)
    return out
