"""Darboux-Nijenhuis known-answer families for every n.

D = sum_i (u_i + 3(i-1)) d/du_i (x) du^i is diagonal with each eigenvalue
a function of its own coordinate, so it is torsion-free and its eigenvalues
are Darboux-Nijenhuis coordinates. It is written in the chart
q_i = u_i + t*u_{i+1}, q_n = u_n, whose inverse is exact back-substitution:
u_n = q_n, u_i = q_i - t*u_{i+1}. The base chart's coordinates t, q1..qn
stand for t, u1..un on the u side. `dn_dense` writes such a tensor in a
chart with a dense Jacobian, `dn_curved` in a chart nonlinear in q.
"""
from jetlift import FibredTransform, Tensor11, base_e, parse_field


def u_of_q(n):
    """u_1..u_n as expressions in t, q1..qn."""
    u = [f"q{n}"]
    for i in range(n - 1, 0, -1):
        u.insert(0, f"q{i} - t*({u[0]})")
    return u


def dn_family(n):
    """(R, eigenvalues): D pushed into the q chart, and its eigenvalues
    u_i(q) + 3(i-1) as symbolic fields, unsorted."""
    be = base_e(n)
    fwd = [parse_field(f"q{i} + t*q{i + 1}", be) for i in range(1, n)]
    fwd.append(parse_field(f"q{n}", be))
    u = u_of_q(n)
    D = Tensor11.from_dict(be, {f"q{i},q{i}": f"q{i} + {3 * (i - 1)}"
                                for i in range(1, n + 1)})
    T = FibredTransform(n, fwd, [parse_field(e, be) for e in u])
    R = T.base_map().push(D)
    return R, [parse_field(f"{e} + {3 * i}", be) for i, e in enumerate(u)]


def dense_eigenvalues(n):
    """The eigenvalues u_i + 5(i-1) of `dn_dense(n)` as symbolic fields in
    t, q1..qn, unsorted."""
    be = base_e(n)
    total = " + ".join(f"q{i}" for i in range(1, n + 1))
    return [parse_field(f"q{i} - t^2*({total})/(1 + {n}*t^2) + {5 * (i - 1)}", be)
            for i in range(1, n + 1)]


def dn_dense(n):
    """D with eigenvalues u_i + 5(i-1) pushed into the chart
    q = (I + t^2 1 1^T) u, whose inverse u = q - t^2 (sum q)/(1 + n t^2) 1
    rounds. Off t = 0 every column of dq/du, the inverse Jacobian of the
    eigenvalue chart, has n nonzero terms, so the chain-rule sums of the
    Darboux-Nijenhuis checks round in their order. Differences u_i - u_j =
    q_i - q_j stay within 4 on the default box, so the eigenvalues never
    cross."""
    be = base_e(n)
    total = " + ".join(f"q{i}" for i in range(1, n + 1))
    fwd = [parse_field(f"q{i} + t^2*({total})", be) for i in range(1, n + 1)]
    inv = [parse_field(f"q{i} - t^2*({total})/(1 + {n}*t^2)", be)
           for i in range(1, n + 1)]
    D = Tensor11.from_dict(be, {f"q{i},q{i}": f"q{i} + {5 * (i - 1)}"
                                for i in range(1, n + 1)})
    return FibredTransform(n, fwd, inv).base_map().push(D)


def _shears(x, a):
    """The texts x_i + a*sin(x_{i+1}) (x_n kept), then y_i + a*sin(y_{i-1})
    of those y (y_1 kept)."""
    y = [f"({xi}) + {a}*sin({xj})" for xi, xj in zip(x, x[1:])] + [x[-1]]
    return y[:1] + [f"({yi}) + {a}*sin({yh})" for yh, yi in zip(y, y[1:])]


def _unshears(y, a):
    """The inverse of `_shears`, by substitution forward, then backward."""
    x = y[:1]
    for yi in y[1:]:
        x.append(f"{yi} - {a}*sin({x[-1]})")
    u = x[-1:]
    for xi in x[-2::-1]:
        u.insert(0, f"{xi} - {a}*sin({u[0]})")
    return u


def dn_curved(n):
    """(R, eigenvalues): D with eigenvalues u_i + 7(i-1) pushed into a chart
    q(u) nonlinear in u, an upper shear u_i + (t/4) sin(u_{i+1}) followed by
    a lower one v_i + (t/4) sin(v_{i-1}), whose inverse is exact (undo the
    lower shear forward, then the upper one backward). Its Jacobian dq/du is
    neither triangular nor a function of t alone, so the eigenbasis couples
    the eigenvalues' second derivatives: u_i dA/dq^c v_j and u_j dA/dq^c v_i
    are both nonzero for i != j, which no triangular or t-only chart gives.
    On the default box |u_i - q_i| <= 1, so u_i - u_j stays within 6 and
    the eigenvalues never cross."""
    be = base_e(n)
    q = [f"q{i}" for i in range(1, n + 1)]
    u = _unshears(q, "t/4")
    D = Tensor11.from_dict(be, {f"q{i},q{i}": f"q{i} + {7 * (i - 1)}"
                                for i in range(1, n + 1)})
    T = FibredTransform(n, [parse_field(e, be) for e in _shears(q, "t/4")],
                        [parse_field(e, be) for e in u])
    R = T.base_map().push(D)
    return R, [parse_field(f"{e} + {7 * i}", be) for i, e in enumerate(u)]
