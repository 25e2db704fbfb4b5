"""Closed forms of the chain against symbolic derivations from the model's defining equations.

Each test derives an expression with sympy and compares it exactly with the one the code
evaluates: the code runs on sympy symbols, or, where a form is a set of local
coefficients, its assignments are read from the function's source and run on symbols.
Where the code reads a module global (``hbar``, ``epsilon_0``, the cubic's root), the
test puts a symbol in its place.
Float literals in the code (``16.0 / 3.0`` and the like) are read as the simplest
rational whose nearest double they are, so a changed coefficient does not compare equal.
"""

import ast
import inspect
import textwrap
from fractions import Fraction
from types import SimpleNamespace

import pytest

sp = pytest.importorskip("sympy")

from qpamp import resonator, varactor  # noqa: E402
from qpamp.amplifier import _half_power_offset  # noqa: E402
from qpamp.material import _derivatives  # noqa: E402
from qpamp.varactor import energy_and_derivatives  # noqa: E402

y, eta, eps00, e_n, lam_s = sp.symbols("y eta eps00 E_N lam_s", positive=True)
u, x, ke, kappa, half = sp.symbols("u x k_e kappa h", positive=True)


def _rational(expr):
    """``expr`` with each float replaced by the simplest rational whose nearest double it is."""
    exact = {}
    for number in expr.atoms(sp.Float):
        ratio = Fraction(float(number)).limit_denominator(1000)
        assert float(ratio) == float(number), number
        exact[number] = sp.Rational(ratio.numerator, ratio.denominator)
    return expr.xreplace(exact)


def _same(impl, derived):
    return sp.simplify(_rational(sp.sympify(impl)) - derived) == 0


# The cubic y**3 + 3 eta y = 2 lam, parametrised by its root y > 0, and G = 1 / (y**2 + eta).
LAM = (y**3 + 3 * eta * y) / 2
G = 1 / (y**2 + eta)


def _d_dlam(f):
    """d f / d lam along the cubic, by implicit differentiation: (df/dy) / (dlam/dy)."""
    return sp.diff(f, y) / sp.diff(LAM, y)


class TestPermittivityDerivatives:
    def test_soft_mode_derivatives(self):
        # With lam_s = 0, E_N = 1 and eps00_rel = 1, the field is lam and the derivatives
        # of eps are G' and G''.
        params = SimpleNamespace(eps00_rel=1, renorm_field=1, inhomogeneity=0.0)
        g0, g1, g2 = _derivatives(LAM, params, LAM, eta, y, G)
        assert _same(g0, G)
        assert _same(g1, _d_dlam(G))
        assert _same(g2, _d_dlam(_d_dlam(G)))

    def test_field_derivatives(self):
        # eps(E) = eps00_rel G(lam(E)) with lam = sqrt(lam_s**2 + (E / E_N)**2).
        field = e_n * sp.sqrt(LAM**2 - lam_s**2)
        params = SimpleNamespace(eps00_rel=eps00, renorm_field=e_n, inhomogeneity=lam_s)
        _, d1, d2 = _derivatives(field, params, LAM, eta, y, G)
        deps = sp.diff(eps00 * G, y) / sp.diff(field, y)
        assert _same(d1, deps)
        assert _same(d2, sp.diff(deps, y) / sp.diff(field, y))


def _assigned(func, namespace, names):
    """Run the function body's assignments on ``namespace`` until ``names`` are all bound."""
    body = ast.parse(textwrap.dedent(inspect.getsource(func))).body[0].body
    for statement in body:
        if set(names) <= namespace.keys():
            break
        if isinstance(statement, ast.Assign):
            exec(compile(ast.Module([statement], []), func.__name__, "exec"), {}, namespace)
    return [namespace[name] for name in names]


def test_half_power_quadratic():
    # R = N / D - 1 of the module docstring, in units of kappa: u = dw / kappa,
    # x = |xi| / kappa, k_e = kappa_ext / kappa.
    n = ke / 2 + sp.I * ke * u
    d = (sp.Rational(1, 2) + sp.I * u) ** 2 - x**2

    def norm2(z):
        return sp.expand(z * sp.conjugate(z))

    w = sp.Symbol("w", positive=True)
    crossing = sp.expand(norm2(n - d) - half * norm2(d)).subs(u, sp.sqrt(w))
    derived = sp.Poly(crossing, w).all_coeffs()
    assert len(derived) == 3
    rates = SimpleNamespace(kappa=kappa, kappa_ext=ke * kappa)
    namespace = {"rates": rates, "xi_mag": x * kappa, "half": half}
    implemented = _assigned(_half_power_offset, namespace, ("A", "B", "C"))
    for impl, expected in zip(implemented, derived):
        assert _same(impl, expected)


# The capacitance and its voltage derivatives at the working point.
c, c1, c2 = sp.symbols("C C1 C2", real=True)


def _charge_derivatives():
    """U'', U''' and U'''' in C, C' and C'', derived from dU/dq = v and dq/dv = C.

    U'' = dv/dq = 1/C, and each further charge derivative is (1/C) d/dv.
    """
    v = sp.Symbol("v", real=True)
    cap = sp.Function("C")(v)
    derivatives = [1 / cap]
    for _ in range(2):
        derivatives.append(sp.diff(derivatives[-1], v) / cap)
    in_c = [(cap.diff(v, 2), c2), (cap.diff(v), c1), (cap, c)]
    return [d.subs(in_c) for d in derivatives]


def test_energy_derivatives():
    namespace = {
        "capacitance_derivatives": lambda voltage, design: (c, c1, c2),
        "_moments": lambda voltage, design: (None, None),
        "voltage": None,
        "design": None,
    }
    implemented = _assigned(energy_and_derivatives, namespace, ("u2", "u3", "u4"))
    for impl, derived in zip(implemented, _charge_derivatives()):
        assert _same(impl, derived)


def test_charge_and_voltage_forms_of_the_couplings(monkeypatch):
    # The charge forms of the resonator docstring, xi = -U''' q_ac q_zpf**2 / (2 hbar) and
    # K_eff = U'''' q_zpf**4 / (2 hbar), against the voltage forms operating_point writes.
    hbar, inductance, v_ac = sp.symbols("hbar L v_ac", positive=True)
    monkeypatch.setattr(resonator, "hbar", hbar)
    monkeypatch.setattr(resonator, "_voltage_derivatives", lambda *args: (c, c1, c2))
    response = SimpleNamespace(eps_rel=None, deps_dE=None, d2eps_dE2=None, loss_tangent=0)
    monkeypatch.setattr(resonator, "dielectric_response", lambda field, material: response)
    design = SimpleNamespace(bias_field=lambda v0: v0, material=None)
    drive = SimpleNamespace(v_ac=v_ac, theta=0.0)
    circuit = SimpleNamespace(inductance=inductance, q_ext=1)
    with sp.evaluate(False):  # so that no float power is rounded before `_rational` reads it
        point = resonator.operating_point(0, drive, design, circuit)
    _, u3, u4 = _charge_derivatives()
    q_zpf2 = hbar / (2 * sp.sqrt(inductance / c))
    assert _same(point.xi, -u3 * (v_ac * c) * q_zpf2 / (2 * hbar))
    assert _same(point.k_eff, u4 * q_zpf2**2 / (2 * hbar))


def test_ideal_crystal_moments(monkeypatch):
    # With lam_s = 0 the normalised field x = |v| / (d E_N) runs along the cubic, x = LAM(y),
    # so q = integral C dv and U = integral v C dv become integrals over the root.
    eps_0, area, d, v = sp.symbols("epsilon_0 A d v", positive=True)
    monkeypatch.setattr(varactor, "epsilon_0", eps_0)
    monkeypatch.setattr(varactor, "eta", lambda material: eta)
    monkeypatch.setattr(varactor, "_solve_cubic", lambda x, eta_value: y)
    monkeypatch.setattr(varactor, "_check_range", lambda voltage, design: None)
    material = SimpleNamespace(eps00_rel=eps00, renorm_field=e_n, inhomogeneity=0)
    q, u = varactor._moments(v, SimpleNamespace(plate_area=area, thickness=d, material=material))

    s = sp.Symbol("s", positive=True)
    # C dv = (eps0 A eps00 G / d) (d E_N dx), with dx = LAM'(y) dy.
    c_dv = (eps_0 * area * eps00 * e_n * sp.cancel(G * sp.diff(LAM, y))).subs(y, s)
    assert _same(q, sp.integrate(c_dv, (s, 0, y)))
    assert _same(u, sp.integrate(d * e_n * LAM.subs(y, s) * c_dv, (s, 0, y)))
