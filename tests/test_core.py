import itertools

import hypothesis
import hypothesis.strategies as st
import numpy as np
import pytest

from dynsys import continuous as C
from dynsys import core, discrete
from dynsys import expr as E


def line_system(rate: str) -> C.ContinuousSystem:
    return C.ContinuousSystem(C.full_space(1), E.parse_vector([rate], 1))


def test_check_report_invariant():
    rep = core.CheckReport.numerical(0.5, 1.0, 10)
    assert rep.passed and rep.verdict == "pass"
    rep = core.CheckReport.numerical(2.0, 1.0, 10, witness="w")
    assert not rep.passed and rep.witness == "w"
    rep = core.CheckReport.exact(None, 5)
    assert rep.passed and rep.residual == 0.0
    rep = core.CheckReport.exact("bad at a", 5, violations=2)
    assert not rep.passed and rep.residual == 2.0
    with pytest.raises(ValueError):
        core.CheckReport.exact("oops", 1, violations=0)


def test_pointed_system_validates_basepoint():
    sys = discrete.DiscreteSystem(("a",), {"a": "a"})
    core.PointedSystem(sys, "a")
    with pytest.raises(ValueError):
        core.PointedSystem(sys, "z")
    with pytest.raises(ValueError):
        core.PointedSystem(line_system("1"), (float("nan"),))


def test_compose_identity_laws():
    sys = line_system("1")
    f = core.MorphismCandidate(C.smooth_map(["x1^2 + 1"], 1), sys, sys)
    for composite in (
        core.compose_morphisms(core.identity_morphism(sys), f),
        core.compose_morphisms(f, core.identity_morphism(sys)),
    ):
        for x in np.linspace(-3, 3, 100):
            lhs = composite.mapping([x])
            rhs = f.mapping([x])
            assert abs(lhs[0] - rhs[0]) < 1e-12


def test_compose_affine():
    sys = line_system("1")
    f = core.MorphismCandidate(C.smooth_map(["x1 + 1"], 1), sys, sys)
    g = core.MorphismCandidate(C.smooth_map(["2*x1"], 1), sys, sys)
    gf = core.compose_morphisms(f, g)
    for x in (-2.0, 0.0, 0.75):
        assert gf.mapping([x])[0] == pytest.approx(2 * x + 2, abs=1e-14)


def test_compose_system_mismatch():
    f = core.MorphismCandidate(C.identity_smooth_map(1), line_system("1"), line_system("1"))
    g = core.MorphismCandidate(C.identity_smooth_map(1), line_system("2"), line_system("2"))
    with pytest.raises(core.SystemMismatchError):
        core.compose_morphisms(f, g)


def test_compose_associativity_on_random_linear_maps():
    rng = np.random.default_rng(3)
    sys = line_system("1")
    for _ in range(10):
        a, b, c, d, e, k = rng.uniform(-2, 2, size=6).round(4)
        f = core.MorphismCandidate(C.smooth_map([f"{a}*x1 + {b}"], 1), sys, sys)
        g = core.MorphismCandidate(C.smooth_map([f"{c}*x1 + {d}"], 1), sys, sys)
        h = core.MorphismCandidate(C.smooth_map([f"{e}*x1 + {k}"], 1), sys, sys)
        left = core.compose_morphisms(core.compose_morphisms(f, g), h)
        right = core.compose_morphisms(f, core.compose_morphisms(g, h))
        for x in rng.uniform(-5, 5, size=100):
            assert abs(left.mapping([x])[0] - right.mapping([x])[0]) < 1e-12


def test_compose_discrete_tables():
    sys = discrete.DiscreteSystem(("a", "b"), {"a": "b", "b": "b"})
    f = core.MorphismCandidate({"a": "b", "b": "a"}, sys, sys)
    g = core.MorphismCandidate({"a": "a", "b": "a"}, sys, sys)
    gf = core.compose_morphisms(f, g)
    assert gf.mapping == {"a": "a", "b": "a"}


def test_composition_closure_identities():
    sys = line_system("1")
    ident = C.identity_smooth_map(1)
    rep = core.check_composition_closure(ident, ident, sys, sys, sys, tol=1e-12)
    assert rep.passed and rep.residual == 0.0


def test_composition_closure_hand_chain_rule():
    # f(x) = 2x relates (dx=1) -> (dy=2); g(y) = y + 3 relates (dy=2) -> (dz=2)
    x_sys, y_sys, z_sys = line_system("1"), line_system("2"), line_system("2")
    f = C.smooth_map(["2*x1"], 1)
    g = C.smooth_map(["x1 + 3"], 1)
    assert C.check_f_relatedness(f, x_sys, y_sys, tol=1e-12).passed
    assert C.check_f_relatedness(g, y_sys, z_sys, tol=1e-12).passed
    rep = core.check_composition_closure(f, g, x_sys, y_sys, z_sys, tol=1e-12)
    assert rep.passed


def test_composition_closure_discrete_exhaustive():
    import itertools

    carriers = {
        "X": discrete.DiscreteSystem(("a", "b"), {"a": "b", "b": "a"}),
        "Y": discrete.DiscreteSystem(("p", "q"), {"p": "q", "q": "p"}),
        "Z": discrete.DiscreteSystem(("u", "v"), {"u": "v", "v": "u"}),
    }
    src, mid, dst = carriers["X"], carriers["Y"], carriers["Z"]
    # all morphism pairs on these small carriers
    for fa in itertools.product(mid.carrier, repeat=2):
        alpha = dict(zip(src.carrier, fa))
        if not discrete.check_dt_morphism(alpha, src, mid).passed:
            continue
        for gb in itertools.product(dst.carrier, repeat=2):
            beta = dict(zip(mid.carrier, gb))
            if not discrete.check_dt_morphism(beta, mid, dst).passed:
                continue
            rep = core.check_composition_closure(alpha, beta, src, mid, dst)
            assert rep.passed


def test_initiality_funnel_exact_count():
    sys = discrete.DiscreteSystem(("a", "b"), {"a": "b", "b": "b"})
    rep = core.verify_initiality_discrete(4, core.PointedSystem(sys, "a"))
    assert rep.passed and rep.samples == 2**5
    found, _ = core.enumerate_pointed_morphisms(core.PointedSystem(sys, "a"), 4)
    assert found == [("a", "b", "b", "b", "b")]


def test_initiality_one_point():
    sys = discrete.DiscreteSystem(("a",), {"a": "a"})
    rep = core.verify_initiality_discrete(3, core.PointedSystem(sys, "a"))
    assert rep.passed and rep.samples == 1


def test_initiality_cap():
    sys = discrete.DiscreteSystem(tuple("abcdefghij"), {c: c for c in "abcdefghij"})
    with pytest.raises(core.EnumerationCapError):
        core.verify_initiality_discrete(9, core.PointedSystem(sys, "a"), cap=10**6)


def reference_enumerate(target: core.PointedSystem, horizon: int):
    """Oracle for :func:`dynsys.core.enumerate_pointed_morphisms`: walk every
    table {0..horizon} -> carrier in ``itertools.product`` order."""
    carrier = tuple(target.system.carrier)
    endomap = target.system.endomap
    found = []
    for seq in itertools.product(carrier, repeat=horizon + 1):
        if seq[0] != target.basepoint:
            continue
        if all(seq[k + 1] == endomap[seq[k]] for k in range(horizon)):
            found.append(seq)
    return found, len(carrier) ** (horizon + 1)


@st.composite
def _tables(draw) -> discrete.DiscreteSystem:
    size = draw(st.integers(1, 4))
    carrier = draw(st.permutations("abcd"))[:size]
    images = draw(st.lists(st.sampled_from(carrier), min_size=size, max_size=size))
    return discrete.DiscreteSystem(tuple(carrier), dict(zip(carrier, images)))


@hypothesis.given(_tables(), st.integers(0, 5))
@hypothesis.settings(max_examples=300, deadline=None)
def test_enumeration_matches_product_loop(sys, horizon):
    for bp in sys.carrier:
        target = core.PointedSystem(sys, bp)
        assert core.enumerate_pointed_morphisms(target, horizon) == \
            reference_enumerate(target, horizon)


def test_enumeration_long_horizon_one_point():
    sys = discrete.DiscreteSystem(("a",), {"a": "a"})
    found, total = core.enumerate_pointed_morphisms(core.PointedSystem(sys, "a"), 5000)
    assert found == [("a",) * 5001] and total == 1


def test_enumeration_negative_horizon():
    sys = discrete.DiscreteSystem(("a", "b"), {"a": "b", "b": "b"})
    with pytest.raises(ValueError, match="horizon must be non-negative"):
        core.verify_initiality_discrete(-1, core.PointedSystem(sys, "a"))


@hypothesis.given(st.floats(-1e300, 1e300), st.floats(-1e300, 1e300), st.integers(0, 60))
@hypothesis.example(0.0, 5e-324, 4)  # a subnormal step
@hypothesis.example(-0.0, 1.0, 1)
@hypothesis.example(-5.0 + 1e-3 * 10.0, 5.0 - 1e-3 * 10.0, 21)  # find_equilibria's default axis
@hypothesis.example(-1.0 + 1e-3 * 31.0, 30.0 - 1e-3 * 31.0, 21)
@hypothesis.settings(max_examples=300, deadline=None)
def test_linspace_matches_numpy_bits(lo, hi, num):
    got = [v.hex() for v in core._linspace(lo, hi, num)]
    assert got == [float(v).hex() for v in np.linspace(lo, hi, num)]


def test_initiality_continuous_corroboration():
    rep = core.verify_initiality_continuous(line_system("x1"), [1.0], 1.0)
    assert rep.passed
