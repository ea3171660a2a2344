import math

import hypothesis
import hypothesis.strategies as st
import numpy as np
import pytest

from dynsys import continuous as C
from dynsys import category, core, discrete, ode_checks
from dynsys import expr as E
from reference_checks import reference_enumerate


def line_system(rate: str) -> C.ContinuousSystem:
    return C.ContinuousSystem(C.full_space(1), E.parse_vector([rate], 1))


def test_check_report_invariant():
    def witness(residual, where):
        return "w"

    rep = category.CheckReport.worst([(0.5, "a")], 1.0, witness=witness)
    assert rep.passed and rep.verdict == "pass" and rep.witness is None
    rep = category.CheckReport.worst([(2.0, "a")], 1.0, witness=witness)
    assert not rep.passed and rep.verdict == "fail" and rep.witness == "w"
    # a tally's witness is its first violation, so the two cannot disagree
    assert category.CheckReport.tally([None] * 5) == category.CheckReport(True, 0.0, 5)
    rep = category.CheckReport.tally([None, "bad at a", "bad at b", None, None])
    assert rep == category.CheckReport(False, 2.0, 5, "bad at a")


def test_worst_reports_the_first_of_equal_gaps():
    def witness(residual, where):
        return f"{residual} at {where}"

    rep = category.CheckReport.worst([(1.0, "a"), (3.0, "b"), (3.0, "c"), (2.0, "d")], 0.5,
                                     witness=witness, note="n")
    assert rep == category.CheckReport(False, 3.0, 4, "3.0 at b", "n")
    rep = category.CheckReport.worst([(0.25, "a"), (0.5, "b")], 0.5, witness=witness)
    assert rep == category.CheckReport(True, 0.5, 2)
    # a tolerance below 0, which not even a zero residual meets, is refused
    with pytest.raises(ValueError, match="tolerance -1.0 is nan or negative"):
        category.CheckReport.worst([(0.0, "a")], -1.0, witness=witness)


BAD_TOLERANCES = pytest.mark.parametrize(
    "tol", [math.nan, -1.0, -math.inf], ids=["nan", "negative", "-inf"])


@BAD_TOLERANCES
def test_numerical_refuses_a_nan_or_negative_tolerance(tol):
    # the checks of one comparison each; x' = -x rests at 0, so both residuals are 0
    sys_ = line_system("0 - x1")
    checks = [lambda tol: ode_checks.check_equilibrium_morphism(sys_, [0.0], tol=tol),
              lambda tol: ode_checks.check_periodic_orbit(sys_, [0.0], 1.0, tol=tol)]
    for check in checks:
        with pytest.raises(ValueError, match=f"tolerance {tol!r} is nan or negative"):
            check(tol)
        assert check(0.0) == category.CheckReport(True, 0.0, 1)
        assert check(math.inf).passed


@BAD_TOLERANCES
def test_worst_refuses_a_nan_or_negative_tolerance(tol):
    # the identity map used to fail such a tolerance at residual 0, with no witness
    with pytest.raises(ValueError, match=f"tolerance {tol!r} is nan or negative"):
        category.CheckReport.worst([(0.0, "a")], tol)
    sys = line_system("1")
    with pytest.raises(ValueError, match=f"tolerance {tol!r} is nan or negative"):
        C.check_f_relatedness(C.identity_smooth_map(1), sys, sys, tol=tol)


@pytest.mark.parametrize("gaps", [
    [(math.nan, "s1")],
    [(1.0, "s1"), (math.nan, "s2"), (2.0, "s3")],
    [(math.inf, "s1"), (math.nan, "s2")],
], ids=["first", "later", "after-inf"])
def test_worst_raises_on_a_nan_gap(gaps):
    # a check that cannot measure a sample can neither pass nor fail it
    where = next(where for gap, where in gaps if math.isnan(gap))
    with pytest.raises(ValueError, match=f"nan gap at sample {where},"):
        category.CheckReport.worst(gaps, 1e-8)


def test_worst_and_tally_of_no_samples():
    assert category.CheckReport.worst([], 1e-8) == category.CheckReport(True, 0.0, 0)
    assert category.CheckReport.tally([]) == category.CheckReport(True, 0.0, 0)


def test_worst_fails_an_infinite_gap():
    # an overflow that nothing cancels: the true defect is near the top of the float range
    rep = category.CheckReport.worst([(1.0, "a"), (math.inf, "b")], 1e-8,
                                     witness=lambda residual, where: f"{residual} at {where}")
    assert rep == category.CheckReport(False, math.inf, 2, "inf at b")


def test_tally_counts_violations_with_the_first_witness():
    rep = category.CheckReport.tally([None, "bad at b", None, "bad at d"], note="n")
    assert rep == category.CheckReport(False, 2.0, 4, "bad at b", "n")
    assert category.CheckReport.tally([None, None]) == category.CheckReport(True, 0.0, 2)


# a map that is not a morphism, whose defect overflows to inf - inf = nan
# at every sample: Jf X = 1e200*1e200 - 1e200*1e200, against Y = 1
CANCEL_SRC = C.ContinuousSystem(C.full_space(2), E.parse_vector(["1e200", "1e200"], 2))
CANCEL_DST = line_system("1")
CANCEL_MAP = C.smooth_map(["1e200*x1 - 1e200*x2"], 2)


def test_overflowing_defect_raises_in_every_check():
    from dynsys import tau

    with pytest.raises(ValueError, match="nan gap at sample"):
        C.check_f_relatedness(CANCEL_MAP, CANCEL_SRC, CANCEL_DST)
    with pytest.raises(ValueError, match="nan gap at sample"):
        tau.check_tau_morphism(CANCEL_MAP, tau.from_continuous(CANCEL_SRC),
                               tau.from_continuous(CANCEL_DST))
    with pytest.raises(ValueError, match="nan gap at sample"):
        category.check_composition_closure(C.identity_smooth_map(2), CANCEL_MAP,
                                           CANCEL_SRC, CANCEL_SRC, CANCEL_DST)


def test_pointed_system_validates_basepoint():
    sys = discrete.DiscreteSystem(("a",), {"a": "a"})
    category.PointedSystem(sys, "a")
    with pytest.raises(ValueError):
        category.PointedSystem(sys, "z")
    with pytest.raises(ValueError):
        category.PointedSystem(line_system("1"), (float("nan"),))


def test_compose_identity_laws():
    sys = line_system("1")
    f = category.MorphismCandidate(C.smooth_map(["x1^2 + 1"], 1), sys, sys)
    for composite in (
        category.compose_morphisms(category.identity_morphism(sys), f),
        category.compose_morphisms(f, category.identity_morphism(sys)),
    ):
        for x in np.linspace(-3, 3, 100):
            lhs = composite.mapping([x])
            rhs = f.mapping([x])
            assert abs(lhs[0] - rhs[0]) < 1e-12


def test_compose_affine():
    sys = line_system("1")
    f = category.MorphismCandidate(C.smooth_map(["x1 + 1"], 1), sys, sys)
    g = category.MorphismCandidate(C.smooth_map(["2*x1"], 1), sys, sys)
    gf = category.compose_morphisms(f, g)
    for x in (-2.0, 0.0, 0.75):
        assert gf.mapping([x])[0] == pytest.approx(2 * x + 2, abs=1e-14)


def test_compose_system_mismatch():
    f = category.MorphismCandidate(C.identity_smooth_map(1), line_system("1"), line_system("1"))
    g = category.MorphismCandidate(C.identity_smooth_map(1), line_system("2"), line_system("2"))
    with pytest.raises(core.SystemMismatchError):
        category.compose_morphisms(f, g)


def test_compose_associativity_on_random_linear_maps():
    rng = np.random.default_rng(3)
    sys = line_system("1")
    for _ in range(10):
        a, b, c, d, e, k = rng.uniform(-2, 2, size=6).round(4)
        f = category.MorphismCandidate(C.smooth_map([f"{a}*x1 + {b}"], 1), sys, sys)
        g = category.MorphismCandidate(C.smooth_map([f"{c}*x1 + {d}"], 1), sys, sys)
        h = category.MorphismCandidate(C.smooth_map([f"{e}*x1 + {k}"], 1), sys, sys)
        left = category.compose_morphisms(category.compose_morphisms(f, g), h)
        right = category.compose_morphisms(f, category.compose_morphisms(g, h))
        for x in rng.uniform(-5, 5, size=100):
            assert abs(left.mapping([x])[0] - right.mapping([x])[0]) < 1e-12


def test_compose_discrete_tables():
    sys = discrete.DiscreteSystem(("a", "b"), {"a": "b", "b": "b"})
    f = category.MorphismCandidate({"a": "b", "b": "a"}, sys, sys)
    g = category.MorphismCandidate({"a": "a", "b": "a"}, sys, sys)
    gf = category.compose_morphisms(f, g)
    assert gf.mapping == {"a": "a", "b": "a"}


def test_composition_closure_identities():
    sys = line_system("1")
    ident = C.identity_smooth_map(1)
    rep = category.check_composition_closure(ident, ident, sys, sys, sys, tol=1e-12)
    assert rep.passed and rep.residual == 0.0


def test_composition_closure_hand_chain_rule():
    # f(x) = 2x relates (dx=1) -> (dy=2); g(y) = y + 3 relates (dy=2) -> (dz=2)
    x_sys, y_sys, z_sys = line_system("1"), line_system("2"), line_system("2")
    f = C.smooth_map(["2*x1"], 1)
    g = C.smooth_map(["x1 + 3"], 1)
    assert C.check_f_relatedness(f, x_sys, y_sys, tol=1e-12).passed
    assert C.check_f_relatedness(g, y_sys, z_sys, tol=1e-12).passed
    rep = category.check_composition_closure(f, g, x_sys, y_sys, z_sys, tol=1e-12)
    assert rep.passed


def test_composition_closure_refuses_samples_outside_the_carrier():
    half = C.ContinuousSystem(C.Domain(((0.0, math.inf),)), E.parse_vector(["x1"], 1))
    ident = C.identity_smooth_map(1)
    with pytest.raises(ValueError, match=r"morphism sample \(-1.0,\) outside the carrier"):
        category.check_composition_closure(ident, ident, half, half, half, samples=[(-1.0,)])
    funnel = discrete.DiscreteSystem(("a", "b"), {"a": "b", "b": "b"})
    table = {"a": "a", "b": "b"}
    with pytest.raises(ValueError, match="morphism sample 'z' not in the carrier"):
        category.check_composition_closure(table, table, funnel, funnel, funnel, samples=["z"])
    rep = category.check_composition_closure(table, table, funnel, funnel, funnel, samples=["b"])
    assert rep.passed and rep.samples == 1


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
            rep = category.check_composition_closure(alpha, beta, src, mid, dst)
            assert rep.passed


def test_initiality_funnel_exact_count():
    sys = discrete.DiscreteSystem(("a", "b"), {"a": "b", "b": "b"})
    rep = category.verify_initiality_discrete(4, category.PointedSystem(sys, "a"))
    assert rep.passed and rep.samples == 2**5
    found, _ = category.enumerate_pointed_morphisms(category.PointedSystem(sys, "a"), 4)
    assert found == [("a", "b", "b", "b", "b")]


def test_initiality_one_point():
    sys = discrete.DiscreteSystem(("a",), {"a": "a"})
    rep = category.verify_initiality_discrete(3, category.PointedSystem(sys, "a"))
    assert rep.passed and rep.samples == 1


def test_initiality_cap():
    sys = discrete.DiscreteSystem(tuple("abcdefghij"), {c: c for c in "abcdefghij"})
    with pytest.raises(core.EnumerationCapError):
        category.verify_initiality_discrete(9, category.PointedSystem(sys, "a"))


@pytest.mark.parametrize("n, horizon, samples", [
    (10, 6, 10_000_000), (10, 7, None), (4, 10, 4_194_304), (4, 11, None),
])
def test_initiality_report_at_the_cap_edge(n, horizon, samples):
    # the count is the report's samples up to 10**7 and refused beyond it
    carrier = tuple("abcdefghij"[:n])
    sys = discrete.DiscreteSystem(carrier, dict(zip(carrier, carrier[1:] + carrier[:1])))
    target = category.PointedSystem(sys, "a")
    if samples is None:
        with pytest.raises(core.EnumerationCapError,
                           match=rf"^{n}\^{horizon + 1} candidate functions exceeds cap 10000000$"):
            category.verify_initiality_discrete(horizon, target)
    else:
        rep = category.verify_initiality_discrete(horizon, target)
        assert rep == category.CheckReport(True, 0.0, samples)
        assert type(rep.samples) is int


def test_initiality_float_horizon_is_refused():
    sys = discrete.DiscreteSystem(("a", "b"), {"a": "b", "b": "b"})
    with pytest.raises(TypeError):
        category.verify_initiality_discrete(2.0, category.PointedSystem(sys, "a"))
    with pytest.raises(TypeError):
        category.enumerate_pointed_morphisms(category.PointedSystem(sys, "a"), 2.0)


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
        target = category.PointedSystem(sys, bp)
        assert category.enumerate_pointed_morphisms(target, horizon) == \
            reference_enumerate(target, horizon)


def test_enumeration_long_horizon_one_point():
    sys = discrete.DiscreteSystem(("a",), {"a": "a"})
    found, total = category.enumerate_pointed_morphisms(category.PointedSystem(sys, "a"), 5000)
    assert found == [("a",) * 5001] and total == 1


def test_enumeration_negative_horizon():
    sys = discrete.DiscreteSystem(("a", "b"), {"a": "b", "b": "b"})
    with pytest.raises(ValueError, match="horizon must be non-negative"):
        category.verify_initiality_discrete(-1, category.PointedSystem(sys, "a"))


@hypothesis.given(st.floats(-1e300, 1e300), st.floats(-1e300, 1e300), st.integers(0, 60))
@hypothesis.example(0.0, 5e-324, 4)  # a subnormal step
@hypothesis.example(-0.0, 1.0, 1)
@hypothesis.example(-5.0 + 1e-3 * 10.0, 5.0 - 1e-3 * 10.0, 21)  # find_equilibria's default axis
@hypothesis.example(-1.0 + 1e-3 * 31.0, 30.0 - 1e-3 * 31.0, 21)
@hypothesis.settings(max_examples=300, deadline=None)
def test_linspace_matches_numpy_bits(lo, hi, num):
    got = [v.hex() for v in category._linspace(lo, hi, num)]
    assert got == [float(v).hex() for v in np.linspace(lo, hi, num)]
