import math
import warnings

import hypothesis
import hypothesis.strategies as st
import numpy as np
import pytest

from dynsys import continuous as C
from dynsys import expr as E
from dynsys import germ as G
from exprgen import random_expr
from germgen import membership_equivalence_violations, random_monotone_piece_map, random_open_set
from reference_germ import (reference_critical_point, reference_crossing, reference_directions,
                            reference_sign_brackets)


# --- open sets ---------------------------------------------------------------


def test_normalization_merges_overlap():
    s = G.open_set((0.0, 2.0), (1.0, 3.0))
    assert s.intervals == ((0.0, 3.0),)


def test_touching_open_intervals_stay_separate():
    s = G.open_set((0.0, 1.0), (1.0, 2.0))
    assert s.intervals == ((0.0, 1.0), (1.0, 2.0))
    assert not s.contains(1.0)


def test_empty_intervals_dropped():
    assert G.open_set((2.0, 2.0), (3.0, 1.0)).is_empty


@pytest.mark.parametrize("interval", [(math.nan, 1.0), (0.0, math.nan), (math.nan, math.nan)],
                         ids=["lo", "hi", "both"])
def test_nan_interval_end_rejected(interval):
    # such an interval used to be dropped as empty, giving a map an empty domain
    with pytest.raises(ValueError, match="has a nan end"):
        G.open_set((2.0, 3.0), interval)


_interval_lists = st.lists(
    st.tuples(
        st.floats(min_value=-50, max_value=50, allow_nan=False),
        st.floats(min_value=-50, max_value=50, allow_nan=False),
    ),
    max_size=6,
)


@hypothesis.given(_interval_lists)
def test_normalization_idempotent(ivs):
    s = G.OpenSet1D(tuple(ivs))
    assert G.OpenSet1D(s.intervals).intervals == s.intervals
    for (a_lo, a_hi), (b_lo, b_hi) in zip(s.intervals, s.intervals[1:]):
        assert a_lo < a_hi <= b_lo < b_hi


@hypothesis.given(_interval_lists, st.floats(min_value=-60, max_value=60, allow_nan=False))
def test_contains_array_matches_scalar(ivs, x):
    s = G.OpenSet1D(tuple(ivs))
    assert bool(s.contains_array(np.array([x]))[0]) == s.contains(x)


def test_contains_array_excludes_shared_endpoint():
    s = G.open_set((-2.0, -1.0), (-1.0, 0.0))
    assert s.contains_array(np.array([-1.5, -1.0, -0.5, 0.0])).tolist() == [True, False, True, False]


def test_intersect_and_union():
    a = G.open_set((0.0, 5.0))
    b = G.open_set((-math.inf, 1.0), (2.0, math.inf))
    assert a.intersect(b).intervals == ((0.0, 1.0), (2.0, 5.0))
    assert b.union(G.open_set((1.0, 2.0))).intervals == ((-math.inf, 1.0), (1.0, 2.0), (2.0, math.inf))


def test_textual_form():
    s = G.open_set((-math.inf, 0.0), (0.0, math.inf))
    assert str(s) == "(-inf,0.0) ∪ (0.0,inf)"
    assert str(G.open_set()) == "(empty)"


# --- partial maps and composition ---------------------------------------------


def test_total_composition_stays_total():
    f = G.partial_map("x1 + 1")
    g = G.partial_map("2*x1")
    gf = G.compose_partial(f, g)
    assert gf.domain.intervals == ((-math.inf, math.inf),)
    for x in (-3.0, 0.0, 2.5):
        assert gf(x) == pytest.approx(2 * (x + 1), abs=1e-12)


def test_identity_with_restricted_domain():
    f = G.partial_map("x1", G.open_set((-math.inf, 0.0)))
    g = G.partial_map("x1 + 1")
    gf = G.compose_partial(f, g)
    assert gf.domain.intervals == ((-math.inf, 0.0),)


def test_square_preimage_two_components():
    # dom(g o f) = preimage of (1, 4) under x^2 = (-2, -1) u (1, 2)
    f = G.partial_map("x1^2")
    g = G.partial_map("x1", G.open_set((1.0, 4.0)))
    gf = G.compose_partial(f, g)
    assert len(gf.domain.intervals) == 2
    (a, b), (c, d) = gf.domain.intervals
    assert abs(a + 2) < 1e-9 and abs(b + 1) < 1e-9
    assert abs(c - 1) < 1e-9 and abs(d - 2) < 1e-9
    # membership oracle on 10^4 points
    pts = np.linspace(-3, 3, 10_000)
    inside = gf.domain.contains_array(pts)
    oracle = (1.0 < pts**2) & (pts**2 < 4.0)
    margin = np.min(
        np.abs(pts[:, None] - np.array([-2.0, -1.0, 1.0, 2.0])[None, :]), axis=1
    )
    keep = margin > 1e-9
    assert np.array_equal(inside[keep], oracle[keep])


# a constant map has one piece, of direction 0: its preimage is all of the
# domain or nothing, by whether the constant lies inside the target


def test_preimage_through_a_constant_map():
    two = G.partial_map("2", G.open_set((-1.0, 5.0)))
    log = G.partial_map("log(x1)", G.open_set((0.0, math.inf)))
    assert G.compose_partial(two, log).domain.intervals == ((-1.0, 5.0),)
    log_beyond = G.partial_map("log(x1)", G.open_set((3.0, math.inf)))
    assert G.compose_partial(two, log_beyond).domain.is_empty


def test_preimage_misses_a_constant_on_the_target_end():
    seven = G.partial_map("x1 - x1 + 7")
    assert G.preimage(seven, G.open_set((7.0, 8.0))).is_empty
    assert G.preimage(seven, G.open_set((6.0, 8.0))) == G.FULL_LINE


def test_pipeline_survives_composition():
    f = G.partial_map("x1 + 1")
    g = G.partial_map("x1^2")
    h = G.partial_map("x1 - 3")
    two = G.compose_partial(f, g)
    three = G.compose_partial(two, h)
    assert len(three.pipeline) == 3


def test_domain_formula_randomized_battery():
    rng = np.random.default_rng(404)
    pts = rng.uniform(-12, 12, size=2000)
    for _ in range(40):
        f = random_monotone_piece_map(rng)
        g = random_monotone_piece_map(rng)
        assert membership_equivalence_violations(f, g, pts) == 0


def test_composition_associativity_exact():
    rng = np.random.default_rng(777)
    for _ in range(25):
        f = random_monotone_piece_map(rng)
        g = random_monotone_piece_map(rng)
        h = random_monotone_piece_map(rng)
        left = G.compose_partial(G.compose_partial(f, g), h)
        right = G.compose_partial(f, G.compose_partial(g, h))
        assert left.domain.intervals == right.domain.intervals
        for lo, hi in left.domain.intervals:
            lo, hi = max(lo, -20.0), min(hi, 20.0)
            if hi - lo < 1e-6:
                continue
            xs = np.linspace(lo + 1e-7 * (hi - lo), hi - 1e-7 * (hi - lo), 17)
            va = E.evaluate_many(left.map, xs)
            vb = E.evaluate_many(right.map, xs)
            assert np.array_equal(va, vb)


def test_non_monotone_rejected():
    f = G.partial_map("sin(x1)")
    g = G.partial_map("x1", G.open_set((0.0, 0.5)))
    with pytest.raises(G.NonMonotoneError):
        G.compose_partial(f, g)


def test_flat_component_without_a_value_is_evaluated_once(monkeypatch):
    # log(0 - 1) has derivative 0 and no value anywhere: its one flat
    # component is valued at its midpoint alone, and refused
    calls, walk = [], G._walk_value
    monkeypatch.setattr(G, "_walk_value", lambda m, x: calls.append(x) or walk(m, x))
    pm = G.partial_map("log(0 - 1)", G.open_set((100.0, 200.0)))
    with pytest.raises(G.NonMonotoneError, match=r"^cannot evaluate log\(0 - 1\) near 150\.0$"):
        G.preimage(pm, G.open_set((0.0, 1.0)))
    assert calls == [150.0]


# Domains of germgen composites from seed 1207 (20 pairs, then 2 triples), as
# the per-sample sign loop of reference_germ.py and one evaluation per probe
# computed them.  The seed was picked so that both triples are nonempty.
GOLDEN_PAIRS = [
    ((-7.544662427873972, -6.96646981249332),),
    ((-math.inf, -6.821209248079122), (0.4834011262935818, 0.7769313604014981),
     (2.45261905702143, 2.8490723781034957)),
    ((-4.659909864398495, -3.6228254572218983), (-3.0349863907821746, -1.0838813583734555),
     (3.308636741117088, 5.889945017674958)),
    ((-1.583910574632956, -0.4375581591836308), (-0.4375581591836308, -0.1208011889772832)),
    ((-5.2532465296586, -2.069408971906228), (-1.6481544435035003, 2.9855997581992746),
     (3.628771773083691, 3.808516689200119)),
    ((-9.163672457070453, -8.210789275414184),),
    ((-math.inf, -1.9605501304764918), (2.687570498444322, 2.892689328104733)),
    ((-2.1583014844224384, 4.91514249442355),),
    ((-7.260374804648203, -0.7757662232352673), (-0.6715641095677195, -0.5765983177193863),
     (0.9037827879288909, 1.8046825287129031), (1.8046825287129031, 2.705582269496915),
     (4.185963375145192, 4.280929166993526), (4.385131280661073, math.inf)),
    ((-0.4077708914627236, -0.339758842150174), (3.8403649503183432, 3.908376999630893)),
    (),
    ((-1.516644241601642, -1.4938534374656114), (-0.3199979713612382, 0.1839434408825306),
     (3.580927871006129, 4.436595504818625)),
    ((-7.1116438118536145, -4.615364477165756), (-3.3251254466139626, -1.025242365047137),
     (0.5239159148896356, 1.3167122129901152), (1.995639890334429, 7.002396765543077)),
    ((-4.7737737590443965, -3.542377468121656), (-3.1543227716496003, -1.9854211084039912),
     (-1.2137480726621328, 0.5434497595913973), (3.214370143755189, 3.6740205668711665)),
    ((1.1735137819732013, 1.7985296987842971), (2.4746601087934317, 2.532141150589924),
     (5.346407468433197, 7.1968363533712045)),
    ((-math.inf, -4.279135737297153), (0.1847868762536328, 11.089956428043129)),
    ((-2.9238367017211497, -1.7167451044197977), (-0.9942993425676248, 1.4949432875061877),
     (1.5444114713909827, 5.473216091470387)),
    ((-0.5823909041919073, -0.30718087660831184),),
    ((-2.3633981812385825, 1.9856399576907986),),
    ((-math.inf, 0.8527949122969974),),
]
GOLDEN_TRIPLES = [
    ((0.47208770380166715, 1.0431629401828697), (1.0431629401828697, 1.6142381765640725)),
    ((-5.032614603264759, -1.8778398156356182), (-1.8778398156356182, 1.2769349719935223)),
]


def test_golden_composite_domains():
    rng = np.random.default_rng(1207)
    for expected in GOLDEN_PAIRS:
        f, g = random_monotone_piece_map(rng), random_monotone_piece_map(rng)
        assert repr(G.compose_partial(f, g).domain.intervals) == repr(expected)
    for expected in GOLDEN_TRIPLES:
        f, g, h = (random_monotone_piece_map(rng) for _ in range(3))
        left = G.compose_partial(G.compose_partial(f, g), h)
        right = G.compose_partial(f, G.compose_partial(g, h))
        assert repr(left.domain.intervals) == repr(right.domain.intervals) == repr(expected)


# derivative samples as runs of one value, so that runs of exact zeros (and of
# nan or +-inf) of any length occur, an all-zero array among them
_sample = st.one_of(st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf]),
                    st.floats(allow_nan=False, allow_infinity=False))
_derivative = st.lists(st.tuples(_sample, st.integers(1, 40)), max_size=30).map(
    lambda runs: np.array([v for v, n in runs for _ in range(n)], dtype=float))


@hypothesis.given(_derivative)
@hypothesis.example(np.zeros(513))
@hypothesis.example(np.array([1.0, math.nan, 0.0, -math.inf, -2.0, 0.0, 0.0, 3.0, math.inf, -1e-300]))
def test_sign_scan_matches_the_sample_loop(dvals):
    assert G._sign_brackets(dvals) == reference_sign_brackets(dvals)


@pytest.mark.parametrize("src, lo, hi, y, increasing", [
    ("2*x1 + 1", -3.0, 5.0, 0.3, True),
    ("1 - x1^3", -math.inf, math.inf, -7.25, False),  # both ends clipped at +-1e8
    ("x1", -math.inf, 0.0, -2e8, True),  # the level lies beyond the clip
    ("x1 + t", -1.0, 1.0, 0.125, True),
    # the compiled map raises DomainError below 0: the walk's nan is below y
    ("log(x1)", -1.0, 4.0, 0.5, True),
    ("sqrt(x1)", -2.0, 9.0, 1e-9, True),
    ("0 - sqrt(x1)", -2.0, 9.0, -1e-300, False),
    ("exp(x1)", 0.0, 1000.0, 1e300, True),  # overflow raises: the walk's inf
    ("1/x1", -1.0, 1.0, 3.0, False),  # a midpoint lands on 0: division by zero
])
def test_compiled_crossing_matches_the_scalar_bisection(src, lo, hi, y, increasing):
    m = E.parse(src, 1)
    got = G._solve_crossing(m, lo, hi, y, increasing)
    assert got.hex() == reference_crossing(m, lo, hi, y, increasing).hex()


def test_compiled_crossing_matches_on_random_maps():
    # the two bisections must agree step for step on any map, monotone or not
    rng = np.random.default_rng(2024)
    for _ in range(300):
        m = random_expr(rng, arity=1, depth=int(rng.integers(1, 5)))
        lo, hi = sorted(rng.uniform(-3e8, 3e8, size=2) / 10.0 ** rng.integers(0, 9, size=2))
        y, increasing = float(rng.normal() * 10.0 ** rng.integers(-3, 4)), bool(rng.random() < 0.5)
        got = G._solve_crossing(m, float(lo), float(hi), y, increasing)
        assert got.hex() == reference_crossing(m, float(lo), float(hi), y, increasing).hex()


def _reference_spans(pm: G.PartialMap) -> list[tuple[float, float]]:
    """The pieces' ends as the grid of each domain component, the per-sample
    sign loop and the scalar critical-point bisection make them."""
    dm = E.differentiate(pm.map, 1)
    spans = []
    for lo, hi in pm.domain.intervals:
        blo, bhi = max(lo, -G._CLIP), min(hi, G._CLIP)
        xs = G._linspace_rows(np.array([blo + 1e-12 * max(1.0, abs(blo))]),
                              np.array([bhi - 1e-12 * max(1.0, abs(bhi))]))[0]
        cuts = [reference_critical_point(dm, float(xs[i]), float(xs[j]), rising)
                for i, j, rising in reference_sign_brackets(E.evaluate_many(dm, xs))]
        ends = [lo] + cuts + [hi]
        spans += zip(ends, ends[1:])
    return spans


@pytest.mark.parametrize("src, domain", [
    # a midpoint lands on 0.0, where the derivative is exactly 0: not positive
    ("x1^2", (-3.0, 3.0)),
    ("sqrt(x1^2 + 1) - x1^2/4", (-5.0, 5.0)),
    ("cos(x1)", (-10.0, 10.0)),
    # a midpoint where the compiled derivative raises DomainError: the walk's value
    ("log(x1^2)", (-1.0, 1.0)),  # 2 * x1 / x1^2: division by zero
    ("sqrt(x1^2)", (-1.0, 1.0)),  # 2 * x1 / (2 * sqrt(x1^2)): division by zero
    ("(x1^2)^0.75", (-2.0, 2.0)),  # zero base with negative exponent
    ("x1^2*exp(1/x1^2)", (-1.0, 2.0)),  # exp overflows across the bracket
])
def test_critical_points_match_the_scalar_bisection(src, domain):
    pm = G.partial_map(src, G.open_set(domain))
    pieces = G._monotone_pieces(pm)
    assert repr([piece[:2] for piece in pieces]) == repr(_reference_spans(pm))


def test_critical_points_match_on_random_maps():
    rng = np.random.default_rng(31)
    crossed = 0
    for _ in range(300):
        m = random_expr(rng, arity=1, depth=int(rng.integers(1, 5)))
        try:
            pm = G.PartialMap(random_open_set(rng), m)
            pieces = G._monotone_pieces(pm)
        except (ValueError, G.NonMonotoneError):
            continue  # undefined, or no monotone pieces to compare
        assert repr([piece[:2] for piece in pieces]) == repr(_reference_spans(pm))
        crossed += len(pieces) > len(pm.domain.intervals)
    assert crossed >= 50


# rows of probes whose finite values are sorted up, down or not at all, with
# nan, +-inf, signed zeros, the least subnormals and values whose
# differences overflow among them
_probe = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324, 1.7e308, -1.7e308]),
    st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def _probe_rows(draw):
    width = draw(st.integers(1, 8))
    rows = []
    for _ in range(draw(st.integers(1, 4))):
        row = draw(st.lists(_probe, min_size=width, max_size=width))
        order = draw(st.sampled_from(["up", "down", "as drawn"]))
        if order != "as drawn":
            finite = iter(sorted((v for v in row if math.isfinite(v)), reverse=order == "down"))
            row = [next(finite) if math.isfinite(v) else v for v in row]
        rows.append(row)
    return np.array(rows)


@hypothesis.given(_probe_rows())
@hypothesis.example(np.array([[1.7e308, -1.7e308, 0.0], [-1.7e308, math.inf, 1.7e308],
                              [math.nan, math.nan, math.nan]]))
@hypothesis.example(np.array([[-0.0, 0.0, -0.0, 5e-324, math.nan, -math.inf, 5e-324]]))
def test_directions_match_the_row_differences(values):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = G._directions(values)
    assert got == reference_directions(values)


_ends = st.floats(min_value=-G._CLIP, max_value=G._CLIP)
_widths = st.one_of(st.sampled_from([5e-324, 1e-300, 1e-15, 2.5e-12, 1e-9, 2e8]),
                    st.floats(min_value=1e-12, max_value=2e8))


@hypothesis.given(st.lists(st.tuples(_ends, _widths), min_size=1, max_size=4))
@hypothesis.example([(-G._CLIP, 2 * G._CLIP), (G._CLIP - 1e-7, 1e-7), (0.0, 5e-324), (1.0, 2.2e-16)])
def test_grid_rows_match_linspace(components):
    # the hand-built grid must be np.linspace's, row by row, bit for bit,
    # with the ends nudged inward as _monotone_pieces nudges them
    clipped = [(lo, min(lo + width, G._CLIP)) for lo, width in components]
    starts = np.array([lo + 1e-12 * max(1.0, abs(lo)) for lo, _ in clipped])
    stops = np.array([hi - 1e-12 * max(1.0, abs(hi)) for _, hi in clipped])
    grid = G._linspace_rows(starts, stops)
    for row, start, stop in zip(grid, starts, stops):
        assert np.array_equal(row.view(np.int64), np.linspace(start, stop, G._GRID).view(np.int64))


def test_pieces_never_join_two_components():
    # one sign scan runs over the grids of both components: the derivative's
    # change of sign between them is no critical point
    pieces = G._monotone_pieces(G.partial_map("x1^2", G.open_set((-3.0, -1.0), (1.0, 3.0))))
    assert [(lo, hi, d) for lo, hi, _, _, d in pieces] == [(-3.0, -1.0, -1), (1.0, 3.0, 1)]


_SPAN = 512 * 2 * math.pi  # the derivative grid's step is ~2 pi: cos looks positive


@pytest.mark.parametrize("second", [(2e8, 3e8), (10.0, 20.0)])
def test_piece_errors_come_in_domain_order(second):
    # the first component hides a non-monotone piece from the derivative
    # grid; the second lies beyond the clip, or has a derivative that
    # overflows everywhere: the first component's error wins
    pm = G.partial_map("sin(x1) + exp(exp(x1))", G.open_set((-_SPAN - 1.0, -1.0), second))
    with pytest.raises(G.NonMonotoneError) as err:
        G._monotone_pieces(pm)
    assert str(err.value) == ("sin(x1) + exp(exp(x1)) is not monotone on (-3217.990877275948, -1.0); "
                              "root isolation failed to separate derivative crossings")


def test_composition_is_warning_clean():
    # the batched piece tests must not take a difference of two infinities
    G._monotone_pieces.cache_clear()
    rng = np.random.default_rng(5150)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for _ in range(50):
            G.compose_partial(random_monotone_piece_map(rng), random_monotone_piece_map(rng))
        for _ in range(5):
            f, g, h = (random_monotone_piece_map(rng) for _ in range(3))
            G.compose_partial(G.compose_partial(f, g), h)
            G.compose_partial(f, G.compose_partial(g, h))


def test_sanity_probes_report_components_in_domain_order():
    halves, below = G.open_set((-5.0, -1.0), (1.0, 5.0)), G.open_set((-math.inf, 0.5))
    # undefined on the first component, outside the codomain on the second
    with pytest.raises(ValueError) as first:
        G.partial_map("log(x1)", halves, below)
    assert str(first.value) == "map log(x1) is undefined inside (-5.0, -1.0)"
    # and the other way round
    with pytest.raises(ValueError) as first:
        G.partial_map("log(-x1)", halves, below)
    assert str(first.value) == ("map log(-x1) sends -4.6 to 1.5260563034950492, "
                                "outside the declared codomain (-inf,0.5)")


@pytest.mark.parametrize("src, domain, pieces", [
    # nan at the lower end, 0*log(0): nudged inward
    ("x1*log(x1)", (0.0, 2.0),
     ((0.0, 0.3678794411714424, -1.0532764048295561e-11, -0.36787944117144233, -1),
      (0.3678794411714424, 2.0, -0.36787944117144233, 1.3862943611198906, 1))),
    # nan at the upper end
    ("(2 - x1)*log(2 - x1)", (0.0, 2.0),
     ((0.0, 1.6321205588285579, 1.3862943611198906, -0.36787944117144233, -1),
      (1.6321205588285579, 2.0, -0.36787944117144233, -1.0534103298296696e-11, 1))),
    ("sin(x1)/x1", (0.0, 3.0), ((0.0, 3.0, 1.0, 0.0470400026866224, -1),)),
    # the end -0.0 is evaluated as -0.0 + 0.0 = +0.0: 1/x1 is +inf there
    ("1/x1", (-0.0, 1.0), ((-0.0, 1.0, math.inf, 1.0, -1),)),
])
def test_piece_end_values(src, domain, pieces):
    assert repr(G._monotone_pieces(G.partial_map(src, G.open_set(domain)))) == repr(pieces)


# --- germ equality -------------------------------------------------------------


def test_germ_reflexive():
    pm = G.partial_map("x1^2", G.open_set((-1.0, 1.0)))
    g = G.Germ(pm, 0.25)
    rep = G.germ_equal(g, g)
    assert rep.passed and rep.residual == 0.0


@pytest.mark.parametrize("tol", [math.nan, -1.0], ids=["nan", "negative"])
def test_germ_equal_refuses_a_nan_or_negative_tolerance(tol):
    # identical germs used to fail such a tolerance at residual 0, with no witness
    g = G.Germ(G.partial_map("x1^2", G.open_set((-1.0, 1.0))), 0.25)
    with pytest.raises(ValueError, match="is nan or negative"):
        G.germ_equal(g, g, tol=tol)


def test_partial_identities_differ_without_common_basepoint():
    # the two partial identities onto the punctured line are distinct germs
    left = G.Germ(G.partial_map("x1", G.open_set((-math.inf, 0.0))), -1.0)
    right = G.Germ(G.partial_map("x1", G.open_set((0.0, math.inf))), 1.0)
    rep = G.germ_equal(left, right)
    assert not rep.passed and "basepoint" in rep.witness


def test_equal_germ_different_representatives():
    a = G.Germ(G.partial_map("x1", G.open_set((-1.0, 1.0))), 0.5)
    b = G.Germ(G.partial_map("x1 + x1*0", G.open_set((0.0, 2.0))), 0.5)
    rep = G.germ_equal(a, b)
    assert rep.passed


def test_germ_symmetry_and_transitivity():
    rng = np.random.default_rng(5)
    for _ in range(10):
        lo = float(rng.uniform(-3, -1))
        hi = float(rng.uniform(1, 3))
        base = float(rng.uniform(-0.5, 0.5))
        ga = G.Germ(G.partial_map("tanh(x1)", G.open_set((lo, hi))), base)
        gb = G.Germ(G.partial_map("tanh(x1) + 0*x1", G.open_set((lo - 1, hi))), base)
        gc = G.Germ(G.partial_map("tanh(x1)*1", G.open_set((lo, hi + 1))), base)
        assert G.germ_equal(ga, gb).passed == G.germ_equal(gb, ga).passed
        if G.germ_equal(ga, gb).passed and G.germ_equal(gb, gc).passed:
            assert G.germ_equal(ga, gc).passed


def test_germ_equal_always_compares_its_samples():
    a = G.Germ(G.partial_map("x1"), 0.0)
    b = G.Germ(G.partial_map("x1 + 1"), 0.0)
    rep = G.germ_equal(a, b)
    assert not rep.passed and rep.residual == 1.0 and rep.samples == G._EQUAL_SAMPLES
    with pytest.raises(TypeError):
        G.germ_equal(a, b, samples=0)


def test_germ_requires_basepoint_in_domain():
    with pytest.raises(ValueError):
        G.Germ(G.partial_map("x1", G.open_set((0.0, 1.0))), 2.0)


# --- maximal solution domains ----------------------------------------------------


def punctured_time(punctures=(0.0,)) -> C.ContinuousSystem:
    dom = C.Domain(((-math.inf, math.inf),), tuple((p,) for p in punctures))
    return C.ContinuousSystem(dom, E.parse_vector(["1"], 1))


def test_punctured_line_maximal_domain():
    res = G.maximal_solution_domain(punctured_time(), t0=1.0, horizon=5.0)
    (lo, hi), = res.interval.intervals
    assert abs(lo + 1.0) < 1e-6
    assert hi == pytest.approx(5.0)
    assert res.backward.termination == "left-domain"
    assert res.forward.termination == "reached-span"
    # the puncture is never crossed: every backward state stays positive
    assert np.all(res.backward.states[:, 0] >= -1e-9)


def test_unpunctured_line_runs_to_horizon():
    res = G.maximal_solution_domain(C.time_system(), t0=0.0, horizon=5.0)
    (lo, hi), = res.interval.intervals
    assert lo == pytest.approx(-5.0) and hi == pytest.approx(5.0)


def test_punctured_line_decay_never_reaches_puncture():
    # x' = -x from 1: e^-t stays positive, so the solution exists on the horizon
    dom = C.Domain(((-math.inf, math.inf),), ((0.0,),))
    res = G.maximal_solution_domain(C.ContinuousSystem(dom, E.parse_vector(["-x1"], 1)),
                                    t0=1.0, horizon=15.0)
    assert res.interval.intervals == ((-15.0, 15.0),)
    assert res.forward.termination == res.backward.termination == "reached-span"


def test_punctured_line_negative_start():
    res = G.maximal_solution_domain(punctured_time(), t0=-2.0, horizon=5.0)
    (lo, hi), = res.interval.intervals
    assert abs(hi - 2.0) < 1e-6
    assert lo == pytest.approx(-5.0)
