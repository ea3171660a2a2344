import itertools

import pytest

from dynsys import core, discrete


def funnel():
    # a |-> b, b |-> b
    return discrete.DiscreteSystem(("a", "b"), {"a": "b", "b": "b"})


def mod3():
    els = ("0", "1", "2")
    return discrete.DiscreteSystem(els, {e: str((int(e) + 1) % 3) for e in els})


def test_system_validation():
    with pytest.raises(ValueError):
        discrete.DiscreteSystem(("a",), {})
    with pytest.raises(ValueError):
        discrete.DiscreteSystem(("a",), {"a": "z"})
    with pytest.raises(ValueError):
        discrete.DiscreteSystem(("a", "a"), {"a": "a"})


def test_iterate_identity_is_constant():
    sys = discrete.DiscreteSystem(("a", "b"), {"a": "a", "b": "b"})
    assert discrete.iterate(sys, "a", 4).points == ("a",) * 5


def test_iterate_mod3_cycles():
    # oracle: k-th point is (start + k) mod 3
    orbit = discrete.iterate(mod3(), "0", 5)
    assert orbit.points == tuple(str(k % 3) for k in range(6))


def test_iterate_funnel():
    assert discrete.iterate(funnel(), "a", 3).points == ("a", "b", "b", "b")


def test_iterate_unknown_element():
    with pytest.raises(discrete.UnknownElementError):
        discrete.iterate(funnel(), "z", 2)


def test_morphism_identity_passes():
    sys = funnel()
    rep = discrete.check_dt_morphism(core.identity_morphism(sys).mapping, sys, sys)
    assert rep.passed and rep.residual == 0.0


def test_morphism_constant_to_terminal():
    src = discrete.DiscreteSystem(("0", "1"), {"0": "1", "1": "0"})
    dst = discrete.DiscreteSystem(("s",), {"s": "s"})
    rep = discrete.check_dt_morphism({"0": "s", "1": "s"}, src, dst)
    assert rep.passed


def test_morphism_failure_has_witness():
    src = discrete.DiscreteSystem(("a", "b"), {"a": "b", "b": "a"})
    dst = discrete.DiscreteSystem(("a", "b"), {"a": "a", "b": "b"})
    rep = discrete.check_dt_morphism({"a": "a", "b": "b"}, src, dst)
    assert not rep.passed
    assert "'a'" in rep.witness


def test_morphism_requires_totality():
    with pytest.raises(ValueError):
        discrete.check_dt_morphism({"a": "a"}, funnel(), funnel())


def test_fixed_points():
    assert discrete.fixed_points(funnel()) == {"b"}
    assert discrete.fixed_points(mod3()) == set()
    ident = discrete.DiscreteSystem(("a", "b"), {"a": "a", "b": "b"})
    assert discrete.fixed_points(ident) == {"a", "b"}


def test_morphisms_preserve_fixed_points():
    src = funnel()
    dst = discrete.DiscreteSystem(("x", "y"), {"x": "y", "y": "y"})
    alpha = {"a": "x", "b": "y"}
    assert discrete.check_dt_morphism(alpha, src, dst).passed
    for x in discrete.fixed_points(src):
        assert dst.endomap[alpha[x]] == alpha[x]


def test_morphisms_preserve_orbits():
    # the discrete naturality square, checked pointwise and exactly
    src = mod3()
    dst = discrete.DiscreteSystem(("e", "o", "z"), {"e": "o", "o": "z", "z": "e"})
    alpha = {"0": "e", "1": "o", "2": "z"}
    assert discrete.check_dt_morphism(alpha, src, dst).passed
    for c0 in src.carrier:
        pushed = tuple(alpha[p] for p in discrete.iterate(src, c0, 6).points)
        assert pushed == discrete.iterate(dst, alpha[c0], 6).points


def test_uniqueness_matches_enumeration_small():
    # every system on <= 3 elements: the enumeration oracle finds exactly
    # the iterate orbit (acceptance runs the full battery; here horizon 4)
    for size in (1, 2, 3):
        carrier = tuple("abc"[:size])
        for images in itertools.product(carrier, repeat=size):
            sys = discrete.DiscreteSystem(carrier, dict(zip(carrier, images)))
            for c0 in carrier:
                found, _ = core.enumerate_pointed_morphisms(
                    core.PointedSystem(sys, c0), horizon=4
                )
                assert found == [discrete.iterate(sys, c0, 4).points]


def test_uniqueness_sampled_size_four():
    import numpy as np

    rng = np.random.default_rng(11)
    carrier = ("a", "b", "c", "d")
    for _ in range(12):
        images = tuple(carrier[i] for i in rng.integers(0, 4, size=4))
        sys = discrete.DiscreteSystem(carrier, dict(zip(carrier, images)))
        c0 = carrier[int(rng.integers(0, 4))]
        rep = core.verify_initiality_discrete(6, core.PointedSystem(sys, c0))
        assert rep.passed
        found, _ = core.enumerate_pointed_morphisms(core.PointedSystem(sys, c0), 6)
        assert found == [discrete.iterate(sys, c0, 6).points]
