import copy
import pickle
import re

import numpy as np
import pytest

from batteries import continuous_battery, discrete_battery, line, oscillator
from reference_checks import reference_dt_morphism, reference_f_relatedness
from dynsys import continuous as C
from dynsys import discrete as D
from dynsys import expr as E
from dynsys import tau


def funnel() -> D.DiscreteSystem:
    return D.DiscreteSystem(("a", "b"), {"a": "b", "b": "b"})


# --- the section law ----------------------------------------------------------


def test_continuous_section_holds_by_construction():
    rep = tau.check_section(tau.from_continuous(oscillator()))
    assert rep.passed and rep.residual == 0.0


def test_discrete_section_identity_on_first_factor():
    rep = tau.check_section(tau.from_discrete(funnel()))
    assert rep.passed


def test_broken_discrete_section_fails_with_witness():
    broken = {"a": ("b", "a"), "b": ("b", "b")}
    rep = tau.check_section(tau.TauSystem(tau.DISCRETE, ("a", "b"), broken))
    assert not rep.passed
    assert "'a'" in rep.witness


def test_broken_continuous_section_fails():
    # footing x |-> x + 1 violates the projection law everywhere
    shifted = tau.TangentSection(
        vector=E.parse_vector(["1"], 1), base=E.parse_vector(["x1 + 1"], 1)
    )
    sys = tau.TauSystem(tau.CONTINUOUS, C.full_space(1), shifted)
    rep = tau.check_section(sys)
    assert not rep.passed and rep.residual == pytest.approx(1.0)


def test_canonical_sections_exist_and_satisfy_the_law():
    dom = C.full_space(2)
    zero = tau.CONTINUOUS.canonical_section(dom)
    rep = tau.check_section(tau.TauSystem(tau.CONTINUOUS, dom, zero))
    assert rep.passed
    carrier = ("a", "b", "c")
    diag = tau.DISCRETE.canonical_section(carrier)
    rep = tau.check_section(tau.TauSystem(tau.DISCRETE, carrier, diag))
    assert rep.passed


# --- morphism checks ------------------------------------------------------------


def test_identity_morphism_zero_residual():
    sys = tau.from_continuous(oscillator())
    rep = tau.check_tau_morphism(C.identity_smooth_map(2), sys, sys)
    assert rep.passed and rep.residual == 0.0


def test_morphism_candidate_accepted():
    from dynsys import category

    osc = oscillator()
    cand = category.identity_morphism(osc)
    sys = tau.from_continuous(osc)
    assert tau.check_tau_morphism(cand, sys, sys).passed


def test_samples_outside_carrier_rejected():
    sys = tau.from_continuous(line("x1", lo=0.0))
    with pytest.raises(ValueError):
        tau.check_section(sys, samples=[(-1.0,)])
    with pytest.raises(ValueError):
        tau.check_tau_morphism(C.identity_smooth_map(1), sys, sys, samples=[(-1.0,)])
    dsys = tau.from_discrete(funnel())
    with pytest.raises(ValueError):
        tau.check_section(dsys, samples=["z"])


def test_an_empty_sample_set_is_refused():
    # a check over no samples would pass vacuously
    sys = tau.from_continuous(line("x1"))
    with pytest.raises(ValueError, match="^morphism check has no samples$"):
        tau.check_tau_morphism(C.identity_smooth_map(1), sys, sys, samples=[])
    with pytest.raises(ValueError, match="^section-law check has no samples$"):
        tau.check_section(sys, samples=[])
    with pytest.raises(ValueError, match="^section-law check has no samples$"):
        tau.check_section(tau.from_discrete(funnel()), samples=[])


def test_kind_mismatch_rejected():
    with pytest.raises(ValueError):
        tau.check_tau_morphism(
            C.identity_smooth_map(1), tau.from_continuous(line("1")), tau.from_discrete(funnel())
        )


# --- each kind is one instance, which copies and pickles as itself -------------


@pytest.mark.parametrize("inst", [tau.CONTINUOUS, tau.DISCRETE], ids=lambda inst: inst.name)
def test_instances_copy_and_pickle_as_themselves(inst):
    for clone in (copy.copy(inst), copy.deepcopy(inst), pickle.loads(pickle.dumps(inst))):
        assert clone is inst


@pytest.mark.parametrize("kind", ["continuous", "discrete"])
def test_copied_and_unpickled_systems_relate_to_the_original(kind):
    if kind == "continuous":
        view, ident = tau.from_continuous(oscillator()), C.identity_smooth_map(2)
    else:
        view, ident = tau.from_discrete(funnel()), {"a": "a", "b": "b"}
    want = tau.check_tau_morphism(ident, view, view)
    assert want.passed
    for copier in (copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))):
        clone = copier(view)
        assert clone.instance is view.instance and clone == view
        assert tau.check_tau_morphism(ident, view, clone) == want
        assert tau.check_tau_morphism(ident, clone, view) == want
        assert tau.check_section(clone) == tau.check_section(view)


# reports compare field by field: verdict, residual (==), samples, witness, note


def test_tau_agrees_with_concrete_continuous_checker():
    for f, x_sys, y_sys in continuous_battery():
        for samples in (None, C.default_samples(x_sys.domain, 60)):
            want = reference_f_relatedness(f, x_sys, y_sys, samples=samples)
            assert tau.check_tau_morphism(
                f, tau.from_continuous(x_sys), tau.from_continuous(y_sys), samples=samples) == want
            assert C.check_f_relatedness(f, x_sys, y_sys, samples=samples) == want


def test_tau_agrees_with_concrete_discrete_checker():
    for alpha, src, dst in discrete_battery():
        want = reference_dt_morphism(alpha, src, dst)
        assert tau.check_tau_morphism(alpha, tau.from_discrete(src), tau.from_discrete(dst)) == want
        assert D.check_dt_morphism(alpha, src, dst) == want


def test_discrete_table_must_be_total_and_stay_in_the_target():
    sys = tau.from_discrete(funnel())
    with pytest.raises(ValueError, match=re.escape("morphism table not total: missing ['b']")):
        tau.check_tau_morphism({"a": "a"}, sys, sys)
    with pytest.raises(ValueError, match=re.escape(
            "morphism table maps ['a'] outside the target carrier")):
        tau.check_tau_morphism({"a": "z", "b": "b"}, sys, sys)
    # a row for an element the source does not have is no part of a map
    with pytest.raises(ValueError, match=re.escape(
            "morphism table defined on unknown elements ['q', 'zz']")):
        tau.check_tau_morphism({"a": "b", "b": "b", "zz": "a", "q": "b"}, sys, sys)


def test_continuous_map_of_the_wrong_arity_is_refused():
    line_sys, osc = tau.from_continuous(line("1")), tau.from_continuous(oscillator())
    with pytest.raises(E.ArityError, match="map expects 2 inputs, system has 1"):
        tau.check_tau_morphism(C.identity_smooth_map(2), line_sys, osc)
    with pytest.raises(E.ArityError, match="map produces 1 outputs, target has 2"):
        tau.check_tau_morphism(C.identity_smooth_map(1), line_sys, osc)


def test_section_law_for_every_generated_system():
    rng = np.random.default_rng(99)
    for _ in range(10):
        size = int(rng.integers(1, 5))
        carrier = tuple("abcd"[:size])
        images = tuple(carrier[i] for i in rng.integers(0, size, size=size))
        sys = D.DiscreteSystem(carrier, dict(zip(carrier, images)))
        assert tau.check_section(tau.from_discrete(sys)).passed
    for rate in ("1", "x1", "x1^2", "sin(x1)"):
        assert tau.check_section(tau.from_continuous(line(rate))).passed
