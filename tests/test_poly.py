"""Polyhedral core: LinExpr algebra, systems, Fourier-Motzkin, sections."""

import random
from fractions import Fraction

import pytest

from repro.poly import fourier_motzkin as fm
from repro.poly import (Constraint, LinExpr, Section, System, bounds_system,
                        dim, range_section)


# -- LinExpr -----------------------------------------------------------------

def test_linexpr_arithmetic():
    x = LinExpr.var("x")
    y = LinExpr.var("y")
    e = 2 * x + y - 3
    assert e.coeff("x") == 2
    assert e.coeff("y") == 1
    assert e.const == -3
    assert (e - e).is_constant()


def test_linexpr_substitute():
    x = LinExpr.var("x")
    e = 3 * x + 1
    out = e.substitute("x", LinExpr.var("y") + 2)
    assert out.coeff("y") == 3
    assert out.const == 7


def test_linexpr_rename_and_equality():
    e1 = LinExpr.var("a") + 5
    e2 = e1.rename({"a": "b"})
    assert e2 == LinExpr.var("b") + 5
    assert e1 != e2


def test_linexpr_zero_coeffs_dropped():
    x = LinExpr.var("x")
    e = x - x
    assert e.variables() == ()


# -- System emptiness / containment ---------------------------------------------

def test_empty_system_detected():
    x = LinExpr.var("x")
    sys_ = System([Constraint.ge(x, 5), Constraint.le(x, 3)])
    assert sys_.is_empty()


def test_satisfiable_system():
    x = LinExpr.var("x")
    sys_ = System([Constraint.ge(x, 1), Constraint.le(x, 10)])
    assert not sys_.is_empty()


def test_equality_contradiction():
    x = LinExpr.var("x")
    sys_ = System([Constraint.eq(x, 3), Constraint.eq(x, 4)])
    assert sys_.is_empty()


def test_multivar_emptiness():
    x, y = LinExpr.var("x"), LinExpr.var("y")
    # x >= y + 1 and y >= x  -> empty
    sys_ = System([Constraint.ge(x, y + 1), Constraint.ge(y, x)])
    assert sys_.is_empty()


def test_containment():
    small = bounds_system("x", 2, 5)
    big = bounds_system("x", 1, 10)
    assert big.contains(small)
    assert not small.contains(big)


def test_projection_keeps_relations():
    # {d = i + 1, 1 <= i <= 9} project i -> {2 <= d <= 10}
    d, i = LinExpr.var("d"), LinExpr.var("i")
    sys_ = System([Constraint.eq(d, i + 1),
                   Constraint.ge(i, 1), Constraint.le(i, 9)])
    proj = sys_.project_away(["i"])
    assert not proj.and_also(Constraint.eq(d, 2)).is_empty()
    assert not proj.and_also(Constraint.eq(d, 10)).is_empty()
    assert proj.and_also(Constraint.eq(d, 1)).is_empty()
    assert proj.and_also(Constraint.eq(d, 11)).is_empty()


def test_projection_never_eliminates_kept_vars():
    # regression: Gaussian substitution must not erase the kept dimension
    d, k, i = LinExpr.var("_d0"), LinExpr.var("k"), LinExpr.var("i")
    sys_ = System([Constraint.eq(d - k - 34 * i, 0),
                   Constraint.ge(k, 11), Constraint.le(k, 14)])
    proj = sys_.project_away(["k"])
    assert "_d0" in proj.variables()
    # d = k + 34 i with k in [11, 14]: for i = 1, d in [45, 48]
    probe = proj.and_also(Constraint.eq(i, 1), Constraint.eq(d, 45))
    assert not probe.is_empty()
    probe2 = proj.and_also(Constraint.eq(i, 1), Constraint.eq(d, 49))
    assert probe2.is_empty()


def test_sample_point_oracle_agrees():
    x, y = LinExpr.var("x"), LinExpr.var("y")
    sys_ = System([Constraint.ge(x + y, 3), Constraint.le(x, 2),
                   Constraint.le(y, 2)])
    assert (sys_.sample_point() is not None) == (not sys_.is_empty())


# -- Fourier-Motzkin emptiness: integer kernel and process memo ---------------

def _random_system(rng: random.Random) -> System:
    """Up to 5 variables and 7 constraints, about one in five an
    equality, with small ``Fraction`` coefficients and constants."""
    names = ["i", "j", "k", "m", "n"][:rng.randint(1, 5)]
    constraints = []
    for _ in range(rng.randint(1, 7)):
        coeffs = {v: Fraction(rng.randint(-4, 4), rng.choice((1, 1, 2, 3)))
                  for v in rng.sample(names, rng.randint(1, len(names)))}
        const = Fraction(rng.randint(-12, 12), rng.choice((1, 1, 2, 5)))
        constraints.append(Constraint(LinExpr(coeffs, const),
                                      rng.random() < 0.2))
    return System(constraints)


def _fraction_is_empty(system: System) -> bool:
    """Independent answer: project every variable away on the
    ``Fraction`` path and look for a false constant constraint."""
    before = fm.emptiness_stats()["over_approx"]
    rest = fm.project(system, system.variables())
    assert fm.emptiness_stats()["over_approx"] == before
    return any(c.is_trivially_false() for c in rest.constraints)


def _agrees_with_fraction_path(system: System) -> bool:
    empty = fm.system_is_empty(system)
    assert empty == _fraction_is_empty(system), system
    return empty


def test_integer_kernel_agrees_on_random_systems():
    rng = random.Random(20260412)
    outcomes = {True: 0, False: 0}
    sampled = 0
    for _ in range(2500):
        system = _random_system(rng)
        empty = _agrees_with_fraction_path(system)
        outcomes[empty] += 1
        if len(system.variables()) <= 3:
            point = system.sample_point(bound=4)
            if point is not None:
                sampled += 1
                assert not empty, (system, point)
    # both answers and the integer oracle are exercised, not one side only
    assert min(outcomes.values()) > 500
    assert sampled > 300


@pytest.mark.parametrize("name", ["mdg", "arc3d", "hydro2d", "flo88"])
def test_integer_kernel_agrees_on_recorded_systems(name, monkeypatch):
    from repro.parallelize import Parallelizer
    from repro.workloads import get
    recorded = {}
    real = fm.system_is_empty

    def record(system):
        recorded[system.key()] = system
        return real(system)

    monkeypatch.setattr(fm, "system_is_empty", record)
    monkeypatch.setattr(fm, "_memo", {})
    Parallelizer(get(name).build()).plan()
    monkeypatch.setattr(fm, "system_is_empty", real)
    assert len(recorded) > 300
    for system in recorded.values():
        empty = _agrees_with_fraction_path(system)
        if len(system.variables()) <= 2:
            point = system.sample_point(bound=6)
            assert point is None or not empty, (system, point)


def _box(lo: int, hi: int) -> System:
    i, j = LinExpr.var("i"), LinExpr.var("j")
    return System([Constraint.ge(i, lo), Constraint.le(i, hi),
                   Constraint.ge(j, i), Constraint.le(j, 2 * i - 1)])


def test_memo_serves_a_permuted_system(monkeypatch):
    monkeypatch.setattr(fm, "_memo", {})
    system = _box(3, 9)
    permuted = System(reversed(system.constraints))
    assert system.constraints != permuted.constraints
    before = fm.emptiness_stats()
    assert not system.is_empty()
    assert not permuted.is_empty()
    after = fm.emptiness_stats()
    assert after["queries"] - before["queries"] == 2
    assert after["fm_runs"] - before["fm_runs"] == 1
    assert after["memo_hits"] - before["memo_hits"] == 1
    assert list(fm._memo) == [system.key()]


def test_bail_out_answers_are_counted_not_cached(monkeypatch):
    monkeypatch.setattr(fm, "_memo", {})
    monkeypatch.setattr(fm, "MAX_CONSTRAINTS", 2)
    system = _box(5, 4)          # empty, but FM needs 3+ rows to see it
    before = fm.emptiness_stats()
    assert not system.is_empty()                 # over-approximated
    assert not System(system.constraints).is_empty()
    after = fm.emptiness_stats()
    assert after["over_approx"] - before["over_approx"] == 2
    assert after["fm_runs"] - before["fm_runs"] == 2
    assert fm._memo == {}
    # project() counts its bail-outs too
    fm.project(system, ["i", "j"])
    assert fm.emptiness_stats()["over_approx"] > after["over_approx"]
    monkeypatch.setattr(fm, "MAX_CONSTRAINTS", 600)
    assert System(system.constraints).is_empty()
    assert fm._memo == {system.key(): True}


def test_memo_clears_when_full(monkeypatch):
    monkeypatch.setattr(fm, "_memo", {})
    monkeypatch.setattr(fm, "MEMO_CAP", 3)
    for hi in range(4, 7):
        _box(1, hi).is_empty()
    assert len(fm._memo) == 3
    _box(1, 7).is_empty()
    assert list(fm._memo) == [_box(1, 7).key()]


def test_memo_and_counters_under_threads(monkeypatch):
    """Threads of one server process share the memo and the counters:
    no decision is lost and every answer stays right."""
    import sys
    import threading
    monkeypatch.setattr(fm, "_memo", {})
    monkeypatch.setattr(fm, "MEMO_CAP", 16)      # clears while racing
    expected = {hi: System(_box(1, hi).constraints).is_empty()
                for hi in range(-3, 40)}
    before = fm.emptiness_stats()
    wrong = []

    def work():
        for hi in list(expected) * 3:
            if System(_box(1, hi).constraints).is_empty() != expected[hi]:
                wrong.append(hi)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []
    after = fm.emptiness_stats()
    queries = after["queries"] - before["queries"]
    assert queries == 4 * 3 * len(expected)
    assert queries >= (after["memo_hits"] - before["memo_hits"]
                       + after["fm_runs"] - before["fm_runs"])


# -- Sections ------------------------------------------------------------------

def test_section_union_intersect():
    a = range_section(1, 10)
    b = range_section(5, 20)
    u = a.union(b)
    i = a.intersect(b)
    assert i.contains(range_section(5, 10))
    assert u.contains(a) and u.contains(b)


def test_section_subtract_exact():
    a = range_section(1, 10)
    b = range_section(4, 6)
    d = a.subtract(b)
    assert d.contains(range_section(1, 3))
    assert d.contains(range_section(7, 10))
    assert not d.intersects(range_section(5, 5))


def test_section_subtract_everything():
    a = range_section(1, 10)
    assert a.subtract(Section.universe()).is_empty()
    assert a.subtract(a).is_empty()


def test_point_section():
    p = Section.point([LinExpr.constant(7)])
    assert p.intersects(range_section(1, 10))
    assert not p.intersects(range_section(8, 10))


def test_symbolic_range_subtraction():
    n = LinExpr.var("n")
    written = range_section(2, n)
    read = range_section(1, n)
    exposed = read.subtract(written)
    # only element 1 remains exposed
    assert exposed.intersects(range_section(1, 1))
    probe = exposed.intersect(range_section(2, 2))
    # element 2 is only exposed if n < 2; with n >= 2 constraint it's gone
    constrained = probe.constrain(Constraint.ge(n, 2))
    assert constrained.is_empty()


def test_two_dim_section():
    from repro.poly import dim as d
    sec = Section([System([
        Constraint.ge(LinExpr.var(d(0)), 1), Constraint.le(LinExpr.var(d(0)), 4),
        Constraint.ge(LinExpr.var(d(1)), 1), Constraint.le(LinExpr.var(d(1)), 4)])])
    row = Section([System([Constraint.eq(LinExpr.var(d(0)), 2),
                           Constraint.ge(LinExpr.var(d(1)), 1),
                           Constraint.le(LinExpr.var(d(1)), 4)])])
    assert sec.contains(row)
    assert not row.contains(sec)


def test_section_project_away_closure():
    i = LinExpr.var("i")
    sec = Section.point([i]).constrain(
        Constraint.ge(i, 1), Constraint.le(i, 8))
    closed = sec.project_away(["i"])
    assert closed.contains(range_section(1, 8))
    assert not closed.intersects(range_section(9, 9))


def test_free_variables_excludes_dims():
    i = LinExpr.var("i")
    sec = Section.point([i + 1])
    assert sec.free_variables() == ("i",)
