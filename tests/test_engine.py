import decimal
import itertools
import math
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hhrec.engine import (
    RecurrenceSpec,
    apply_sigma,
    check_reversibility,
    contiguous_values,
    export_window,
    parse_sequence,
    phi,
    phi_inverse,
    raw_window,
    render_bfile,
    render_csv,
    render_json,
    window_rows,
    xi_residual,
)
import hhrec.engine as engine
import hhrec.invariants as invariants
from hhrec.errors import (
    CertificateError,
    LaurentViolationError,
    NonIntegerValueError,
    ResidueMismatchError,
    ZeroPivotError,
)
from hhrec.laurent import variables
from hhrec.matrix import matrix_det
from hhrec.rational import format_int, format_rational
from hhrec.verifier import SplitMix64, _map_orbit, random_rational


def ones(k, a=1):
    return RecurrenceSpec.numeric(k, a, [1] * (2 * k + 1))


def test_spec_validation():
    with pytest.raises(ValueError):
        RecurrenceSpec.numeric(0, 1, [1])
    with pytest.raises(ValueError):
        RecurrenceSpec.numeric(1, 1, [1, 1])
    with pytest.raises(ValueError):
        RecurrenceSpec.numeric(1, 0, [1, 1, 1])


def test_forward_iteration_k1_ones():
    w = ones(1).window().extend(new_hi=8)
    assert [w[n] for n in range(3, 9)] == [3, 7, 31, 85, 393, 1093]


def test_backward_iteration_k1_ones():
    w = ones(1).window().extend(new_lo=-2)
    assert w[-1] == 3 and w[-2] == 7


def test_forward_iteration_k2_ones():
    w = ones(2).window().extend(new_hi=12)
    assert [w[n] for n in range(5, 13)] == [3, 5, 9, 17, 65, 117, 227, 449]


def test_windows_are_immutable_and_share_prefix():
    spec = ones(1)
    w0 = spec.window()
    w1 = w0.extend(new_hi=8)
    assert w0.hi == 2 and w1.hi == 8
    assert w1.values[:3] == w0.values


def test_extend_is_idempotent_inside_range():
    w = ones(1).window().extend(-3, 9)
    assert w.extend(-1, 5).values == w.values


def test_forward_backward_round_trip():
    spec = RecurrenceSpec.numeric(2, Fraction(2, 3), [1, 2, 3, 4, 5])
    w = spec.window().extend(-6, 14)
    top = RecurrenceSpec(2, spec.a, tuple(w[w.hi - 4 + j] for j in range(5)))
    redone = top.window().extend(new_lo=-(w.hi - 4 - w.lo))
    for j in redone.indices():
        assert redone[j] == w[w.hi - 4 + j]


def test_zero_pivot_carries_index(laurent_route):
    # x_6 = 0 for this seed: phi's step from (x_6, x_7, x_8) to x_9 divides
    # by it and names it as its point's x_0, and the window goes on with the
    # Laurent values
    spec = RecurrenceSpec.numeric(1, 1, [1, 2, -1])
    w = spec.window().extend(new_hi=9)
    assert w[6] == 0 and w.values == laurent_route(spec, 0, 9)
    with pytest.raises(ZeroPivotError) as err:
        phi(w.values[6:9], spec.a, 1)
    assert err.value.n == 0


def test_xi_residual_examples():
    spec = RecurrenceSpec.numeric(1, 1, [1, 2, 3])
    w = spec.window().extend(new_hi=4)
    assert w[3] == 11
    assert xi_residual(w, 0) == 0
    assert xi_residual(spec.window().extend(new_lo=-4, new_hi=7), -2) == 0
    corrupted = w.with_value(3, Fraction(12))
    assert xi_residual(corrupted, 0) == 1


def test_xi_out_of_window():
    w = ones(1).window()
    with pytest.raises(IndexError):
        xi_residual(w, 0)  # needs x_3


def test_sigma_is_an_involution():
    w = RecurrenceSpec.numeric(1, 2, [1, 2, 3]).window().extend(-2, 6)
    assert apply_sigma(apply_sigma(w)) == w


def test_sigma_fixes_palindromic_ones_window():
    # reflection maps [lo, hi] to [2k-hi, 2k-lo]; a range centred on n = k
    # is carried to itself, and the all-ones values are palindromic
    w = ones(1).window().extend(-3, 5)
    sw = apply_sigma(w)
    assert sw.lo == w.lo and sw.values == w.values


def test_sigma_image_iterates_to_backward_values():
    spec = RecurrenceSpec.numeric(1, 1, [1, 2, 3])
    orig = spec.window().extend(new_lo=-1)
    image = apply_sigma(spec.window()).extend(new_hi=3)
    assert image.spec.init == (Fraction(3), Fraction(2), Fraction(1))
    assert image[3] == orig[-1]


def test_ones_window_equals_its_sigma_image():
    # x_{-n} = x_{n+2k} for the all-ones seed
    for k in (1, 2):
        w = ones(k).window().extend(-8, 8 + 2 * k)
        for n in range(-8, 9):
            assert w[-n] == w[n + 2 * k]


@pytest.mark.parametrize("spec", [
    ones(1),
    RecurrenceSpec.numeric(1, 5, [1, 2, 3]),
    RecurrenceSpec.numeric(2, Fraction(7, 3), [2, -3, Fraction(1, 2), 5, -1]),
])
def test_reversibility(spec):
    assert check_reversibility(spec)


def test_reversibility_random_k2():
    rng = SplitMix64(2024)
    for _ in range(10):
        init = [random_rational(rng, 9, 5) for _ in range(5)]
        a = random_rational(rng, 9, 5)
        assert check_reversibility(RecurrenceSpec(2, a, tuple(init)))


@pytest.mark.parametrize("spec", [
    RecurrenceSpec.numeric(1, 5, [1, 2, 3]),
    RecurrenceSpec.numeric(2, Fraction(7, 3), [2, -3, Fraction(1, 2), 5, -1]),
])
def test_reversibility_fails_on_a_broken_step(spec, monkeypatch):
    """phi and phi_inverse share _step, so a step that reads x_{n+k-1} for
    x_{n+k+1} keeps phi == sigma o phi_inverse o sigma; the round trips see it."""
    def broken(block, a, pivot, target):
        k = len(block) // 2
        return (block[2 * k] * block[1] + a * (block[k - 1] + block[k])) / block[0]

    monkeypatch.setattr(engine, "_step", broken)
    assert check_reversibility(spec) is False


def test_reversibility_raises_on_a_zero_round_trip_pivot():
    # x_3 = (x_2 x_1 + a (x_1 + x_2)) / x_0 = 0, and phi_inverse divides by it
    with pytest.raises(ZeroPivotError):
        check_reversibility(RecurrenceSpec.numeric(1, 1, [1, 1, Fraction(-1, 2)]))


def test_phi_inverse_is_inverse():
    spec = RecurrenceSpec.numeric(2, Fraction(1, 2), [1, 2, 3, 4, 5])
    p = spec.init
    assert phi_inverse(phi(p, spec.a, 2), spec.a, 2) == p


def test_int_scalars_never_make_floats():
    # int / int is a float; a spec and a phase point promote ints to Fraction
    w = RecurrenceSpec(1, 1, (1, 1, 1)).window().extend(-3, 5)
    assert w.values == (31, 7, 3, 1, 1, 1, 3, 7, 31)
    assert all(type(v) is Fraction for v in w.values)
    for point in (phi((1, 1, 1), 1, 1), phi_inverse((1, 1, 1), 1, 1)):
        assert sorted(point) == [1, 1, 3] and all(type(v) is Fraction for v in point)
    assert type(RecurrenceSpec(1, 2, (1, 1, 1)).a) is Fraction


@pytest.mark.parametrize("make", [
    lambda: RecurrenceSpec(1, 1.5, (1, 1, 1)),
    lambda: RecurrenceSpec(1, 1, (1, 0.5, 1)),
    lambda: phi((1, 1, 1), 0.5, 1),
    lambda: phi((1, 1.0, 1), 1, 1),
    lambda: phi_inverse((1, 1, 1), 0.5, 1),
    lambda: phi_inverse((1.0, 1, 1), 1, 1),
    lambda: raw_window(ones(1), 0, [1, 2.5, 3]),
    lambda: matrix_det([[1, 2], [3, 4.0]]),
    lambda: invariants.k_breakdown([1, 0.5, 1], 1),
    lambda: format_rational(0.5),
], ids=["spec_a", "spec_init", "phi_a", "phi_point", "phi_inverse_a", "phi_inverse_point",
        "raw_window", "matrix_det", "k_breakdown", "format_rational"])
def test_floats_are_refused(make):
    with pytest.raises(TypeError):
        make()


def test_numeric_spec_converts_floats_exactly():
    spec = RecurrenceSpec.numeric(1, 1.5, (1, 0.25, 1))
    assert spec.a == Fraction(3, 2) and spec.init[1] == Fraction(1, 4)


def _phi_orbit(spec, steps, inverse=False):
    """The points reached by iterating phi (or phi_inverse) from the seed."""
    step = phi_inverse if inverse else phi
    points = [spec.init]
    for _ in range(steps):
        points.append(step(points[-1], spec.a, spec.k))
    return points


@pytest.mark.parametrize("spec", [
    RecurrenceSpec.numeric(1, Fraction(-2, 3), [2, Fraction(1, 5), -3]),
    RecurrenceSpec.numeric(2, 3, [1, -2, Fraction(3, 4), 5, 7]),
    RecurrenceSpec.numeric(3, Fraction(1, 2), [1, 2, 3, 4, 5, 6, 7]),
    RecurrenceSpec.symbolic(1),
    RecurrenceSpec.symbolic(2),
])
def test_iterated_maps_equal_extend(spec):
    k = spec.k
    w = spec.window().extend(-2 * k - 1, 4 * k + 1)
    for j, point in enumerate(_phi_orbit(spec, 2 * k)):
        assert point == tuple(w[n] for n in range(j, j + 2 * k + 1))
    for j, point in enumerate(_phi_orbit(spec, 2 * k + 1, inverse=True)):
        assert point == tuple(w[n] for n in range(-j, -j + 2 * k + 1))


def _step_only(spec, lo, hi):
    """x_lo..x_hi (lo <= 0, hi >= 2k) by iterated phi and phi_inverse alone."""
    k = spec.k
    fwd = [point[-1] for point in _phi_orbit(spec, hi - 2 * k)[1:]]
    bwd = [point[0] for point in _phi_orbit(spec, -lo, inverse=True)[1:]]
    return tuple(bwd[::-1]) + spec.init + tuple(fwd)


def _draw(rng, family, k):
    """A seeded spec of one family: unit, integer or rational seed values."""
    if family == "unit":
        return RecurrenceSpec.numeric(k, (1, -1, 2, -2, 3)[rng.randint(0, 4)],
                                      [(1, -1)[rng.randint(0, 1)] for _ in range(2 * k + 1)])
    a = random_rational(rng, 9, 9)
    if family == "integer":
        return RecurrenceSpec.numeric(k, a, [rng.randint(1, 9) for _ in range(2 * k + 1)])
    return RecurrenceSpec(k, a, tuple(random_rational(rng, 9, 9) for _ in range(2 * k + 1)))


# successive (new_lo, new_hi) requests; past 6k values extend runs the linear
# relation, so each shape starts it from a different block
EXTENSIONS = {
    "forward": lambda k: [(None, 14 * k + 3)],
    "backward": lambda k: [(-14 * k - 3, None)],
    "two-sided": lambda k: [(-9 * k, 11 * k)],
    "shorter-than-6k": lambda k: [(-k, 5 * k - 2)],
    "re-extended": lambda k: [(-k, 3 * k), (None, 9 * k), (-10 * k, 12 * k)],
}


@pytest.mark.parametrize("shape", EXTENSIONS)
@pytest.mark.parametrize("family", ["unit", "integer", "rational"])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_linear_route_equals_step_only_build(k, family, shape):
    rng = SplitMix64(1000 * k + len(family) + len(shape))
    want = None
    while want is None:
        spec = _draw(rng, family, k)
        w = spec.window()
        for lo, hi in EXTENSIONS[shape](k):
            w = w.extend(lo, hi)
        try:  # the nonlinear step stops at a zero pivot, which the relation passes
            want = _step_only(spec, w.lo, w.hi)
        except ZeroPivotError:
            continue
    assert w.values == want
    assert all(type(v) is Fraction for v in w.values)


@pytest.mark.parametrize("shape", EXTENSIONS)
@pytest.mark.parametrize("k", [1, 2, 3])
def test_the_step_builds_no_numeric_value_outside_the_block(k, shape, monkeypatch):
    targets = []
    step = engine._step
    monkeypatch.setattr(engine, "_step", lambda block, a, pivot, target:
                        targets.append(target) or step(block, a, pivot, target))
    spec = RecurrenceSpec.numeric(k, 2, [1, -1, 2, 3, -2, 1, 3][:2 * k + 1])
    w = spec.window()
    for lo, hi in EXTENSIONS[shape](k):
        w = w.extend(lo, hi)
        export_window(spec, min(w.lo, 0), w.hi)
    assert targets and all(-2 * k <= n <= 4 * k for n in targets)


@pytest.mark.parametrize("init,hi,lo,pivot", [
    ([1, 2, -1], 9, None, 6),   # x_6 = 0 divides the step to x_9
    ([0, 1, 1], 3, None, 0),
    ([1, 1, 0], None, -1, 2),
    ([1, -1, 2], 9, None, 6),   # x_6 = 0 comes from the linear relation
    ([2, -1, 1], None, -7, -4),  # x_-4 = 0 comes from the linear relation
])
def test_zero_pivot_same_index_through_extend_and_maps(init, hi, lo, pivot, laurent_route):
    """A zero seed value raises at its index in extend, export_window and the
    maps.  A zero iterate x_pivot raises only in the maps: the windows hold
    it as 0 among the Laurent values."""
    spec = RecurrenceSpec.numeric(1, 1, init)
    if pivot in range(3):
        with pytest.raises(ZeroPivotError) as by_extend:
            spec.window().extend(new_lo=lo, new_hi=hi)
        assert by_extend.value.n == pivot
        with pytest.raises(ZeroPivotError) as by_export:
            export_window(spec, lo or 0, hi or 2)
        assert by_export.value.n == pivot
    else:
        w = spec.window().extend(new_lo=lo, new_hi=hi)
        assert w[pivot] == 0 and w.values == laurent_route(spec, w.lo, w.hi)
        assert [_pair(v) for v in export_window(spec, w.lo, w.hi).values] == [_pair(v) for v in w.values]
    inverse = lo is not None
    # one step short of the failing one, both routes build the same window
    short = spec.window().extend(new_lo=lo and lo + 1, new_hi=hi and hi - 1)
    assert short.values == _step_only(spec, short.lo, short.hi)
    # phi's indices are relative to its point (x_s..x_s+2k forward,
    # x_-s..x_-s+2k backward)
    steps = 2 - pivot if inverse else pivot
    point = _phi_orbit(spec, steps, inverse)[-1]
    with pytest.raises(ZeroPivotError) as by_map:
        (phi_inverse if inverse else phi)(point, spec.a, 1)
    assert (-steps if inverse else steps) + by_map.value.n == pivot


@pytest.mark.parametrize("k,a,init,lo,hi,pivot", [
    (1, 2, [-3, 2, -1], -3, 6, 3),         # x_3 = 0 divides the relation's step to x_6
    (1, 2, [-2, 2, -1], -8, 2, -5),        # x_-5 = 0 comes from the relation, run backward
    (2, 1, [-2, 1, 1, 1, 2], -3, 14, 9),   # x_9 = 0 comes from the relation
    (2, 1, [-2, 1, 1, 1, 2], -6, 11, -1),
    # rational seeds, K = -1/2 and 3/4
    (1, Fraction(-4, 3), [1, Fraction(-3, 2), Fraction(1, 2)], -10, 2, -7),
    (1, Fraction(-4, 3), [Fraction(1, 2), Fraction(-3, 2), 1], 0, 12, 9),
    (2, 1, [Fraction(-2, 3), 2, -2, -1, Fraction(2, 3)], -17, 4, -12),
])
def test_zero_pivot_same_index_on_the_decimal_route(k, a, init, lo, hi, pivot, laurent_route):
    # x_pivot = 0 divides the map's step to x_lo when pivot < 0, else its step to x_hi
    spec = RecurrenceSpec.numeric(k, a, init)
    want = laurent_route(spec, lo, hi)
    step, first = (phi, hi - 2 * k - 1) if pivot >= 0 else (phi_inverse, lo + 1)
    with pytest.raises(ZeroPivotError) as exc:
        step(want[first - lo:first - lo + 2 * k + 1], spec.a, k)
    assert first + exc.value.n == pivot
    assert want[pivot - lo] == 0 and spec.window().extend(lo, hi).values == want
    w = export_window(spec, lo, hi)
    assert type(w[pivot]) is Decimal and str(w[pivot]) == "0"
    assert [_pair(v) for v in w.values] == [_pair(v) for v in want]
    # one step short of the failing one, the Decimal route builds the window
    short = export_window(spec, lo + 1, hi) if pivot < 0 else export_window(spec, lo, hi - 1)
    assert all(isinstance(v, (Decimal, engine._Quotient)) for v in short.values)
    assert [_pair(v) for v in short.values] == [_pair(v) for v in _step_only(spec, short.lo, short.hi)]


# -- windows through zero pivots ----------------------------------------------------

_GRID_VALUES = (-3, -2, -1, 1, 2, 3)
_GRID_A = (-2, -1, 1, 2)


def _grid(k):
    """Every seed with values in [-3, 3] without 0 and a in {-2, -1, 1, 2};
    at k = 2, only the seeds whose values sum to a multiple of 3."""
    for init in itertools.product(_GRID_VALUES, repeat=2 * k + 1):
        if k != 2 or sum(init) % 3 == 0:
            for a in _GRID_A:
                yield RecurrenceSpec.numeric(k, a, init)


def _refused(spec, lo, hi) -> bool:
    """Whether the nonlinear step alone meets a zero pivot building [lo, hi]."""
    try:
        _map_orbit(spec, lo, hi)
    except ZeroPivotError:
        return True
    return False


def _first_broken(w):
    """The first n where w breaks the defining recurrence, multiplied out
    over Fractions with no division, or None."""
    k, a, x = w.spec.k, w.spec.a, w
    for n in range(w.lo, w.hi - 2 * k):
        if x[n + 2 * k + 1] * x[n] != x[n + 2 * k] * x[n + 1] + a * (x[n + k] + x[n + k + 1]):
            return n
    return None


@pytest.mark.parametrize("k,count", [(1, 40), (2, 8), (3, 4)])
def test_windows_through_zero_pivots_equal_the_laurent_route(k, count, laurent_route):
    lo, hi = -2 * k - 2, 6 * k + 4
    rng = SplitMix64(7000 + k)
    while count:
        spec = RecurrenceSpec.numeric(k, _GRID_A[rng.randint(0, 3)],
                                      [_GRID_VALUES[rng.randint(0, 5)] for _ in range(2 * k + 1)])
        if _refused(spec, lo, hi):
            assert spec.window().extend(lo, hi).values == laurent_route(spec, lo, hi)
            count -= 1


@pytest.mark.parametrize("k,every,refused", [(1, 1, 136), (2, 40, 33)])
def test_grid_windows_satisfy_the_defining_recurrence(k, every, refused):
    """Over [-40, 60], on every k = 1 grid seed and every 40th at k = 2, of
    which ``refused`` meet a zero pivot on the nonlinear step alone."""
    specs = list(_grid(k))[::every]
    for spec in specs:
        assert _first_broken(spec.window().extend(-40, 60)) is None
    assert sum(_refused(spec, -40, 60) for spec in specs) == refused


def test_a_value_after_a_zero_is_free_at_its_own_step_only(laurent_route):
    """x_3 = 0, so the recurrence at n = 3 reads 0 = 0 and leaves x_6 free:
    x_6 raised by one passes there, fails at n = 4, and is no Laurent value."""
    spec = RecurrenceSpec.numeric(1, -2, [-3, -2, 1])
    w = spec.window().extend(-40, 60)
    raised = w.with_value(6, w[6] + 1)
    assert w[3] == 0 and _first_broken(w) is None
    assert _first_broken(raised) == 4
    assert laurent_route(spec, 6, 6) == (w[6],) != (raised[6],)


@pytest.mark.parametrize("seed,lo,hi,target", [
    (lambda x0, x1, x2: (x0, x1, x0 + x1), -1, None, -1),  # backward step divides by x0 + x1
    (lambda x0, x1, x2: (x0 + x1, x1, x2), None, 3, 3),    # forward step divides by x0 + x1
], ids=["backward", "forward"])
def test_non_generic_symbolic_seed_raises_laurent_violation(seed, lo, hi, target):
    x0, x1, x2, a = variables(4)
    init = seed(x0, x1, x2)
    spec = RecurrenceSpec(1, a, init)
    with pytest.raises(LaurentViolationError) as by_extend:
        spec.window().extend(new_lo=lo, new_hi=hi)
    assert by_extend.value.n == target
    with pytest.raises(LaurentViolationError) as by_map:
        (phi_inverse if lo is not None else phi)(init, a, 1)
    assert by_map.value.n == target


def test_raw_window_cannot_extend():
    w = raw_window(ones(1), 0, [1, 2, 3, 4])
    with pytest.raises(ValueError):
        w.extend(new_hi=8)


# -- symbolic mode --------------------------------------------------------------

def test_symbolic_spec_uses_generic_variables():
    spec = RecurrenceSpec.symbolic(1)
    x0, x1, x2, a = variables(4)
    assert spec.init == (x0, x1, x2) and spec.a == a


@pytest.mark.parametrize("k", [0, -1, -5])
def test_symbolic_spec_refuses_k_below_one(k):
    with pytest.raises(ValueError, match="^k must be >= 1$"):
        RecurrenceSpec.symbolic(k)


@pytest.mark.parametrize("k", [1, 2])
def test_symbolic_extension_no_laurent_violation(k):
    spec = RecurrenceSpec.symbolic(k)
    w = spec.window().extend(-2 * k, 4 * k)  # never raises LaurentViolationError
    for n in range(w.lo, w.hi - 2 * k):
        assert not xi_residual(w, n)
    for n in w.indices():
        assert all(isinstance(c, int) for c in w[n].terms().values())


@pytest.mark.parametrize("k", [1, 2, 3])
def test_symbolic_xi_residual_equals_the_product_expression(k):
    # over the laurent check's window and its fault-injected copy, the
    # compact-key route equals the * expression at every n, zero or not
    w = RecurrenceSpec.symbolic(k).window().extend(-2 * k - 2, 6 * k + 4)
    a = w.spec.a
    corrupted = w.with_value(2 * k + 1, w[2 * k + 1] + 1)
    for v in (w, corrupted):
        for n in range(v.lo, v.hi - 2 * k):
            slow = v[n] * v[n + 2 * k + 1] - v[n + 1] * v[n + 2 * k] - a * (v[n + k] + v[n + k + 1])
            assert xi_residual(v, n) == slow
    assert xi_residual(corrupted, 0) == w[0]


def test_symbolic_matches_numeric_substitution():
    sw = RecurrenceSpec.symbolic(1).window().extend(-2, 5)
    nw = RecurrenceSpec.numeric(1, 1, [1, 2, 3]).window().extend(-2, 5)
    point = [Fraction(1), Fraction(2), Fraction(3), Fraction(1)]
    for n in range(-2, 6):
        assert sw[n].substitute(point) == nw[n]


def test_symbolic_window_cap_enforced():
    spec = RecurrenceSpec.symbolic(1)
    with pytest.raises(ValueError, match=r"exceeds cap \|n\| <= 12$"):
        spec.window().extend(new_hi=13)
    assert spec.window().extend(-12, 12).hi == 12


# -- the generic seed's linear route ----------------------------------------------

# the slow references, shared by the tests below: [lo, hi] by _step alone,
# over [-2k-2, 6k+4] widened to hold the block [-3k, 3k]
_GENERIC_RANGES = {1: (-12, 12), 2: (-6, 16), 3: (-9, 22)}
_STEP_ONLY = {}


def _generic_step_only(k):
    if k not in _STEP_ONLY:
        spec = RecurrenceSpec.symbolic(k)
        _STEP_ONLY[k] = dict(zip(range(_GENERIC_RANGES[k][0], _GENERIC_RANGES[k][1] + 1),
                                 _step_only(spec, *_GENERIC_RANGES[k])))
    return _STEP_ONLY[k]


# successive (new_lo, new_hi) requests inside the reference range of each k
GENERIC_EXTENSIONS = {
    "forward": lambda k, lo, hi: [(None, hi)],
    "backward": lambda k, lo, hi: [(lo, None)],
    "inside-the-block": lambda k, lo, hi: [(-3 * k, 3 * k)],
    "re-extended": lambda k, lo, hi: [(-k, 2 * k), (None, 3 * k + 1), (lo, None), (None, hi)],
}


@pytest.mark.parametrize("shape", GENERIC_EXTENSIONS)
@pytest.mark.parametrize("k", [1, 2, 3])
def test_generic_linear_route_equals_step_only_build(k, shape):
    ref = _generic_step_only(k)
    w = RecurrenceSpec.symbolic(k).window()
    for lo, hi in GENERIC_EXTENSIONS[shape](k, *_GENERIC_RANGES[k]):
        w = w.extend(lo, hi)
    assert [str(v) for v in w.values] == [str(ref[n]) for n in w.indices()]


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_generic_window_substitutes_to_the_map_orbit(k):
    """At two seeded rational points, each symbolic x_n equals the numeric
    iterate that iterated phi and phi_inverse build."""
    lo, hi = -2 * k - 2, 6 * k + 4
    w = RecurrenceSpec.symbolic(k).window().extend(lo, hi)
    rng = SplitMix64(4000 + k)
    points = 0
    while points < 2:
        point = [random_rational(rng, 9, 9) for _ in range(2 * k + 2)]
        try:
            slow = _map_orbit(RecurrenceSpec(k, point[-1], tuple(point[:-1])), lo, hi)
        except ZeroPivotError:
            continue
        assert all(w[n].substitute(point) == slow[n] for n in range(lo, hi + 1))
        points += 1


def _refuse_certificate(monkeypatch):
    """Make ``block`` raise once its certificate has run; for other
    symbolic seeds it still returns None without one."""
    certified = RecurrenceSpec.block.func

    def refuse(spec):
        if certified(spec) is not None:
            raise AssertionError("the certificate ran")

    monkeypatch.setattr(RecurrenceSpec, "block", property(refuse))


@pytest.mark.parametrize("k", [1, 2, 3])
def test_requests_inside_the_block_skip_the_certificate(k, monkeypatch):
    _refuse_certificate(monkeypatch)
    w = RecurrenceSpec.symbolic(k).window().extend(-3 * k, 3 * k)
    assert (w.lo, w.hi) == (-3 * k, 3 * k)
    with pytest.raises(AssertionError, match="certificate ran"):
        w.extend(new_hi=3 * k + 1)


def test_other_symbolic_seeds_keep_the_nonlinear_step(monkeypatch):
    _refuse_certificate(monkeypatch)
    x0, x1, x2, a = variables(4)
    spec = RecurrenceSpec(1, a, (x2, x1, x0))  # the reversed generic seed
    w = spec.window().extend(-6, 8)
    assert w.values == _step_only(spec, -6, 8)


def test_k_plus_one_fails_certificate_piece_b(monkeypatch):
    monkeypatch.setattr(RecurrenceSpec, "K",
                        property(lambda s: invariants.k_breakdown(s.init, s.a).K + 1))
    with pytest.raises(CertificateError) as exc:
        RecurrenceSpec.symbolic(1).window().extend(new_hi=4)
    assert exc.value.identity.startswith("(b)") and exc.value.n == -3
    assert exc.value.residual


@pytest.mark.parametrize("piece", ["a", "b"])
def test_failed_certificate_raises_at_every_extend_that_leaves_the_block(piece, monkeypatch):
    if piece == "a":
        honest = invariants.k_after_phi
        monkeypatch.setattr(invariants, "k_after_phi", lambda spec: honest(spec) + 1)
    else:
        monkeypatch.setattr(RecurrenceSpec, "K",
                            property(lambda s: invariants.k_breakdown(s.init, s.a).K + 1))
    spec = RecurrenceSpec.symbolic(2)
    w = spec.window().extend(-6, 6)
    for lo, hi in [(None, 7), (-7, None), (None, 7)]:
        with pytest.raises(CertificateError) as exc:
            w.extend(lo, hi)
        assert exc.value.identity.startswith(f"({piece})")
    assert "block" not in vars(spec)
    assert w.extend(-5, 5).values == w.values  # requests inside the block still build


def test_certificate_runs_once_per_spec(certificate_runs, monkeypatch):
    calls = []
    honest = invariants.k_after_phi
    monkeypatch.setattr(invariants, "k_after_phi", lambda spec: calls.append(1) or honest(spec))
    spec = RecurrenceSpec.symbolic(2)
    w = spec.window()
    for lo, hi in [(None, 7), (-8, None), (-3, 3), (-9, 10)]:
        w = w.extend(lo, hi)
    assert (certificate_runs, len(calls)) == ([spec], 1)
    spec.window().extend(new_lo=-7)
    RecurrenceSpec.symbolic(2).window().extend(new_lo=-7)  # an equal spec certifies anew
    assert len(certificate_runs) == len(calls) == 2


def test_re_extended_generic_window_equals_one_shot_and_step_only_builds(certificate_runs):
    spec = RecurrenceSpec.symbolic(3)
    twice = spec.window().extend(-8, 22).extend(-9, 22)
    once = RecurrenceSpec.symbolic(3).window().extend(-9, 22)
    ref = _generic_step_only(3)
    assert [str(v) for v in twice.values] == [str(v) for v in once.values]
    assert [str(v) for v in twice.values] == [str(ref[n]) for n in range(-9, 23)]
    assert len(certificate_runs) == 2  # one per spec instance


def test_corrupted_pullback_fails_certificate_piece_a(monkeypatch):
    honest = invariants.k_after_phi
    monkeypatch.setattr(invariants, "k_after_phi", lambda spec: honest(spec) + spec.init[0])
    with pytest.raises(CertificateError) as exc:
        RecurrenceSpec.symbolic(2).window().extend(new_lo=-7)
    assert exc.value.identity.startswith("(a)")
    assert exc.value.residual == RecurrenceSpec.symbolic(2).init[0]


def test_numeric_k_is_computed_once_per_spec(monkeypatch):
    calls = []
    honest = invariants.k_breakdown
    monkeypatch.setattr(invariants, "k_breakdown", lambda *args: calls.append(1) or honest(*args))
    spec = RecurrenceSpec.numeric(1, 2, [1, 3, 2])
    w = spec.window()
    for lo, hi in [(None, 20), (-20, None), (-40, 40)]:
        w = w.extend(lo, hi)
    assert len(calls) == 1
    assert spec.K == honest(spec.init, spec.a).K


def test_extending_a_window_that_covers_the_block_continues_it(certificate_runs):
    spec = RecurrenceSpec.symbolic(3)
    ref = _generic_step_only(3)
    x23 = phi(tuple(ref[n] for n in range(16, 23)), spec.a, 3)[-1]  # one more nonlinear step
    twice = spec.window().extend(-9, 22).extend(-9, 23)
    once = RecurrenceSpec.symbolic(3).window().extend(-9, 23)
    assert [str(v) for v in twice.values] == [str(v) for v in once.values]
    assert [str(v) for v in twice.values] == [str(ref[n]) for n in range(-9, 23)] + [str(x23)]
    assert len(certificate_runs) == 2  # one per spec instance


@pytest.mark.parametrize("k", [1, 2, 3])
def test_a_window_built_to_the_block_certifies_once_when_extended(k, certificate_runs):
    spec = RecurrenceSpec.symbolic(k)
    w = spec.window().extend(-3 * k, 3 * k)
    assert certificate_runs == []
    w = w.extend(new_hi=3 * k + 1).extend(new_hi=3 * k + 2)
    assert certificate_runs == [spec]
    ref = _generic_step_only(k)
    assert [str(v) for v in w.values] == [str(ref[n]) for n in w.indices()]


@pytest.mark.parametrize("k", [1, 2, 3])
def test_a_failed_certificate_raises_before_the_relation_builds_a_value(k, monkeypatch):
    honest = invariants.k_after_phi
    monkeypatch.setattr(invariants, "k_after_phi", lambda spec: honest(spec) + 1)
    w = RecurrenceSpec.symbolic(k).window().extend(-3 * k, 3 * k)
    linear_builds = []
    iterate = engine._iterate
    monkeypatch.setattr(engine, "_iterate", lambda seq, spec, count, index, linear:
                        linear_builds.append(count) if linear else iterate(seq, spec, count, index, linear))
    for lo, hi in [(None, 3 * k + 1), (-3 * k - 1, None)]:
        with pytest.raises(CertificateError, match=r"\(a\)"):
            w.extend(lo, hi)
    assert linear_builds == []


def test_extends_within_the_window_and_the_block_build_no_value(monkeypatch):
    spec = RecurrenceSpec.symbolic(3)
    w = spec.window().extend(-8, 22)
    block = spec.block
    built = []
    iterate = engine._iterate
    monkeypatch.setattr(engine, "_iterate", lambda seq, spec, count, index, linear:
                        built.append(count) or iterate(seq, spec, count, index, linear))
    assert w.extend(-8, 22).values == w.values
    assert w.extend(-9, 22).values == (block[-9],) + w.values  # the rest comes from the block
    assert sum(built) == 0


# -- export formats --------------------------------------------------------------

def test_export_round_trips():
    w = ones(1).window().extend(new_hi=9)
    rows = window_rows(w, 0, 9)
    for text in (render_csv(rows), render_json(rows), render_bfile(rows)):
        lo, values = contiguous_values(parse_sequence(text))
        assert lo == 0 and values == [w[n] for n in range(10)]


def test_csv_format_shape():
    w = ones(1).window().extend(new_hi=3)
    text = render_csv(window_rows(w))
    assert text.splitlines()[0] == "n,value"
    assert text.splitlines()[-1] == "3,3"


def test_bfile_requires_integers():
    w = RecurrenceSpec.numeric(1, 1, [1, 2, 3]).window().extend(new_hi=4)
    with pytest.raises(NonIntegerValueError):
        render_bfile(window_rows(w))


def test_exports_render_values_past_the_digit_limit():
    big = 10 ** 5000 + 7  # 5001 digits, past Python's default int-to-str limit
    rows = window_rows(raw_window(ones(1), 0, [1, big, -big]))
    text = "1" + "0" * 4999 + "7"
    assert render_bfile(rows).splitlines() == ["0 1", f"1 {text}", f"2 -{text}"]
    assert render_csv(rows).splitlines()[2] == f"1,{text}"


def test_parse_sequence_rejects_gaps():
    with pytest.raises(ValueError):
        contiguous_values(parse_sequence("0 1\n2 5\n"))


def test_symbolic_window_exports_canonical_text():
    import json
    w = RecurrenceSpec.symbolic(1).window().extend(new_hi=3)
    data = json.loads(render_json(window_rows(w, 3, 3)))
    assert data == [{"n": 3, "value": "x0^-1*x1*x2 + x0^-1*x1*a + x0^-1*x2*a"}]


# -- the Decimal route of export_window ---------------------------------------------

def _printed(w, lo, hi) -> list[str]:
    """The csv, json and b-file text of [lo, hi], or the b-file's error text."""
    rows = window_rows(w, lo, hi)
    texts = [render_csv(rows), render_json(rows)]
    try:
        texts.append(render_bfile(rows))
    except NonIntegerValueError as exc:
        texts.append(f"NonIntegerValueError: {exc}")
    return texts


def _print_range(draw, k: int) -> tuple[int, int]:
    """A range [lo, hi] to print, of one of five shapes around the seed [0, 2k]."""
    m = draw(st.integers(1, 40 * k))
    return draw(st.sampled_from([
        (-m, 2 * k + m),                       # two-sided
        (0, 6 * k + m),                        # forward only
        (-6 * k - m, 2 * k),                   # backward only
        (-(m % (2 * k)), 4 * k - 1),           # shorter than 6k
        (100, 100 + m),                        # starting past 6k
    ]))


@st.composite
def integer_windows(draw):
    """(spec, lo, hi): a unit seed (init in {1, -1}, a an integer), or the
    integer seed 1..8k steps along one, and a range [lo, hi] to print."""
    k = draw(st.integers(1, 3))
    spec = RecurrenceSpec.numeric(k, draw(st.sampled_from([1, -1, 2, -2, 3, -3])),
                                  draw(st.lists(st.sampled_from([1, -1]),
                                                min_size=2 * k + 1, max_size=2 * k + 1)))
    shift = draw(st.integers(0, 8 * k))
    if shift:
        values = spec.window().extend(0, shift + 2 * k).values[shift:]
        assume(all(values))
        spec = RecurrenceSpec.numeric(k, spec.a, values)
    return (spec, *_print_range(draw, k))


_SMALL_RATIONALS = st.builds(Fraction, st.integers(-9, 9).filter(bool), st.integers(1, 9))


@st.composite
def rational_windows(draw):
    """(spec, lo, hi): an ``integer`` seed (init in 1..9) or a ``rational``
    one (init p/q), a = p/q, with |p|, q <= 9, and a range [lo, hi] to print."""
    k = draw(st.integers(1, 3))
    values = st.integers(1, 9) if draw(st.booleans()) else _SMALL_RATIONALS
    spec = RecurrenceSpec.numeric(k, draw(_SMALL_RATIONALS),
                                  draw(st.lists(values, min_size=2 * k + 1, max_size=2 * k + 1)))
    return (spec, *_print_range(draw, k))


def _prints_the_fraction_window(spec, lo, hi):
    """export_window's text of [lo, hi] is that of the Fraction window
    ``spec.window().extend``, zero pivots or not; returns the exported window."""
    w_lo, w_hi = min(lo, 0), max(hi, 2 * spec.k)
    binary = spec.window().extend(w_lo, w_hi)
    w = export_window(spec, w_lo, w_hi)
    assert _printed(w, lo, hi) == _printed(binary, lo, hi)
    return w


def _pair(v) -> tuple[int, int]:
    """(numerator, denominator) of an exported value, as ints."""
    if isinstance(v, Decimal):
        return int(v), 1
    if isinstance(v, Fraction):
        return v.numerator, v.denominator
    return int(v.numerator), int(v.denominator)


@settings(max_examples=150, deadline=None)
@given(integer_windows())
def test_decimal_route_prints_the_binary_window(case):
    spec, lo, hi = case
    w = _prints_the_fraction_window(spec, lo, hi)
    # on an integer window every value is a Decimal once the window leaves
    # the 6k values it starts from
    assert all(type(v) is Decimal for v in w.values) == (len(w.values) > 6 * spec.k)


@settings(max_examples=150, deadline=None)
@given(rational_windows())
def test_decimal_route_prints_the_fraction_window_of_a_rational_seed(case):
    _prints_the_fraction_window(*case)


def test_decimal_route_prints_values_past_the_digit_limit():
    n = 720
    spec = RecurrenceSpec.numeric(1, 10 ** 6, [1, 1, 1])  # K = 3000008000003
    w = export_window(spec, -n, n)
    assert type(w[n]) is Decimal and min(len(str(w[-n])), len(str(w[n]))) > 4300
    assert _printed(w, -n, n) == _printed(spec.window().extend(-n, n), -n, n)


def test_decimal_route_prints_a_zero_as_0():
    spec = RecurrenceSpec.numeric(1, 2, [-2, 2, -1])
    w = export_window(spec, -7, 5)
    assert type(w[-5]) is Decimal and str(w[-5]) == "0"  # built by the relation, run backward
    assert render_csv(window_rows(w, -5, -5)) == "n,value\n-5,0\n"


def test_decimal_route_prints_rational_values_past_the_digit_limit():
    n = 720
    spec = RecurrenceSpec.numeric(1, Fraction(10 ** 6, 7), [1, 1, 1])
    w = export_window(spec, -n, n)
    binary = spec.window().extend(-n, n)
    for m in (-n, n):
        value = binary[m]
        assert value.denominator > 1 and len(str(w[m].numerator)) > 4300
        assert str(w[m]) == f"{format_int(value.numerator)}/{format_int(value.denominator)}"
    assert _printed(w, -n, n) == _printed(binary, -n, n)


def test_every_window_past_6k_takes_the_decimal_route():
    for spec in (RecurrenceSpec.numeric(1, 1, [1, 2, 3]),            # K = 32/3
                 RecurrenceSpec.numeric(1, 1, [1, -1, 2]),           # K integer, x_5 = -1/2
                 RecurrenceSpec.numeric(1, 1, [-5, 3, 3]),           # x_0..x_5 integers, K = -10/9
                 RecurrenceSpec.numeric(2, Fraction(1, 2), [1] * 5)):
        w = export_window(spec, -4, 8)
        assert all(isinstance(v, (Decimal, engine._Quotient)) for v in w.values)
        # reduced, with a denominator > 1 exactly where the value is no integer
        assert [_pair(v) for v in w.values] == [_pair(v) for v in spec.window().extend(-4, 8).values]
        assert all(type(v) is Decimal for v in w.values if _pair(v)[1] == 1)


def test_a_multiple_of_the_guard_prime_in_a_denominator_takes_the_decimal_route():
    # x_3 = 3/p: the residue check cannot invert p modulo itself, so it takes
    # the first odd modulus below p that is coprime to the denominators
    spec = RecurrenceSpec.numeric(1, 1, [engine.GUARD_PRIME, 1, 1])
    assert engine._guard_residues(spec.window().extend(0, 5).values)[0] == engine.GUARD_PRIME - 30
    w = export_window(spec, -10, 20)
    assert all(type(v) in (Decimal, engine._Quotient) for v in w.values)
    assert [_pair(v) for v in w.values] == [_pair(v) for v in spec.window().extend(-10, 20).values]


def test_the_guard_modulus_is_coprime_to_every_denominator():
    p = engine.GUARD_PRIME
    assert engine._guard_residues([Fraction(3, 7), Fraction(-2)]) == (p, [3 * pow(7, -1, p) % p, p - 2])
    # p - 30, the first odd number below p to pass the base-2 test, divides a
    # denominator too, so the modulus steps on to the next that passes
    values = [Fraction(1, p * (p - 30)), Fraction(5, p)]
    q, residues = engine._guard_residues(values)
    assert q < p - 30 and q % 2 == 1 and pow(2, q - 1, q) == 1
    assert all(math.gcd(v.denominator, q) == 1 for v in values)
    assert residues == [v.numerator * pow(v.denominator, -1, q) % q for v in values]


_CORRUPTED = [-20, -1, 6, 20]  # values the relation builds
# k = 2 and 3 seeds whose window [-20, 20] the relation builds outside [0, 6k - 1]
_WIDER_SEEDS = {
    (2, "ones"): [1] * 5, (3, "ones"): [1] * 7,
    (2, "rational"): [Fraction(1, 2), Fraction(-4, 3), 5, Fraction(2, 7), 3],
    (3, "rational"): [Fraction(1, 2), Fraction(-4, 3), 5, Fraction(2, 7), 3, Fraction(-5, 6), 2],
}


@pytest.mark.parametrize("k,init,n", [
    *((1, [1, 1, 1], n) for n in _CORRUPTED),
    *((1, [1, 2, 3], n) for n in _CORRUPTED),
    *((1, [Fraction(1, 2), Fraction(-4, 3), 5], n) for n in _CORRUPTED),
    # the window's ends and the first value past the block on each side
    *((k, init, n) for (k, _), init in _WIDER_SEEDS.items() for n in (-20, -1, 6 * k, 20)),
    # checked modulo GUARD_PRIME - 30, as the guard prime divides K's denominator
    *((1, [engine.GUARD_PRIME, 1, 1], n) for n in _CORRUPTED),
], ids=[*map(str, _CORRUPTED), *(f"{family}-seed-{n}" for family in ("integer", "rational")
                                 for n in _CORRUPTED),
        *(f"k{k}-{family}-{n}" for k, family in _WIDER_SEEDS for n in (-20, -1, 6 * k, 20)),
        *(f"guard-prime-seed-{n}" for n in _CORRUPTED)])
def test_a_corrupted_decimal_value_fails_the_residue_check(corrupt_decimal_at, k, init, n):
    spec = RecurrenceSpec.numeric(k, 1, init)
    # an integer is a Decimal, any other value a quotient
    kind = Decimal if spec.window().extend(n, n)[n].denominator == 1 else engine._Quotient
    assert type(export_window(spec, -20, 20)[n]) is kind
    corrupt_decimal_at(n)
    with pytest.raises(ResidueMismatchError) as exc:
        export_window(spec, -20, 20)
    assert exc.value.n == n


def test_an_exported_window_extends_exactly_in_any_context():
    # x_200 has 110 digits: a 28- or 5-digit context would round it
    w = export_window(ones(1), 0, 100)
    want = ones(1).window().extend(0, 200).values
    assert tuple(map(Fraction, w.extend(0, 200).values)) == want
    with decimal.localcontext() as ctx:
        ctx.prec = 5
        assert tuple(map(Fraction, w.extend(0, 200).values)) == want


def test_an_exported_window_joins_the_block_as_printed_values():
    # [0, 100] does not hold the block [-2, 4]: extending past -2 joins it
    spec = RecurrenceSpec.numeric(1, 1, [1, 2, 3])
    w = export_window(spec, 0, 100).extend(-10, 100)
    want = spec.window().extend(-10, 100)
    assert all(type(v) in (Decimal, engine._Quotient) for v in w.values)
    assert [Fraction(*_pair(v)) for v in w.values] == list(want.values)


def test_decimal_route_leaves_the_callers_context_alone():
    assert decimal.getcontext().prec == 28
    w = export_window(ones(2), -40, 40)
    assert decimal.getcontext().prec == 28
    # a caller's low precision does not reach the route
    with decimal.localcontext() as ctx:
        ctx.prec = 5
        assert export_window(ones(2), -40, 40) == w
        assert ctx.prec == 5
    assert all(type(v) is Decimal for v in w.values)
    assert tuple(map(Fraction, w.values)) == ones(2).window().extend(-40, 40).values
