import hashlib
import time
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hhrec import invariants
from hhrec.closed_form import extract_coeffs
from hhrec.engine import (
    RecurrenceSpec,
    SequenceWindow,
    export_window,
    raw_window,
    window_rows,
    xi_residual,
)
from hhrec.errors import (
    DegenerateDenominatorError,
    DegenerateInputError,
    SingularDeltaError,
    SingularSystemError,
    ZeroAlphaError,
    ZeroPivotError,
)
from hhrec.invariants import (
    InhomCoeffs,
    PeriodicCoeffs,
    _wronskian_block,
    _wronskian_det,
    abg_coeffs,
    delta,
    explicit_iterates,
    first_integral_proof_residuals,
    inhom_coeffs,
    k_after_phi,
    k_breakdown,
    k_cramer,
    k_formula,
    k_prime,
    k_ratio,
    linear_relation_residual,
    monodromy_k,
    nu_invariant,
    operator_identity_residual,
    p_vs_iterates_residuals,
    periodic_coeffs,
    wronskian4_det,
)
from hhrec.laurent import LaurentPolynomial, variables
from hhrec.matrix import det_cofactor, mat_mul, matrix_det, scale_row, solve_exact
from hhrec.verifier import SplitMix64, TrialConfig, random_rational, random_spec


def ones(k, a=1):
    return RecurrenceSpec.numeric(k, a, [1] * (2 * k + 1))


def ones_window(k, lo, hi):
    return ones(k).window().extend(lo, hi)


def rand_spec(k, rng, bound=8):
    init = tuple(random_rational(rng, bound, 5) for _ in range(2 * k + 1))
    return RecurrenceSpec(k, random_rational(rng, bound, 5), init)


# -- the explicit K formula -------------------------------------------------------

def test_k_formula_ones_values():
    assert k_formula(ones(1)).K == 14
    assert k_formula(ones(2)).K == 28
    assert k_formula(ones(3)).K == 46
    assert k_formula(ones(4)).K == 68


def test_k_formula_breakdown_123():
    kb = k_formula(RecurrenceSpec.numeric(1, 1, [1, 2, 3]))
    assert (kb.P0, kb.P1, kb.P2, kb.K) == (Fraction(13, 3), Fraction(16, 3), 1, Fraction(32, 3))


def test_k_breakdown_promotes_ints():
    # int / int is a float: plain ints must give the Fraction pieces exactly
    want = k_breakdown([Fraction(1), Fraction(2), Fraction(3)], Fraction(1))
    got = k_breakdown([1, 2, 3], 1)
    assert got == want and got.K == Fraction(32, 3)
    assert all(type(getattr(got, name)) is Fraction for name in ("P0", "P1", "P2", "K"))


def test_k_breakdown_at_zero_parameter():
    kb = k_breakdown([Fraction(2), Fraction(3), Fraction(5)], Fraction(0))
    assert kb.K == kb.P0 == 1 + Fraction(2, 5) + Fraction(5, 2)


def test_k_formula_zero_initial_value():
    with pytest.raises(ZeroPivotError):
        k_breakdown([Fraction(1), Fraction(0), Fraction(2)], Fraction(1))


def test_k_formula_symbolic_pieces_free_of_parameter():
    kb = k_formula(RecurrenceSpec.symbolic(2))
    for piece in (kb.P0, kb.P1, kb.P2):
        assert all(exp[-1] == 0 for exp in piece.terms())
    assert any(exp[-1] == 2 for exp in kb.K.terms())


# -- the ratio route ---------------------------------------------------------------

def test_k_ratio_123():
    spec = RecurrenceSpec.numeric(1, 1, [1, 2, 3])
    w = spec.window().extend(-2, 4)
    assert w[4] == Fraction(47, 2)
    assert k_ratio(w) == Fraction(32, 3) == k_formula(spec).K


def test_k_ratio_degenerate_on_ones():
    with pytest.raises(DegenerateDenominatorError):
        k_ratio(ones_window(1, -2, 4))


def test_k_ratio_shifted_form():
    w = ones_window(1, -2, 8)
    assert k_ratio(w, base=2) == Fraction(85 - 1, 7 - 1) == 14


def test_k_ratio_symbolic_is_exact_division():
    for k in (1, 2):
        spec = RecurrenceSpec.symbolic(k)
        w = spec.window().extend(-2 * k, 4 * k)
        assert k_ratio(w) == k_formula(spec).K


# -- Wronskian determinants ---------------------------------------------------------

def test_delta_golden_and_invariance():
    w = ones_window(1, -4, 12)
    assert delta(w, 0) == 12
    assert delta(w, 1) == 12
    for n in range(-4, 6):
        assert delta(w, n + 1) == delta(w, n)


def test_delta_zero_for_constant_raw_window():
    w = raw_window(ones(1), 0, [5] * 8)
    assert delta(w, 0) == 0


def test_wronskian4_vanishes_on_solutions():
    assert wronskian4_det(ones_window(1, 0, 10), 0) == 0
    rng = SplitMix64(31337)
    spec = rand_spec(2, rng)
    w = spec.window().extend(-2, 16)
    assert wronskian4_det(w, -1) == 0


def test_wronskian4_nonzero_on_non_solution():
    vals = [1, 2, 6, 24, 120, 720, 5040, 40320, 362880, 3628800]
    w = raw_window(ones(1), 0, vals)
    assert wronskian4_det(w, 0) != 0


# -- Cramer route ---------------------------------------------------------------------

def test_k_cramer_ones():
    assert k_cramer(ones_window(1, 0, 10)) == (14, 14)


def test_k_cramer_123():
    w = RecurrenceSpec.numeric(1, 1, [1, 2, 3]).window().extend(0, 9)
    assert k_cramer(w) == (Fraction(32, 3), Fraction(32, 3))


def test_k_cramer_independent_of_n():
    rng = SplitMix64(99)
    spec = rand_spec(2, rng)
    w = spec.window().extend(-1, 15)
    assert k_cramer(w, 0) == k_cramer(w, 1)


def test_k_cramer_singular_delta():
    w = raw_window(ones(1), 0, [5] * 10)
    with pytest.raises(SingularDeltaError):
        k_cramer(w, 0)


# -- the numeric route against the cofactor oracle ---------------------------------------

def _family(kind, k):
    init = {"unit": [1] * (2 * k + 1),
            "integer": [j + 1 for j in range(2 * k + 1)],
            "rational": [Fraction((-1) ** j * (j + 2), j + 3) for j in range(2 * k + 1)]}[kind]
    return RecurrenceSpec.numeric(k, {"unit": 1, "integer": 2, "rational": Fraction(3, 2)}[kind], init)


# the 4x4 and every 3x3 block the numeric route sums: (offsets, shifts)
_NUMERIC_BLOCKS = [((0, 1, 2, 3), (0, 1, 2, 3)),
                   *((offsets, shifts) for offsets in ((0, 1, 2), (0, 2, 3), (0, 1, 3))
                     for shifts in ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)))]


@pytest.mark.parametrize("kind, k, lo, hi", [
    *((kind, k, -2 * k - 2, 12 * k + 3) for kind in ("unit", "integer", "rational")
      for k in (1, 2, 3)),
    ("rational", 2, -100, 300),
])
def test_wronskian_routes_match_cofactor_of_fraction_blocks(kind, k, lo, hi):
    # each route runs up to the last n the window covers, where the rows near
    # its top lack their 6k entry, and refuses the next n
    w = _family(kind, k).window().extend(lo, hi)

    def cof(n, offsets, shifts):
        return det_cofactor(_wronskian_block(w, n, offsets, shifts))

    for n in range(lo, hi - 6 * k - 3 + 1):
        assert wronskian4_det(w, n) == cof(n, (0, 1, 2, 3), (0, 1, 2, 3)) == 0
    for n in range(lo, hi - 4 * k - 2 + 1):
        d = cof(n, (0, 1, 2), (0, 1, 2))
        assert delta(w, n) == d != 0
        if n <= hi - 6 * k - 2:
            assert k_cramer(w, n) == (cof(n, (0, 1, 2), (0, 1, 3)) / d,
                                      cof(n, (0, 1, 2), (0, 2, 3)) / d)
        if n <= hi - 4 * k - 3:
            assert abg_coeffs(w, n) == (cof(n + 1, (0, 1, 2), (0, 1, 2)) / d,
                                        cof(n, (0, 2, 3), (0, 1, 2)) / d,
                                        cof(n, (0, 1, 3), (0, 1, 2)) / d)
    for read, last in ((delta, hi - 4 * k - 2), (k_cramer, hi - 6 * k - 2),
                       (abg_coeffs, hi - 4 * k - 3), (wronskian4_det, hi - 6 * k - 3)):
        with pytest.raises(IndexError):
            read(w, last + 1)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_every_numeric_block_matches_cofactor_on_a_raw_window(k):
    # random rationals are no solution, so no block vanishes by design and a
    # sign error in any cofactor shows
    rng = SplitMix64(7000 + k)
    lo, hi = -5, 6 * k + 8
    w = raw_window(ones(k), lo, [random_rational(rng, 9, 9) for _ in range(lo, hi + 1)])
    for offsets, shifts in _NUMERIC_BLOCKS:
        for n in range(lo, hi - offsets[-1] - 2 * k * shifts[-1] + 1):
            want = det_cofactor(_wronskian_block(w, n, offsets, shifts))
            assert _wronskian_det(w, n, offsets, shifts) == want != 0


# -- the numeric table's block fill ------------------------------------------------------

def _raw_rows(k, rows, seed):
    """A raw window of random rationals with ``rows`` Wronskian rows: x_{m+4k}
    is in it for m in [lo, lo + rows - 1], and the top 2k rows lack x_{m+6k}."""
    rng = SplitMix64(seed)
    return raw_window(ones(k), -3, [random_rational(rng, 9, 9) for _ in range(rows + 4 * k)])


_FILL_ROWS = pytest.mark.parametrize(
    "rows", [invariants.BLOCK // 2, invariants.BLOCK, 3 * invariants.BLOCK + 5],
    ids=["below-one-block", "one-block", "several-blocks"])


@_FILL_ROWS
@pytest.mark.parametrize("k", [1, 2, 3])
def test_block_fill_builds_scale_row_rows_and_their_minors(k, rows):
    w = _raw_rows(k, rows, 7200 + 10 * k + rows)
    step = 2 * k
    for offsets, shifts in _NUMERIC_BLOCKS:
        for n in range(w.lo, w.hi - offsets[-1] - step * shifts[-1] + 1):
            _wronskian_det(w, n, offsets, shifts)
    table = w.wronskian_table
    assert sorted(table.rows) == list(range(w.lo, w.lo + rows))
    assert sorted(table.pairs) == list(range(w.lo, w.lo + rows - 1))

    def row(m):
        return scale_row([w[j] for j in range(m, min(m + 3 * step, w.hi) + 1, step)])

    for m in table.rows:
        assert table.rows[m] == row(m), m
    for m in table.pairs:
        (s, a), (t, b) = row(m), row(m + 1)
        minors = tuple(a[i] * b[j] - a[j] * b[i]
                       for i, j in invariants.WronskianTable.MINOR_COLUMNS if j < len(b))
        assert table.pairs[m] == (s * t, minors), m


@_FILL_ROWS
@pytest.mark.parametrize("k", [1, 2, 3])
def test_block_fill_reads_at_both_ends_and_refuses_one_index_short(k, rows):
    # each read on a fresh window, so that it is the one that fills
    w = _raw_rows(k, rows, 7300 + 10 * k + rows)
    for offsets, shifts in _NUMERIC_BLOCKS:
        last = w.hi - offsets[-1] - 2 * k * shifts[-1]
        for n in (w.lo, (w.lo + last) // 2, last):
            want = det_cofactor(_wronskian_block(w, n, offsets, shifts))
            assert _wronskian_det(raw_window(w.spec, w.lo, w.values), n, offsets, shifts) == want != 0
        for lo, values, n in ((w.lo + 1, w.values[1:], w.lo), (w.lo, w.values[:-1], last)):
            with pytest.raises(IndexError):
                _wronskian_det(raw_window(w.spec, lo, values), n, offsets, shifts)


@pytest.mark.parametrize("read", [
    lambda w: delta(w, 0),
    lambda w: wronskian4_det(w, w.hi - 9),
    lambda w: k_cramer(w, 1000),
    lambda w: abg_coeffs(w, 1000),
], ids=["delta", "wronskian4_det", "k_cramer", "abg_coeffs"])
def test_one_read_fills_at_most_one_block(read):
    # filling the whole window instead would build 2,996 rows for this read
    w = ones_window(1, -1000, 1999)
    read(w)
    assert 0 < len(w.wronskian_table.rows) <= invariants.BLOCK
    assert len(w.wronskian_table.pairs) <= invariants.BLOCK


@pytest.mark.parametrize("bad", [Decimal(7), variables(3)[0]], ids=["decimal", "laurent"])
@pytest.mark.parametrize("at", [10, 40, 100])
def test_an_entry_outside_the_rows_a_read_needs_never_raises(bad, at):
    # k = 1: row m is (x_m, x_{m+2}, x_{m+4}, x_{m+6}), the 4x4 at n reads rows
    # n .. n+3 and delta_n rows n .. n+2, and the first block a read fills
    # reaches x_37; x_at breaks the rows from at - 6 on
    clean = ones_window(1, 0, 100)
    w = SequenceWindow(clean.spec, 0, clean.values[:at] + (bad,) + clean.values[at + 1:], raw=True)
    assert [wronskian4_det(w, n) for n in range(at - 9)] == [0] * (at - 9)
    assert delta(w, at - 9) == delta(clean, at - 9)
    for read, n in ((wronskian4_det, at - 9), (delta, at - 8)):
        with pytest.raises(TypeError, match="is not a Fraction or int"):
            read(w, n)


# sha256 of the repr of each numeric sweep, taken while the table built each
# row and pair by a call of its own: unit-seed windows of the campaign's
# Wronskian ops, and one rational k = 3 window
NUMERIC_SWEEPS = {
    "k1-unit": (1, 1, "1,1,1", -75, 225,
                "a22e81cfadc037ff374bdd719e1096c28b64e47ca0814bd5d547b4e1711bb8ca",
                "8c4cd6680b8de4deb75962259d27829cec046eb1c1be42b2b0da24bf225da39e"),
    "k2-unit": (2, 1, "1,1,1,1,1", -100, 300,
                "9d55ab0a8b7775ce72df7f46e619373445cc1f893614db715c07db9d5ab338f6",
                "6880b0ae0c94ef4a6d6dc1e7e71784fde673a9bfc32a0b101ed3c8e372e15a52"),
    "k3-rational": (3, Fraction(3, 2), "1/2,-4/3,5,2/7,3,-5/6,2", -40, 120,
                    "5181e6908cf06a4c7829d95eb84627d50d7befb3f01d0d55fd32a5af13eb436e",
                    "a443c023c909d707bb7ccf9ad7766d1574a543bce8ac35e91efb872a4daf0447"),
}


@pytest.mark.parametrize("case", NUMERIC_SWEEPS)
def test_numeric_sweeps_pinned(case):
    k, a, init, lo, hi, w4_digest, delta_digest = NUMERIC_SWEEPS[case]
    spec = RecurrenceSpec.numeric(k, a, [Fraction(v) for v in init.split(",")])
    w = spec.window().extend(lo, hi)
    w4 = repr([wronskian4_det(w, n) for n in range(lo, hi - 6 * k - 2)])
    w = spec.window().extend(lo, hi)  # the delta sweep fills a table of its own
    deltas = repr([delta(w, n) for n in range(lo, hi - 4 * k - 1)])
    assert hashlib.sha256(w4.encode()).hexdigest() == w4_digest
    assert hashlib.sha256(deltas.encode()).hexdigest() == delta_digest


@pytest.mark.parametrize("k, lo, hi, w4_at, delta_at", [
    (1, -12, 12, (-12, 0, 3), (-12, 0, 6)),
    (2, -6, 16, (-6, -2, 1), (-6, 0, 6)),
    (3, -8, 22, (-8, -3, 0), (-8, 0, 4, 8)),  # a block of each residue class mod k
])
def test_symbolic_wronskian_blocks_match_cofactor(k, lo, hi, w4_at, delta_at):
    # the ring route pivots on the entry with the fewest terms; the cofactor
    # oracle takes no pivot at all.  The windows lie in the capped one,
    # [-6k-6, 6k+6], where the blocks at its ends take the oracle minutes
    w = RecurrenceSpec.symbolic(k).window().extend(lo, hi)
    for n in w4_at:
        assert wronskian4_det(w, n) == det_cofactor(_wronskian_block(w, n, range(4), range(4))) == 0
    for n in delta_at:
        assert delta(w, n) == det_cofactor(_wronskian_block(w, n, range(3), range(3)))
    # the Cramer numerators of K and the abg numerators, at one mid-window n
    # per residue class mod k, among the n whose blocks the window holds
    mid = (lo + hi - 6 * k - 2) // 2
    for n in range(mid, mid + k):
        for offsets, shifts in [((0, 1, 2), (0, 1, 3)), ((0, 1, 2), (0, 2, 3)),
                                ((0, 2, 3), (0, 1, 2)), ((0, 1, 3), (0, 1, 2))]:
            want = det_cofactor(_wronskian_block(w, n, offsets, shifts))
            assert _wronskian_det(w, n, offsets, shifts) == want != 0


@pytest.mark.parametrize("k", [1, 2])
def test_symbolic_k_cramer_equals_k(k):
    w = RecurrenceSpec.symbolic(k).window().extend(-2 * k - 2, 6 * k + 4)
    for n in (0, 1):
        assert k_cramer(w, n) == (w.spec.K, w.spec.K)


def _assert_symbolic_delta_is_k_invariant(k):
    lo, hi = -2 * k - 2, 6 * k + 4
    w = RecurrenceSpec.symbolic(k).window().extend(lo, hi)
    d = [delta(w, n) for n in range(lo, hi - 4 * k - 2 + 1)]
    assert all(d[i + k] == d[i] for i in range(len(d) - k))
    assert len({str(v) for v in d}) == k  # one value per residue class
    # and the 4x4 Wronskian, which the cofactor test checks at 3 of its blocks, vanishes at all
    assert [n for n in range(lo, hi - 6 * k - 3 + 1) if wronskian4_det(w, n)] == []


def test_symbolic_delta_is_k_invariant_at_k3():
    _assert_symbolic_delta_is_k_invariant(3)


def test_symbolic_delta_is_k_invariant_at_k4():
    _assert_symbolic_delta_is_k_invariant(4)


# sha256 of ``_symbolic_sweep_text(k)``, taken while every symbolic block was
# an elimination of its own (``matrix_det``), before the 4x4 was condensed
SYMBOLIC_SWEEP_DIGESTS = {
    1: "b699fbcaec22e500ba2d8afb15aedbebabcc8a9e0352f68def4e78f9f402c6e9",
    2: "ac5eb73c311980ab5ffe30e778fb5b76c28d49e28f4751150debe8ffabaedcff",
    3: "bd94a031ec726af70d75aef8fa26e5a1cfc0f93f3a4b1e095103b8374224f13f",
}


def _symbolic_sweep_text(k):
    """The canonical text of every 4x4, delta, Cramer and abg value over [-2k-2, 6k+4]."""
    lo, hi = -2 * k - 2, 6 * k + 4
    w = RecurrenceSpec.symbolic(k).window().extend(lo, hi)
    lines = [f"w4 {n} {wronskian4_det(w, n)}" for n in range(lo, hi - 6 * k - 2)]
    lines += [f"delta {n} {delta(w, n)}" for n in range(lo, hi - 4 * k - 1)]
    lines += ["k_cramer {} {} {}".format(n, *k_cramer(w, n)) for n in range(lo, hi - 6 * k - 1)]
    lines += ["abg {} {} {} {}".format(n, *abg_coeffs(w, n)) for n in range(lo, hi - 4 * k - 2)]
    return "\n".join(lines)


@pytest.mark.parametrize("k", sorted(SYMBOLIC_SWEEP_DIGESTS))
def test_symbolic_sweep_text_pinned(k):
    digest = hashlib.sha256(_symbolic_sweep_text(k).encode()).hexdigest()
    assert digest == SYMBOLIC_SWEEP_DIGESTS[k]


def _random_laurent(rng, nvars):
    """One to three terms, exponents in [-1, 2] ([0, 2] for the parameter),
    coefficients in [-3, 3]."""
    terms = {}
    while not terms:
        for _ in range(rng.randint(1, 3)):
            c = rng.randint(-3, 3)
            if c:
                exp = [rng.randint(-1, 2) for _ in range(nvars - 1)] + [rng.randint(0, 2)]
                terms[tuple(exp)] = c
    return LaurentPolynomial(nvars, terms)


@pytest.mark.parametrize("k", [1, 2])
def test_condensed_w4_matches_cofactor_on_a_raw_symbolic_window(k, monkeypatch):
    # random Laurent entries are no solution, so every 4x4 is nonzero and its
    # value, sign included, must be the cofactor oracle's.  One block's
    # central 2x2 (rows n+1, n+2, shifts 1, 2) has its second row r times
    # its first, and only that block takes the elimination of the whole 4x4
    rng = SplitMix64(7100 + k)
    lo, hi = -3, 6 * k + 6
    values = [_random_laurent(rng, 2 * k + 2) for _ in range(lo, hi + 1)]
    flat, r = 1, _random_laurent(rng, 2 * k + 2)  # the block whose centre is 0
    for m in (flat + 1 + 2 * k, flat + 1 + 4 * k):
        values[m + 1 - lo] = values[m - lo] * r
    w = raw_window(RecurrenceSpec.symbolic(k), lo, values)
    eliminated = []

    def recording_det(rows):
        eliminated.append(len(rows))
        return det_cofactor(rows)

    monkeypatch.setattr(invariants, "matrix_det", recording_det)
    for n in range(lo, hi - 6 * k - 3 + 1):
        before = eliminated.count(4)
        want = det_cofactor(_wronskian_block(w, n, range(4), range(4)))
        assert wronskian4_det(w, n) == want != 0
        assert eliminated.count(4) - before == (n == flat)


@pytest.mark.parametrize("k, symbolic", [(1, False), (2, False), (3, False), (1, True), (2, True)],
                         ids=["1", "2", "3", "symbolic-1", "symbolic-2"])
def test_a_corrupted_copy_does_not_read_the_clean_windows_rows(k, symbolic):
    # the clean window caches its scaled rows, or its symbolic determinants,
    # first; the corrupted copy must build its own, and fail at exactly the
    # blocks that read x_{2k+1}.  Both windows reach past those blocks; the
    # symbolic one on the left, inside the symbolic cap
    if symbolic:
        clean = RecurrenceSpec.symbolic(k).window().extend(-4 * k - 4, 6 * k + 4)
    else:
        clean = _family("rational", k).window().extend(-2 * k - 2, 12 * k + 3)
    sweep = range(clean.lo, clean.hi - 6 * k - 3 + 1)
    assert all(wronskian4_det(clean, n) == 0 for n in sweep)
    bad = clean.with_value(2 * k + 1, clean[2 * k + 1] + 1)
    hit = {n for n in sweep if any(n + i + 2 * k * j == 2 * k + 1
                                   for i in range(4) for j in range(4))}
    assert hit and hit < set(sweep)
    assert {n for n in sweep if wronskian4_det(bad, n)} == hit
    if symbolic:
        for n in hit:
            want = det_cofactor(_wronskian_block(bad, n, range(4), range(4)))
            assert wronskian4_det(bad, n) == want
    assert all(wronskian4_det(clean, n) == 0 for n in sweep)


@pytest.mark.parametrize("read", [
    lambda w: delta(w, 100),
    lambda w: wronskian4_det(w, 120),
    lambda w: k_cramer(w, 100),
    lambda w: abg_coeffs(w, 100),
], ids=["delta", "wronskian4_det", "k_cramer", "abg_coeffs"])
def test_determinants_refuse_an_exported_decimal_window(read):
    # a Decimal determinant would round in the 28-digit default context, where
    # the Fraction window's delta is exactly 12
    w = export_window(ones(1), 0, 200)
    assert delta(ones_window(1, 0, 200), 100) == 12
    with pytest.raises(TypeError):
        read(w)


# -- 3-term relation and monodromy -----------------------------------------------------

def test_abg_ones():
    w = ones_window(1, 0, 8)
    alpha, beta, gamma = abg_coeffs(w, 0)
    assert alpha == 1
    assert w[3] - gamma * w[2] + beta * w[1] - alpha * w[0] == 0


def test_abg_product_identity_k2():
    rng = SplitMix64(5150)
    spec = rand_spec(2, rng)
    w = spec.window().extend(0, 14)
    prod = Fraction(1)
    for j in range(1, 3):
        prod *= abg_coeffs(w, j)[0]
    assert prod == 1


def test_abg_symbolic_gate():
    w = RecurrenceSpec.symbolic(1).window().extend(0, 8)
    alpha, beta, gamma = abg_coeffs(w, 0)
    x = w.spec.init
    lhs = alpha * w[0] - beta * w[1] + gamma * w[2]
    assert lhs == w[3]


def test_monodromy_ones_and_123():
    assert monodromy_k(periodic_coeffs(ones_window(1, 0, 10))) == (14, 14)
    w = RecurrenceSpec.numeric(1, 1, [1, 2, 3]).window().extend(0, 10)
    assert monodromy_k(periodic_coeffs(w)) == (Fraction(32, 3), Fraction(32, 3))


def test_monodromy_start_invariance():
    pc = periodic_coeffs(ones_window(2, 0, 16))
    assert monodromy_k(pc, start=0) == monodromy_k(pc, start=1) == (28, 28)


def fraction_monodromy(coeffs: PeriodicCoeffs, start: int = 0):
    """(K1, K2) from products of Fraction companion matrices, a gcd on every
    entry operation: the monodromy route before it ran over the integers,
    kept as its slow reference."""

    def companion(n):
        return [[0, 1, 0],
                [0, 0, 1],
                [coeffs.alpha_at(n), -coeffs.beta_at(n), coeffs.gamma_at(n)]]

    def companion_inv(n):
        al = coeffs.alpha_at(n)
        if not al:
            raise ZeroAlphaError(f"alpha_{n} = 0: companion matrix is singular")
        return [[coeffs.beta_at(n) / al, -(coeffs.gamma_at(n) / al), 1 / al],
                [1, 0, 0],
                [0, 1, 0]]

    fwd = inv = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    for m in range(start, start + 2 * coeffs.k):
        fwd = mat_mul(companion(m), fwd)
        inv = mat_mul(inv, companion_inv(m))
    return fwd[0][0] + fwd[1][1] + fwd[2][2], inv[0][0] + inv[1][1] + inv[2][2]


@st.composite
def periodic_cases(draw):
    """(PeriodicCoeffs, start) for k = 1..5: numerators of either sign,
    denominators up to 10^6, start in [-2k, 2k], and in about half the cases
    one alpha residue class set to zero."""
    k = draw(st.integers(1, 5))
    value = st.builds(Fraction, st.integers(-10**6, 10**6), st.integers(1, 10**6))
    alpha = draw(st.lists(value.filter(bool), min_size=k, max_size=k))
    if draw(st.booleans()):
        alpha[draw(st.integers(0, k - 1))] = Fraction(0)
    beta, gamma = (tuple(draw(st.lists(value, min_size=2 * k, max_size=2 * k))) for _ in "bg")
    return PeriodicCoeffs(k, tuple(alpha), beta, gamma), draw(st.integers(-2 * k, 2 * k))


@settings(max_examples=200, deadline=None)
@given(periodic_cases())
def test_monodromy_k_equals_the_fraction_route(case):
    pc, start = case
    if 0 not in pc.alpha:
        assert monodromy_k(pc, start) == fraction_monodromy(pc, start)
        return
    with pytest.raises(ZeroAlphaError) as slow:
        fraction_monodromy(pc, start)
    with pytest.raises(ZeroAlphaError) as fast:
        monodromy_k(pc, start)
    assert str(fast.value) == str(slow.value)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_both_monodromy_routes_give_k_on_campaign_windows(k):
    cfg = TrialConfig(k=k, trials=4, seed=41)
    for trial in range(cfg.trials):
        for attempt in range(cfg.max_resamples + 1):  # resample a degenerate seed
            spec = random_spec(cfg, trial, attempt)
            try:
                pc = periodic_coeffs(spec.window().extend(-2 * k - 2, 12 * k + 3))
                break
            except DegenerateInputError:
                continue
        for start in (0, 1):
            assert monodromy_k(pc, start) == fraction_monodromy(pc, start) == (spec.K, spec.K)


@pytest.mark.parametrize("bad", [0.5, Decimal("0.5"), variables(3)[0]])
def test_monodromy_refuses_a_non_rational_coefficient(bad):
    pc = PeriodicCoeffs(1, (Fraction(2),), (Fraction(1, 3), bad), (Fraction(-1), Fraction(5)))
    with pytest.raises(TypeError, match="is not a Fraction or int"):
        monodromy_k(pc, start=1)


def test_periodic_coeffs_refuses_a_symbolic_window():
    # over RationalFunction scalars the monodromy products swell: at k = 1
    # monodromy_k took seconds and left traces of thousands of terms
    w = RecurrenceSpec.symbolic(1).window().extend(-2, 8)
    start = time.perf_counter()
    with pytest.raises(ValueError, match="numeric mode only"):
        periodic_coeffs(w)
    assert time.perf_counter() - start < 0.5


# -- explicit iterates -------------------------------------------------------------------

def test_explicit_iterates_symbolic_one_step():
    spec = RecurrenceSpec.symbolic(1)
    ex = explicit_iterates(spec)
    assert ex.values[3] == spec.window().extend(new_hi=3)[3]


@pytest.mark.parametrize("k", [1, 2])
def test_explicit_iterates_symbolic_all_positions(k):
    spec = RecurrenceSpec.symbolic(k)
    w = spec.window().extend(-2 * k, 4 * k)
    ex = explicit_iterates(spec)
    for m in list(range(-2 * k, 0)) + list(range(2 * k + 1, 4 * k + 1)):
        assert ex.values[m] == w[m], m


@pytest.mark.parametrize("k", [1, 2])
def test_explicit_backward_coeffs_are_reversal_images(k):
    ex = explicit_iterates(RecurrenceSpec.symbolic(k))
    for j in range(1, 2 * k + 1):
        assert ex.F1[-j] == ex.F1[2 * k + j].sigma_pullback()
        assert ex.F2[-j] == ex.F2[2 * k + j].sigma_pullback()


@pytest.mark.parametrize("k", [1, 2])
def test_explicit_iterates_key_ranges(k):
    ex = explicit_iterates(RecurrenceSpec.symbolic(k))
    families = {*range(-2 * k, 0), *range(2 * k, 4 * k + 1)}
    assert set(ex.F1) == set(ex.F2) == families
    assert set(ex.values) == families - {2 * k}


def test_explicit_first_linear_coefficient_vanishes():
    for k in (1, 2, 3):
        ex = explicit_iterates(RecurrenceSpec.symbolic(k))
        assert not ex.F1[2 * k]


def test_explicit_iterates_numeric():
    rng = SplitMix64(808)
    spec = rand_spec(3, rng)
    w = spec.window().extend(-6, 12)
    ex = explicit_iterates(spec)
    for m in list(range(-6, 0)) + list(range(7, 13)):
        assert ex.values[m] == w[m]


# -- inhomogeneous relations ----------------------------------------------------------

def test_nu_goldens():
    w = ones_window(1, 0, 8)
    K = k_formula(w.spec).K
    assert nu_invariant(w, 0, K) == -5
    assert nu_invariant(w, 1, K) == -7
    assert nu_invariant(w, 2, K) == -5


def test_k_prime_golden_and_shift_invariance():
    w = ones_window(1, 0, 9)
    K = k_formula(w.spec).K
    assert k_prime(w, 0, K) == -12
    assert k_prime(w, 1, K) == -12


def test_inhom_relation_defining_property():
    w = ones_window(1, 0, 8)
    c = inhom_coeffs(w, 0, k_formula(w.spec).K)
    assert w[2] + c.eta * w[1] + c.zeta * w[0] - c.epsilon == 0
    # the fourth bordered column obeys the same relation
    assert w[8] + c.eta * w[7] + c.zeta * w[6] - c.epsilon == 0


def test_inhom_coeffs_on_a_constant_window_is_singular():
    # every column (1, -x_m, -x_{m+1}) of a constant window is (1, -1, -1)
    spec = RecurrenceSpec.numeric(1, 1, [1, 1, 1])
    with pytest.raises(SingularSystemError, match=r"^order-2 relation solve is singular at n=0$"):
        inhom_coeffs(raw_window(spec, 0, [1] * 8), 0, spec.K)


def test_inhom_coeffs_2k_invariant():
    rng = SplitMix64(4242)
    spec = rand_spec(2, rng)
    w = spec.window().extend(-2, 16)
    K = k_formula(spec).K
    c0, c4 = inhom_coeffs(w, 0, K), inhom_coeffs(w, 4, K)
    assert (c0.epsilon, c0.zeta, c0.eta) == (c4.epsilon, c4.zeta, c4.eta)
    assert c0.nu == c4.nu


def _inhom_by_solve(w, n, K):
    """The slow route for ``inhom_coeffs``: the bordered system over
    Fractions, ``matrix_det`` for its singularity test and Gauss-Jordan
    ``solve_exact`` for the solution."""
    k = w.spec.k
    nu = nu_invariant(w, n, K)
    a_rows = [[Fraction(1), -w[m], -w[m + 1]] for m in (n, n + 2 * k, n + 4 * k)]
    if matrix_det(a_rows) == 0:
        raise SingularSystemError(f"order-2 relation solve is singular at n={n}")
    return InhomCoeffs(nu, *solve_exact(a_rows, [w[m + 2] for m in (n, n + 2 * k, n + 4 * k)]))


@pytest.mark.parametrize("k", [1, 2, 3])
def test_inhom_coeffs_match_the_fraction_solve(k):
    """Integer Cramer against the Fraction solve at every n of random raw
    rational windows, one of them made singular at a chosen n (its rows for
    m = n and m = n + 4k equal), and of a campaign's solution window."""
    rng = SplitMix64(7600 + k)

    def outcome(route, w, n, K):
        try:
            coeffs = route(w, n, K)
        except SingularSystemError as exc:
            return str(exc)
        assert all(type(v) is Fraction for v in vars(coeffs).values())
        return coeffs

    windows = []
    for trial in range(4):
        values = [random_rational(rng, 9, 9) for _ in range(6 * k + 8)]
        if trial == 3:  # singular at n = 2: x_{2+4k}, x_{3+4k} = x_2, x_3
            values[5 + 4 * k:7 + 4 * k] = values[5:7]
        windows.append(raw_window(ones(k), -3, values))
    windows.append(random_spec(TrialConfig(k=k, seed=41), 0).window().extend(-2 * k - 2, 12 * k + 3))
    singular = []
    for w in windows:
        K = random_rational(rng, 9, 9)
        ns = range(w.lo, w.hi - 4 * k - 2 + 1)
        fast = [outcome(inhom_coeffs, w, n, K) for n in ns]
        assert fast == [outcome(_inhom_by_solve, w, n, K) for n in ns]
        singular.append([n for n, o in zip(ns, fast) if isinstance(o, str)])
    assert singular == [[], [], [], [2], []]


# -- the linear relation and the four-route agreement -----------------------------------

@pytest.mark.parametrize("k", [1, 2, 3])
def test_linear_relation_on_random_seed(k):
    rng = SplitMix64(k * 7919)
    spec = rand_spec(k, rng)
    w = spec.window().extend(-2 * k - 2, 12 * k + 3)
    K = k_formula(spec).K
    for n in range(w.lo, w.hi - 6 * k + 1):
        assert linear_relation_residual(w, n, K) == 0


def test_four_routes_agree():
    rng = SplitMix64(1234)
    for k in (1, 2):
        spec = rand_spec(k, rng)
        w = spec.window().extend(-2 * k - 2, 12 * k + 3)
        K = k_formula(spec).K
        try:
            assert k_ratio(w) == K
        except DegenerateDenominatorError:
            assert k_ratio(w, base=2 * k) == K
        assert k_cramer(w) == (K, K)
        assert monodromy_k(periodic_coeffs(w)) == (K, K)


def test_first_integral_numeric():
    rng = SplitMix64(777)
    for k in (1, 2, 3):
        spec = rand_spec(k, rng)
        w = spec.window().extend(0, 2 * k + 1)
        K = k_formula(spec).K
        shifted = [w[j] for j in range(1, 2 * k + 2)]
        assert k_breakdown(shifted, spec.a).K == K


# -- operator identity --------------------------------------------------------------------

@pytest.mark.parametrize("k", [1, 2])
def test_operator_identity_on_raw_windows(k):
    rng = SplitMix64(k)
    spec = ones(k, a=random_rational(rng, 9, 4))
    for _ in range(25):
        vals = [random_rational(rng, 9, 4) for _ in range(8 * k + 2)]
        w = raw_window(spec, 0, vals)
        K = random_rational(rng, 9, 4)
        assert operator_identity_residual(w, K, 0) == 0


@pytest.mark.parametrize("k", [1, 2])
def test_operator_identity_in_the_free_ring(k):
    # the strongest form: a raw window of 8k+2 independent variables and a
    # generic constant; both sides are equal as polynomial identities
    gens = variables(8 * k + 3)
    a = gens[-1]
    spec = RecurrenceSpec(k, a, tuple(gens[: 2 * k + 1]))
    w = raw_window(spec, 0, gens[: 8 * k + 2])
    assert not operator_identity_residual(w, a + 1, 0)


# -- symbolic conservation ------------------------------------------------------------------

@pytest.mark.parametrize("k", [1, 2, 4])  # k = 3: test_symbolic_identities_at_k3
def test_first_integral_symbolic(k):
    spec = RecurrenceSpec.symbolic(k)
    assert k_after_phi(spec) == k_formula(spec).K


@pytest.mark.parametrize("k", [1, 2, 4])  # k = 3: test_symbolic_identities_at_k3
def test_proof_identities_vanish(k):
    i1, i2, i3 = first_integral_proof_residuals(RecurrenceSpec.symbolic(k))
    assert not i1 and not i2 and not i3


@pytest.mark.parametrize("k", [1, 2])
def test_p_pieces_from_iterates(k):
    r1, r2 = p_vs_iterates_residuals(RecurrenceSpec.symbolic(k))
    assert not r1 and not r2


@pytest.mark.parametrize("k", [1, 2])
def test_reversal_covariance_of_k(k):
    spec = RecurrenceSpec.symbolic(k)
    K = k_formula(spec).K
    assert K.sigma_pullback() == K
    assert k_formula(spec.reversed_init()).K == K


def test_k_breakdown_serialization():
    d = k_formula(ones(1)).to_json_dict()
    assert d == {"P0": "3", "P1": "8", "P2": "3", "K": "14"}


def test_k_breakdown_combination_holds():
    rng = SplitMix64(246)
    spec = rand_spec(2, rng)
    kb = k_formula(spec)
    assert kb.K == kb.P0 + spec.a * kb.P1 + spec.a * spec.a * kb.P2
    skb = k_formula(RecurrenceSpec.symbolic(2))
    sa = RecurrenceSpec.symbolic(2).a
    assert skb.K == skb.P0 + sa * skb.P1 + sa * sa * skb.P2


@pytest.mark.parametrize("k", [1, 2])
def test_k_cramer_components_swap_under_reversal(k):
    # as functions of generic data the two Cramer components are reversal
    # images of each other; only the symbolic computation can see this
    w = RecurrenceSpec.symbolic(k).window().extend(0, 6 * k + 2)
    k1, k2 = k_cramer(w, 0)
    assert k2 == k1.sigma_pullback()
    assert k1 == k_formula(w.spec).K


def test_symbolic_identities_at_k3():
    # a third k value cross-validates the formula transcriptions cheaply
    # (these identities use only the closed iterate formulas, not iteration)
    spec = RecurrenceSpec.symbolic(3)
    r1, r2 = p_vs_iterates_residuals(spec)
    assert not r1 and not r2
    i1, i2, i3 = first_integral_proof_residuals(spec)
    assert not i1 and not i2 and not i3
    assert k_after_phi(spec) == k_formula(spec).K


@pytest.mark.parametrize("k", [1, 2, 3])
def test_k_after_phi_matches_a_sympy_pullback(k):
    # the slow route: K over sympy's rational function field, with the map
    # image (x1, ..., x2k, (x2k x1 + a (xk + xk+1)) / x0, a) substituted
    # term by term; sympy cancels each quotient with a full multivariate gcd
    pytest.importorskip("sympy")
    from sympy import ZZ
    from sympy.polys.fields import field

    spec = RecurrenceSpec.symbolic(k)
    F, *g = field(",".join([f"x{i}" for i in range(2 * k + 1)] + ["a"]), ZZ)
    x, a = g[:-1], g[-1]
    image = x[1:] + [(x[2 * k] * x[1] + a * (x[k] + x[k + 1])) / x[0], a]

    def at(p, point):
        total = F(0)
        for exp, c in p.terms().items():
            term = F(c)
            for v, e in zip(point, exp):
                term *= v ** e
            total += term
        return total

    pullback = at(spec.K, image)
    assert pullback == at(spec.K, g)
    fast = k_after_phi(spec)
    assert at(fast, g) == pullback
    assert at(fast + spec.init[0], g) != pullback  # negative control


@pytest.mark.parametrize("k", range(1, 7))
def test_symbolic_k_term_count(k):
    # the regularity of K's support, 11 terms at k = 1 and 2k^2 + 8k + 4 after
    assert len(RecurrenceSpec.symbolic(k).K) == (11 if k == 1 else 2 * k * k + 8 * k + 4)


# -- window coverage ------------------------------------------------------------------

_COVERAGE_SPEC = RecurrenceSpec.numeric(1, Fraction(1, 2), [2, 3, 5])
_COVERAGE_K = k_formula(_COVERAGE_SPEC).K


@pytest.mark.parametrize("read, lo, hi", [
    (lambda w: k_ratio(w, 0), -2, 4),
    (lambda w: wronskian4_det(w, 0), 0, 9),
    (lambda w: delta(w, 0), 0, 6),
    (lambda w: linear_relation_residual(w, 0, _COVERAGE_K), 0, 6),
    (lambda w: xi_residual(w, 0), 0, 3),
    (lambda w: extract_coeffs(w, _COVERAGE_K), -2, 3),
    (lambda w: window_rows(w, -2, 5), -2, 5),
    (lambda w: (w.with_value(-2, Fraction(0)), w.with_value(5, Fraction(0))), -2, 5),
], ids=["k_ratio", "wronskian4_det", "delta", "linear_relation_residual", "xi_residual",
        "extract_coeffs", "window_rows", "with_value"])
def test_window_one_index_short_is_refused(read, lo, hi):
    # k = 1: each reader needs exactly [lo, hi]; a window one index short at
    # either end raises IndexError
    full = _COVERAGE_SPEC.window().extend(lo - 1, hi + 1)

    def window(a, b):
        return SequenceWindow(full.spec, a, tuple(full[n] for n in range(a, b + 1)))

    read(window(lo, hi))
    for a, b in ((lo + 1, hi), (lo, hi - 1)):
        with pytest.raises(IndexError):
            read(window(a, b))
