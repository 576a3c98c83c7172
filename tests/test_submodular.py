import pytest

from efxlab.decoding import load_bundled_counterexample
from efxlab.errors import AgentCountOutOfRange, ArityMismatch, EfxLabError, GoodCountOutOfRange
from efxlab.submodular import add_dummy_goods, extend_counterexample, is_submodular, submodular_realize
from efxlab.valuations import RealValuation, random_monotone_rank_valuation
from efxlab.verification import verify

from conftest import as_real


def is_submodular_four_point(f: RealValuation) -> bool:
    """Naive f(S) + f(T) >= f(S|T) + f(S&T) check over all pairs (small m)."""
    values = f.values
    n_sets = 1 << f.m
    for s in range(n_sets):
        for t in range(n_sets):
            if values[s] + values[t] < values[s | t] + values[s & t]:
                return False
    return True


def test_dyadic_values_at_the_anchor_ranks():
    v = random_monotone_rank_valuation(3, 2)
    dyadic = submodular_realize(v)
    top = 1 << (1 << v.m) - 1
    order = v.order()
    assert dyadic.values[order[0]] == 0
    assert dyadic.values[order[1]] == top >> 1
    assert dyadic.values[order[-1]] == top - 1


def test_realization_is_order_isomorphic():
    v = random_monotone_rank_valuation(4, 6)
    dyadic = submodular_realize(v)
    for a in range(16):
        for b in range(16):
            assert (v.rank[a] < v.rank[b]) == (dyadic.values[a] < dyadic.values[b])


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_realizations_are_submodular(seed):
    for m in (3, 4):
        dyadic = submodular_realize(random_monotone_rank_valuation(m, seed))
        ok, witness = is_submodular(dyadic)
        assert ok and witness is None
        assert is_submodular_four_point(dyadic)


def test_diminishing_returns_agrees_with_four_point_definition():
    # a non-realization table exercising both checkers in the failing case: the 2-good
    # table (0, 1, 1, 10) with a worthless third good, since a valuation has at least 3
    bad = RealValuation(3, (0, 1, 1, 10) * 2)
    ok, witness = is_submodular(bad)
    assert not ok and witness is not None
    assert not is_submodular_four_point(bad)


def test_supermodular_input_reports_a_witness():
    bad = RealValuation(3, tuple(1000 if mask == 7 else (1 if mask else 0) for mask in range(8)))
    ok, witness = is_submodular(bad)
    assert not ok
    small, large, good = witness
    gain_small = bad.values[small | (1 << good)] - bad.values[small]
    gain_large = bad.values[large | (1 << good)] - bad.values[large]
    assert gain_small < gain_large


def test_counterexample_realizations_are_submodular():
    for v in load_bundled_counterexample():
        ok, _ = is_submodular(submodular_realize(v))
        assert ok


def test_extension_shape_and_values():
    base = load_bundled_counterexample()
    extended = extend_counterexample(base, 4)
    assert len(extended) == 4
    assert all(v.m == 9 for v in extended)
    h0 = 1 << 8
    assert extended[0].values[h0] == 0
    assert extended[1].values[h0] == 0
    assert extended[2].values[h0] == 256
    assert extended[2].values[h0] > extended[2].values[(1 << 8) - 1] == 255
    assert extended[2].values == extended[3].values
    for v in extended:
        assert RealValuation(v.m, v.values) == v


def test_extension_input_validation():
    base = load_bundled_counterexample()
    with pytest.raises(ValueError):
        extend_counterexample(base, 3)
    with pytest.raises(ValueError):
        extend_counterexample(base[:2], 4)
    with pytest.raises(ValueError):
        extend_counterexample([random_monotone_rank_valuation(4, 0)] * 3, 4)
    with pytest.raises(GoodCountOutOfRange, match="m=17"):
        extend_counterexample(base, 12)  # n + 5 goods, beyond the supported 16


def test_dummy_goods_are_worthless_everywhere():
    base = [as_real(random_monotone_rank_valuation(3, j)) for j in range(3)]
    padded = add_dummy_goods(base, 2)
    assert add_dummy_goods(base, 0) == base
    for original, wide in zip(base, padded):
        assert wide.m == 5
        for mask in range(1 << 5):
            assert wide.values[mask] == original.values[mask & 0b111]


def test_dummy_goods_read_any_valuation_through_value():
    ranks = load_bundled_counterexample()
    padded = add_dummy_goods(ranks, 1)
    assert padded == add_dummy_goods([as_real(v) for v in ranks], 1)
    assert add_dummy_goods(ranks, 0) == [as_real(v) for v in ranks]
    for original, wide in zip(ranks, padded):
        assert isinstance(wide, RealValuation) and wide.m == 9
        assert wide.values[256 | 5] == original.value(5)


def test_dummy_goods_keep_the_good_count_in_range():
    base = [as_real(v) for v in load_bundled_counterexample()]
    assert add_dummy_goods(base, 8)[0].m == 16
    with pytest.raises(GoodCountOutOfRange, match="m=17"):
        add_dummy_goods(base, 9)


def test_negative_dummy_good_count_is_a_library_error():
    base = [as_real(random_monotone_rank_valuation(3, 0))]
    with pytest.raises(EfxLabError) as caught:
        add_dummy_goods(base, -1)
    assert isinstance(caught.value, ValueError)


def test_negative_good_count_is_refused_before_the_table_is_read():
    with pytest.raises(GoodCountOutOfRange):
        is_submodular(RealValuation(-1, ()))


def test_dummy_goods_refuse_a_list_that_is_not_one_instance():
    r3, r4 = random_monotone_rank_valuation(3, 1), random_monotone_rank_valuation(4, 2)
    with pytest.raises(AgentCountOutOfRange):
        add_dummy_goods([], 1)
    for mixed, counts in (([r3, r4], r"\[3, 4\]"), ([r4, r3], r"\[4, 3\]")):
        with pytest.raises(ArityMismatch, match=counts):
            add_dummy_goods(mixed, 1)


def test_dummy_good_preserves_efx_absence_on_small_instance():
    # a 4-good identical-valuation instance has EFX allocations; adding a
    # dummy good must not destroy them, and restriction works both ways
    v = as_real(random_monotone_rank_valuation(4, 8))
    base_report = verify([v, v, v])
    padded_report = verify(add_dummy_goods([v, v, v], 1))
    assert (base_report.efx_count > 0) == (padded_report.efx_count > 0)
