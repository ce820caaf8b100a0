import dataclasses
import re
import time
from itertools import chain, combinations, product
from math import comb, prod
from operator import itemgetter

import pytest

from margo import (
    ConfigSpace,
    ConnectivityReport,
    ContingencyTable,
    Fiber,
    MarkovReport,
    Move,
    ResourceCeilingError,
    binary_space,
    cli,
    enumerate_fiber,
    fiber_connected,
    from_facets,
    interval_complement,
    interval_move,
    interval_moves,
    marginal_map,
    min_binomial_degree,
    move_supports,
    tableau,
    uniform_complex,
    verify_markov_basis,
)
from margo import fiber
from margo.characters import kernel_basis
from margo.guards import Budget
from margo.spaces import MarginalVector, _trusted_tables, layout

from conftest import (
    _components,
    all_complexes,
    naive_fiber,
    naive_kernel_vectors,
    naive_min_binomial_degree,
    naive_verify_markov,
    random_complex,
    random_table,
)

INDEPENDENCE = from_facets(2, [{1}, {2}])
B2 = binary_space(2)
D2_3 = uniform_complex(3, 2)
B3 = binary_space(3)


def test_enumerate_fiber_classic_two_by_two():
    b = marginal_map(INDEPENDENCE, ContingencyTable(B2, (1, 0, 0, 1)))
    fib = enumerate_fiber(INDEPENDENCE, B2, b)
    assert fib.size == 2
    assert [t.counts for t in fib.tables] == [(0, 1, 1, 0), (1, 0, 0, 1)]


def test_enumerate_fiber_zero_marginal():
    b = marginal_map(INDEPENDENCE, ContingencyTable.zero(B2))
    fib = enumerate_fiber(INDEPENDENCE, B2, b)
    assert fib.size == 1 and fib.tables[0].degree == 0


def test_enumerate_fiber_parity():
    even = ContingencyTable(B3, (1, 0, 0, 1, 0, 1, 1, 0))
    odd = ContingencyTable(B3, (0, 1, 1, 0, 1, 0, 0, 1))
    fib = enumerate_fiber(D2_3, B3, marginal_map(D2_3, even))
    assert fib.size == 2
    assert set(t.counts for t in fib.tables) == {even.counts, odd.counts}


def test_enumerate_fiber_matches_naive(rng):
    for cards in [(2, 2), (2, 3), (2, 2, 2)]:
        sp = ConfigSpace(cards)
        for _ in range(8):
            cx = random_complex(rng, len(cards))
            if not cx.facets:
                continue
            u = random_table(rng, sp, rng.randint(0, 4))
            b = marginal_map(cx, u)
            fib = enumerate_fiber(cx, sp, b)
            expected = naive_fiber(cx, sp, b)
            assert [t.counts for t in fib.tables] == [t.counts for t in expected]


def test_enumerate_fiber_rejects_inconsistent_marginal():
    lay_blocks = marginal_map(INDEPENDENCE, ContingencyTable.zero(B2)).blocks
    # a non-integer entry is refused even when the facet blocks agree
    for entries, error in (((1, 0, 1, 1), "inconsistent"), ((1.5, 0.5, 1, 1), "integers")):
        with pytest.raises(ValueError, match=error):
            enumerate_fiber(INDEPENDENCE, B2, MarginalVector(entries, lay_blocks))
    # a negative integer entry is legal: no table has it, so its fiber is empty
    assert enumerate_fiber(INDEPENDENCE, B2, MarginalVector((-1, 1, 0, 0), lay_blocks)).tables == ()


def test_enumerate_fiber_rejects_facet_free_complex():
    cx = from_facets(2, [])
    with pytest.raises(ValueError, match="no facets"):
        enumerate_fiber(cx, B2, MarginalVector((), ()))


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: enumerate_fiber(INDEPENDENCE, B2, MarginalVector(
        (1, 1, 2), ((frozenset({1}), 2), (frozenset({1, 2}), 1)))),
                 "marginal blocks do not match the complex and space", id="fiber-blocks"),
    pytest.param(lambda: verify_markov_basis(INDEPENDENCE, B2, [], -1),
                 "degree limit must be nonnegative", id="negative-degree-limit"),
    # checked before any search: this run once spent 10^7 assignments first
    pytest.param(lambda: verify_markov_basis(interval_complement(3, {1, 2}), B3,
                                             interval_moves(3, {1, 2}), 2.5),
                 "degree limit must be an integer", id="float-degree-limit"),
    pytest.param(lambda: verify_markov_basis(from_facets(2, []), B2, [], 2),
                 "cannot verify a model with no facets: every fiber is infinite",
                 id="verify-no-facets"),
    pytest.param(lambda: min_binomial_degree(INDEPENDENCE, B2, 0),
                 "k_max must be at least 1", id="binomial-kmax"),
    pytest.param(lambda: min_binomial_degree(INDEPENDENCE, B2, 4.5),
                 "k_max must be an integer", id="binomial-float-kmax"),
])
def test_reject_messages(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def test_fiber_connected_cases():
    b = marginal_map(INDEPENDENCE, ContingencyTable(B2, (1, 0, 0, 1)))
    fib = enumerate_fiber(INDEPENDENCE, B2, b)
    swap = interval_move(2, {1, 2}, ())

    rep = fiber_connected(fib, [swap])
    assert rep.connected and rep.components == 1 and rep.witness is None

    rep = fiber_connected(fib, [])
    assert not rep.connected and rep.components == 2
    u, v = rep.witness
    assert u.counts == (0, 1, 1, 0) and v.counts == (1, 0, 0, 1)

    parity_fiber = enumerate_fiber(
        D2_3, B3, marginal_map(D2_3, ContingencyTable(B3, (1, 0, 0, 1, 0, 1, 1, 0))))
    rep = fiber_connected(parity_fiber, [interval_move(3, {1, 2, 3}, ())])
    assert rep.connected


def test_fiber_connected_rejects_non_kernel_move():
    b = marginal_map(INDEPENDENCE, ContingencyTable(B2, (1, 0, 0, 1)))
    fib = enumerate_fiber(INDEPENDENCE, B2, b)
    with pytest.raises(ValueError, match="kernel"):
        fiber_connected(fib, [Move(B2, (1, 0, 0, -1))])
    with pytest.raises(ValueError, match="space"):
        fiber_connected(fib, [interval_move(3, {1, 2, 3}, ())])


def test_verify_markov_interval_models_pass():
    rep = verify_markov_basis(interval_complement(3, {1, 2, 3}), B3,
                              interval_moves(3, {1, 2, 3}), 6)
    assert rep.passed

    rep = verify_markov_basis(interval_complement(3, {2, 3}), B3,
                              interval_moves(3, {2, 3}), 6)
    assert rep.passed


def test_verify_markov_fails_without_moves():
    rep = verify_markov_basis(D2_3, B3, [], 4)
    assert not rep.passed
    bad = rep.witness
    assert bad.fiber.marginal.degree == 4
    assert bad.fiber.size == 2
    u, v = bad.report.witness
    assert {u.counts, v.counts} == {
        (1, 0, 0, 1, 0, 1, 1, 0), (0, 1, 1, 0, 1, 0, 0, 1)
    }


def assert_matches_table_sweep(cx, sp, moves, limit):
    """Verdict, witness marginal and witness pair equal the table-sweep oracle's."""
    got = verify_markov_basis(cx, sp, moves, limit)
    want = naive_verify_markov(cx, sp, moves, limit)
    assert got.passed == want.passed
    if not got.passed:
        assert got.witness.fiber.marginal == want.witness.fiber.marginal
        assert got.witness.report.witness == want.witness.report.witness
    return got


def test_verify_markov_methods_agree():
    # the kernel-vector fiber method against the table sweep
    for n in (2, 3):
        sp = binary_space(n)
        for g_size in range(1, n + 1):
            for g in combinations(range(1, n + 1), g_size):
                cx = interval_complement(n, g)
                moves = list(interval_moves(n, g))
                limit = 2 * 2 ** (g_size - 1) + 2
                assert assert_matches_table_sweep(cx, sp, moves, limit).passed
                if len(moves) > 1:
                    assert not assert_matches_table_sweep(cx, sp, moves[1:], limit).passed


def test_verify_markov_methods_agree_on_random_moves():
    # a non-interval complex: d2 with its parity move, and with no moves
    parity = interval_move(3, {1, 2, 3}, ())
    for limit in (4, 6):
        assert_matches_table_sweep(D2_3, B3, [parity], limit)
        assert not assert_matches_table_sweep(D2_3, B3, [], limit).passed


def test_verify_markov_agrees_with_table_sweep_on_interval_move_subsets():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=40, deadline=None, database=None, derandomize=True)
    @hypothesis.given(g=st.sampled_from([g for r in (1, 2, 3)
                                         for g in combinations((1, 2, 3), r)]),
                      limit=st.integers(1, 6), data=st.data())
    def check(g, limit, data):
        moves = list(interval_moves(3, g))
        keep = data.draw(st.lists(st.booleans(), min_size=len(moves), max_size=len(moves)))
        chosen = [m for m, k in zip(moves, keep) if k]
        assert_matches_table_sweep(interval_complement(3, g), B3, chosen, limit)

    check()


def test_verify_markov_agrees_with_table_sweep_off_binary_interval_models():
    # moves drawn from the kernel vectors of the least degree carrying any:
    # 4 for d2 over 3,2,2 (it has none of degree 2), 2 for independence over 3,3
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    cases = []
    for cx, sp, degree in ((D2_3, ConfigSpace((3, 2, 2)), 4),
                           (INDEPENDENCE, ConfigSpace((3, 3)), 2)):
        vectors = sorted(naive_kernel_vectors(cx, sp, degree))
        cases.append((cx, sp, [Move(sp, v) for v in vectors]))

    @hypothesis.settings(max_examples=40, deadline=None, database=None, derandomize=True)
    @hypothesis.given(case=st.sampled_from(cases), limit=st.integers(1, 6), data=st.data())
    def check(case, limit, data):
        cx, sp, moves = case
        keep = data.draw(st.lists(st.booleans(), min_size=len(moves), max_size=len(moves)))
        chosen = [m for m, k in zip(moves, keep) if k]
        assert_matches_table_sweep(cx, sp, chosen, limit)

    check()


def test_one_support_class_fibers_are_connected():
    # the induction behind the class check, on every fiber verify_markov_basis
    # checks for the interval moves of 2^4 G={1,2} up to degree 6
    cx, sp = interval_complement(4, {1, 2}), binary_space(4)
    lay, moves = layout(cx, sp), interval_moves(4, {1, 2})
    marginals = {lay.marginal_entries(tuple(max(v, 0) for v in vec))
                 for vec in fiber._kernel_vectors(lay, 6, Budget(None))}
    accepted = 0
    for entries in marginals:
        fib = enumerate_fiber(cx, sp, MarginalVector(entries, lay.blocks()))
        if fiber._one_support_class([t.counts for t in fib.tables]):
            accepted += 1
            assert fiber_connected(fib, moves).connected
    # 4 of the 34 fibers keep two or more classes and need the move search
    assert (accepted, len(marginals)) == (30, 34)


def test_verify_markov_rejects_non_kernel_move():
    with pytest.raises(ValueError, match="kernel"):
        verify_markov_basis(INDEPENDENCE, B2, [Move(B2, (1, 0, 0, 0))], 4)


def fiber_charge(lay, entries):
    """What walking one fiber on a layout charges: the assignments of its
    walks and, on a cone split, the tables of the product."""
    budget = Budget(None)
    fiber._fiber(lay, entries, budget)
    return budget.used


def kernel_search_charge(lay, limit):
    budget = Budget(None)
    list(fiber._kernel_vectors(lay, limit, budget))
    return budget.used


def checked_marginals(lay, limit):
    """The marginals of the positive parts of the kernel vectors of degree
    <= limit, with their degrees: the fibers the degree loop walks."""
    plus = [tuple(max(v, 0) for v in vec)
            for vec in fiber._kernel_vectors(lay, limit, Budget(None))]
    return {(sum(p), lay.marginal_entries(p)) for p in plus}


def test_fiber_method_respects_ceiling():
    # 2^4 G={1} splits at its one facet {2,3,4}: the slice model is one binary
    # variable whose only facet is empty, with the marginal (k) at degree k
    cx, sp = interval_complement(4, {1}), binary_space(4)
    moves = interval_moves(4, {1})
    part = fiber._slices(layout(cx, sp)).part
    assert part.space.n == 1 and part.nrows == 1
    run = kernel_search_charge(part, 4) + sum(fiber_charge(part, (k,)) for k in (1, 2, 3, 4))
    assert verify_markov_basis(cx, sp, moves, 4, ceiling=run).passed
    with pytest.raises(ResourceCeilingError, match=rf"more than {run - 1} enumerated tables"
                                                   r" \(fiber enumeration, degree 4\)$"):
        verify_markov_basis(cx, sp, moves, 4, ceiling=run - 1)


def test_verify_markov_ceiling_covers_fibers_too(monkeypatch):
    # a move spanning two slices makes the whole model its own slice: its
    # kernel search, and then every checked fiber's slice walks and product
    # tables, count against one ceiling
    cx, sp = interval_complement(4, {1, 2}), binary_space(4)
    lay = layout(cx, sp)
    moves = interval_moves(4, {1, 2})
    moves += (Move(sp, tuple(map(sum, zip(moves[0].vector, moves[1].vector)))),)
    kernel = kernel_search_charge(lay, 6)
    charges = {d: 0 for d in (2, 4, 6)}
    for d, entries in checked_marginals(lay, 6):
        charges[d] += fiber_charge(lay, entries)
    run = kernel + sum(charges.values())
    assert verify_markov_basis(cx, sp, moves, 6, ceiling=run).passed
    with pytest.raises(ResourceCeilingError, match=rf"more than {run - 1} enumerated tables"
                                                   r" \(fiber enumeration, degree 6\)$"):
        verify_markov_basis(cx, sp, moves, 6, ceiling=run - 1)
    # the kernel search alone fits and leaves no room for any fiber; the error
    # names the run's ceiling and the phase
    with pytest.raises(ResourceCeilingError, match=rf"more than {kernel} enumerated"
                                                   r" tables \(fiber enumeration, degree 2\)$"):
        verify_markov_basis(cx, sp, moves, 6, ceiling=kernel)
    # at degree limit 4 a ceiling that just fits the kernel search and the
    # slice products of degrees 2 and 4 passes; walked whole, the degree-4
    # fibers cost more
    run = kernel_search_charge(lay, 4) + charges[2] + charges[4]
    assert verify_markov_basis(cx, sp, moves, 4, ceiling=run).passed
    monkeypatch.setattr(fiber, "_slices", lambda lay: None)
    with pytest.raises(ResourceCeilingError, match=rf"more than {run} enumerated tables"
                                                   r" \(fiber enumeration, degree 4\)$"):
        verify_markov_basis(cx, sp, moves, 4, ceiling=run)


def test_verify_markov_slice_path_charges():
    # 2^4 G={1,2} at degree limit 6 is decided on its slice model, the 2x2
    # independence model, whose one marginal per degree d = 2, 4, 6 is
    # (k, k, k, k) with k = d / 2: a fiber of k + 1 tables that the walk
    # reaches in 4 (k + 1) assignments
    cx, sp = interval_complement(4, {1, 2}), binary_space(4)
    moves = interval_moves(4, {1, 2})
    part = fiber._slices(layout(cx, sp)).part

    def walk(k):
        budget = Budget(None)
        assert len(fiber._dfs(part, (k,) * 4, budget)) == k + 1
        return budget.used

    kernel = kernel_search_charge(part, 6)
    assert walk(3) == 16
    # a PASS: the search and the walks of the slice fibers of degrees 2, 4 and 6
    run = kernel + walk(1) + walk(2) + walk(3)
    assert verify_markov_basis(cx, sp, moves, 6, ceiling=run).passed
    with pytest.raises(ResourceCeilingError, match=rf"more than {run - 1} enumerated tables"
                                                   r" \(fiber enumeration, degree 6\)$"):
        verify_markov_basis(cx, sp, moves, 6, ceiling=run - 1)
    with pytest.raises(ResourceCeilingError, match=rf"more than {kernel - 1} enumerated"
                                                   r" tables \(kernel-vector search, degree 6\)$"):
        verify_markov_basis(cx, sp, moves, 6, ceiling=kernel - 1)
    # a FAIL without moves: the search and the walk of the slice fiber of
    # degree 2; the witness is that fiber lifted into slice 0, with zeros in
    # the other three, and costs nothing more
    rep = verify_markov_basis(cx, sp, [], 6)
    assert rep.witness.fiber.size == 2 and rep.fibers_checked == 4
    run = kernel + walk(1)
    assert not verify_markov_basis(cx, sp, [], 6, ceiling=run).passed
    with pytest.raises(ResourceCeilingError, match=rf"more than {run - 1} enumerated tables"
                                                   r" \(fiber enumeration, degree 2\)$"):
        verify_markov_basis(cx, sp, [], 6, ceiling=run - 1)
    # a --drop-move FAIL: slice 0 loses its one move and the other three
    # slices keep theirs, so the slices form two groups; the degree-2 slice
    # fiber is walked once for both, and the run stops at degree 2, where
    # slice 0 fails, with no walk of degree 4 or 6 for the other group
    rep = verify_markov_basis(cx, sp, moves[1:], 6)
    assert not rep.passed and rep.witness.fiber.marginal.degree == 2
    run = kernel + walk(1)
    assert verify_markov_basis(cx, sp, moves[1:], 6, ceiling=run) == rep
    with pytest.raises(ResourceCeilingError, match=rf"more than {run - 1} enumerated tables"
                                                   r" \(fiber enumeration, degree 2\)$"):
        verify_markov_basis(cx, sp, moves[1:], 6, ceiling=run - 1)
    # 34 marginals are counted, though only the 3 slice fibers charged
    # above were built
    assert verify_markov_basis(cx, sp, moves, 6).fibers_checked == 34


def counted_work(monkeypatch):
    """A counter of a run's work, kept apart from its budget: every
    assignment of the kernel-vector search and of the fiber walks.  The runs
    it counts build no product of slice fibers: the slice model has no cone
    point, and the whole-model path withholds the split."""
    work = [0]

    class Tee:
        def __init__(self, budget):
            self.budget = budget

        def spend(self, k=1):
            work[0] += k
            self.budget.spend(k)

    for name in ("_kernel_vectors", "_dfs"):
        search = getattr(fiber, name)
        monkeypatch.setattr(fiber, name, lambda lay, arg, budget, search=search:
                            search(lay, arg, Tee(budget)))
    return work


def test_verify_markov_ceiling_bounds_the_work(monkeypatch):
    # the least passing ceiling of a run is the work it does, on the slice
    # path and on the whole model (the cone split withheld), PASS and FAIL
    cx, sp = interval_complement(5, {1, 2}), binary_space(5)
    moves = interval_moves(5, {1, 2})
    for whole in (False, True):
        with monkeypatch.context() as patch:
            if whole:
                patch.setattr(fiber, "_slices", lambda lay: None)
            work = counted_work(patch)
            for chosen in (moves, moves[1:]):
                work[0] = 0
                rep = verify_markov_basis(cx, sp, chosen, 6)
                ceiling, work[0] = work[0], 0
                assert verify_markov_basis(cx, sp, chosen, 6, ceiling=ceiling) == rep
                assert work[0] <= ceiling
                with pytest.raises(ResourceCeilingError, match=rf"more than {ceiling - 1} "):
                    verify_markov_basis(cx, sp, chosen, 6, ceiling=ceiling - 1)


def kernel_search_sizes(monkeypatch):
    """Record the number of cells of each model the kernel-vector search runs
    on: the slice model's on the slice path, the full model's otherwise."""
    sizes = []
    search = fiber._kernel_vectors

    def counted(lay, bound, budget):
        sizes.append(lay.space.size)
        return search(lay, bound, budget)

    monkeypatch.setattr(fiber, "_kernel_vectors", counted)
    return sizes


def whole_model_report(monkeypatch, cx, sp, moves, limit):
    """`verify_markov_basis` with the cone split withheld: the whole-model path."""
    with monkeypatch.context() as patch:
        patch.setattr(fiber, "_slices", lambda lay: None)
        return verify_markov_basis(cx, sp, moves, limit)


def assert_witness_rebuilds(cx, sp, moves, rep):
    """A FAIL's witness, lifted from a slice fiber, is the fiber the public
    functions build for its marginal, tables in order, with their report."""
    if not rep.passed:
        fib = rep.witness.fiber
        assert fib == enumerate_fiber(cx, sp, fib.marginal)
        assert rep.witness.report == fiber_connected(fib, moves)


def test_verify_markov_slice_path_matches_whole_model_on_interval_complements(monkeypatch):
    # every interval_complement(n, G) with n <= 5 at criterion 6's degree
    # limits, with all interval moves, none, and each one dropped; G of every
    # index has no shared variable and no split.  The five one-facet models
    # on 2^5 relabel one another and take seconds per whole-model run, so
    # only G={1} runs there, with all its moves and with its last one dropped
    runs = 0
    for n in (3, 4, 5):
        sp = binary_space(n)
        for g_size in range(1, n + 1):
            for g in combinations(range(1, n + 1), g_size):
                cx = interval_complement(n, g)
                if fiber._slices(layout(cx, sp)) is None:
                    assert g_size == n
                    continue
                limit = 2 ** g_size + 2
                moves = interval_moves(n, g)
                dropped = [moves[:i] + moves[i + 1:] for i in range(len(moves))]
                choices = [moves, ()] + dropped
                if (n, g_size) == (5, 1):
                    if g != (1,):
                        continue
                    choices = [moves, dropped[-1]]
                for chosen in choices:
                    want = whole_model_report(monkeypatch, cx, sp, chosen, limit)
                    with monkeypatch.context() as patch:
                        sizes = kernel_search_sizes(patch)
                        got = verify_markov_basis(cx, sp, chosen, limit)
                        assert got == want
                    assert sizes == [2 ** g_size]
                    assert_witness_rebuilds(cx, sp, chosen, got)
                    runs += 1
    assert runs == 304


def test_verify_markov_slice_path_matches_whole_model_on_move_subsets(monkeypatch):
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    # cones over one variable, with moves drawn from the kernel vectors of
    # degree <= 4 whose support lies in one slice (so slices may get unequal
    # move sets), and optionally one vector that spans two slices, which
    # sends the run to the whole model
    cases = []
    for facets in ([{1, 3}, {2, 3}], [{1, 2}, {1, 3}]):
        cx = from_facets(3, facets)
        for cards in ((3, 2, 3), (3, 3, 2), (2, 3, 2), (2, 2, 3)):
            sp = ConfigSpace(cards)
            split = fiber._slices(layout(cx, sp))
            cells = [set(c) for c in split.cells]
            single, spanning = [], []
            for v in sorted(naive_kernel_vectors(cx, sp, 4)):
                support = {ix for ix, x in enumerate(v) if x}
                (single if any(support <= c for c in cells) else spanning).append(Move(sp, v))
            assert single and spanning
            cases.append((cx, sp, split.part.space.size, single, spanning))
    outcomes = set()

    @hypothesis.settings(max_examples=80, deadline=None, database=None, derandomize=True)
    @hypothesis.given(case=st.sampled_from(cases), limit=st.integers(0, 5), data=st.data())
    def check(case, limit, data):
        cx, sp, part_size, single, spanning = case
        moves = data.draw(st.lists(st.sampled_from(single), max_size=5, unique=True))
        if data.draw(st.booleans()):
            moves.append(data.draw(st.sampled_from(spanning)))
        want = whole_model_report(monkeypatch, cx, sp, moves, limit)
        with monkeypatch.context() as patch:
            sizes = kernel_search_sizes(patch)
            got = verify_markov_basis(cx, sp, moves, limit)
            assert got == want
        assert_witness_rebuilds(cx, sp, moves, got)
        whole = any(m in spanning for m in moves)
        assert sizes == [sp.size if whole else part_size]
        outcomes.add((whole, want.passed))

    check()
    assert outcomes == {(False, False), (False, True), (True, False), (True, True)}


def test_verify_markov_fibers_checked_closed_form():
    # for G={1,2} the slice model is the 2x2 independence model, with one
    # marginal per even degree, so the marginals of degree <= T number
    # C(#slices + T/2, T/2) - 1: choose how many units of the slice
    # marginal each slice takes
    for n, limit, count in ((6, 8, 4_844), (10, 12, 424_067_747_648)):
        assert count == comb(2 ** (n - 2) + limit // 2, limit // 2) - 1
        rep = verify_markov_basis(interval_complement(n, {1, 2}), binary_space(n),
                                  interval_moves(n, {1, 2}), limit)
        assert rep == MarkovReport(True, limit, count, None)


def test_min_binomial_degree_independence():
    got = min_binomial_degree(INDEPENDENCE, B2, 2)
    assert got is not None
    k, move = got
    assert k == 2
    assert move.vector == (1, -1, -1, 1)


def test_min_binomial_degree_d2_binary():
    k, move = min_binomial_degree(D2_3, B3, 4)
    assert k == 4
    pos, neg, deg = move_supports(move)
    assert deg == 4
    assert set(pos) == {(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)}
    assert set(neg) == {(0, 0, 1), (0, 1, 0), (1, 0, 0), (1, 1, 1)}


def test_min_binomial_degree_none_when_bound_too_small():
    assert min_binomial_degree(D2_3, B3, 3) is None


def test_min_binomial_degree_interval_models_attain_bound():
    for n in (2, 3, 4):
        sp = binary_space(n)
        for g_size in range(1, n + 1):
            g = tuple(range(1, g_size + 1))
            cx = interval_complement(n, g)
            k, move = min_binomial_degree(cx, sp, 2 ** (g_size - 1))
            assert k == 2 ** (g_size - 1)
            pos, neg, _ = move_supports(move)
            assert len(pos) >= 2 ** (g_size - 1)
            assert len(neg) >= 2 ** (g_size - 1)
            assert all(abs(v) <= 1 for v in move.vector)


def test_min_binomial_degree_respects_theorem_bound(rng):
    for n in (2, 3):
        sp = binary_space(n)
        for _ in range(10):
            cx = random_complex(rng, n)
            try:
                g = cx.min_nonface_cardinality()
            except ValueError:
                continue
            if g < 1:
                continue
            found = min_binomial_degree(cx, sp, 2 ** (g - 1), ceiling=200000)
            if found is not None:
                k, move = found
                assert k == 2 ** (g - 1)
                pos, neg, _ = move_supports(move)
                assert len(pos) >= 2 ** (g - 1) and len(neg) >= 2 ** (g - 1)


def test_min_binomial_degree_matches_oracle():
    for cx in all_complexes(3):
        for cards in [(2, 2, 2), (3, 2, 2), (2, 3, 2), (2, 2, 3), (3, 3, 2), (2, 3, 3)]:
            sp = ConfigSpace(cards)
            for k_max in range(1, 5):
                got = min_binomial_degree(cx, sp, k_max)
                want = naive_min_binomial_degree(cx, sp, k_max)
                assert (got is None) == (want is None), (cx, cards, k_max)
                if got is not None:
                    assert got[0] == want[0] and got[1].vector == want[1].vector


def test_min_binomial_degree_charges_each_scanned_table_once():
    # no binomial of degree <= 3 on d2, whose incumbent has degree 4: one
    # kernel-vector search at degree 3 runs to its end, finds nothing, and
    # no table is scanned
    lay = layout(D2_3, B3)
    searched = Budget(None)
    assert next(fiber._kernel_vectors(lay, 3, searched), None) is None
    assert searched.used == 16
    assert min_binomial_degree(D2_3, B3, 3, ceiling=searched.used) is None
    with pytest.raises(ResourceCeilingError, match=r"\(kernel-vector search, degree 3\)$"):
        min_binomial_degree(D2_3, B3, 3, ceiling=searched.used - 1)

    # u(4,3) over 2^4: the incumbent has degree 8, the one search at degree
    # 7 finds nothing, and the degree-8 witness search charges every
    # assignment of its key-pruned walk; no table is scanned
    cx, sp = uniform_complex(4, 3), binary_space(4)
    lay = layout(cx, sp)
    searched = Budget(None)
    assert next(fiber._kernel_vectors(lay, 7, searched), None) is None
    witness = Budget(None)
    *_, least = fiber._kernel_vectors(lay, 8, witness, least=True)
    k, move = min_binomial_degree(cx, sp, 8)
    assert k == 8 and move.vector == least and all(abs(v) == 1 for v in least)
    run = searched.used + witness.used
    assert (searched.used, witness.used) == (39, 18)
    assert min_binomial_degree(cx, sp, 8, ceiling=run) == (8, move)
    with pytest.raises(ResourceCeilingError, match=r"\(witness search, degree 8\)$"):
        min_binomial_degree(cx, sp, 8, ceiling=run - 1)
    with pytest.raises(ResourceCeilingError, match=r"\(kernel-vector search, degree 7\)$"):
        min_binomial_degree(cx, sp, 8, ceiling=searched.used - 1)


def _searched_bounds(monkeypatch) -> list[int]:
    """The bounds of the kernel-vector searches (not the witness searches)
    that the run makes from here on, appended as each one starts."""
    search, bounds = fiber._kernel_vectors, []

    def counted(lay, bound, budget, least=False):
        if not least:
            bounds.append(bound)
        return search(lay, bound, budget, least=least)

    monkeypatch.setattr(fiber, "_kernel_vectors", counted)
    return bounds


@pytest.mark.parametrize("patch", ["none", "doubled"])
def test_min_binomial_degree_does_not_rest_on_the_incumbent(monkeypatch, patch):
    # with no start degree the first search is at k_max; with the start
    # degree doubled, twice the least degree, the first search finds a
    # vector and the loop tightens the bound: the result is the same
    cases = [(cx, ConfigSpace(cards), k_max) for cards in ((2, 2, 2), (3, 2, 2), (3, 3, 2))
             for cx in all_complexes(3) if cx.facets for k_max in (1, 2, 4)]
    want = [min_binomial_degree(*case) for case in cases]
    real = fiber._start_degree
    monkeypatch.setattr(fiber, "_start_degree", {
        "none": lambda cx, k_max: k_max + 1,
        "doubled": lambda cx, k_max: 2 * real(cx, k_max)}[patch])
    bounds = _searched_bounds(monkeypatch)
    tightened = 0
    for case, unpatched in zip(cases, want):
        del bounds[:]
        got = min_binomial_degree(*case)
        oracle = naive_min_binomial_degree(*case)
        assert got == unpatched, case
        assert (got is None) == (oracle is None), case
        if got is not None:
            assert got[0] == oracle[0] and got[1].vector == oracle[1].vector, case
        tightened += len(bounds) > 1
    assert tightened > 0


def test_min_binomial_degree_matches_oracle_at_every_k_max():
    # k_max from 1 to 2^(g-1) + 2, each search at min(k_max, best - 1); the
    # full power set has a zero kernel and no g, so it is run to k_max 3
    for cards in product((2, 3), repeat=3):
        sp = ConfigSpace(cards)
        for cx in all_complexes(3):
            if not cx.facets:
                continue
            full = cx.is_face({1, 2, 3})
            top = 3 if full else 2 ** (cx.min_nonface_cardinality() - 1) + 2
            # the oracle scans degrees upwards, so at a lower k_max it
            # returns the same pair when its degree fits and None otherwise
            oracle = naive_min_binomial_degree(cx, sp, top)
            assert (oracle is None) == full
            for k_max in range(1, top + 1):
                got = min_binomial_degree(cx, sp, k_max)
                if oracle is None or oracle[0] > k_max:
                    assert got is None, (cx, cards, k_max)
                else:
                    assert got[0] == oracle[0] and got[1].vector == oracle[1].vector, (cx, cards, k_max)


def test_min_binomial_degree_agrees_with_oracle_on_four_variables():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    # every complex on 4 indices, the facet-free one and {empty set} included
    complexes = [*all_complexes(4), from_facets(4, [set()])]
    spaces = [(2, 2, 2, 2), (3, 2, 2, 2), (2, 3, 2, 2), (2, 2, 3, 2), (2, 2, 2, 3)]

    @hypothesis.settings(max_examples=40, deadline=None, database=None, derandomize=True)
    @hypothesis.given(cx=st.sampled_from(complexes), cards=st.sampled_from(spaces),
                      k_max=st.integers(1, 4))
    def check(cx, cards, k_max):
        sp = ConfigSpace(cards)
        got = min_binomial_degree(cx, sp, k_max)
        want = naive_min_binomial_degree(cx, sp, k_max)
        assert (got is None) == (want is None)
        if got is not None:
            assert got[0] == want[0] and got[1].vector == want[1].vector

    check()


def test_min_binomial_degree_on_ten_binary_variables():
    # a large kernel: the existence check stops at its first vector
    cx, sp = from_facets(10, [{1, 2}]), binary_space(10)
    start = time.perf_counter()
    for k_max in (1, 2):
        k, move = min_binomial_degree(cx, sp, k_max)
        assert k == 1
        assert marginal_map(cx, move.positive) == marginal_map(cx, move.negative)
    assert time.perf_counter() - start < 1


def test_min_binomial_degree_witness_is_fiber_pair():
    k, move = min_binomial_degree(D2_3, B3, 4)
    assert marginal_map(D2_3, move.positive) == marginal_map(D2_3, move.negative)
    pos, neg, _ = move_supports(move)
    assert not set(pos) & set(neg)


@pytest.mark.parametrize("cards", [(2, 2, 2, 3), (2, 2, 3, 2), (2, 3, 2, 2), (3, 2, 2, 2)])
def test_min_binomial_degree_matches_oracle_on_relabeled_uniform_complex(cards):
    cx, sp = uniform_complex(4, 2), ConfigSpace(cards)
    got = min_binomial_degree(cx, sp, 4)
    want = naive_min_binomial_degree(cx, sp, 4)
    assert got[0] == want[0] == 4 and got[1].vector == want[1].vector


@pytest.mark.parametrize("n, k_max", [(4, 8), (5, 16)])
def test_min_binomial_degree_sharp_witness_is_the_top_character(n, k_max):
    # the kernel of u(n, n-1) is spanned by the character of [n], so the
    # witness of degree 2^(n-1) is that character, with cell 0 positive
    cx = uniform_complex(n, n - 1)
    (chi,) = kernel_basis(cx)
    want = chi.values if chi.values[0] > 0 else tuple(-v for v in chi.values)
    assert min_binomial_degree(cx, binary_space(n), k_max) == (k_max, Move(binary_space(n), want))


SUPPORT_BOUND_SPACES = [(2, 2), (2, 3), (3, 3), (3, 4),
                        (2, 2, 2), (3, 2, 2), (2, 3, 2), (3, 3, 2), (3, 3, 3),
                        (2, 2, 2, 2), (3, 2, 2, 2), (2, 2, 3, 2)]


def test_least_binomial_degree_is_the_support_bound_and_square_free():
    # every nonzero kernel vector has at least 2^(g-1) positive and 2^(g-1)
    # negative cells, and a minimal non-face's interval move on the binary
    # sub-box has degree 2^(g-1): so that degree is the least, and every
    # kernel vector of it is square-free, which leaves the witness search
    # with a vector at every least degree
    models = 0
    for cards in SUPPORT_BOUND_SPACES:
        sp = ConfigSpace(cards)
        for cx in all_complexes(len(cards)):
            if not cx.facets or cx.is_face(range(1, cx.n + 1)):
                continue
            bound = 2 ** (cx.min_nonface_cardinality() - 1)
            k, move = min_binomial_degree(cx, sp, bound)
            assert k == bound, (cx, cards)
            vectors = list(fiber._kernel_vectors(layout(cx, sp), bound, Budget(None)))
            assert vectors and all(v in (-1, 0, 1) for vec in vectors for v in vec), (cx, cards)
            models += 1
    assert models == 592


def test_missing_square_free_witness_is_an_internal_error(monkeypatch, capsys, tmp_path):
    # the support bound leaves the witness search a vector at every least
    # degree; with that search made to find nothing, the run must fail
    # loudly rather than report a witness by another rule
    search = fiber._kernel_vectors
    monkeypatch.setattr(fiber, "_kernel_vectors", lambda lay, bound, budget, least=False:
                        iter(()) if least else search(lay, bound, budget))
    message = "support bound broken: no square-free vector at degree 4"
    with pytest.raises(AssertionError, match=f"^{re.escape(message)}$"):
        min_binomial_degree(D2_3, ConfigSpace((3, 3, 3)), 4)
    complex_path = tmp_path / "d2.cx"
    complex_path.write_text("3\n1 2\n1 3\n2 3\n")
    assert cli.main(["degree-bound", "--complex", str(complex_path), "--space", "3,3,3"]) == 70
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"margo: internal error: AssertionError({message!r})\n"


def test_tableau():
    u = ContingencyTable(B3, (1, 0, 0, 0, 0, 0, 1, 2))
    assert tableau(u) == "000\n110\n111\n111\n"
    assert tableau(ContingencyTable.zero(B3)) == ""
    assert tableau(ContingencyTable.indicator(B2, (0, 1))) == "01\n"
    # past nine values a line is spaced, as config_str renders it
    wide = ConfigSpace((2, 11))
    u = ContingencyTable(wide, (0,) * 10 + (1,) + (0,) * 3 + (2,) + (0,) * 7)
    assert tableau(u) == "0 10\n1 3\n1 3\n"


def both_signs(vectors):
    """The vectors with their negations: what the search's one-of-each-pair
    output stands for."""
    return {w for vec in vectors for w in (vec, tuple(-v for v in vec))}


@pytest.mark.parametrize("space", [(2, 2, 2), (3, 2, 2), (2, 3, 2), (2, 2, 3)])
def test_kernel_vectors_match_oracle_on_small_complexes(space):
    sp = ConfigSpace(space)
    for cx in all_complexes(3):
        if not cx.facets:
            continue
        lay = layout(cx, sp)
        for bound in range(1, 5):
            got = list(fiber._kernel_vectors(lay, bound, Budget(None)))
            assert len(got) == len(set(got))
            assert both_signs(got) == naive_kernel_vectors(cx, sp, bound), (cx, space, bound)


def test_kernel_vectors_match_oracle_on_interval_complements():
    sp = binary_space(4)
    for g in (g for r in range(1, 5) for g in combinations(range(1, 5), r)):
        cx = interval_complement(4, g)
        lay = layout(cx, sp)
        for bound in range(1, 5):
            got = set(fiber._kernel_vectors(lay, bound, Budget(None)))
            assert both_signs(got) == naive_kernel_vectors(cx, sp, bound), (g, bound)


@pytest.mark.parametrize("cx, cards, bound", [
    (D2_3, (3, 2, 2), 4),
    (INDEPENDENCE, (3, 3), 4),
    (interval_complement(4, {1, 2}), (2, 2, 2, 2), 6),
])
def test_kernel_vectors_yield_one_of_each_sign_pair(cx, cards, bound):
    # the sign cut: the search yields S with S and -S disjoint and S | -S
    # every kernel vector, each with its first nonzero entry in the walk positive
    sp = ConfigSpace(cards)
    lay = layout(cx, sp)
    got = set(fiber._kernel_vectors(lay, bound, Budget(None)))
    negated = {tuple(-v for v in vec) for vec in got}
    assert got and not got & negated
    assert got | negated == naive_kernel_vectors(cx, sp, bound)
    walk = fiber._walk(lay)
    assert all(next(filter(None, (vec[ix] for ix in walk))) > 0 for vec in got)


def test_kernel_walk_order():
    sp5 = binary_space(5)
    assert fiber._walk_order(layout(interval_complement(5, {1, 2}), sp5)) == (3, 4, 5, 1, 2)
    # equal weights keep index order, and the walk is lex order
    lay = layout(uniform_complex(4, 2), binary_space(4))
    assert fiber._walk_order(lay) == (1, 2, 3, 4)
    assert fiber._walk(lay) == list(range(16))
    # a non-lex walk: variable 3 lies in both facets and leads
    lay = layout(from_facets(3, [{1, 3}, {2, 3}]), ConfigSpace((3, 2, 2)))
    assert fiber._walk_order(lay) == (3, 1, 2)
    assert sorted(fiber._walk(lay)) == list(range(12))


def test_kernel_vector_search_nodes_on_interval_complement():
    # lex order took 372,560 assignments here, and the walk order 10,624
    # for all 832 vectors before the sign cut
    budget = Budget(None)
    vectors = list(fiber._kernel_vectors(layout(interval_complement(5, {1, 2}),
                                                binary_space(5)), 6, budget))
    assert len(vectors) == 416
    assert budget.used == 5_328


def test_enumerate_fiber_on_ten_binary_variables():
    # 1024 configurations, more than the default recursion limit: the slice
    # product of 2^10 G={1,2}, and the full walk on a complex without a cone point
    sp = binary_space(10)
    u = ContingencyTable.indicator(sp, (0,) * 10)
    sliced, walked = interval_complement(10, {1, 2}), uniform_complex(10, 1)
    assert fiber._slices(layout(sliced, sp)) is not None
    assert fiber._slices(layout(walked, sp)) is None
    for cx in (sliced, walked):
        assert enumerate_fiber(cx, sp, marginal_map(cx, u)).tables == (u,)


def cone_point_complexes():
    """Every complex on <= 4 indices with two or more facets sharing an index."""
    for n in (3, 4):
        for cx in all_complexes(n):
            common = set.intersection(*map(set, cx.facets)) if cx.facets else set()
            if len(cx.facets) >= 2 and common:
                yield cx


def test_enumerate_fiber_matches_naive_on_cone_point_complexes(rng):
    # each complex over the binary cube and with one ternary variable, which
    # is the cone point, another variable of a facet or one in no facet; the
    # fiber keeps, per slice, the distinct projections of its tables in lex order
    complexes = list(cone_point_complexes())
    assert len(complexes) == 41
    for i, cx in enumerate(complexes):
        ternary = tuple(3 if v == i % cx.n else 2 for v in range(cx.n))
        for cards in ((2,) * cx.n, ternary):
            sp = ConfigSpace(cards)
            slices = fiber._slices(layout(cx, sp))
            assert slices is not None
            for degree in (0, 2, 3):
                b = marginal_map(cx, random_table(rng, sp, degree))
                fib = enumerate_fiber(cx, sp, b)
                got = [t.counts for t in fib.tables]
                assert got == [t.counts for t in naive_fiber(cx, sp, b)], (cx, cards, b)
                projections = [sorted({itemgetter(*cells)(t) for t in got})
                               for cells in slices.cells]
                assert list(fib._slice_fibers) == projections, (cx, cards, b)
    # no slice fibers on an empty fiber, or on a complex without a cone point
    cx, sp = interval_complement(4, {1, 2}), binary_space(4)
    empty = enumerate_fiber(cx, sp, infeasible_slices(
        cx, sp, ContingencyTable(sp, (1, 1, 1, 1) + (0,) * 12)))
    assert empty.tables == () and empty._slice_fibers is None
    walked = uniform_complex(3, 1)
    assert fiber._slices(layout(walked, B3)) is None
    u = ContingencyTable(B3, (1, 0, 0, 1, 0, 1, 1, 0))
    fib = enumerate_fiber(walked, B3, marginal_map(walked, u))
    assert fib.size > 1 and fib._slice_fibers is None


def test_enumerate_fiber_splits_one_facet_complexes(rng):
    # a lone facet F splits at x_F over a slice model whose one facet is
    # empty; the full simplex, the lone empty facet and the facet-free
    # complex have no split
    for n in (2, 3, 4):
        assert fiber._slices(layout(from_facets(n, []), binary_space(n))) is None
        for f in chain.from_iterable(combinations(range(1, n + 1), k) for k in range(n + 1)):
            cx = from_facets(n, [f])
            sp = ConfigSpace(tuple(3 if v == 0 else 2 for v in range(n)))
            split = fiber._slices(layout(cx, sp))
            if len(f) in (0, n):
                assert split is None
                continue
            assert split.part.complex.facets == (frozenset(),)
            for degree in (0, 2, 3):
                b = marginal_map(cx, random_table(rng, sp, degree))
                got = [t.counts for t in enumerate_fiber(cx, sp, b).tables]
                assert got == [t.counts for t in naive_fiber(cx, sp, b)], (cx, b)


def test_product_fibers_equal_the_whole_walk(rng, monkeypatch):
    # cone-point complexes cut into three or more slices, with ternary
    # variables inside the slices or on the cone point, at degrees 0-5: the
    # product's tables equal the whole-model walk's (the split withheld) and,
    # where it has at most 5,000 tables to filter, naive_fiber's; the slice
    # fibers are the walk's distinct projections, in lex order
    cases = [(interval_complement(4, {1, 2}), ConfigSpace((3, 2, 2, 2))),  # 4 slices, 3x2
             (interval_complement(4, {1, 2}), ConfigSpace((2, 2, 3, 2))),  # 6 slices, 2x2
             (interval_complement(4, {1, 2, 3}), ConfigSpace((2, 2, 2, 3))),  # 3, 2x2x2
             (from_facets(3, [{1, 3}, {2, 3}]), ConfigSpace((3, 3, 3))),  # 3 slices, 3x3
             (from_facets(3, [{1, 3}, {2, 3}]), ConfigSpace((2, 3, 3))),  # 3 slices, 2x3
             (from_facets(3, [{1, 3}, {2, 3}]), ConfigSpace((2, 2, 3)))]  # 3 slices, 2x2
    # on the first model, slice 0's two tables agree at their first cell and
    # slice 1's differ there, so the product order is not lex order
    tie = ContingencyTable(cases[0][1], tuple(int(ix in (5, 9, 12, 16)) for ix in range(24)))
    unsorted = 0
    for cx, sp in cases:
        split = fiber._slices(layout(cx, sp))
        assert len(split.cells) >= 3
        tables = [random_table(rng, sp, degree) for degree in range(6)]
        for u in tables + ([tie] if (cx, sp) == cases[0] else []):
            degree = u.degree
            b = marginal_map(cx, u)
            fib = enumerate_fiber(cx, sp, b)
            with monkeypatch.context() as patch:
                patch.setattr(fiber, "_slices", lambda lay: None)
                whole = enumerate_fiber(cx, sp, b)
            got = [t.counts for t in fib.tables]
            assert got == [t.counts for t in whole.tables], (cx, sp, b)
            if comb(degree + sp.size - 1, degree) <= 5_000:
                assert got == [t.counts for t in naive_fiber(cx, sp, b)], (cx, sp, b)
            assert whole._slice_fibers is None
            assert list(fib._slice_fibers) == [sorted({itemgetter(*cells)(t) for t in got})
                                               for cells in split.cells], (cx, sp, b)
            # the product's own order, the first slice outermost, before the sort
            joined = [fiber._lift(sp.size, *zip(split.cells, heads))
                      for heads in product(*fib._slice_fibers)]
            assert sorted(joined) == got
            unsorted += joined != got
    assert unsorted  # the sort is exercised


def assert_public_tables(fib):
    """The fiber's tables, wrapped unchecked, equal, hash and repr like
    tables built by the public constructor, with tuples of ints as counts."""
    public = tuple(ContingencyTable(fib.space, t.counts) for t in fib.tables)
    assert fib.tables == public
    assert list(map(hash, fib.tables)) == list(map(hash, public))
    assert list(map(repr, fib.tables)) == list(map(repr, public))
    for t in fib.tables:
        assert type(t) is ContingencyTable and t.space is fib.space
        assert type(t.counts) is tuple and all(type(c) is int for c in t.counts)


def test_enumerate_fiber_tables_match_public_construction(rng):
    # the complexes of the naive fiber tests: every cone-point complex over
    # the binary cube and with one ternary variable, and every complex with
    # a facet over 2,2, 2,3 and 2,2,2, on the product and the walked path
    cases = [(cx, ConfigSpace(cards)) for i, cx in enumerate(cone_point_complexes())
             for cards in ((2,) * cx.n, tuple(3 if v == i % cx.n else 2 for v in range(cx.n)))]
    cases += [(cx, ConfigSpace(cards)) for cards in ((2, 2), (2, 3), (2, 2, 2))
              for cx in all_complexes(len(cards)) if cx.facets]
    paths = set()
    for cx, sp in cases:
        for degree in (0, 2, 3):
            fib = enumerate_fiber(cx, sp, marginal_map(cx, random_table(rng, sp, degree)))
            assert fib.size >= 1
            assert_public_tables(fib)
            paths.add(fib._slice_fibers is None)
    assert paths == {True, False}


def test_enumerate_fiber_tables_have_no_negative_entry():
    # the walk never forces a negative value, so a marginal with a negative
    # entry has an empty fiber; on the full simplex the marginal is the
    # table itself, and a forced negative entry once slipped through to the
    # public constructor's check
    simplex = from_facets(2, [{1, 2}])
    blocks = marginal_map(simplex, ContingencyTable.zero(B2)).blocks
    assert enumerate_fiber(simplex, B2, MarginalVector((-1, 2, 0, 0), blocks)).tables == ()
    for cx in all_complexes(2):
        if not cx.facets:
            continue
        lay = layout(cx, B2)
        for entries in product(range(-1, 3), repeat=lay.nrows):
            b = MarginalVector(entries, lay.blocks())
            if not b.is_consistent():
                continue
            fib = enumerate_fiber(cx, B2, b)
            for t in fib.tables:
                assert min(t.counts) >= 0 and marginal_map(cx, t) == b
            if min(entries) < 0:
                assert fib.tables == ()


def test_public_table_constructions_keep_their_checks(monkeypatch):
    # test_table_validation pins the constructor's and parse_table's checks;
    # a table from enumerate_fiber is rebuilt, and checked, by replace
    cx, sp = interval_complement(4, {1, 2}), binary_space(4)
    fib = enumerate_fiber(cx, sp, marginal_map(cx, ContingencyTable(sp, (1,) * 16)))
    t = fib.tables[0]
    assert dataclasses.replace(t) == t
    with pytest.raises(ValueError, match="^expected 16 entries, got 17$"):
        dataclasses.replace(t, counts=t.counts + (0,))
    with pytest.raises(ValueError, match="^table entries must be nonnegative$"):
        dataclasses.replace(t, counts=(-1,) + t.counts[1:])
    # a hand-built fiber gets its tables from the public constructor
    with pytest.raises(ValueError, match="^table entries must be nonnegative$"):
        Fiber(cx, sp, fib.marginal, fib.tables[:1] + (ContingencyTable(sp, (-1,) + (1,) * 15),))
    with pytest.raises(ValueError, match="^expected 16 entries, got 15$"):
        dataclasses.replace(fib, tables=(ContingencyTable(sp, (1,) * 15),))

    # only enumerate_fiber wraps unchecked: the connectivity witness and the
    # lifted verify_markov_basis witness fiber are checked table by table
    checked = []
    post_init = ContingencyTable.__post_init__
    monkeypatch.setattr(ContingencyTable, "__post_init__",
                        lambda self: checked.append(self) or post_init(self))
    moves = interval_moves(4, {1, 2})
    fib = enumerate_fiber(cx, sp, fib.marginal)
    assert checked == []
    report = fiber_connected(fib, moves[1:])
    assert report.components > 1 and list(map(id, checked)) == [id(report.witness[1])]
    checked.clear()
    witness = verify_markov_basis(cx, sp, moves[1:], 4).witness
    assert set(map(id, witness.fiber.tables)) <= set(map(id, checked))


def test_enumerate_fiber_on_the_benchmark_model_has_the_closed_form_size():
    # X1 independent of X2 given (X3, X4), as on the fibers benchmark: per
    # slice a 2x2 table, whose fiber holds its least margin + 1 tables
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    cx, sp = interval_complement(4, {1, 2}), binary_space(4)
    moves = interval_moves(4, {1, 2})

    @hypothesis.settings(max_examples=60, deadline=None, database=None, derandomize=True)
    @hypothesis.given(cells=st.lists(st.integers(0, 15), max_size=12))
    def check(cells):
        u = ContingencyTable(sp, tuple(cells.count(ix) for ix in range(16)))
        fib = enumerate_fiber(cx, sp, marginal_map(cx, u))
        size = 1
        for z in range(4):
            a, b, c, d = (u.counts[x1 << 3 | x2 << 2 | z] for x1 in (0, 1) for x2 in (0, 1))
            size *= min(a + b, c + d, a + c, b + d) + 1
        assert fib.size == size
        got = [t.counts for t in fib.tables]
        assert u.counts in got and got == sorted(set(got))
        assert_public_tables(fib)
        assert fiber_connected(fib, moves).connected

    check()


def test_enumerate_fiber_charges_slice_walks_then_the_product(monkeypatch):
    # 2^4 G={1,2}: the slices at x3x4 = 00 and 11 share a marginal, so three
    # distinct slice marginals are walked; the product holds 3 * 2 * 2 * 3 tables
    cx, sp = interval_complement(4, {1, 2}), binary_space(4)
    u = ContingencyTable(sp, (1, 1, 2, 2, 1, 0, 0, 0, 1, 0, 0, 0, 1, 1, 1, 2))
    b = marginal_map(cx, u)
    split = fiber._slices(layout(cx, sp))
    marginals = [tuple(b.entries[r] for r in rows) for rows in split.rows]
    assert len(set(marginals)) == 3
    walked = Budget(None)
    for entries in set(marginals):
        fiber._dfs(split.part, entries, walked)
    size = enumerate_fiber(cx, sp, b).size
    assert size == 36
    full = Budget(None)
    assert len(fiber._dfs(layout(cx, sp), b.entries, full)) == size
    assert walked.used + size < full.used

    assert enumerate_fiber(cx, sp, b, ceiling=walked.used + size).size == size
    built = []
    monkeypatch.setattr(fiber, "ContingencyTable",
                        lambda *args: built.append(args) or ContingencyTable(*args))
    monkeypatch.setattr(fiber, "_trusted_tables",
                        lambda *args: built.append(args) or _trusted_tables(*args))
    for ceiling in (walked.used, walked.used + size - 1):
        with pytest.raises(ResourceCeilingError,
                           match=rf"^resource ceiling exceeded: more than {ceiling} fiber assignments$"):
            enumerate_fiber(cx, sp, b, ceiling=ceiling)
    assert built == []


def test_completion_table_is_built_once_per_layout(monkeypatch):
    # the walks of two fibers on one model share one completion table; after
    # every functools cache in the package is cleared, as in a fresh process,
    # the next fiber builds it once again
    import margo
    caches = [obj for mod in vars(margo).values()
              if getattr(mod, "__name__", "").startswith("margo.")
              for obj in vars(mod).values() if callable(getattr(obj, "cache_clear", None))]
    completions, calls = fiber._completions, []
    monkeypatch.setattr(fiber, "_completions",
                        lambda *args: calls.append(args) or completions(*args))
    cx, sp = interval_complement(4, {1, 2}), binary_space(4)
    tables = [ContingencyTable(sp, counts) for counts in (tuple(range(16)), (3, 1) * 8)]
    for expected in (1, 2):
        for cache in caches:
            cache.cache_clear()
        for u in tables:
            assert u in enumerate_fiber(cx, sp, marginal_map(cx, u)).tables
        assert len(calls) == expected


def infeasible_slices(cx, sp, u):
    """The marginal of u with one unit of a facet row moved from the last slice
    to the one before it: the facet blocks still agree, but those two slices'
    marginals do not, so they hold no table."""
    b = marginal_map(cx, u)
    slice_rows = fiber._slices(layout(cx, sp)).rows
    entries = list(b.entries)
    entries[slice_rows[-1][0]] -= 1
    entries[slice_rows[-2][0]] += 1
    b = MarginalVector(tuple(entries), b.blocks)
    assert b.is_consistent()
    return b


def test_enumerate_fiber_with_an_empty_slice_is_empty():
    cx, sp = interval_complement(4, {1, 2}), binary_space(4)
    # one unit at x1 = x2 = 0 in each slice x3x4
    b = infeasible_slices(cx, sp, ContingencyTable(sp, (1, 1, 1, 1) + (0,) * 12))
    assert enumerate_fiber(cx, sp, b).tables == ()
    assert naive_fiber(cx, sp, b) == []
    # 2^10 G={1,2}: 256 slices of two tables each.  The fiber of u holds 2^256
    # tables, which its ceiling refuses; with an empty slice, the product of
    # the 254 slices before it is never built, and little is charged
    cx, sp = interval_complement(10, {1, 2}), binary_space(10)
    u = ContingencyTable(sp, tuple(int(x[0] == x[1]) for x in sp.configs()))
    with pytest.raises(ResourceCeilingError, match="fiber assignments"):
        enumerate_fiber(cx, sp, marginal_map(cx, u), ceiling=10 ** 6)
    assert enumerate_fiber(cx, sp, infeasible_slices(cx, sp, u), ceiling=100).tables == ()


def assert_matches_oracle(fib, moves):
    tables = list(fib.tables)
    steps = {m.vector for m in moves} | {tuple(-v for v in m.vector) for m in moves}
    components = _components(tables, steps)
    report = fiber_connected(fib, moves)
    assert (report.size, report.components) == (len(tables), len(components))
    want = None
    if len(components) > 1:
        want = (tables[0], next(v for v in tables if v.counts not in components[0]))
    assert report.witness == want


def test_fiber_connected_agrees_with_component_oracle():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    # moves drawn from the kernel vectors with both parts of degree <= 4, which
    # include entries of +-2 (twice a 2x2 swap, or two swaps sharing a cell)
    cases = []
    for cx, sp in ((INDEPENDENCE, B2), (INDEPENDENCE, ConfigSpace((2, 3))),
                   (interval_complement(3, {1, 2}), B3)):
        vectors = sorted(naive_kernel_vectors(cx, sp, 4))
        assert any(2 in map(abs, v) for v in vectors)
        cases.append((cx, sp, [Move(sp, v) for v in vectors]))

    @hypothesis.settings(max_examples=60, deadline=None, database=None, derandomize=True)
    @hypothesis.given(case=st.sampled_from(cases), data=st.data())
    def check(case, data):
        cx, sp, moves = case
        cells = data.draw(st.lists(st.integers(0, sp.size - 1), max_size=6))
        u = ContingencyTable(sp, tuple(cells.count(ix) for ix in range(sp.size)))
        keep = data.draw(st.lists(st.booleans(), min_size=len(moves), max_size=len(moves)))
        chosen = [m for m, k in zip(moves, keep) if k]
        fib = enumerate_fiber(cx, sp, marginal_map(cx, u))
        for subset in (chosen, []):
            assert_matches_oracle(fib, subset)

    check()
    # the degree-0 fiber, and entries above 127, which need cells wider than a byte
    for cx, sp, moves in cases:
        zero = enumerate_fiber(cx, sp, marginal_map(cx, ContingencyTable.zero(sp)))
        assert_matches_oracle(zero, moves)
        assert fiber_connected(zero, moves).components == 1
    wide = enumerate_fiber(INDEPENDENCE, B2, marginal_map(
        INDEPENDENCE, ContingencyTable(B2, (150, 10, 10, 0))))
    assert wide.size == 11
    for moves in ([], cases[0][2], [Move(B2, (2, -2, -2, 2))]):
        assert_matches_oracle(wide, moves)
    assert fiber_connected(wide, [interval_move(2, {1, 2}, ())]).components == 1


def count_whole_fiber_searches(monkeypatch, sp):
    """Record each call of the packed search on tables of the full space:
    the whole-fiber search, as opposed to a slice's."""
    calls = []
    search = fiber._label_components

    def counted(tables, packed):
        if tables and len(tables[0]) == sp.size:
            calls.append(len(tables))
        return search(tables, packed)

    monkeypatch.setattr(fiber, "_label_components", counted)
    return calls


def slice_cells(cx, sp):
    return fiber._slices(layout(cx, sp)).cells


def test_slices_round_trip():
    # the per-slice cells partition the full cells, and projecting a table
    # onto them and lifting the projections back gives the table
    for cx, sp in ((interval_complement(3, {1, 2}), B3),
                   (interval_complement(4, {1, 2}), binary_space(4)),
                   (interval_complement(4, {1, 2, 3}), binary_space(4)),
                   (from_facets(3, [{1, 3}, {2, 3}]), ConfigSpace((2, 2, 3)))):
        cells = slice_cells(cx, sp)
        assert sorted(chain.from_iterable(cells)) == list(range(sp.size))
        u = ContingencyTable(sp, tuple(ix % 3 for ix in range(sp.size)))
        fib = enumerate_fiber(cx, sp, marginal_map(cx, u))
        assert fib.size > 1
        for t in fib.tables:
            projections = [itemgetter(*c)(t.counts) for c in cells]
            assert fiber._lift(sp.size, *zip(cells, projections)) == t.counts


def test_fiber_connected_product_path_agrees_with_component_oracle(monkeypatch):
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    # cone complexes; moves drawn from the kernel vectors of degree <= 4 whose
    # support lies in one slice (entries of +-2 among them), and optionally one
    # more vector that spans two slices, which sends the search to the whole fiber
    cases = []
    for cx, sp in ((interval_complement(3, {1, 2}), B3),
                   (interval_complement(4, {1, 2}), binary_space(4)),
                   (from_facets(3, [{1, 3}, {2, 3}]), ConfigSpace((2, 2, 3)))):
        cells = [set(c) for c in slice_cells(cx, sp)]
        single, spanning = [], []
        for v in sorted(naive_kernel_vectors(cx, sp, 4)):
            support = {ix for ix, x in enumerate(v) if x}
            (single if any(support <= c for c in cells) else spanning).append(Move(sp, v))
        assert any(2 in map(abs, m.vector) for m in single) and spanning
        cases.append((cx, sp, single, spanning))
    paths = set()

    @hypothesis.settings(max_examples=60, deadline=None, database=None, derandomize=True)
    @hypothesis.given(case=st.sampled_from(cases), data=st.data())
    def check(case, data):
        cx, sp, single, spanning = case
        cells = data.draw(st.lists(st.integers(0, sp.size - 1), max_size=8))
        u = ContingencyTable(sp, tuple(cells.count(ix) for ix in range(sp.size)))
        # few moves, so that often two or more slices are disconnected at once
        moves = data.draw(st.lists(st.sampled_from(single), max_size=4, unique=True))
        if data.draw(st.booleans()):
            moves.append(data.draw(st.sampled_from(spanning)))
        fib = enumerate_fiber(cx, sp, marginal_map(cx, u))
        with monkeypatch.context() as patch:
            whole = count_whole_fiber_searches(patch, sp)
            assert_matches_oracle(fib, moves)
        plain = any(m in spanning for m in moves)
        assert whole == ([fib.size] if plain else [])
        paths.add(plain)

    check()
    assert paths == {False, True}


def test_fiber_connected_with_two_disconnected_slices(monkeypatch):
    # dropping the moves of two slices of interval_complement(4, {1, 2})
    # leaves both disconnected; each offers the lex-least table outside the
    # first table's component in that slice, and the witness is the lesser
    cx = interval_complement(4, {1, 2})
    sp = binary_space(4)  # one interval move per slice
    models = [(sp, interval_moves(4, {1, 2}), [
        (1, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1),  # degree 8
        (1, 1, 2, 2, 1, 0, 0, 0, 1, 0, 0, 0, 1, 1, 1, 2),  # degree 13
        (1,) * 16])]                                       # degree 16
    # on 3,2,2,2 the slice fibers of 3x2 tables can first differ at a later
    # cell: here slices 0 and 2 first differ at x1 = 1, slices 1 and 3 at x1 = 0
    sp = ConfigSpace((3, 2, 2, 2))
    swaps = [Move(sp, v) for v in sorted(naive_kernel_vectors(cx, sp, 2))]
    models.append((sp, swaps, [tuple(int(ix in (1, 3, 12, 13, 14, 15, 16, 18))
                                     for ix in range(sp.size))]))
    lesser = set()
    for sp, moves, tables in models:
        cells = [set(c) for c in slice_cells(cx, sp)]

        def slices_of(counts, other):
            return [k for k, c in enumerate(cells) if any(counts[ix] != other[ix] for ix in c)]

        by_slice = [slices_of(m.vector, (0,) * sp.size) for m in moves]
        assert all(len(where) == 1 for where in by_slice)
        for counts in tables:
            fib = enumerate_fiber(cx, sp, marginal_map(cx, ContingencyTable(sp, counts)))
            sizes = [len(part) for part in fib._slice_fibers]
            assert min(sizes) > 1
            for pair in combinations(range(len(cells)), 2):
                kept = [m for m, where in zip(moves, by_slice) if where[0] not in pair]
                with monkeypatch.context() as patch:
                    whole = count_whole_fiber_searches(patch, sp)
                    assert_matches_oracle(fib, kept)
                assert whole == []
                report = fiber_connected(fib, kept)
                assert report.components == prod(sizes[k] for k in pair)
                first, other = report.witness
                [where] = slices_of(other.counts, first.counts)
                lesser.add(pair.index(where))
    # the witness comes from the earlier slice of a pair, and from the later
    assert lesser == {0, 1}


def test_fiber_connected_shares_one_set_up_across_slices(monkeypatch):
    # interval_complement(4, {1, 2}): the 2x2 swap s placed in slice 0, twice
    # it in slice 1, both in slice 2 and nothing in slice 3, so each slice has
    # its own move set; slice 0 holds entries above 127, so every slice is
    # packed wider than a byte.  The search packs each move set once.
    cx, sp = interval_complement(4, {1, 2}), binary_space(4)
    cells = slice_cells(cx, sp)

    def lifted(s, values):
        return fiber._lift(sp.size, (cells[s], values))

    swap, double = (1, -1, -1, 1), (2, -2, -2, 2)
    moves = [Move(sp, lifted(s, v))
             for s, v in ((0, swap), (1, double), (2, swap), (2, double))]
    u = ContingencyTable(sp, tuple(map(sum, zip(
        lifted(0, (150, 10, 10, 0)), lifted(1, (2, 1, 1, 2)),
        lifted(2, (1, 1, 1, 1)), lifted(3, (1, 0, 0, 1))))))
    fib = enumerate_fiber(cx, sp, marginal_map(cx, u))
    assert [len(part) for part in fib._slice_fibers] == [11, 4, 3, 2]
    packed, search = [], fiber._packed_steps
    monkeypatch.setattr(fiber, "_packed_steps",
                        lambda *args: packed.append(args) or search(*args))
    whole = count_whole_fiber_searches(monkeypatch, sp)
    # four, two, two and one distinct move sets over the four slices
    for chosen, sets in ((moves, 4), (moves[:1], 2), (moves[1:2], 2), ([], 1)):
        packed.clear()
        assert_matches_oracle(fib, chosen)
        assert whole == []
        assert len(packed) == sets and {width for _, _, width in packed} == {9}
    # slice 1 splits by parity under twice the swap, slice 3 has no move
    assert fiber_connected(fib, moves).components == 2 * 2


def test_slices_whose_moves_differ_in_order_agree_with_the_oracles(monkeypatch):
    # interval_complement(3, {1, 2}) on 3,2,2 cuts at x3 into two 3x2 slices.
    # The slice model's three swaps a, b, c are placed as a0, b0, c0, c1, b1,
    # a1, so the slices' move lists are equal as sets but not as sequences:
    # a set key puts both slices in one group, a sequence key in two.  Either
    # way the verdicts are the whole model's and the oracles'.
    cx, sp = interval_complement(3, {1, 2}), ConfigSpace((3, 2, 2))
    cells = slice_cells(cx, sp)

    def swap(i, j):  # rows i and j of a 3x2 slice table, cell 2 * row + column
        return tuple((ix in (2 * i, 2 * j + 1)) - (ix in (2 * i + 1, 2 * j)) for ix in range(6))

    a, b, c = swap(0, 1), swap(0, 2), swap(1, 2)
    moves = [Move(sp, fiber._lift(sp.size, (cells[s], v)))
             for s, v in ((0, a), (0, b), (0, c), (1, c), (1, b), (1, a))]
    # PASS, and a FAIL once a0 is dropped
    for chosen, passed in ((moves, True), (moves[1:], False)):
        rep = assert_matches_table_sweep(cx, sp, chosen, 4)
        assert rep.passed is passed
        assert rep == whole_model_report(monkeypatch, cx, sp, chosen, 4)
        assert_witness_rebuilds(cx, sp, chosen, rep)
        for counts in ((1, 1, 1, 0, 0, 1, 1, 0, 1, 1, 0, 1), (2, 1, 0, 1, 1, 1) * 2):
            fib = enumerate_fiber(cx, sp, marginal_map(cx, ContingencyTable(sp, counts)))
            assert fib._slice_fibers is not None and fib.size > 1
            assert_matches_oracle(fib, chosen)


def test_fiber_connected_edge_cases_on_both_paths(monkeypatch):
    cx, sp = interval_complement(4, {1, 2}), binary_space(4)
    moves = interval_moves(4, {1, 2})
    spanning = Move(sp, tuple(map(sum, zip(*(m.vector for m in moves)))))
    whole = count_whole_fiber_searches(monkeypatch, sp)
    u = ContingencyTable(sp, (1, 1, 2, 2, 1, 0, 0, 0, 1, 0, 0, 0, 1, 1, 1, 2))
    fib = enumerate_fiber(cx, sp, marginal_map(cx, u))
    assert fib.size == 36

    # the empty fiber keeps no slice fibers and has no component, with moves
    # in one slice or spanning two
    empty = enumerate_fiber(cx, sp, infeasible_slices(cx, sp, u))
    assert empty.tables == () and empty._slice_fibers is None
    for chosen in (moves, [spanning]):
        assert fiber_connected(empty, chosen) == ConnectivityReport(0, 0, None)

    # the slice fibers are not part of a fiber's value: the same tables built
    # by hand compare and print alike, but carry none
    by_hand = Fiber(cx, sp, fib.marginal, fib.tables)
    assert fib == by_hand and hash(fib) == hash(by_hand) and repr(fib) == repr(by_hand)
    assert fib._slice_fibers is not None and by_hand._slice_fibers is None

    # without moves, every table is its own component on either path; a
    # fiber that enumerate_fiber did not build takes the whole-fiber search:
    # one built by hand (a strict subset, or a sub-box of the product), or
    # one copied with other tables by dataclasses.replace
    subset = Fiber(cx, sp, fib.marginal, fib.tables[1:])
    for f in (fib, subset):
        assert fiber_connected(f, []) == ConnectivityReport(f.size, f.size, f.tables[:2])
    assert whole == [35]
    whole.clear()
    first_slice = itemgetter(*slice_cells(cx, sp)[0])
    box = Fiber(cx, sp, fib.marginal, tuple(
        t for t in fib.tables if first_slice(t.counts) == first_slice(u.counts)))
    assert 1 < box.size < fib.size
    replaced = dataclasses.replace(fib, tables=fib.tables[1:])
    assert replaced._slice_fibers is None
    # the tables in reverse order: the witness is the first table outside the
    # first one's component in the fiber's own order, not in lex order
    backwards = Fiber(cx, sp, fib.marginal, fib.tables[::-1])
    for chosen in ([], moves[:1], moves[1:], moves):
        for f in (subset, box, replaced, backwards):
            assert_matches_oracle(f, chosen)
            assert whole == [f.size]
            whole.clear()

    # no ceiling applies to the connectivity search
    monkeypatch.setenv("MARGO_CEILING", "1")
    assert fiber_connected(fib, moves) == ConnectivityReport(36, 1, None)
