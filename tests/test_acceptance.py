"""Acceptance gate: one test per criterion, each printing a one-line verdict.

Run with `pytest tests/test_acceptance.py -v` to see one pass/fail line per
criterion.  Every check is exact (zero tolerance); the only non-assertion is
the wall-clock figure, which is printed for the record and held to a generous
ceiling rather than a point value.
"""

import itertools
import json
import random
import time

import pytest

from bergecolor import (
    BergeViolation,
    GoodPartition,
    Graph,
    PartialColoring,
    color,
    coloring_to_lines,
    find_good_partition,
    gen_square_free_berge,
    maximal_cliques,
    merge_colorings,
    omega,
    tree_to_dot,
    tree_to_json,
    verify_coloring,
    verify_good_partition,
)
from bergecolor.graphs import bit_list, mask_of

from conftest import complete, complete_minus_star, cycle
from oracles import (
    is_proper_on,
    brute_good_partition,
    brute_good_partition_exists_5n,
    naive_chromatic_number,
    naive_is_berge,
    naive_maximal_cliques,
    naive_squares,
)


def test_criterion_1_end_to_end_optimality(corpus):
    """color() is proper and exactly optimal on the whole corpus; the n <= 14
    subset is cross-checked against an independent exponential oracle."""
    assert len(corpus) >= 200
    t0 = time.perf_counter()
    sizes = []
    oracle_checked = 0
    for name, make in corpus:
        g = make()
        sizes.append(g.n)
        result = color(g)
        assert verify_coloring(g, result.coloring).ok, name
        assert result.colors_used == omega(g), name
        if g.n <= 14:
            assert result.colors_used == naive_chromatic_number(g), name
            oracle_checked += 1
    elapsed = time.perf_counter() - t0
    assert max(sizes) == 60
    assert oracle_checked >= 60
    assert elapsed < 600.0
    print(
        f"criterion 1 PASS: {len(corpus)} instances colored optimally "
        f"(chi oracle on {oracle_checked} with n<=14) in {elapsed:.1f}s"
    )


def test_criterion_2_clique_enumeration(corpus):
    """maximal_cliques equals naive subset enumeration on 100 random
    square-free instances with n <= 12, and the count stays below n^2."""
    n_vals = list(range(4, 13))
    for i in range(100):
        g = gen_square_free_berge(n_vals[i % len(n_vals)], 100 + i)
        got = maximal_cliques(g)
        assert {frozenset(c) for c in got} == naive_maximal_cliques(g), i
    bound_checked = 0
    for name, make in corpus:
        g = make()
        assert len(maximal_cliques(g)) <= g.n**2, name
        bound_checked += 1
    print(
        "criterion 2 PASS: oracle equality on 100 instances, "
        f"count <= n^2 on {bound_checked}"
    )


def test_criterion_3_partition_soundness_and_completeness(corpus):
    """Every found partition verifies; existence agrees with brute-force
    search on all small square-free Berge graphs (exhaustive through n = 5,
    dense random sample at n = 6, generated instances for 7 <= n <= 10)."""
    found = searched = 0
    for name, make in corpus:
        g = make()
        gp = find_good_partition(g)
        searched += 1
        if gp is not None:
            assert verify_good_partition(g, gp).ok, name
            found += 1

    def agrees(g):
        return (find_good_partition(g) is not None) == (
            brute_good_partition(g) is not None
        )

    exhaustive = 0
    for n in range(6):
        pairs = list(itertools.combinations(range(n), 2))
        for bits in range(1 << len(pairs)):
            g = Graph(n, [pairs[i] for i in range(len(pairs)) if (bits >> i) & 1])
            if naive_squares(g) or not naive_is_berge(g):
                continue
            assert agrees(g), (n, bits)
            exhaustive += 1
    assert exhaustive == 895

    rng = random.Random(987654321)
    sampled = 0
    for _ in range(1500):
        p = rng.random()
        edges = [e for e in itertools.combinations(range(6), 2) if rng.random() < p]
        g = Graph(6, edges)
        if naive_squares(g) or not naive_is_berge(g):
            continue
        assert agrees(g), g.edges()
        sampled += 1
    assert sampled == 1127

    for n in range(7, 11):
        for seed in range(25):
            assert agrees(gen_square_free_berge(n, seed)), (n, seed)

    # the clique-pair oracle itself is validated against raw 5^n labeling
    rng = random.Random(24680)
    cross = 0
    for n in (4, 5, 6):
        for _ in range(8):
            p = rng.random()
            edges = [
                e for e in itertools.combinations(range(n), 2) if rng.random() < p
            ]
            g = Graph(n, edges)
            if naive_squares(g) or not naive_is_berge(g):
                continue
            assert (brute_good_partition(g) is not None) == (
                brute_good_partition_exists_5n(g)
            ), g.edges()
            cross += 1
    assert cross == 19

    print(
        f"criterion 3 PASS: {found}/{searched} corpus partitions verified; "
        f"existence agreement on {exhaustive} exhaustive + {sampled} sampled "
        "+ 100 generated graphs"
    )


def _solve_side(g, keep):
    sub, mapping = g.subgraph(bit_list(keep))
    result = color(sub)
    return PartialColoring(
        {mapping[i]: col for i, col in result.coloring.colors.items()}
    )


def test_criterion_4_merge_correctness(corpus):
    """Planted-partition merges stay proper with strictly shrinking bad sets
    (the merge loop itself asserts agreement and descent per swap); a
    non-Berge corruption must raise, never return quietly."""
    merged = swaps = 0
    for name, make in corpus:
        if merged >= 100:
            break
        g = make()
        gp = find_good_partition(g)
        if gp is None:
            continue
        c1 = _solve_side(g, g.full_mask & ~gp.r)
        c2 = _solve_side(g, g.full_mask & ~gp.l)
        k = omega(g)
        events = []
        out = merge_colorings(g, gp, c1, c2, k, trace=events.append)
        assert set(out.colors) == set(range(g.n)), name
        assert is_proper_on(g, out), name
        assert out.max_color() <= k, name
        for ev in events:
            assert ev["bad_after"] < ev["bad_before"], name
        swaps += len(events)
        merged += 1
    assert merged == 100

    # C7 satisfies the partition conditions yet is not Berge: its two
    # 2-colored path sides cannot be reconciled, and the merge must say so
    g = cycle(7)
    part = GoodPartition(
        k1=mask_of({0}),
        k2=mask_of(()),
        k3=mask_of({3}),
        l=mask_of({1, 2}),
        r=mask_of({4, 5, 6}),
    )
    assert verify_good_partition(g, part).ok
    with pytest.raises(BergeViolation):
        merge_colorings(
            g,
            part,
            PartialColoring({0: 1, 1: 2, 2: 1, 3: 2}),
            PartialColoring({3: 2, 4: 1, 5: 2, 6: 1, 0: 2}),
            2,
        )
    print(
        f"criterion 4 PASS: 100 planted merges ({swaps} swaps logged), "
        "corrupted input raised BergeViolation"
    )


def test_criterion_5_structural_invariants(corpus):
    """Decomposition trees keep triad labels unique and respect the cubic
    node bound; graphs without triads never enter the frame search."""
    checked = 0
    for name, make in corpus:
        g = make()
        result = color(g)
        triads = [
            node.triad for node in result.tree.iter_nodes() if node.triad is not None
        ]
        assert len(triads) == len(set(triads)), name
        assert result.tree.node_count() <= max(1, 3 * g.n**3), name
        checked += 1

    leaf_only = [complete(n) for n in range(2, 7)]
    leaf_only += [complete_minus_star(n, t) for n, t in [(5, 2), (6, 3), (7, 3), (8, 4)]]
    for g in leaf_only:
        result = color(g)
        assert result.stats.frames_tried == 0
        assert result.stats.node_count == 1
        assert result.tree.is_leaf()
    print(
        f"criterion 5 PASS: tree invariants on {checked} runs; "
        f"{len(leaf_only)} triad-free graphs went straight to the leaf"
    )


def test_criterion_6_determinism(corpus):
    """Two runs from independently rebuilt graphs produce byte-identical
    colorings, trees, traces, and DOT renderings."""
    for name, make in corpus:
        g_a, g_b = make(), make()
        assert g_a.edges() == g_b.edges(), name
        ev_a, ev_b = [], []
        r_a = color(g_a, trace=ev_a)
        r_b = color(g_b, trace=ev_b)
        assert coloring_to_lines(r_a.coloring) == coloring_to_lines(r_b.coloring), name
        assert json.dumps(tree_to_json(r_a.tree), sort_keys=True) == json.dumps(
            tree_to_json(r_b.tree), sort_keys=True
        ), name
        assert ev_a == ev_b, name
        assert tree_to_dot(r_a.tree) == tree_to_dot(r_b.tree), name
    print("criterion 6 PASS: byte-identical outputs on all corpus instances")
