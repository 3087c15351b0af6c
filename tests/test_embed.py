import random
from math import ceil
from typing import NamedTuple

import pytest

from densecolor import (
    GuaranteeViolationError,
    HypothesisNotMetError,
    Multigraph,
    RunConfig,
    can_add_edge,
    chromatic_index,
    cycle,
    density,
    embed_k_dense,
    find_k_edge_coloring,
    fixture,
    gen_fat_cycle,
    gen_random_multigraph,
    is_k_dense,
    is_proper_edge_coloring,
    is_proper_total_coloring,
    maximal_k_dense_subgraphs,
)
import densecolor.embed as embed_mod
from densecolor.embed import (
    ExchangeMove,
    _Contracted,
    _find_exchange,
)
from densecolor.oracles import _no_host_reason

from brute import (
    brute_find_exchange,
    brute_greedy_host,
    brute_saturate,
    reference_walk_odd_sets,
    walk_calls,
)

T2 = gen_fat_cycle(3, 2)


def held_blocks(host, k):
    """The blocks of ``host`` (density at most k) as the embedding holds
    them: contracted from its maximal k-dense sets."""
    return _Contracted(host, maximal_k_dense_subgraphs(host, k))


def check_against_brute_greedy(graph, k):
    """Greedy stalls exactly where the embedding needs exchange moves;
    otherwise both add the same edges in the same order.  Returns whether
    greedy stalled."""
    _, report = embed_k_dense(graph, k)
    host, added = brute_greedy_host(graph, k)
    stalled = 2 * host.m < k * (host.n - 1)
    assert stalled == bool(report.exchange_moves)
    if not stalled:
        assert report.added_edges == added
    return stalled


class TestCanAddEdge:
    def test_dense_triangle_is_saturated(self):
        # any extra edge inside the 6-dense triangle pushes the density to 7
        assert not can_add_edge(T2, 0, 1, 6)

    def test_isolated_pair_is_addable(self):
        g = Multigraph(5, T2.edges)
        assert can_add_edge(g, 3, 4, 6)
        assert density(g.with_edge(3, 4)).value <= 6

    def test_degree_cap(self):
        star = Multigraph(4, ((0, 1), (0, 2), (0, 3)))
        assert not can_add_edge(star, 0, 1, 4)  # deg(0) = 3 = k - 1 already

    def test_loop_rejected(self):
        with pytest.raises(ValueError):
            can_add_edge(T2, 1, 1, 6)

    def test_matches_full_density_recomputation(self):
        g = Multigraph(5, T2.edges + ((3, 4), (3, 4)))
        for u in range(5):
            for v in range(u + 1, 5):
                expected = (
                    g.degrees[u] < 5
                    and g.degrees[v] < 5
                    and density(g.with_edge(u, v)).value <= 6
                )
                assert can_add_edge(g, u, v, 6) == expected


class TestEmbed:
    def test_already_dense_is_untouched(self):
        g_prime, report = embed_k_dense(T2, 6)
        assert g_prime == T2
        assert report.added_edges == ()
        assert is_k_dense(g_prime, range(3), 6)
        assert not report.parity_vertex_added
        assert chromatic_index(g_prime).k == 6

    def test_two_isolated_vertices(self):
        g = fixture("t2-2k1")
        g_prime, report = embed_k_dense(g, 6)
        assert len(report.added_edges) == 6
        assert (report.final_n, report.final_m) == (5, 12)
        assert is_k_dense(g_prime, range(5), 6)
        assert chromatic_index(g_prime).k == 6

    def test_parity_vertex(self):
        g = fixture("t2-k1")
        g_prime, report = embed_k_dense(g, 6)
        assert report.parity_vertex_added
        assert (report.final_n, report.final_m) == (5, 12)
        assert is_k_dense(g_prime, range(5), 6)
        assert chromatic_index(g_prime).k == 6

    def test_hypothesis_rejected(self):
        with pytest.raises(HypothesisNotMetError):
            embed_k_dense(cycle(5), 3)

    def test_density_premise_checked(self):
        # fat triangle with multiplicity 3 has density 9; k = 8 passes the
        # hypothesis thresholds but contradicts chi' = 8
        with pytest.raises(ValueError, match="density"):
            embed_k_dense(gen_fat_cycle(3, 3), 8)

    def test_original_ids_survive_as_prefix(self):
        g = fixture("t2-2k1")
        g_prime, _ = embed_k_dense(g, 6)
        assert g_prime.edges[: g.m] == g.edges

    def test_deterministic(self):
        g = fixture("t2-2k1")
        first = embed_k_dense(g, 6)
        second = embed_k_dense(g, 6)
        assert first == second

    def test_deficient_vertices_form_claim_structure(self):
        # on success the whole vertex set is k-dense and contains every
        # deficient vertex
        for name in ("t2-2k1", "t2-k1", "fat-c5-m4"):
            g = fixture(name)
            k = chromatic_index(g).k
            g_prime, report = embed_k_dense(g, k)
            deficient = [v for v in range(g_prime.n) if g_prime.degrees[v] < k - 1]
            assert len(deficient) <= 1 or is_k_dense(g_prime, range(g_prime.n), k)

    @pytest.mark.parametrize(
        "graph",
        [
            fixture("t2-2k1"),
            fixture("t2-k1"),
            fixture("fat-c5-m4"),
            Multigraph(7, gen_fat_cycle(3, 3).edges),
            fixture("t2"),
            fixture("fat-c3-m3"),
            fixture("fat-c5-m3"),
            fixture("2k1-t2"),
        ],
        ids=[
            "t2-2k1", "t2-k1", "fat-c5-m4", "fat-c3-m3-n7",
            "t2", "fat-c3-m3", "fat-c5-m3", "2k1-t2",
        ],
    )
    def test_matches_naive_greedy(self, graph):
        # every fixture inside the hypothesis; only 2k1-t2 stalls
        stalled = check_against_brute_greedy(graph, chromatic_index(graph).k)
        assert stalled == (graph == fixture("2k1-t2"))

    def test_density_never_exceeded(self):
        g = fixture("t2-2k1")
        partial = list(g.edges)
        g_prime, report = embed_k_dense(g, 6)
        for extra in g_prime.edges[g.m :]:
            partial.append(extra)
            step = Multigraph(g_prime.n, tuple(partial))
            assert density(step).value <= 6
            assert step.max_degree() <= 5


class TestExchangeMove:
    def test_recovers_from_greedy_dead_end(self):
        # five parallel (3,4) edges saturate the isolated pair; the move
        # drops one and attaches both ends to deficient triangle vertices
        added = [(3, 4)] * 5
        cur = Multigraph(5, T2.edges + tuple(added))
        move = _find_exchange(cur, 6, added, held_blocks(cur, 6))
        assert move == ((3, 4), (3, 0), (4, 1))

    def test_no_move_from_dense_graph(self):
        g_prime, _ = embed_k_dense(fixture("t2-2k1"), 6)
        added = list(g_prime.edges[6:])
        assert _find_exchange(g_prime, 6, added, held_blocks(g_prime, 6)) is None

    def test_no_move_when_every_added_edge_touches_a_dense_set(self):
        # three 10-dense triangles on 9 vertices: the second and third are
        # full and joined by 7 edges, three of them added; every pair is
        # blocked and every added edge has an end in a 10-dense set
        def triangle(o):
            return ((o, o + 1),) * 3 + ((o + 1, o + 2),) * 3 + ((o, o + 2),) * 4

        joins = ((3, 6), (4, 7), (4, 7), (5, 8))
        base = triangle(0) + triangle(3) + triangle(6) + joins
        added = [(3, 6), (4, 7), (5, 8)]
        host = Multigraph(9, base + tuple(added))
        assert density(host).value == 10 and host.max_degree() == 9
        assert host.m < 10 * 8 // 2
        assert not any(
            can_add_edge(host, u, v, 10) for u in range(9) for v in range(u + 1, 9)
        )
        assert _find_exchange(host, 10, added, held_blocks(host, 10)) is None
        assert brute_find_exchange(host, 10, added) is None


class TestShortfall:
    @pytest.mark.parametrize(
        "graph,k,header",
        [
            (fixture("t2-2k1"), 6, "p multigraph 5 6"),
            (Multigraph(13, T2.edges), 14, "p multigraph 13 "),
        ],
        ids=["n5", "n13"],
    )
    def test_shortfall_emits_certificate(self, monkeypatch, graph, k, header):
        # a stall is the same guarantee violation at every n
        monkeypatch.setattr(embed_mod, "_saturate", lambda host, k, con: [])
        monkeypatch.setattr(embed_mod, "_find_exchange", lambda *a, **kw: None)
        with pytest.raises(GuaranteeViolationError, match="saturation") as info:
            embed_k_dense(graph, k)
        assert info.value.certificate.startswith(header)


def displaced_core(rng, n_max=11):
    """A random core on 3-6 vertices placed on random ids of an n-vertex
    graph, with k = max(Delta, ceil rho) meeting the embedding hypothesis
    and n <= n_max."""
    while True:
        c = rng.randint(3, 6)
        m = rng.randint(c, (c - 1) * 13 // 2 + c)
        cap = rng.randint(2, m)
        if m > cap * c * (c - 1) // 2:
            continue
        core = gen_random_multigraph(c, m, cap, rng.getrandbits(32))
        delta = core.max_degree()
        k = max(delta, ceil(density(core).value))
        if k < max(delta + 2, c + 1):
            continue
        n = rng.randint(c, min(n_max, k - 1))
        ids = rng.sample(range(n), c)
        return Multigraph(n, tuple((ids[u], ids[v]) for u, v in core.edges)), k


class TestStalls:
    def test_pinned_stall_needs_one_exchange(self):
        g = fixture("2k1-t2")
        g_prime, report = embed_k_dense(g, 6)
        assert report.exchange_moves == (ExchangeMove((0, 1), ((0, 2), (1, 3))),)
        assert report.added_edges == ((0, 1),) * 4 + ((0, 2), (1, 3))
        assert report.final_m == 12
        assert is_k_dense(g_prime, range(5), 6)

    def test_displaced_core_sweep(self):
        # about 3 % of these embeddings stall in greedy saturation; each
        # stall must be finished by exchange moves, and the density-pruned
        # class search must color every host within a small budget
        rng = random.Random(4)
        config = RunConfig(node_budget=1_000)
        moves = 0
        for _ in range(500):
            g, k = displaced_core(rng)
            g_prime, report = embed_k_dense(g, k)
            assert g_prime.edges[: g.m] == g.edges
            assert is_k_dense(g_prime, range(g_prime.n), k)
            moves += len(report.exchange_moves)
            assert find_k_edge_coloring(g_prime, k, config) is not None
        assert moves >= 1

    def test_greedy_matches_brute_greedy(self):
        # the block bookkeeping picks the pairs that recounting every odd
        # set picks; about 4 % of these cores stall
        rng = random.Random(9)
        stalls = sum(
            check_against_brute_greedy(*displaced_core(rng, n_max=9))
            for _ in range(200)
        )
        assert 1 <= stalls <= 20


def random_entry_state(rng):
    """A host on 5, 7 or 9 vertices grown by random addable pairs, first
    inside a random odd set until none is addable there, then anywhere; so
    some vertices sit at degree k - 1 and some odd sets are tight, states
    that greedy from G never reaches."""
    n = rng.choice((5, 7, 9))
    k = rng.randint(n + 1, n + 4)
    host = Multigraph(n, ())
    core = rng.sample(range(n), rng.choice((3, 5)))
    for within in (core, range(n)):
        pairs = [(u, v) for u in within for v in within if u < v]
        for _ in range(rng.randint(n, k * (n - 1) // 2)):
            u, v = rng.choice(pairs)
            if can_add_edge(host, u, v, k):
                host = host.with_edge(u, v)
    return host, k


def hub_entry_state(rng):
    """A host on 5, 7 or 9 vertices whose padding, an even number of
    vertices, has the same number of edges to one hub, the other vertices
    joined by random addable pairs: the padding's matching repeats while
    the triangles it makes with the hub fill up, so the matching repeats
    until a triangle would turn tight, where ``over`` reaches 0."""
    n = rng.choice((5, 7, 9))
    k = rng.randint(n + 1, n + 6)
    host = Multigraph(n, ())
    pads = rng.sample(range(n), rng.randrange(2, n - 2, 2))
    rest = [v for v in range(n) if v not in pads]
    hub = rng.choice(rest)
    for p in pads * rng.randint(0, 3):
        if can_add_edge(host, min(p, hub), max(p, hub), k):
            host = host.with_edge(min(p, hub), max(p, hub))
    pairs = [(u, v) for u in rest for v in rest if u < v]
    for _ in range(rng.randint(0, k * len(rest))):
        u, v = rng.choice(pairs)
        if can_add_edge(host, u, v, k):
            host = host.with_edge(u, v)
    return host, k


class TestSaturate:
    def test_greedy_matches_min_key_loop_from_any_entry_state(self):
        rng = random.Random(16)
        capped = tight = 0
        for _ in range(60):
            host, k = random_entry_state(rng)
            con = held_blocks(host, k)
            tight += bool(con.blocks())
            added = embed_mod._saturate(host, k, con)
            assert added == brute_saturate(host, k)
            grown = Multigraph(host.n, host.edges + tuple(added))
            if 2 * grown.m < k * (grown.n - 1):
                assert con.blocks() == maximal_k_dense_subgraphs(grown, k)
            capped += k - 1 in host.degrees
        assert capped >= 30 and tight >= 20

    def test_a_block_cuts_the_lexicographic_winner(self):
        # every degree is 4 < k - 1 = 5, so every pair ties at sum 8; the
        # block {0, 1, 2} cuts (0, 1), the least pair left is (0, 3), and
        # (1, 4) then makes the host 6-dense.  A key of (sum, v, u) picks
        # the same pairs here and in every state: for pairs (u0, v0) and
        # (u1, v1) at the least sum S with u0 < u1 < v1 < v0, (u0, v1) and
        # (u0, u1) must be cut or above S, and the degree sums give
        # (u0, v1) + (u1, v0) = (u0, u1) + (v1, v0) = 2S, so a pair above
        # S leaves its partner below S, and cut; the cuts this needs put
        # u0 and v0, or u1 and v1, in one block
        block = ((0, 1),) * 2 + ((0, 2),) * 2 + ((1, 2),) * 2
        host = Multigraph(5, block + ((3, 4),) * 4)
        con = _Contracted(host, [[0, 1, 2]])
        assert con.blocks() == maximal_k_dense_subgraphs(host, 6)
        added = embed_mod._saturate(host, 6, con)
        assert added == [(0, 3), (1, 4)] == brute_saturate(host, 6)

    def test_repeated_rounds_match_min_key_loop(self):
        # even padding pairs up into one matching that greedy adds level
        # after level, one edge at a time; greedy must add what the
        # min-key loop adds, and hold the same blocks and pair counts as a
        # recount of the host
        # a 4-vertex core at n = 9 leaves one of its 5 isolated vertices over
        core4 = {(0, 1): 5, (0, 2): 1, (0, 3): 5, (1, 2): 2, (1, 3): 3, (2, 3): 2}
        edges = tuple(p for p, c in core4.items() for _ in range(c))
        states = [(Multigraph(9, edges), 13)]
        for c, mus in ((3, range(4, 9)), (5, range(5, 8))):
            for mu in mus:
                g = gen_fat_cycle(c, mu)
                k = ceil(density(g).value)
                # n = 9..15 inside the hypothesis, an even n with its parity vertex
                for n in sorted({n + 1 - n % 2 for n in range(9, min(15, k - 1) + 1)}):
                    states.append((Multigraph(n, g.edges), k))
        assert len(states) == 30
        rng = random.Random(20)
        states += [hub_entry_state(rng) for _ in range(100)]
        for host, k in states:
            con = held_blocks(host, k)
            added = embed_mod._saturate(host, k, con)
            grown = Multigraph(host.n, host.edges + tuple(added))
            if 2 * grown.m == k * (grown.n - 1):
                # the edge that makes the host k-dense skips con.grow
                grown = Multigraph(host.n, host.edges + tuple(added[:-1]))
            assert vars(con) == vars(held_blocks(grown, k))
            if host.n <= 13:  # the min-key loop takes seconds at n = 15
                assert added == brute_saturate(host, k)

    def test_reentry_after_exchange_matches_min_key_loop(self, monkeypatch):
        # embed_k_dense re-enters greedy after each exchange move, with
        # vertices at degree k - 1 and the blocks kept through the move
        entries = []
        saturate = embed_mod._saturate

        def recorded(host, k, con):
            added = saturate(host, k, con)
            entries.append((host, k, added))
            return added

        monkeypatch.setattr(embed_mod, "_saturate", recorded)
        rng = random.Random(4)
        moves = 0
        for graph, k in [(fixture("2k1-t2"), 6)] + [
            displaced_core(rng, n_max=9) for _ in range(150)
        ]:
            moves += len(embed_k_dense(graph, k)[1].exchange_moves)
        assert moves >= 2
        for host, k, added in entries:
            assert added == brute_saturate(host, k)


def padded_inputs(rng, cores):
    """``cores`` displaced cores on n <= 15, and fat C3, C5 and C7 padded
    with isolated vertices up to n = 19, each with its k."""
    inputs = [displaced_core(rng, n_max=15) for _ in range(cores)]
    for c, mu in ((3, 4), (3, 7), (5, 5), (5, 7), (7, 6)):
        core = gen_fat_cycle(c, mu)
        k = chromatic_index(core).k
        inputs += [(Multigraph(n, core.edges), k) for n in range(c, min(k, 20))]
    return inputs


class TestBlockRules:
    def test_contracted_walks_match_the_reference(self, monkeypatch):
        # saturation's forced walks of the contracted host make the same
        # on_hit calls as the walk that cuts whole nodes only
        walk = embed_mod._walk_odd_sets
        walks = []

        def checked(con, num, den, slack, on_hit, *, forced=()):
            args = (con, num, den, slack, lambda: lambda subset, edges: (num, den), forced)
            calls, result = walk_calls(walk, *args)
            assert (calls, result) == walk_calls(reference_walk_odd_sets, *args)
            walks.append(len(calls))
            return walk(con, num, den, slack, on_hit, forced=forced)

        monkeypatch.setattr(embed_mod, "_walk_odd_sets", checked)
        for graph, k in padded_inputs(random.Random(22), 300):
            embed_k_dense(graph, k)
        assert len(walks) >= 400 and sum(walks) >= 100


class TestContracted:
    def test_in_place_merges_match_a_fresh_contraction(self):
        rng = random.Random(3)
        for _ in range(40):
            n = rng.randint(3, 12)
            graph = gen_random_multigraph(n, rng.randint(0, 3 * n), 3, rng.getrandbits(32))
            con = _Contracted(graph, [])
            part = [{v} for v in range(n)]  # the atoms, kept independently
            for _ in range(rng.randint(1, n)):
                group = set(rng.sample(range(n), rng.randint(2, 3)))
                atoms = {con.atom[v] for v in group}
                con.merge(atoms)
                joined = set().union(*(p for p in part if p & group))
                part = [p for p in part if not p & group] + [joined]
                u, v = rng.sample(range(n), 2)
                if con.atom[u] != con.atom[v]:
                    con.add(u, v)
                    graph = graph.with_edge(u, v)
            name = {v: min(p) for p in part for v in p}
            assert con.atom == [name[v] for v in range(n)]
            for a in range(n):
                mine = [v for v in range(n) if name[v] == a]
                assert con.members[a] == sum(1 << v for v in mine)
                row = [
                    sum(
                        graph.adjacency_counts[x][y]
                        for x in mine
                        for y in range(n)
                        if name[y] == b != a
                    )
                    for b in range(n)
                ]
                assert con.adjacency_counts[a] == row  # zero unless a names an atom
                assert con.degrees[a] == sum(row)

    def test_built_from_tight_sets(self):
        # the tight sets overlap in a vertex, so they form one block
        graph = Multigraph(7, T2.edges + tuple((u + 2, v + 2) for u, v in T2.edges))
        con = _Contracted(graph, [[0, 1, 2], [2, 3, 4]])
        assert con.atom == [0] * 5 + [5, 6]
        assert con.members[0] == 0b11111 and con.degrees == [0] * 7
        assert all(row == [0] * 7 for row in con.adjacency_counts)


def fat_c3_m4_beside(t: int) -> tuple[tuple[int, int], ...]:
    """Fat C3 with mu = 4 (L = 12, Delta = 8) beside K_t on vertices
    3..t+2: for t >= 6 every degree is above L - Delta = 4, so nothing is
    peeled."""
    clique = tuple((u, v) for u in range(3, t + 3) for v in range(u + 1, t + 3))
    return gen_fat_cycle(3, 4).edges + clique


class TestRouteDecision:
    # chromatic_index takes the host route exactly when _no_host_reason
    # returns None at L = max(Delta, ceil rho); each precondition at its
    # bound, on graphs with nothing to peel, so the core is G itself
    @pytest.mark.parametrize(
        "edges,n,cap,has_host",
        [
            (fat_c3_m4_beside(8), 11, 20, True),  # L = n + 1
            # T2 twice (L = 6 = n); every degree is 4 > L - Delta = 2
            (fixture("t2-t2").edges, 6, 20, False),  # L = n
            (((0, 1),) * 2 + ((1, 2),) * 5 + ((0, 2),) * 5, 3, 20, True),  # L = Delta + 2
            (((0, 1),) * 1 + ((1, 2),) * 5 + ((0, 2),) * 5, 3, 20, False),  # L = Delta + 1
            (fat_c3_m4_beside(7), 10, 11, True),  # host n = cap
            (fat_c3_m4_beside(7), 10, 10, False),  # host n = cap + 1
        ],
        ids=["n-plus-1", "n-plus-1-minus-1", "delta-plus-2", "delta-plus-2-minus-1",
             "cap", "cap-plus-1"],
    )
    def test_host_iff_embeddable(self, edges, n, cap, has_host):
        graph = Multigraph(n, edges)
        config = RunConfig(density_max_n=cap)
        lower = max(graph.max_degree(), ceil(density(graph, config).value))
        assert (_no_host_reason(graph, lower, config) is None) == has_host
        cert = chromatic_index(graph, config)
        assert (cert.host is not None) == has_host
        # every host-route certificate carries G's total coloring, whose
        # edge part is the witness
        assert (cert.total is not None) == has_host
        if has_host:
            assert cert.witness.colors == cert.total.edge_colors

    @pytest.mark.parametrize(
        "n,cap,peeled",
        [(12, 20, tuple(range(3, 12))), (10, 10, tuple(range(3, 10)))],
        ids=["n-plus-1-minus-1", "cap-plus-1"],
    )
    def test_padded_input_is_decided_by_its_core(self, n, cap, peeled):
        # fat C3 with mu = 4 padded with isolated vertices: G itself has no
        # host at L = 12 (L = n, or a host one vertex past the cap), but
        # its isolated vertices peel, and the 3-vertex core has one
        graph = Multigraph(n, gen_fat_cycle(3, 4).edges)
        config = RunConfig(density_max_n=cap)
        assert _no_host_reason(graph, 12, config) is not None
        assert _no_host_reason(graph, 12, config, graph.n - len(peeled)) is None
        cert = chromatic_index(graph, config)
        assert (cert.k, cert.peeled) == (12, peeled)
        assert cert.host.g_prime == gen_fat_cycle(3, 4)  # already 12-dense
        assert is_proper_total_coloring(graph, cert.total)
        assert cert.witness.colors == cert.total.edge_colors


class TestLargeHost:
    def test_host_beyond_oracle_cap(self):
        # fat triangle (mult 4) plus six isolated vertices: the 12-dense
        # host needs 48 edges, past the exact chromatic-index cap; a
        # 12-edge-coloring of it still exists
        base = Multigraph(9, gen_fat_cycle(3, 4).edges)
        assert chromatic_index(base).k == 12
        g_prime, report = embed_k_dense(base, 12)
        assert (report.final_n, report.final_m) == (9, 48)
        assert is_k_dense(g_prime, range(9), 12)
        assert density(g_prime).value == 12
        phi = find_k_edge_coloring(g_prime, 12)
        assert phi is not None and is_proper_edge_coloring(g_prime, phi)

    def test_padded_fat_triangle_saturates_greedily(self):
        # fat triangle (mult 13) plus sixteen isolated vertices: greedy
        # saturation alone reaches the 39-dense host on 19 vertices
        base = Multigraph(19, gen_fat_cycle(3, 13).edges)
        g_prime, report = embed_k_dense(base, 39)
        assert report.final_m == 39 * (19 - 1) // 2
        assert is_k_dense(g_prime, range(19), 39)
        assert report.exchange_moves == ()

    @pytest.mark.parametrize(
        "c,mu,n,k,walks,grows",
        [(3, 8, 13, 24, 23, 119), (5, 7, 15, 18, 13, 90), (3, 13, 19, 39, 64, 311)],
        ids=["fat-c3-m8-n13", "fat-c5-m7-n15", "fat-c3-m13-n19"],
    )
    def test_saturation_walks_are_few(self, monkeypatch, c, mu, n, k, walks, grows):
        # at most one walk of the contracted host per added edge, and none
        # where the two atoms' degrees leave no room for a new tight set;
        # the premise walk of G goes through the oracles module and is not
        # counted here.  Every added edge but the last, which makes the
        # host k-dense, goes through grow (120, 91 and 312 added edges)
        calls = []
        walk, grow = embed_mod._walk_odd_sets, _Contracted.grow

        def counting(*args, **kwargs):
            calls.append("walk")
            return walk(*args, **kwargs)

        def counting_grow(*args):
            calls.append("grow")
            grow(*args)

        monkeypatch.setattr(embed_mod, "_walk_odd_sets", counting)
        monkeypatch.setattr(_Contracted, "grow", counting_grow)
        _, report = embed_k_dense(Multigraph(n, gen_fat_cycle(c, mu).edges), k)
        assert 2 * report.final_m == k * (n - 1)
        assert (calls.count("walk"), calls.count("grow")) == (walks, grows)


class Stall(NamedTuple):
    host: Multigraph  # stuck
    k: int
    added: list
    blocks: list  # held at the stall
    move: tuple | None
    after: Multigraph | None = None  # the host after the move
    after_blocks: list | None = None  # held then


@pytest.fixture(scope="module")
def greedy_stalls():
    """Every stall of 3,500 seeded displaced-core embeddings (n <= 15), with
    the blocks held at the stall and right after its move: at the next
    saturation, or at the end when the move made the host k-dense."""
    find, saturate = embed_mod._find_exchange, embed_mod._saturate
    stalls = []
    moved = []  # the blocks of the last move, until the host after it is seen

    def recorded_find(cur, k, added, con):
        move = find(cur, k, added, con)
        stalls.append(Stall(cur, k, list(added), con.blocks(), move))
        moved[:] = [con]
        return move

    def after_move(host):
        if moved:
            stalls[-1] = stalls[-1]._replace(after=host, after_blocks=moved.pop().blocks())

    def recorded_saturate(host, k, con):
        after_move(host)
        return saturate(host, k, con)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(embed_mod, "_find_exchange", recorded_find)
        patch.setattr(embed_mod, "_saturate", recorded_saturate)
        rng = random.Random(8)
        for _ in range(3_500):
            after_move(embed_k_dense(*displaced_core(rng, n_max=15))[0])
    return stalls


class TestExchangeByDegrees:
    def test_matches_walk_rule_on_greedy_stalls(self, greedy_stalls):
        for stall in greedy_stalls:
            assert stall.move == brute_find_exchange(stall.host, stall.k, stall.added)
        assert len(greedy_stalls) >= 200
        assert None not in [stall.move for stall in greedy_stalls]

    def test_stalled_blocks_are_the_maximal_dense_sets(self, greedy_stalls):
        # at a stall the blocks that saturation holds are the stuck host's
        # maximal k-dense sets, so the move walks nothing to find the
        # vertices it must avoid
        for stall in greedy_stalls:
            assert stall.blocks == maximal_k_dense_subgraphs(stall.host, stall.k)
        assert len(greedy_stalls) >= 200
        assert sum(bool(stall.blocks) for stall in greedy_stalls) >= 100

    def test_blocks_after_a_move_are_the_maximal_dense_sets(self, greedy_stalls):
        # the move's removal keeps every block and its two additions go
        # through greedy's upkeep, so no walk of the new host is needed
        finished = 0
        for stall in greedy_stalls:
            after, k = stall.after, stall.k
            assert after.m == stall.host.m + 1
            assert stall.after_blocks == maximal_k_dense_subgraphs(after, k)
            finished += 2 * after.m == k * (after.n - 1)
        # most moves finish the host, whose one block is then everything
        assert finished >= 100 and len(greedy_stalls) - finished >= 10

    def test_matches_walk_rule_on_stuck_entry_states(self):
        # every edge of the stuck host is offered for removal
        rng = random.Random(17)
        stuck = moves = 0
        for _ in range(1_000):
            host, k = random_entry_state(rng)
            con = held_blocks(host, k)
            added = embed_mod._saturate(host, k, con)
            host = Multigraph(host.n, host.edges + tuple(added))
            if 2 * host.m == k * (host.n - 1):
                continue
            assert con.blocks() == maximal_k_dense_subgraphs(host, k)
            offered = list(host.edges)
            move = _find_exchange(host, k, offered, con)
            assert move == brute_find_exchange(host, k, offered)
            stuck += 1
            moves += move is not None
        assert stuck >= 20 and moves >= 10
