import hashlib
import random

import pytest

import graph6_oracle
from canon_oracle import _refine as oracle_refine
from conftest import all_labeled_graphs, brute_canonical_mask

from reconkit.canon import (
    are_isomorphic,
    canonical_form,
    canonical_labeling,
    certificate,
    clear_certificate_cache,
    find_isomorphism,
)
from reconkit.deck import build_deck, deck_equal
from reconkit.errors import CapacityError
from reconkit.graph import (
    Graph,
    complement,
    complete_graph,
    component_masks,
    copies,
    delete_edges,
    empty_graph,
    enumerate_graphs,
    graph6_decode,
    join,
    line_graph,
    path_graph,
    permute,
    relabel_rows,
    union,
)
from reconkit.reductions import gi_to_led


def test_certificate_basic():
    p3 = path_graph(3)
    assert certificate(p3) == certificate(permute(p3, (1, 0, 2)))
    assert certificate(complete_graph(3)) != certificate(p3)
    star = Graph(4, [(0, 1), (0, 2), (0, 3)])
    assert certificate(line_graph(star)) == certificate(complete_graph(3))


def test_certificate_bytes_are_pinned():
    # deck card order, CLI witness order and canonical_form all follow
    # the certificate bytes, so any change to them must be deliberate
    rng = random.Random(7)
    digest = hashlib.sha256()
    classes = 0
    for n in range(0, 8):
        for g in enumerate_graphs(n):
            perm = list(range(n))
            rng.shuffle(perm)
            digest.update(certificate(permute(g, perm)) + b"\n")
            classes += 1
    assert classes == 1253
    assert digest.hexdigest() == (
        "542964b31c2cd5a911608a48302d094ab8628054fda9734e076598dc1243dc02"
    )


def test_certificate_matches_brute_force_classes():
    # exhaustive ground truth: labeled graphs are isomorphic exactly when
    # their minimum permuted bitmasks agree
    for n in (3, 4):
        by_brute = {}
        by_cert = {}
        for g in all_labeled_graphs(n):
            by_brute.setdefault(brute_canonical_mask(g), set()).add(g.edges)
            by_cert.setdefault(certificate(g), set()).add(g.edges)
        assert set(map(frozenset, by_brute.values())) == set(
            map(frozenset, by_cert.values())
        )


def test_certificate_invariance_random_relabelings():
    rng = random.Random(31337)
    for n in range(2, 7):
        sample = enumerate_graphs(n)
        for g in sample[:: max(1, len(sample) // 12)]:
            want = certificate(g)
            for _ in range(25):
                perm = list(range(n))
                rng.shuffle(perm)
                assert certificate(permute(g, perm)) == want


def test_symmetric_graphs():
    # heavy automorphism groups must not blow up the search
    assert certificate(complete_graph(12)) == certificate(permute(complete_graph(12), tuple(reversed(range(12)))))
    big = union([complete_graph(7), complete_graph(8), path_graph(4)])
    perm = list(reversed(range(big.n)))
    assert certificate(big) == certificate(permute(big, perm))
    ring = Graph(6, [(i, (i + 1) % 6) for i in range(6)])
    assert certificate(ring) == certificate(permute(ring, (3, 1, 5, 0, 4, 2)))
    multi = join([empty_graph(3), empty_graph(3)])
    assert certificate(multi) == certificate(permute(multi, (5, 1, 3, 2, 0, 4)))


def test_canonical_form_is_fixed_point():
    for n in range(0, 6):
        for g in enumerate_graphs(n):
            cf = canonical_form(g)
            assert certificate(cf) == certificate(g)
            assert canonical_form(cf) == cf
            assert graph6_decode(certificate(g).decode("ascii")) == cf


def test_canonical_labeling_is_permutation():
    for g in enumerate_graphs(5)[:10]:
        lab = canonical_labeling(g)
        assert sorted(lab) == list(range(g.n))
        assert permute(g, lab) == canonical_form(g)


def test_are_isomorphic_pairs():
    assert are_isomorphic(complete_graph(3), complete_graph(3))
    star = Graph(4, [(0, 1), (0, 2), (0, 3)])
    assert not are_isomorphic(complete_graph(3), star)
    assert not are_isomorphic(copies(complete_graph(2), 2), path_graph(4))


def test_catalog_pairwise_distinct():
    for n in (4, 5):
        reps = enumerate_graphs(n)
        for i, g in enumerate(reps):
            for j, h in enumerate(reps):
                assert are_isomorphic(g, h) == (i == j)


def test_witness_bijections_preserve_edges():
    rng = random.Random(4242)
    for n in range(2, 7):
        for g in enumerate_graphs(n)[:: max(1, len(enumerate_graphs(n)) // 8)]:
            perm = list(range(n))
            rng.shuffle(perm)
            h = permute(g, perm)
            mapping = find_isomorphism(g, h)
            assert mapping is not None
            assert sorted(mapping) == list(range(n))
            for u in range(n):
                for v in range(u + 1, n):
                    assert g.has_edge(u, v) == h.has_edge(mapping[u], mapping[v])
    assert find_isomorphism(complete_graph(3), path_graph(3)) is None


def test_component_ordering_irrelevant():
    a = union([complete_graph(3), path_graph(4)])
    b = union([path_graph(4), complete_graph(3)])
    assert certificate(a) == certificate(b)


def test_capacity_cap():
    with pytest.raises(CapacityError):
        certificate(empty_graph(64))
    certificate(empty_graph(63))  # at the cap, still allowed


def test_cache_is_pure_memoization():
    g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (0, 2)])
    first = certificate(g)
    assert certificate(g) == first
    clear_certificate_cache()
    assert certificate(g) == first


def test_small_order_exhaustive_iso():
    # every ordered pair of labeled 3-vertex graphs, engine vs brute force
    gs = list(all_labeled_graphs(3))
    for g in gs:
        for h in gs:
            brute = brute_canonical_mask(g) == brute_canonical_mask(h)
            assert are_isomorphic(g, h) == brute


def _petersen():
    from itertools import combinations

    subs = list(combinations(range(5), 2))
    idx = {s: i for i, s in enumerate(subs)}
    return Graph(
        10,
        [
            (idx[a], idx[b])
            for a in subs
            for b in subs
            if a < b and not set(a) & set(b)
        ],
    )


def _rook_4x4():
    return Graph(
        16,
        [
            (4 * r1 + c1, 4 * r2 + c2)
            for r1 in range(4)
            for c1 in range(4)
            for r2 in range(4)
            for c2 in range(4)
            if 4 * r1 + c1 < 4 * r2 + c2 and (r1 == r2 or c1 == c2)
        ],
    )


def _shrikhande():
    # Cayley graph on Z4 x Z4 with connection set {+-(1,0), +-(0,1), +-(1,1)}
    edges = set()
    for a in range(4):
        for b in range(4):
            for da, db in ((1, 0), (3, 0), (0, 1), (0, 3), (1, 1), (3, 3)):
                u, v = 4 * a + b, 4 * ((a + da) % 4) + (b + db) % 4
                if u != v:
                    edges.add((min(u, v), max(u, v)))
    return Graph(16, edges)


def test_refinement_inert_graphs():
    # vertex-transitive and strongly regular inputs leave degree refinement
    # with a single cell, so these exercise the search itself
    rng = random.Random(1602)
    for g in (_petersen(), _rook_4x4(), line_graph(line_graph(complete_graph(5)))):
        want = certificate(g)
        for _ in range(5):
            perm = list(range(g.n))
            rng.shuffle(perm)
            assert certificate(permute(g, perm)) == want


def test_cospectral_parameter_twins_are_separated():
    # two 6-regular graphs on 16 vertices with identical degree data and
    # 48 edges that only a full search can tell apart
    rook, shr = _rook_4x4(), _shrikhande()
    assert rook.m == shr.m == 48
    assert sorted(rook.degrees()) == sorted(shr.degrees())
    assert not are_isomorphic(rook, shr)


def test_warm_find_isomorphism_reuses_cached_labelings(monkeypatch):
    # the labeling is cached beside the certificate, so once both graphs'
    # certificates are known no canonical search runs again
    import reconkit.canon as canon

    rook = line_graph(join([empty_graph(6), empty_graph(6)]))  # 6x6 rook graph
    perm = list(range(rook.n))
    random.Random(36).shuffle(perm)
    other = permute(rook, perm)
    assert are_isomorphic(rook, other)

    def no_search(*args):
        raise AssertionError("canonical search ran for a cached pair")

    monkeypatch.setattr(canon, "_Search", no_search)
    mapping = find_isomorphism(rook, other)
    assert mapping is not None and sorted(mapping) == list(range(rook.n))
    assert rook.n == 36 and rook.m == 180
    for u, v in rook.edges:
        assert other.has_edge(mapping[u], mapping[v])
    lab = canonical_labeling(other)  # served from the cache as well
    assert permute(other, lab) == canonical_form(other)


def _symmetric_suite():
    # twins (stars, complete bipartite graphs) and vertex-transitive
    # graphs: a search that does not jump back on automorphisms walks
    # hundreds or thousands of leaves on most of them, depending on the
    # labeling
    return {
        "K1,25": join([empty_graph(1), empty_graph(25)]),
        "K1,33": join([empty_graph(1), empty_graph(33)]),
        "K1,39": join([empty_graph(1), empty_graph(39)]),
        "K5,20": join([empty_graph(5), empty_graph(20)]),
        "K1+E20": join([complete_graph(1), empty_graph(20)]),
        "T9": line_graph(complete_graph(9)),
        "rook6": line_graph(join([empty_graph(6), empty_graph(6)])),
        "petersen": _petersen(),
        "LLK5": line_graph(line_graph(complete_graph(5))),
    }


def _count_leaves(monkeypatch):
    # how many leaves the canonical searches reach from here on
    import reconkit.canon as canon

    leaves = [0]
    leaf = canon._Search._leaf

    def counting_leaf(self, *args):
        leaves[0] += 1
        return leaf(self, *args)

    monkeypatch.setattr(canon._Search, "_leaf", counting_leaf)
    return leaves


def test_search_leaves_stay_within_the_order(monkeypatch):
    # the search work, not its time: each relabeling is certified from an
    # empty cache in at most n leaves
    leaves = _count_leaves(monkeypatch)
    rng = random.Random(5)
    for name, g in _symmetric_suite().items():
        want = certificate(g)
        for _ in range(5):
            perm = list(range(g.n))
            rng.shuffle(perm)
            h = permute(g, perm)
            clear_certificate_cache()
            leaves[0] = 0
            assert certificate(h) == want, name
            assert leaves[0] <= g.n, (name, leaves[0])
            assert permute(h, canonical_labeling(h)) == canonical_form(h), name
            mapping = find_isomorphism(h, g)
            assert mapping is not None and sorted(mapping) == list(range(g.n))
            for u, v in h.edges:
                assert g.has_edge(mapping[u], mapping[v]), name


def test_twin_cells_take_one_leaf(monkeypatch):
    # from an empty cache, any labeling of a graph whose refined partition
    # has only twin cells (K1's for E20) is certified in one leaf. K10,10
    # and K3,3,3 are regular, so their first cell holds several twin
    # classes, and a leaf per class finds the automorphisms between them;
    # the individualized vertex's transposition with its twins prunes the
    # rest of its class, so no labeling takes more
    leaves = _count_leaves(monkeypatch)
    rng = random.Random(28)
    graphs = {
        "E20": (empty_graph(20), 1),
        "K20": (complete_graph(20), 1),
        "2K10": (copies(complete_graph(10), 2), 1),
        "K1,25": (join([empty_graph(1), empty_graph(25)]), 1),
        "K5,20": (join([empty_graph(5), empty_graph(20)]), 1),
        "K6,3,2,1": (join([empty_graph(s) for s in (6, 3, 2, 1)]), 1),
        "K10,10": (join([empty_graph(10)] * 2), 2),
        "K3,3,3": (join([empty_graph(3)] * 3), 3),
    }
    for name, (g, exact) in graphs.items():
        want = certificate(g)
        for _ in range(50):
            h = _relabeled(g, rng)
            clear_certificate_cache()
            leaves[0] = 0
            assert certificate(h) == want, name
            assert leaves[0] == exact, (name, leaves[0])


def _cograph(rng, n):
    # one vertex, or the disjoint union or the join of two smaller cographs
    if n == 1:
        return empty_graph(1)
    k = rng.randint(1, n - 1)
    parts = [_cograph(rng, k), _cograph(rng, n - k)]
    return union(parts) if rng.random() < 0.5 else join(parts)


def _twin_heavy_graphs():
    for n in range(8):
        yield from enumerate_graphs(n)
    for sizes in ((10, 10), (5, 20), (3, 3, 3), (2,) * 5, (6, 3, 2, 1)):
        multipartite = join([empty_graph(s) for s in sizes])
        yield multipartite
        yield complement(multipartite)  # disjoint cliques
    for n in (12, 20, 30):
        yield empty_graph(n)
        yield complete_graph(n)
    rng = random.Random(29)
    for n in range(2, 25):
        for _ in range(13):
            yield _cograph(rng, n)


def test_twin_leaf_matches_the_full_search(monkeypatch):
    # with no cell taken for a twin cell the search walks the tree level
    # by level; the twin leaf must give the same bytes
    import reconkit.canon as canon

    rng = random.Random(30)
    corpus = [_relabeled(g, rng) for g in _twin_heavy_graphs()]

    def answers():
        clear_certificate_cache()
        return [(certificate(g), canonical_labeling(g)) for g in corpus]

    twin_leaf = answers()
    monkeypatch.setattr(canon, "_twin_cell", lambda rows, cell: False)
    full_search = answers()
    assert len(corpus) > 1500
    for g, got, want in zip(corpus, twin_leaf, full_search):
        assert got == want, g.rows


def _group_order(n, gens):
    # the closure of the generators: every product reached from the identity
    seen = {tuple(range(n))}
    frontier = list(seen)
    while frontier:
        reached = []
        for p in frontier:
            for g in gens:
                q = tuple(g[x] for x in p)
                if q not in seen:
                    seen.add(q)
                    reached.append(q)
        frontier = reached
    return len(seen)


def test_search_generators_span_the_automorphism_group():
    # the oracle for the pruning: orbit pruning skips a sibling only when
    # a found automorphism maps it onto an explored one, so the generators
    # a search collects must be automorphisms that span all of Aut(G),
    # whose order networkx counts, on a seeded relabeling of every
    # connected class on n <= 7
    nx = pytest.importorskip("networkx")
    import reconkit.canon as canon

    rng = random.Random(34)
    classes = 0
    for n in range(1, 8):
        for g in enumerate_graphs(n):
            if len(component_masks(n, g.rows)) != 1:
                continue
            h = _relabeled(g, rng)
            search = canon._Search(h.n, h.rows)
            search.run()
            gens = set(search.gens)
            assert all(permute(h, perm) == h for perm in gens), h.rows
            graph = nx.Graph()
            graph.add_nodes_from(range(n))
            graph.add_edges_from(h.edges)
            matcher = nx.algorithms.isomorphism.GraphMatcher(graph, graph)
            automorphisms = sum(1 for _ in matcher.isomorphisms_iter())
            assert _group_order(n, gens) == automorphisms, h.rows
            classes += 1
    assert classes == 996


def test_search_keeps_each_generator_once():
    # twin leaves and repeated leaf matches find generators again; on
    # these labelings the searches once held 358 generators, 187 distinct
    import reconkit.canon as canon

    rng = random.Random(35)
    graphs = [
        _hypercube(5),
        line_graph(join([empty_graph(6), empty_graph(6)])),
        line_graph(complete_graph(9)),
        join([empty_graph(10), empty_graph(10)]),
        join([empty_graph(2)] * 5),
        join([empty_graph(4)] * 4),
    ]
    for g in graphs:
        for _ in range(3):
            h = _relabeled(g, rng)
            search = canon._Search(h.n, h.rows)
            search.run()
            assert len(set(search.gens)) == len(search.gens), h.rows


def test_union_certificates_match_the_oracle_at_order_63():
    # a disconnected graph's line is assembled from its components' lines;
    # at order 63 each component still has a one-byte size prefix, and the
    # whole line must be the per-bit encoding of the relabeled graph
    rng = random.Random(35)
    graphs = [union([complete_graph(62), empty_graph(1)]), empty_graph(63)]
    for order in (3, 7, 9, 21):
        parts = [_random_graph(rng, order, 0.5) for _ in range(63 // order)]
        graphs.append(_relabeled(union(parts), rng))
        graphs.append(_relabeled(copies(parts[0], 63 // order), rng))
    sizes = (1, 1, 2, 5, 12, 20, 22)
    graphs.append(_relabeled(union([_random_graph(rng, k, 0.3) for k in sizes]), rng))
    for g in graphs:
        assert g.n == 63 and len(component_masks(g.n, g.rows)) > 1
        code = relabel_rows(g.n, g.rows, canonical_labeling(g))
        assert certificate(g) == graph6_oracle.graph6_encode_rows(g.n, code).encode("ascii")


def test_symmetric_certificate_bytes_are_pinned():
    # the n <= 7 digest cannot see a change in the certificates of larger
    # graphs whose search prunes by automorphisms at every level. This digest was recorded with the search before it jumped
    # back on automorphisms (it visited every leaf orbit pruning left),
    # by running this same loop: the construction labeling, then one
    # relabeling drawn from random.Random(12) per graph, in this order.
    rng = random.Random(12)
    graphs = dict(_symmetric_suite(), shrikhande=_shrikhande(), rook4=_rook_4x4())
    digest = hashlib.sha256()
    for name, g in graphs.items():
        perm = list(range(g.n))
        rng.shuffle(perm)
        for h in (g, permute(g, perm)):
            digest.update(name.encode() + b" " + certificate(h) + b"\n")
    assert digest.hexdigest() == (
        "1fb4579b5632dce66b2270646cf4efc7bea04319db20f0f9e764b1ca3692de5c"
    )


def _count_searches(monkeypatch):
    # how many canonical searches run from here on, starting from an
    # empty cache
    import reconkit.canon as canon

    searches = [0]
    run = canon._Search.run

    def counting_run(self):
        searches[0] += 1
        return run(self)

    monkeypatch.setattr(canon._Search, "run", counting_run)
    clear_certificate_cache()
    return searches


def _labeled_components(g):
    # each component as (order, rows over its vertices in increasing order)
    out = set()
    for comp in component_masks(g.n, g.rows):
        verts = [v for v in range(g.n) if comp >> v & 1]
        index = {v: i for i, v in enumerate(verts)}
        rows = tuple(
            sum(1 << index[u] for u in g.neighbors(v)) for v in verts
        )
        out.add((len(verts), rows))
    return out


def test_recurring_component_is_searched_once(monkeypatch):
    perm = list(range(10))
    random.Random(3).shuffle(perm)
    p = permute(_petersen(), perm)
    searches = _count_searches(monkeypatch)
    cert = certificate(union([p, p]))
    assert searches[0] == 1
    assert cert == certificate(union([_petersen(), _petersen()]))


def test_gadget_build_searches_each_labeled_component_once(monkeypatch):
    g = path_graph(5)
    h = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    searches = _count_searches(monkeypatch)
    deck = gi_to_led(g, h, 2)
    components = set()
    for card in deck.cards:
        components |= _labeled_components(card)
    assert searches[0] <= len(components)


@pytest.mark.parametrize("limit", [1, 2, 3])
def test_memo_survives_clears_between_component_and_whole(monkeypatch, limit):
    # with a tiny cache limit the memo is cleared after a component's
    # entry and before the whole graph's, or in between two components
    import reconkit.canon as canon

    suite = _symmetric_suite()
    graphs = [
        union([suite["petersen"], empty_graph(2), complete_graph(2), suite["petersen"]]),
        union([complete_graph(2), suite["K5,20"], empty_graph(1), complete_graph(2)]),
        union([empty_graph(3), suite["T9"], complete_graph(2)]),
        union([suite["LLK5"], complete_graph(2), suite["K1+E20"], empty_graph(1)]),
    ]
    rng = random.Random(limit)
    cases = []
    for g in graphs:
        perm = list(range(g.n))
        rng.shuffle(perm)
        h = permute(g, perm)
        clear_certificate_cache()
        cases.append((g, h, certificate(h)))
    # a connected canonical form stores one entry, so the memo can be
    # filled to limit - 1 before a search miss that would store two
    forms = [canonical_form(path_graph(k)) for k in range(2, 1 + limit)]
    miss = _relabeled(suite["petersen"], rng)
    clear_certificate_cache()
    miss_entry = (certificate(miss), canonical_labeling(miss))
    monkeypatch.setattr(canon, "_CACHE_LIMIT", limit)

    def within_limit(result):
        # a search miss stores two entries; the memo never passes its limit
        assert len(canon._CERT_CACHE) <= limit
        return result

    for g, h, want in cases:
        clear_certificate_cache()
        assert within_limit(certificate(h)) == want
        lab = within_limit(canonical_labeling(h))
        assert permute(h, lab) == within_limit(canonical_form(h))
        mapping = within_limit(find_isomorphism(h, g))
        assert mapping is not None and sorted(mapping) == list(range(g.n))
        for u, v in h.edges:
            assert g.has_edge(mapping[u], mapping[v])
    clear_certificate_cache()
    for form in forms:
        within_limit(certificate(form))
    assert len(canon._CERT_CACHE) == limit - 1
    assert within_limit(certificate(miss)) == miss_entry[0]
    assert within_limit(canonical_labeling(miss)) == miss_entry[1]
    assert canon._memo_key(miss.n, miss.rows) in canon._CERT_CACHE


def _identity_leaf_corpus():
    # every class on n <= 7 relabeled, seeded random graphs of orders 2-40
    # at densities 0.1-0.9, unions of those, and the symmetric graphs
    rng = random.Random(36)
    corpus = [_relabeled(g, rng) for n in range(8) for g in enumerate_graphs(n)]
    pieces = []
    for n in range(2, 41):
        for density in (0.1, 0.3, 0.5, 0.7, 0.9):
            pieces.append(_random_graph(rng, n, density))
    corpus += [_relabeled(g, rng) for g in pieces]
    for _ in range(40):
        parts = [rng.choice(pieces[:100]) for _ in range(rng.randint(2, 4))]
        corpus.append(_relabeled(union(parts), rng))
    for g in list(_symmetric_suite().values()) + _six_symmetric():
        corpus += [g, _relabeled(g, rng)]
    return corpus


def test_canonical_form_searches_to_the_identity():
    # a miss stores the canonical form C with the identity labeling,
    # because C's own search would return it: its first leaf is the
    # identity, with code C (module docstring). Checked from an empty
    # memo: the search on a connected C, and the entry of every C, cold
    # and as the memo holds it after certifying g
    import reconkit.canon as canon

    corpus = _identity_leaf_corpus()
    unions = 0
    for g in corpus:
        clear_certificate_cache()
        cert = certificate(g)
        c = graph6_decode(cert.decode("ascii"))
        identity = bytes(range(c.n))
        warm = canon._canon_entry(c.n, c.rows)
        assert warm == (cert, identity), g.rows
        clear_certificate_cache()
        if len(component_masks(c.n, c.rows)) == 1:
            assert canon._Search(c.n, c.rows).run() == (tuple(range(c.n)), tuple(c.rows))
            clear_certificate_cache()
        else:
            unions += 1
        assert canon._canon_entry(c.n, c.rows) == warm, g.rows
    assert len(corpus) == 1253 + 195 + 40 + 30 and unions > 300


def test_certified_graph_needs_no_search_of_its_canonical_form(monkeypatch):
    # work bound: once x is certified, its canonical form is a memo hit
    rng = random.Random(36)
    corpus = [_relabeled(g, rng) for g in enumerate_graphs(6)[::5]]
    corpus += [_relabeled(g, rng) for g in _symmetric_suite().values()]
    corpus += [_random_graph(rng, n, 0.4) for n in (9, 17, 30)]
    corpus.append(union([corpus[-1], corpus[-2]]))
    searches = _count_searches(monkeypatch)
    for x in corpus:
        certificate(x)
        before = searches[0]
        form = canonical_form(x)
        mapping = find_isomorphism(x, form)
        assert certificate(form) == certificate(x)
        assert canonical_labeling(form) == tuple(range(x.n))
        assert searches[0] == before, x.rows
        assert permute(x, mapping) == form


def test_catalog_pass_search_count(monkeypatch):
    # work bound: the catalog-canon loop over the classes of n <= 6, from
    # an empty memo after the set-up. find_isomorphism(x, rep) searched
    # each connected class again, for 439 searches
    rng = random.Random(36)
    reps = [g for n in range(1, 7) for g in enumerate_graphs(n)]
    rep_decks = [build_deck(rep, "vertex", 1) for rep in reps]
    items = [(i, _relabeled(rep, rng)) for i, rep in enumerate(reps)]
    rng.shuffle(items)
    searches = _count_searches(monkeypatch)
    for i, x in items:
        certificate(x)
        assert find_isomorphism(x, reps[i]) is not None
        assert deck_equal(build_deck(x, "vertex", 1), rep_decks[i])
    assert len(reps) == 208
    assert searches[0] == 315


def test_certificates_agree_with_networkx_on_unions():
    # independent oracle: certificate equality iff networkx finds an
    # isomorphism, on unions of 2-4 relabeled random components, paired
    # with a relabeled copy or with a copy that has one edge moved
    nx = pytest.importorskip("networkx")

    def to_nx(g):
        out = nx.Graph()
        out.add_nodes_from(range(g.n))
        out.add_edges_from(g.edges)
        return out

    def relabeled(g):
        perm = list(range(g.n))
        rng.shuffle(perm)
        return permute(g, perm)

    def component():
        n = rng.randint(1, 6)
        edges = {(rng.randrange(v), v) for v in range(1, n)}  # spanning tree
        edges |= {(u, v) for v in range(n) for u in range(v) if rng.random() < 0.3}
        return Graph(n, edges)

    def moved_edge(g):
        non_edges = [
            (u, v) for v in range(g.n) for u in range(v) if not g.has_edge(u, v)
        ]
        if not non_edges or not g.edges:
            return g
        drop = rng.choice(g.edges)
        edges = [e for e in g.edges if e != drop] + [rng.choice(non_edges)]
        return Graph(g.n, edges)

    rng = random.Random(2024)
    outcomes = {True: 0, False: 0}
    for _ in range(300):
        parts = [component() for _ in range(rng.randint(2, 4))]
        g = relabeled(union([relabeled(p) for p in parts]))
        others = [relabeled(p) for p in parts]
        if rng.random() < 0.5:
            i = rng.randrange(len(others))
            others[i] = moved_edge(others[i])
        rng.shuffle(others)
        h = relabeled(union(others))
        same = nx.is_isomorphic(to_nx(g), to_nx(h))
        assert (certificate(g) == certificate(h)) == same
        outcomes[same] += 1
    assert min(outcomes.values()) >= 50, outcomes


def _random_graph(rng, n, density):
    return Graph(n, {(u, v) for v in range(n) for u in range(v) if rng.random() < density})


def _relabeled(g, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    return permute(g, perm)


def _hypercube(d):
    n = 1 << d
    return Graph(n, [(u, u ^ 1 << b) for u in range(n) for b in range(d) if u < u ^ 1 << b])


def _paley(q):
    squares = {x * x % q for x in range(1, q)}
    return Graph(q, [(u, v) for u in range(q) for v in range(u + 1, q) if (v - u) % q in squares])


def _buckyball():
    # C60: one vertex per arc u->v of the icosahedron (apex 0, rings 1..5
    # and 6..10, apex 11); u->v meets v->u and u->w for w adjacent to v
    ico_edges = []
    for i in range(1, 6):
        j = i % 5 + 1
        ico_edges += [(0, i), (i, j), (i, 5 + i), (i, 5 + j), (5 + i, 5 + j), (11, 5 + i)]
    ico = Graph(12, ico_edges)
    arcs = [(u, v) for u in range(12) for v in ico.neighbors(u)]
    index = {arc: i for i, arc in enumerate(arcs)}
    edges = set()
    for u, v in arcs:
        edges.add(tuple(sorted((index[(u, v)], index[(v, u)]))))
        for w in ico.neighbors(u):
            if ico.has_edge(v, w):
                edges.add(tuple(sorted((index[(u, v)], index[(u, w)]))))
    return Graph(60, edges)


def _six_symmetric():
    # Q5, Paley(29), Paley(37), the 6x6 rook graph, T(9) and C60
    return [
        _hypercube(5),
        _paley(29),
        _paley(37),
        line_graph(join([empty_graph(6), empty_graph(6)])),
        line_graph(complete_graph(9)),
        _buckyball(),
    ]


def test_refine_matches_the_neighbor_walk_oracle(monkeypatch):
    # every refinement the certificates of this corpus ask for, replayed
    # through the former kernel: the ordered partitions must be identical
    import reconkit.canon as canon

    calls = []
    refine = canon._refine

    def spy(n, rows, cells, masks, fresh=None):
        cells_in = [list(cell) for cell in cells]
        out, out_masks = refine(n, rows, cells, masks, fresh)
        calls.append((n, tuple(rows), cells_in, [list(cell) for cell in out]))
        return out, out_masks

    monkeypatch.setattr(canon, "_refine", spy)
    rng = random.Random(85013)
    corpus = [_relabeled(g, rng) for n in range(0, 8) for g in enumerate_graphs(n)]
    corpus += [_relabeled(g, rng) for g in _six_symmetric()]
    for n in range(5, 41):
        for density in (0.1, 0.3, 0.5, 0.7, 0.95):
            corpus.append(_random_graph(rng, n, density))
    for n in (20, 29, 40):
        corpus.append(_relabeled(delete_edges(complete_graph(n), [(0, 1)]), rng))
    # a twin cell ends the search without refining, so the classes on 6
    # and 7 vertices come twice more, relabeled anew
    corpus += [_relabeled(g, rng) for _ in range(2) for n in (6, 7) for g in enumerate_graphs(n)]
    clear_certificate_cache()
    for g in corpus:
        certificate(g)
    assert len(calls) > 5000
    assert sum(len(out) - len(cells) for _, _, cells, out in calls) > 0
    for n, rows, cells, out in calls:
        assert oracle_refine(n, rows, cells) == out, (n, rows, cells)


def _random_partition(rng, n):
    # an ordered partition of range(n) into ascending cells, cut from a
    # shuffled vertex order at random places
    verts = list(range(n))
    rng.shuffle(verts)
    cuts = sorted(rng.sample(range(1, n), rng.randint(0, n - 1))) if n > 1 else []
    bounds = [0] + cuts + [n]
    return [sorted(verts[a:b]) for a, b in zip(bounds, bounds[1:]) if a < b]


def test_refine_from_any_partition_matches_the_oracle():
    # with no individualized cell _refine may assume nothing equitable,
    # so its first round must sign every cell. Each stable result then
    # gets one vertex individualized as _descend does, which takes the
    # shortcut round
    import reconkit.canon as canon

    rng = random.Random(33)
    splits = individualized = 0
    for n in range(0, 41):
        for density in (0.1, 0.3, 0.5, 0.7, 0.95):
            g = _random_graph(rng, n, density)
            unit = [list(range(n))] if n else []
            for cells in [unit] + [_random_partition(rng, n) for _ in range(3)]:
                want = oracle_refine(n, g.rows, cells)
                masks = [sum(1 << v for v in cell) for cell in cells]
                got, masks = canon._refine(n, g.rows, cells, masks)
                assert got == want, (n, g.rows, cells)
                assert masks == [sum(1 << v for v in cell) for cell in got]
                splits += len(got) > len(cells)
                wide = [t for t, cell in enumerate(got) if len(cell) > 1]
                if not wide:
                    continue
                t = rng.choice(wide)
                v = rng.choice(got[t])
                bit = 1 << v
                child = got[:t] + [[v], [u for u in got[t] if u != v]] + got[t + 1:]
                child_masks = masks[:t] + [bit, masks[t] ^ bit] + masks[t + 1:]
                want = oracle_refine(n, g.rows, child)
                got, masks = canon._refine(n, g.rows, child, child_masks, t)
                assert got == want, (n, g.rows, child)
                assert masks == [sum(1 << v for v in cell) for cell in got]
                individualized += 1
    assert splits > 600 and individualized > 200, (splits, individualized)


def _dense_graphs():
    # complements of sparse random graphs, and K_n minus a matching
    rng = random.Random(16)
    for n in range(16, 41):
        yield f"co-sparse{n}", complement(_random_graph(rng, n, 3 / n))
    for n in (16, 20, 29, 40):
        for k in (1, 2, n // 4, n // 2):
            yield f"K{n}-M{k}", complement(Graph(n, [(2 * i, 2 * i + 1) for i in range(k)]))


def test_dense_certificate_bytes_are_pinned():
    # the two digests above barely reach dense refinement rounds. This one
    # was recorded with the neighbor-walk kernel (tests/canon_oracle.py),
    # before refinement went to cell bitmasks, by running this same loop:
    # each graph as built, then one relabeling from random.Random(17)
    rng = random.Random(17)
    digest = hashlib.sha256()
    for name, g in _dense_graphs():
        perm = list(range(g.n))
        rng.shuffle(perm)
        for h in (g, permute(g, perm)):
            digest.update(name.encode() + b" " + certificate(h) + b"\n")
    assert digest.hexdigest() == (
        "e4d8040e367d46182db153f64f956c05b6d686efede8d433e26d48436c8c1ad7"
    )


def test_relabeling_property():
    # any graph up to order 40, any density: the certificate and the
    # canonical form do not see the labeling, and find_isomorphism
    # returns an edge bijection
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @st.composite
    def labeled_pair(draw):
        n = draw(st.integers(0, 40))
        density = draw(st.floats(0.0, 1.0))
        seed = draw(st.integers(0, 2**32 - 1))
        rng = random.Random(seed)
        g = _random_graph(rng, n, density)
        perm = draw(st.permutations(range(n)))
        return g, permute(g, perm)

    @hypothesis.settings(
        derandomize=True, deadline=None, database=None, max_examples=60
    )
    @hypothesis.given(labeled_pair())
    def check(pair):
        g, h = pair
        assert certificate(h) == certificate(g)
        assert canonical_form(h) == canonical_form(g)
        mapping = find_isomorphism(g, h)
        assert mapping is not None and sorted(mapping) == list(range(g.n))
        assert sorted(
            tuple(sorted((mapping[u], mapping[v]))) for u, v in g.edges
        ) == list(h.edges)

    check()


def test_canonical_labeling_bytes_are_pinned():
    # find_isomorphism and the glued witnesses of deciders read canonical
    # labelings, and a graph with automorphisms has several labelings onto
    # its one canonical form, so the certificate digests cannot see them.
    # This digest was recorded before refinement went incremental, by
    # running this same loop: the three certificate digests' corpora,
    # relabeled as there, then the six symmetric graphs as built and
    # relabeled by random.Random(33)
    graphs = []
    rng = random.Random(7)
    for n in range(0, 8):
        graphs += [_relabeled(g, rng) for g in enumerate_graphs(n)]
    rng = random.Random(12)
    symmetric = dict(_symmetric_suite(), shrikhande=_shrikhande(), rook4=_rook_4x4())
    for g in symmetric.values():
        graphs += [g, _relabeled(g, rng)]
    rng = random.Random(17)
    for _, g in _dense_graphs():
        graphs += [g, _relabeled(g, rng)]
    rng = random.Random(33)
    for g in _six_symmetric():
        graphs += [g, _relabeled(g, rng)]
    digest = hashlib.sha256()
    for g in graphs:
        digest.update(bytes(canonical_labeling(g)) + b"\n")
    assert len(graphs) == 1253 + 22 + 82 + 12
    assert digest.hexdigest() == (
        "88325f98f49c7f8e0a6723b1d776aebc250dc8f8e1c9362ceef8e3223c04d78d"
    )
