import random
from itertools import product

import pytest

import graph6_oracle
from conftest import all_labeled_graphs, brute_canonical_mask, brute_isomorphic, random_graph

import reconkit.canon as canon
import reconkit.graph as graph_module
from reconkit.canon import are_isomorphic, certificate
from reconkit.deciders import enum_preimages
from reconkit.deck import Deck, build_deck
from reconkit.errors import CapacityError, Graph6ParseError, InputError, ReconError
from reconkit.graph import (
    Graph,
    _decode_triangle,
    _sized_patterns,
    _triangle,
    complement,
    complete_graph,
    component_masks,
    copies,
    delete_edges,
    delete_vertices,
    empty_graph,
    enumerate_graphs,
    extend_rows,
    extension_classes,
    graph6_decode,
    graph6_encode,
    is_connected,
    iter_bits,
    join,
    line_graph,
    path_graph,
    permute,
    rows_edges,
    twin_patterns,
    union,
)
from reconkit.reductions import gi_to_kled


def test_graph_validation(monkeypatch):
    with pytest.raises(InputError):
        Graph(3, [(0, 0)])
    with pytest.raises(InputError):
        Graph(3, [(0, 3)])
    with pytest.raises(InputError):
        Graph(-1)
    # orders stop at graph6's limit, checked before any rows are built
    assert Graph(258047).n == 258047
    with pytest.raises(CapacityError, match="capped at 258047"):
        Graph(258048)
    with pytest.raises(CapacityError, match="capped at 258047, got 258048"):
        complete_graph(258048)
    # so do unions and copies (any number of copies of K_0 is K_0), and
    # graph6_encode refuses a larger order, built unchecked, before it
    # packs the triangle
    assert union([empty_graph(258046), empty_graph(1)]).n == 258047
    assert copies(empty_graph(258047), 1).n == 258047
    assert copies(empty_graph(0), 10**5000) == empty_graph(0)
    monkeypatch.setattr(graph_module, "_triangle", None)
    with pytest.raises(CapacityError, match="n <= 258047, got 258048"):
        graph6_encode(Graph._from_rows(258048, [0] * 258048))
    # duplicates and orientation collapse to one canonical edge
    assert Graph(3, [(1, 0), (0, 1)]).edges == ((0, 1),)


def test_graph_is_immutable():
    g = path_graph(3)
    for name, value in (("n", 4), ("rows", (0, 0, 0)), ("m", 0), ("edges", ()), ("x", 1)):
        with pytest.raises(AttributeError):
            setattr(g, name, value)
    assert g == path_graph(3)


def test_repr_lists_the_edges():
    assert repr(Graph(4, [(2, 3), (1, 0), (2, 1)])) == (
        "Graph(n=4, edges=[(0, 1), (1, 2), (2, 3)])"
    )
    assert repr(empty_graph(2)) == "Graph(n=2, edges=[])"


def test_edges_come_out_in_lexicographic_order():
    assert Graph(4, [(3, 2), (0, 3), (1, 0), (3, 0)]).edges == ((0, 1), (0, 3), (2, 3))
    rng = random.Random(3)
    for _ in range(100):
        g = random_graph(rng, rng.randint(0, 12), 0.4)
        assert list(g.edges) == sorted(g.edges)
        assert all(u < v for u, v in g.edges) and g.m == len(g.edges)


def test_derived_graphs_equal_their_validated_twins():
    # each derived constructor builds rows without validation; its result
    # must be ==, and hash-equal, to the graph validated from its edges
    # (rows kept as a list would fail both)
    rng = random.Random(8)
    for _ in range(40):
        g = random_graph(rng, rng.randint(1, 7), 0.5)
        h = random_graph(rng, rng.randint(0, 5), 0.5)
        perm = list(range(g.n))
        rng.shuffle(perm)
        derived = [
            union([g, h, g]),
            join([g, h]),
            join([h, empty_graph(1), g]),
            copies(h, 3),
            complement(g),
            line_graph(g),
            delete_vertices(g, [v for v in range(g.n) if rng.random() < 0.4]),
            delete_edges(g, [e for e in g.edges if rng.random() < 0.4]),
            permute(g, perm),
            complete_graph(g.n),
            empty_graph(g.n),
            graph6_decode(graph6_encode(g)),
        ]
        for d in derived:
            twin = Graph(d.n, d.edges)
            assert d == twin and hash(d) == hash(twin)
            assert type(d.rows) is tuple and d.m == twin.m


def test_derived_graphs_skip_the_validating_constructor(monkeypatch):
    k6 = complete_graph(6)
    k3 = complete_graph(3)
    calls = []
    validating = Graph.__init__

    def counted(self, n, edges=()):
        calls.append(n)
        validating(self, n, edges)

    monkeypatch.setattr(Graph, "__init__", counted)
    assert [len(build_deck(k6, kind, 2)) for kind in ("vertex", "edge")] == [15, 105]
    union([k6, k6])
    complement(k6)
    permute(k6, (5, 4, 3, 2, 1, 0))
    gi_to_kled(k3, k3, 2, 2)
    assert calls == []


def test_out_of_range_arguments_are_refused_before_indexing():
    # rows[-1] would read the last vertex, so range is checked first
    g = complete_graph(4)
    for bad in ((-1, 2), (0, 9), (2, -1), (1, 1)):
        with pytest.raises(InputError):
            delete_edges(g, [bad])
    with pytest.raises(InputError):
        delete_vertices(g, [-1])
    with pytest.raises(InputError):
        complete_graph(-1)
    with pytest.raises(InputError):
        empty_graph(-1)


def test_combine():
    g = union([complete_graph(2), empty_graph(1)])
    assert g.n == 3 and g.m == 1
    assert are_isomorphic(join([empty_graph(1), empty_graph(1)]), complete_graph(2))
    g = join([complete_graph(2), empty_graph(2)])
    assert g.n == 4 and g.m == 1 + 4
    # three-part join adds all pairwise cross edges
    g = join([empty_graph(1), empty_graph(1), empty_graph(1)])
    assert are_isomorphic(g, complete_graph(3))
    with pytest.raises(InputError):
        union([])
    with pytest.raises(InputError):
        join([])


def test_join_order_only_relabels():
    a = join([complete_graph(2), empty_graph(2), path_graph(3)])
    b = join([path_graph(3), empty_graph(2), complete_graph(2)])
    assert a.edges != b.edges or a == b
    assert are_isomorphic(a, b)


def test_union_identity():
    for g in enumerate_graphs(4):
        assert union([g, empty_graph(0)]) == g


def test_complement():
    assert complement(complete_graph(3)).m == 0
    comp = complement(path_graph(3))
    assert are_isomorphic(comp, union([complete_graph(2), empty_graph(1)]))
    # the surviving edge joins the two former endpoints
    assert comp.edges == ((0, 2),)
    rng = random.Random(11)
    for _ in range(50):
        n = rng.randint(0, 6)
        g = Graph(n, [e for e in complete_graph(n).edges if rng.random() < 0.5])
        assert complement(complement(g)) == g


def test_line_graph():
    assert are_isomorphic(line_graph(path_graph(4)), path_graph(3))
    assert are_isomorphic(line_graph(complete_graph(3)), complete_graph(3))
    star = Graph(4, [(0, 1), (0, 2), (0, 3)])
    assert are_isomorphic(line_graph(star), complete_graph(3))
    for n in range(2, 8):
        assert are_isomorphic(line_graph(path_graph(n)), path_graph(n - 1))


def test_delete():
    assert are_isomorphic(delete_vertices(complete_graph(3), {0}), complete_graph(2))
    assert are_isomorphic(delete_vertices(path_graph(3), {1}), empty_graph(2))
    assert are_isomorphic(delete_edges(complete_graph(3), {(0, 1)}), path_graph(3))
    with pytest.raises(InputError):
        delete_vertices(path_graph(3), {5})
    with pytest.raises(InputError):
        delete_edges(path_graph(3), {(0, 2)})
    # deletion relabels compactly and preserves relative order
    g = Graph(4, [(0, 1), (1, 2), (2, 3)])
    assert delete_vertices(g, {1}).edges == ((1, 2),)
    for g in enumerate_graphs(5):
        assert delete_vertices(g, {0, 3}).n == g.n - 2


def test_metrics():
    assert is_connected(complete_graph(4))
    assert is_connected(path_graph(3))
    two_edges = copies(complete_graph(2), 2)
    assert not is_connected(two_edges)
    assert len(component_masks(two_edges.n, two_edges.rows)) == 2
    assert is_connected(empty_graph(1))
    assert is_connected(empty_graph(0))


def test_rows_kernel_agrees_with_graph():
    # oracle: the edge tuples Graph builds, and a component search over
    # them that does not use the bitmask rows
    assert list(iter_bits(0b101001)) == [0, 3, 5]
    rng = random.Random(5)
    for _ in range(200):
        n = rng.randint(0, 9)
        g = Graph(n, [e for e in complete_graph(n).edges if rng.random() < 0.3])
        assert rows_edges(g.n, g.rows) == list(g.edges)
        label = list(range(n))
        for _ in range(n):
            for u, v in g.edges:
                label[u] = label[v] = min(label[u], label[v])
        expected = {}
        for v in range(n):
            expected[label[v]] = expected.get(label[v], 0) | 1 << v
        assert component_masks(g.n, g.rows) == [expected[r] for r in sorted(expected)]
    # twin_patterns: every labeled one-vertex extension is isomorphic to the
    # extension by some pattern of the same size; patterns are distinct
    def extend(g, attach):
        return Graph(g.n + 1, list(g.edges) + [(v, g.n) for v in iter_bits(attach)])

    for n in range(0, 5):
        for g in all_labeled_graphs(n):
            every = list(twin_patterns(n, g.rows, None))
            assert len(every) == len(set(every))
            for attach in every:
                assert extend_rows(n, g.rows, attach) == list(extend(g, attach).rows)
            for size in range(0, n + 1):
                sized = list(twin_patterns(n, g.rows, size))
                assert sized == [a for a in every if a.bit_count() == size]
                reached = {brute_canonical_mask(extend(g, a)) for a in sized}
                for attach in range(1 << n):
                    if attach.bit_count() == size:
                        assert brute_canonical_mask(extend(g, attach)) in reached
            # sizes out of range, as the pure vertex search's Kelly count
            # can ask for fewer than no added edges, have no pattern
            for size in (-1, n + 1):
                assert list(twin_patterns(n, g.rows, size)) == []


def test_sized_patterns_are_the_product_filtered_by_size():
    # one enumerator serves twin patterns (disjoint masks summed from 0) and
    # recon's count profiles (one-tuples summed from ()): either way it is
    # product(*prefixes) filtered by size, in product order
    rng = random.Random(39)
    for _ in range(300):
        caps = [rng.randint(0, 3) for _ in range(rng.randint(0, 5))]
        total = sum(caps)
        counts = [[(k,) for k in range(cap + 1)] for cap in caps]
        masks = []
        for i, cap in enumerate(caps):
            low = sum(caps[:i])
            masks.append([(1 << k) - 1 << low for k in range(cap + 1)])
        for size in (-1, 0, rng.randint(0, total), total, total + 1):
            want = [v for v in product(*(range(cap + 1) for cap in caps)) if sum(v) == size]
            assert list(_sized_patterns(counts, size, ())) == want
            assert list(_sized_patterns(masks, size, 0)) == [
                sum(m[k] for m, k in zip(masks, v)) for v in want
            ]


def test_permute():
    g = path_graph(4)
    h = permute(g, (3, 1, 0, 2))
    assert h.n == g.n and h.m == g.m
    assert are_isomorphic(g, h)
    with pytest.raises(InputError):
        permute(g, (0, 0, 1, 2))


# --- enumeration ------------------------------------------------------------


def test_enumeration_counts_against_labeled_dedupe():
    # oracle: enumerate every labeled graph, dedupe by exhaustive
    # minimum-mask canonicalization; the representatives must hit each
    # class exactly once
    for n in range(0, 6):
        classes = {brute_canonical_mask(g) for g in all_labeled_graphs(n)}
        reps = [brute_canonical_mask(g) for g in enumerate_graphs(n)]
        assert len(reps) == len(set(reps)) and set(reps) == classes
    # A000088
    assert [len(enumerate_graphs(n)) for n in range(0, 8)] == [
        1, 1, 2, 4, 11, 34, 156, 1044
    ]


def test_enumeration_no_isomorphic_pair():
    for n in range(0, 6):
        reps = enumerate_graphs(n)
        certs = {certificate(g) for g in reps}
        assert len(certs) == len(reps)


def test_enumeration_covers_random_labeled_graphs():
    rng = random.Random(99)
    for n in range(1, 6):
        reps = enumerate_graphs(n)
        certs = [certificate(g) for g in reps]
        for _ in range(200 // n):
            g = Graph(n, [e for e in complete_graph(n).edges if rng.random() < 0.5])
            assert certs.count(certificate(g)) == 1


def test_enumeration_matches_the_networkx_atlas():
    # independent check of the shared extension round: the Atlas of Graphs
    # lists every class on 0..7 vertices once
    nx = pytest.importorskip("networkx")
    by_order = {}
    for h in nx.graph_atlas_g():
        by_order.setdefault(h.number_of_nodes(), []).append(h)
    for n in range(0, 8):
        theirs = {}  # sorted degree sequence -> atlas graphs not yet matched
        for h in by_order[n]:
            theirs.setdefault(tuple(sorted(d for _, d in h.degree())), []).append(h)
        ours = enumerate_graphs(n)
        assert len(ours) == len(by_order[n])
        for g in ours:
            mine = nx.Graph()
            mine.add_nodes_from(range(n))
            mine.add_edges_from(g.edges)
            bucket = theirs.get(tuple(sorted(g.degrees())), [])
            match = next((i for i, h in enumerate(bucket) if nx.is_isomorphic(mine, h)), None)
            assert match is not None, graph6_encode(g)
            del bucket[match]


def test_canonical_deletion_filter_keeps_every_class(monkeypatch):
    # the filtered round finds the classes of the unfiltered one, and
    # certifies 1,425 extensions on 7 vertices where it certified 6,412
    calls = [0]
    real = canon.certificate_rows

    def spy(n, rows):
        calls[0] += 1
        return real(n, rows)

    monkeypatch.setattr(canon, "certificate_rows", spy)
    for n in range(1, 8):
        base = [g.rows for g in enumerate_graphs(n - 1)]
        calls[0] = 0
        filtered = extension_classes(n - 1, base, canonical_deletion=True)
        kept = calls[0]
        calls[0] = 0
        unfiltered = extension_classes(n - 1, base)
        assert sorted(filtered) == sorted(unfiltered)
        assert kept <= calls[0]
    assert kept <= 1_425 and calls[0] == 6_412


def test_search_rounds_are_not_filtered():
    # K3 + K1's new vertex has degree 0 against K3's 2, so the filter would
    # drop it; a preimage search extending a fixed card still needs it
    k3 = complete_graph(3)
    isolated = union([k3, empty_graph(1)])
    assert certificate(isolated) in extension_classes(3, [k3.rows])
    assert certificate(isolated) not in extension_classes(3, [k3.rows], canonical_deletion=True)
    preimages = enum_preimages(Deck("vertex", [k3]), 2, "sub").preimages
    assert certificate(union([k3, empty_graph(2)])) in {certificate(p) for p in preimages}


def test_enumeration_cap():
    with pytest.raises(CapacityError):
        enumerate_graphs(8)
    with pytest.raises(InputError):
        enumerate_graphs(-1)


# --- graph6 -----------------------------------------------------------------


def test_graph6_hand_encodings():
    # derived by hand from the format: n prefixed as chr(63+n), triangle
    # bits in column order packed into 6-bit groups offset by 63
    assert graph6_encode(complete_graph(3)) == "Bw"
    assert graph6_encode(empty_graph(2)) == "A?"
    assert graph6_decode("Bw") == complete_graph(3)
    assert graph6_decode("A?") == empty_graph(2)


def test_graph6_roundtrip():
    for n in range(0, 6):
        for g in enumerate_graphs(n):
            line = graph6_encode(g)
            assert graph6_decode(line) == g
            assert graph6_encode(graph6_decode(line)) == line


def test_graph6_header_and_long_form():
    assert graph6_decode(">>graph6<<Bw") == complete_graph(3)
    g = empty_graph(63)
    assert graph6_decode(graph6_encode(g)) == g


def test_graph6_errors():
    with pytest.raises(Graph6ParseError) as err:
        graph6_decode("B" + chr(30))
    assert err.value.offset == 1
    with pytest.raises(Graph6ParseError):
        graph6_decode("B")  # body too short for order 3
    with pytest.raises(Graph6ParseError):
        graph6_decode("Bww")  # trailing bytes
    with pytest.raises(Graph6ParseError) as err:
        graph6_decode("A@")  # nonzero padding bit for order 2
    assert err.value.offset == 1
    with pytest.raises(Graph6ParseError):
        graph6_decode("")


def test_graph6_agrees_with_networkx():
    # independent codec: both size forms (n <= 62 and the "~" form above)
    nx = pytest.importorskip("networkx")
    rng = random.Random(6)
    for n in list(range(0, 71)) * 3:
        g = random_graph(rng, n, rng.choice((0.1, 0.5, 0.9)))
        other = nx.Graph()
        other.add_nodes_from(range(n))
        other.add_edges_from(g.edges)
        line = nx.to_graph6_bytes(other, header=False).decode("ascii").rstrip("\n")
        assert graph6_encode(g) == line
        assert graph6_decode(line) == g


def test_graph6_kernel_matches_the_per_bit_oracle():
    # frozen oracle: the per-bit codec the triangle kernel replaced, on
    # both size forms and across the n = 62 / 63 boundary
    rng = random.Random(35)
    for n in list(range(0, 71)) + [62, 63, 64] * 3:
        for p in (0.0, 0.1, 0.5, 0.9, 1.0):
            g = random_graph(rng, n, p)
            line = graph6_oracle.graph6_encode_rows(n, g.rows)
            assert graph6_encode(g) == line
            assert graph6_decode(line) == graph6_oracle.graph6_decode(line) == g
            tri = _triangle(n, g.rows)
            assert tri == sum(1 << (v * (v - 1) >> 1) + u for u, v in g.edges)
            assert _decode_triangle(line[1 if n <= 62 else 4:].encode("ascii")) == tri


def test_graph6_errors_match_the_per_bit_oracle():
    # each malformed line fails with the oracle's error, message and byte
    # offset: truncations, extra bytes, and one byte replaced by any of
    # chr(32..129), which reaches every padding bit of the last byte
    def outcome(decode, line):
        try:
            return decode(line)
        except ReconError as err:
            return type(err), str(err), getattr(err, "offset", None)

    rng = random.Random(36)
    lines = ["", " ", "~", "~~", "~?", "~??", "~~??????", "?", "@", "A", "B?"]
    for n in (0, 1, 2, 3, 4, 5, 7, 12, 62, 63, 64):
        line = graph6_encode(random_graph(rng, n, 0.5))
        lines += [line, line[:-1], line + "?", f" {line}\n", ">>graph6<<" + line, line[:3]]
        for _ in range(25):
            i = rng.randrange(len(line))
            lines.append(line[:i] + chr(rng.randrange(32, 130)) + line[i + 1:])
    errors = 0
    for line in lines:
        got = outcome(graph6_decode, line)
        assert got == outcome(graph6_oracle.graph6_decode, line), line
        errors += type(got) is tuple
    assert errors >= 200


def test_brute_iso_oracle_matches_engine_small():
    for n in (3, 4):
        gs = list(all_labeled_graphs(n))
        rng = random.Random(n)
        for _ in range(60):
            g, h = rng.choice(gs), rng.choice(gs)
            assert are_isomorphic(g, h) == brute_isomorphic(g, h)
