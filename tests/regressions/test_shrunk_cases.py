"""Shrunk fuzz cases checked in as regressions (ISSUE 2 satellite).

Each case below is the minimal reproducer the harness shrank a real
optimized-vs-oracle discrepancy down to.  They are replayed through
``repro.testing.check_case`` — which must now report agreement — plus
a direct assertion of the fixed behaviour, so the bug class stays dead
even if the harness itself changes.
"""

from repro.graphdb.graph import PropertyGraph
from repro.graphdb.match import (
    EdgePattern,
    GraphPattern,
    NodePattern,
    match_pattern,
)
from repro.search.engine import SearchEngine
from repro.testing import check_case

# Found by: python -m repro.testing --subsystem graph --seed 0 (case #2).
# match_pattern never enforced self-loop pattern edges (source var ==
# target var): every candidate node matched, looped or not.
SELF_LOOP_CASE = {
    "nodes": [["n0", {"entityType": "Sign_symptom"}]],
    "edges": [],
    "pattern_nodes": [["v0", {}]],
    "pattern_edges": [["v0", "v0", None, True]],
    "limit": None,
    "index_property": False,
}

# Found by: python -m repro.testing --subsystem invariants --seed 0
# (case #1, check_phrase_self_match).  match_phrase collapsed analyzed
# query positions to strict adjacency, so documents whose text contains
# a stopword gap ("pain was patient") never matched their own phrase.
PHRASE_GAP_CASE = {
    "search": {
        "analyzer": "standard",
        "ops": [
            {
                "op": "index",
                "id": "d1",
                "fields": {"body": "pain was patient", "title": ""},
            }
        ],
        "queries": [{"match_phrase": {"body": "pain was patient"}}],
    },
    "fusion": {"graph_ranked": [], "keyword_ranked": [], "size": 3},
    "shuffle_seed": 2086105126,
}


class TestSelfLoopPatternRegression:
    def test_harness_agrees(self):
        assert check_case("graph", SELF_LOOP_CASE) is None

    def test_direct_behaviour(self):
        graph = PropertyGraph()
        graph.add_node("n1")
        graph.add_node("n2")
        graph.add_edge("n1", "n1", "SELF")
        pattern = GraphPattern(
            [NodePattern("a")], [EdgePattern("a", "a", label="SELF")]
        )
        assert [
            binding["a"].node_id
            for binding in match_pattern(graph, pattern)
        ] == ["n1"]

    def test_no_loops_no_matches(self):
        graph = PropertyGraph()
        graph.add_node("n1")
        pattern = GraphPattern(
            [NodePattern("a")], [EdgePattern("a", "a")]
        )
        assert match_pattern(graph, pattern) == []


class TestPhraseGapRegression:
    def test_harness_agrees(self):
        assert check_case("invariants", PHRASE_GAP_CASE) is None
        assert check_case("search", PHRASE_GAP_CASE["search"]) is None

    def test_direct_behaviour(self):
        engine = SearchEngine()
        engine.index("d1", {"body": "pain was patient"})
        hits = engine.search({"match_phrase": {"body": "pain was patient"}})
        assert [hit.doc_id for hit in hits] == ["d1"]


# Found by: the mutate-vs-rebuild postings-order invariant (ISSUE 6).
# ``InvertedIndex.add_document`` appended postings at the tail, so
# adding a document with an ordinal below an existing one (the
# delete-then-reinsert path segment sealing relies on) left postings
# out of doc-ord order — breaking delta-encoded packing and making
# score accumulation order diverge from a cold rebuild.
POSTINGS_REINSERT_CASE = {
    "analyzer": "whitespace",
    "ops": [
        {
            "op": "index",
            "id": "d0",
            "fields": {"body": "renal fever", "title": ""},
        },
        {
            "op": "index",
            "id": "d1",
            "fields": {"body": "renal cough", "title": ""},
        },
        {"op": "delete", "id": "d0"},
        {
            "op": "index",
            "id": "d0",
            "fields": {"body": "renal fever", "title": ""},
        },
    ],
    "queries": [{"match": {"body": "renal"}}],
}


class TestPostingsOrderRegression:
    def test_harness_agrees(self):
        assert check_case("search", POSTINGS_REINSERT_CASE) is None

    def test_direct_behaviour(self):
        from repro.search.analysis import AnalyzedToken
        from repro.search.inverted_index import InvertedIndex

        def tokens(*terms):
            return [
                AnalyzedToken(term, i, i, i + 1)
                for i, term in enumerate(terms)
            ]

        index = InvertedIndex()
        index.add_document(1, tokens("renal"))
        index.add_document(2, tokens("renal"))
        # Re-adding a lower ordinal must insert at its sorted slot, not
        # the tail.
        index.add_document(1, tokens("renal", "fever"))
        assert [p.doc_ord for p in index.postings("renal")] == [1, 2]
        index.add_document(0, tokens("renal"))
        assert [p.doc_ord for p in index.postings("renal")] == [0, 1, 2]


# Found by: a write landing on shard 0 after that shard answered, in
# the middle of a two-shard ShardedIrSearcher fan-out.  The searcher
# stamped the fused result with the epoch vector taken *after* the
# fan-out, so the stale ``[d1]`` answer was cached as fresh and served
# to the next identical query, while a cold searcher returned
# ``[d2, d1]``.  Both documents hash to shard 0 of 2.
class TestIrFanOutStaleCacheRegression:
    def test_direct_behaviour(self):
        from repro.serving import ShardedIrIndexer, ShardedIrSearcher

        indexer = ShardedIrIndexer(2)
        searcher = ShardedIrSearcher(indexer, cache_size=4)
        indexer.index_report("d1", "", "fever report", (), ())
        shard = indexer.engine.shards[indexer.router.shard_of("d1")]
        assert indexer.router.shard_of("d2") == indexer.router.shard_of("d1")
        answer = shard.search

        def answer_then_write(query, size=10):
            hits = answer(query, size=size)
            shard.search = answer
            indexer.index_report("d2", "", "fever fever", (), ())
            return hits

        shard.search = answer_then_write
        raced = [r.doc_id for r in searcher.search("fever")]
        assert raced == ["d1"]
        cold = [r.doc_id for r in ShardedIrSearcher(indexer).search("fever")]
        assert cold == ["d2", "d1"]
        assert [r.doc_id for r in searcher.search("fever")] == cold
