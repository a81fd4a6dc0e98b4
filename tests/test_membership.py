"""Tests for repro.joins.membership (the batched semi-join membership probe)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.joins.conditions import JoinCondition, OutputAttribute
from repro.joins.executor import join_result_set
from repro.joins.membership import JoinMembershipProber, UnionMembershipIndex
from repro.joins.query import JoinQuery
from repro.relational.relation import Relation

from tests.conftest import make_chain_query
from tests.membership_oracle import BacktrackingProber


class TestJoinMembershipProber:
    @pytest.mark.parametrize("fixture", ["chain_query", "acyclic_query", "cyclic_query"])
    def test_agrees_with_executor_on_all_join_types(self, fixture, request):
        query = request.getfixturevalue(fixture)
        prober = JoinMembershipProber(query)
        results = join_result_set(query)
        for value in results:
            assert prober.contains(value), f"{value} should be a member of {query.name}"

    def test_rejects_values_not_in_join(self, chain_query):
        prober = JoinMembershipProber(chain_query)
        assert not prober.contains((1, 100, 999))
        assert not prober.contains((42, 100, 7))

    def test_rejects_value_with_wrong_width(self, chain_query):
        prober = JoinMembershipProber(chain_query)
        with pytest.raises(ValueError, match="fields"):
            prober.contains((1, 100))

    def test_cyclic_join_residual_enforced(self, cyclic_query):
        prober = JoinMembershipProber(cyclic_query)
        # (1, 3, 5) is producible by the skeleton but violates the cycle-closing
        # condition (T row for c=5 has a=9, not 1).
        assert not prober.contains((1, 3, 5))
        assert prober.contains((1, 2, 4))

    def test_count_containing(self, union_pair):
        j1, j2 = union_pair
        prober = JoinMembershipProber(j2)
        values = list(join_result_set(j1))
        assert prober.count_containing(values) == 2

    def test_probe_counters_increase(self, chain_query):
        prober = JoinMembershipProber(chain_query)
        prober.contains((1, 100, 7))
        prober.contains((1, 100, 7))
        assert prober.probe_count == 2
        assert prober.lookup_count >= 2


class TestUnionMembershipIndex:
    def test_owner_is_first_containing_join(self, union_triple):
        index = UnionMembershipIndex(union_triple)
        # (1, 100) is in all three joins -> owner is the first.
        assert index.owner((1, 100)) == "J1"
        # (3, 400) only in J2.
        assert index.owner((3, 400)) == "J2"
        # (5, 500) only in J3.
        assert index.owner((5, 500)) == "J3"

    def test_owner_none_for_foreign_value(self, union_triple):
        index = UnionMembershipIndex(union_triple)
        assert index.owner((123, 456)) is None

    def test_containing_joins(self, union_triple):
        index = UnionMembershipIndex(union_triple)
        assert index.containing_joins((1, 100)) == ["J1", "J2", "J3"]
        assert index.containing_joins((2, 300)) == ["J1", "J3"]

    def test_contains_specific_join(self, union_pair):
        index = UnionMembershipIndex(union_pair)
        assert index.contains("J1", (2, 300))
        assert not index.contains("J2", (2, 300))


class TestExhaustiveAgreement:
    def test_prober_matches_executor_over_candidate_space(self, union_pair):
        """For every candidate value in the cross product of observed output
        values, the prober must agree exactly with set membership of the
        executed join."""
        for query in union_pair:
            results = join_result_set(query)
            prober = JoinMembershipProber(query)
            a_values = {v[0] for q in union_pair for v in join_result_set(q)}
            c_values = {v[1] for q in union_pair for v in join_result_set(q)}
            for a in a_values:
                for c in c_values:
                    assert prober.contains((a, c)) == ((a, c) in results)


# ------------------------------------------------------- batched vs oracle
#: key domains; string keys exercise the dict path of the CSR slot lookup
KEY_DOMAINS = {"int": [0, 1, 2], "str": ["k0", "k1", "k2"]}
#: output fields take small ints so generated candidates often hit
FIELDS = st.integers(0, 2)
#: a field value no relation holds
ABSENT = 99


def _rows(draw, width_keys, width_fields, key_domain):
    keys = st.sampled_from(key_domain)
    return draw(
        st.lists(
            st.tuples(*([keys] * width_keys), *([FIELDS] * width_fields)),
            max_size=7,
        )
    )


@st.composite
def probe_cases(draw):
    """A generated join, its oracle, and a batch of candidate values.

    Shapes: a 3-relation chain, a 3-relation star and a triangle whose third
    condition closes the cycle (a residual).  Joins are composite (two key
    columns per edge) or single-key, on int or string keys; ``root_output``
    False leaves the first relation without output attributes.
    """
    shape = draw(st.sampled_from(["chain", "star", "triangle"]))
    domain = KEY_DOMAINS[draw(st.sampled_from(sorted(KEY_DOMAINS)))]
    composite = draw(st.booleans())
    root_output = draw(st.booleans())
    key_names = ["k", "kk"] if composite else ["k"]
    width = len(key_names)
    if shape == "chain":
        # R(k.., a) - S(k.., m, s) - T(m, t)
        r = Relation("R", [*key_names, "a"], _rows(draw, width, 1, domain))
        s = Relation("S", [*key_names, "m", "s"], _rows(draw, width + 1, 1, domain))
        t = Relation("T", ["m", "t"], _rows(draw, 1, 1, domain))
        conditions = [JoinCondition("R", k, "S", k) for k in key_names]
        conditions.append(JoinCondition("S", "m", "T", "m"))
        outputs = [("s", "S", "s"), ("t", "T", "t")]
    elif shape == "star":
        # center C(k.., m, c) with leaves D(k.., d) and E(m, e)
        r = Relation("C", [*key_names, "m", "c"], _rows(draw, width + 1, 1, domain))
        s = Relation("D", [*key_names, "d"], _rows(draw, width, 1, domain))
        t = Relation("E", ["m", "e"], _rows(draw, 1, 1, domain))
        conditions = [JoinCondition("C", k, "D", k) for k in key_names]
        conditions.append(JoinCondition("C", "m", "E", "m"))
        outputs = [("d", "D", "d"), ("e", "E", "e")]
    else:
        # R(k.., a) - S(k.., m, s) - T(m, a), closed on a
        r = Relation("R", [*key_names, "a"], _rows(draw, width, 1, domain))
        s = Relation("S", [*key_names, "m", "s"], _rows(draw, width + 1, 1, domain))
        t = Relation("T", ["m", "a"], _rows(draw, 1, 1, domain))
        conditions = [JoinCondition("R", k, "S", k) for k in key_names]
        conditions += [JoinCondition("S", "m", "T", "m"), JoinCondition("T", "a", "R", "a")]
        outputs = [("s", "S", "s"), ("m", "T", "m")]
    root_field = "c" if shape == "star" else "a"
    if root_output:
        outputs.insert(0, ("root", r.name, root_field))
    query = JoinQuery(
        f"hyp-{shape}",
        [r, s, t],
        conditions,
        [OutputAttribute(name, relation, attr) for name, relation, attr in outputs],
    )
    members = sorted(join_result_set(query), key=repr)
    domains = []
    for _, relation, attr in outputs:
        domains.append(domain if attr == "m" else [0, 1, 2])
    candidates = st.tuples(*(st.sampled_from(d) for d in domains))
    absent = st.tuples(*(st.just(ABSENT) for _ in domains))
    pool = [candidates, absent]
    if members:
        pool.append(st.sampled_from(members))
    batch = draw(st.lists(st.one_of(*pool), max_size=12))
    if batch and draw(st.booleans()):
        batch = batch + batch[: draw(st.integers(1, len(batch)))]  # duplicates
    return query, set(members), batch


class TestContainsManyAgainstOracle:
    @given(case=probe_cases())
    @settings(max_examples=150, deadline=None)
    def test_batched_probe_matches_backtracking_oracle(self, case):
        query, members, batch = case
        prober = JoinMembershipProber(query)
        oracle = BacktrackingProber(query)
        mask = prober.contains_many(batch)
        assert mask.dtype == bool and mask.shape == (len(batch),)
        expected = [oracle.contains(value) for value in batch]
        assert mask.tolist() == expected
        assert expected == [value in members for value in batch]

    def test_root_without_output_attribute_is_reseeded(self, union_pair):
        # R carries no output attribute in this query: the probe re-roots at S
        query = make_chain_query(
            "noroot", r_rows=[(1, 10), (2, 20)], s_rows=[(10, 100), (20, 300)],
            output=("c",),
        )
        prober = JoinMembershipProber(query)
        assert prober.tree.root.relation == "S"
        assert prober.contains_many([(100,), (300,), (200,)]).tolist() == [True, True, False]

    def test_empty_batch(self, chain_query):
        mask = JoinMembershipProber(chain_query).contains_many([])
        assert mask.shape == (0,) and mask.dtype == bool

    def test_duplicates_and_absent_values(self, chain_query):
        prober = JoinMembershipProber(chain_query)
        batch = [(1, 100, 7), (99, 99, 99), (1, 100, 7), ("x", "y", "z")]
        assert prober.contains_many(batch).tolist() == [True, False, True, False]

    def test_batch_with_wrong_width_raises(self, chain_query):
        prober = JoinMembershipProber(chain_query)
        with pytest.raises(ValueError, match="fields"):
            prober.contains_many([(1, 100, 7), (1, 100)])

    def test_cyclic_batch_matches_oracle(self, cyclic_query):
        candidates = [(a, b, c) for a in (1, 7, 9) for b in (2, 3) for c in (4, 5)]
        oracle = BacktrackingProber(cyclic_query)
        mask = JoinMembershipProber(cyclic_query).contains_many(candidates)
        assert mask.tolist() == [oracle.contains(v) for v in candidates]
        assert mask.sum() == 2


class TestUnionMembershipBatches:
    def test_owned_by_earlier_is_lowest_index_cover(self, union_triple):
        index = UnionMembershipIndex(union_triple)
        values = [(1, 100), (2, 300), (3, 400), (5, 500), (8, 800)]
        owners = [index.owner(v) for v in values]
        for position, query in enumerate(union_triple):
            owned = index.owned_by_earlier(position, values).tolist()
            expected = [
                owner is not None and [q.name for q in union_triple].index(owner) < position
                for owner in owners
            ]
            assert owned == expected, query.name

    def test_contained_in_all_probes_like_a_short_circuit(self, union_triple):
        index = UnionMembershipIndex(union_triple)
        values = [(1, 100), (2, 300), (3, 400)]
        inside = index.contained_in_all(["J2", "J3"], values)
        assert inside.tolist() == [True, False, False]
        # (2, 300) is not in J2, so it is never probed in J3
        assert set(index._memo) == {
            ("J2", (1, 100)), ("J2", (2, 300)), ("J2", (3, 400)),
            ("J3", (1, 100)), ("J3", (3, 400)),
        }
        index.forget()
        assert not index._memo
