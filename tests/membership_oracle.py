"""Reference membership oracle: tuple-at-a-time backtracking search.

This is the scalar probe the library used before the batched semi-join of
:class:`repro.joins.membership.JoinMembershipProber`.  It is slow but simple:
walk the join tree in pre-order, bind one row per relation, and at every
relation intersect the join key with the bound parent row and the output
fields the value fixes there; residual (cycle-closing) conditions are checked
once every relation is bound.  Tests compare the batched probe against it.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.joins.join_tree import JoinTree, JoinTreeNode, build_join_tree
from repro.joins.query import JoinQuery


class BacktrackingProber:
    """Answers ``value ∈ J`` one value at a time by backtracking."""

    def __init__(self, query: JoinQuery, tree: Optional[JoinTree] = None) -> None:
        self.query = query
        self.tree = tree or build_join_tree(query)
        self._constraints: Dict[str, List[Tuple[str, int]]] = {}
        for position, out in enumerate(query.output_attributes):
            self._constraints.setdefault(out.relation, []).append((out.attribute, position))
        self._order: List[Tuple[JoinTreeNode, Optional[str]]] = []
        self._collect_order(self.tree.root, None)

    def _collect_order(self, node: JoinTreeNode, parent: Optional[str]) -> None:
        self._order.append((node, parent))
        for child in node.children:
            self._collect_order(child, node.relation)

    def contains(self, value: Sequence) -> bool:
        if len(value) != len(self.query.output_attributes):
            raise ValueError(
                f"value has {len(value)} fields but query {self.query.name!r} "
                f"produces {len(self.query.output_attributes)}"
            )
        return self._search(tuple(value), {}, 0)

    def _candidate_rows(
        self,
        relation_name: str,
        value: Tuple,
        key_attrs: Tuple[str, ...],
        key: Tuple,
    ) -> List[int]:
        """Row positions of ``relation_name`` matching the join key and the
        output-value constraints that fall on this relation."""
        relation = self.query.relation(relation_name)
        constraints = self._constraints.get(relation_name, [])
        if key_attrs:
            index = relation.index_on_columns(key_attrs)
            lookup = key if len(key) > 1 else key[0]
            positions: Iterable[int] = index.positions(lookup)
        elif constraints:
            attr, out_pos = constraints[0]
            positions = relation.index_on(attr).positions(value[out_pos])
        else:
            positions = range(len(relation))
        return [
            pos
            for pos in positions
            if all(relation.value(pos, attr) == value[out_pos] for attr, out_pos in constraints)
        ]

    def _search(self, value: Tuple, assignment: Dict[str, int], depth: int) -> bool:
        if depth == len(self._order):
            return self.tree.residual_satisfied(assignment)
        node, parent = self._order[depth]
        if parent is None:
            key_attrs: Tuple[str, ...] = ()
            key: Tuple = ()
        else:
            parent_rel = self.query.relation(parent)
            key_attrs = node.child_attributes
            key = tuple(
                parent_rel.value(assignment[parent], attr) for attr in node.parent_attributes
            )
        for pos in self._candidate_rows(node.relation, value, key_attrs, key):
            assignment[node.relation] = pos
            if self._search(value, assignment, depth + 1):
                return True
            del assignment[node.relation]
        return False
