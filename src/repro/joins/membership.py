"""Membership probing: can a join produce a given output value?

The set-union samplers (Algorithm 1, the §3 Bernoulli trick) and the
random-walk overlap estimator (paper §6.2) all ask, for values drawn from one
join, whether other joins contain them too.  The paper answers with keyed
hash-table queries over the other joins' relations — ``(N-1)×(M-1)`` key
lookups.

:class:`JoinMembershipProber` answers a whole *batch* of values at once with
a semi-join that walks the join tree one level at a time:

* the **root** is a relation that carries an output attribute; its CSR index
  on that attribute maps every value of the batch to its candidate rows;
* each **child level** expands the surviving (value, parent row) pairs through
  the child's CSR index on the join key, then keeps the rows whose output
  attributes equal the value's fields (one ``column_array`` mask per fixed
  attribute);
* **residual** (cycle-closing) conditions are checked with
  :meth:`~repro.joins.join_tree.JoinTree.residual_mask` as soon as every
  relation they touch is bound;
* after each level the frontier keeps only the row columns a later level
  still reads (a parent with unvisited children, or a residual relation) and
  is deduplicated on (value id, kept rows), so sibling subtrees never
  multiply into a cross product.

A value is a member when it survives the last level.  The scalar
:meth:`JoinMembershipProber.contains` is a batch of one.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.joins.join_tree import JoinTree, JoinTreeNode, build_join_tree, equal_mask
from repro.joins.query import JoinQuery
from repro.relational.columnar import as_column_array
from repro.relational.index import SortedIndex

#: One semi-join level: the node, its parent relation (None at the root),
#: the relations whose rows the frontier keeps afterwards, and whether the
#: residual conditions are checked at this level.
_Level = Tuple[JoinTreeNode, Optional[str], Tuple[str, ...], bool]


class JoinMembershipProber:
    """Answers ``value ∈ J`` for output values of a union-compatible join.

    ``tree`` is used as given when its root carries an output attribute;
    otherwise the probe re-roots the join at the first relation that does,
    so a batch is always seeded by index lookups and never by a scan.
    """

    def __init__(self, query: JoinQuery, tree: Optional[JoinTree] = None) -> None:
        self.query = query
        self.width = len(query.output_attributes)
        #: relation name -> list of (attribute, output position) constraints
        self._constraints: Dict[str, List[Tuple[str, int]]] = {}
        for position, out in enumerate(query.output_attributes):
            self._constraints.setdefault(out.relation, []).append((out.attribute, position))
        tree = tree or build_join_tree(query)
        if self._constraints and tree.root.relation not in self._constraints:
            tree = build_join_tree(query, root=query.output_attributes[0].relation)
        self.tree = tree
        self._residual_relations = tuple(
            dict.fromkeys(r for cond in tree.residual_conditions for r in cond.relations())
        )
        self._levels = self._plan()
        #: values probed, and semi-join levels run (one index pass each)
        self.probe_count = 0
        self.lookup_count = 0

    def _plan(self) -> List[_Level]:
        nodes = list(self.tree.root.walk())
        parent_of = {
            child.relation: node.relation for node in nodes for child in node.children
        }
        residual = set(self._residual_relations)
        last_residual = max(
            (i for i, node in enumerate(nodes) if node.relation in residual), default=-1
        )
        levels: List[_Level] = []
        for i, node in enumerate(nodes):
            read_later = {parent_of[later.relation] for later in nodes[i + 1 :]}
            keep = tuple(
                bound.relation
                for bound in nodes[: i + 1]
                if bound.relation in read_later
                or (bound.relation in residual and i < last_residual)
            )
            levels.append((node, parent_of.get(node.relation), keep, i == last_residual))
        return levels

    # ------------------------------------------------------------------ public
    def contains(self, value: Sequence) -> bool:
        """True when the join can produce the output value ``value``."""
        return bool(self.contains_many([value])[0])

    def contains_many(self, values: Sequence[Sequence]) -> np.ndarray:
        """Membership mask for a batch of output values (one semi-join pass).

        Duplicate values are probed once; an empty batch returns an empty
        mask.  Raises ``ValueError`` when a value has the wrong width.
        """
        ids: Dict[Tuple, int] = {}
        order = np.empty(len(values), dtype=np.intp)
        for i, value in enumerate(values):
            key = tuple(value)
            if len(key) != self.width:
                raise ValueError(
                    f"value has {len(key)} fields but query {self.query.name!r} "
                    f"produces {self.width}"
                )
            order[i] = ids.setdefault(key, len(ids))
        self.probe_count += len(values)
        return self._semi_join(list(ids))[order]

    def count_containing(self, values: Sequence[Sequence]) -> int:
        """Number of the given values contained in the join."""
        return int(self.contains_many(list(values)).sum())

    # ---------------------------------------------------------------- internal
    def _semi_join(self, distinct: List[Tuple]) -> np.ndarray:
        """Membership of distinct values, one join-tree level at a time."""
        found = np.zeros(len(distinct), dtype=bool)
        if not distinct:
            return found
        fields = [as_column_array(list(column)) for column in zip(*distinct)]
        value_ids = np.arange(len(distinct))
        rows: Dict[str, np.ndarray] = {}
        for node, parent, keep, check_residuals in self._levels:
            relation = self.query.relation(node.relation)
            constraints = self._constraints.get(node.relation, [])
            self.lookup_count += 1
            if parent is None and constraints:
                # Seed: the first output attribute of the root, via its index.
                attribute, position = constraints[0]
                constraints = constraints[1:]
                index = relation.sorted_index_on_columns((attribute,))
                source, positions = _expand(index, fields[position])
            elif parent is None:
                # A join without output attributes: every root row qualifies.
                source = np.repeat(value_ids, len(relation))
                positions = np.tile(np.arange(len(relation)), len(value_ids))
            else:
                keys = self.query.relation(parent).join_key_array(node.parent_attributes)
                index = relation.sorted_index_on_columns(node.child_attributes)
                source, positions = _expand(index, keys[rows[parent]])
            value_ids = value_ids[source]
            rows = {name: bound[source] for name, bound in rows.items()}
            rows[node.relation] = positions
            mask = np.ones(len(value_ids), dtype=bool)
            for attribute, position in constraints:
                mask &= equal_mask(
                    relation.column_array(attribute)[positions], fields[position][value_ids]
                )
            if check_residuals:
                mask &= self.tree.residual_mask(
                    {name: rows[name] for name in self._residual_relations}
                )
            value_ids = value_ids[mask]
            dropped = len(rows) > len(keep)
            rows = {name: rows[name][mask] for name in keep}
            if dropped:
                value_ids, rows = _distinct_frontier(value_ids, rows)
            if not len(value_ids):
                return found
        found[value_ids] = True
        return found


def _expand(index: SortedIndex, keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """CSR expansion: for each key, every row holding it.

    Returns ``(source, positions)``: the index into ``keys`` each matched row
    came from, and the row position itself.
    """
    slots = index.slots_for(keys)
    source = np.flatnonzero(slots >= 0)
    slots = slots[source]
    starts = index.offsets[slots].astype(np.intp)
    counts = index.offsets[slots + 1].astype(np.intp) - starts
    ends = np.cumsum(counts)
    # position k of the output reads row_positions[start of its run + k - run offset]
    shift = np.repeat(starts - (ends - counts), counts)
    positions = index.row_positions[shift + np.arange(int(ends[-1]) if len(ends) else 0)]
    return np.repeat(source, counts), positions


def _distinct_frontier(
    value_ids: np.ndarray, rows: Dict[str, np.ndarray]
) -> Tuple[np.ndarray, Dict[str, np.ndarray]]:
    """Drop duplicate (value id, kept rows) entries from the frontier."""
    if not rows:
        return np.unique(value_ids), rows
    names = list(rows)
    table = np.stack([value_ids] + [rows[name] for name in names], axis=1).astype(np.int64)
    table = np.unique(table, axis=0)
    return table[:, 0], {name: table[:, i + 1] for i, name in enumerate(names)}


class UnionMembershipIndex:
    """Membership probers for every join in a union, plus owner resolution.

    The *owner* of a value is the first join (in declaration order) that
    contains it — exactly the cover assignment used by the set-union sampling
    algorithms.  :meth:`contained_in_all` memoizes its answers per
    (join, value); :meth:`forget` drops that memo when the data change.
    """

    def __init__(self, queries: Sequence[JoinQuery]) -> None:
        self.queries = list(queries)
        self.probers = {q.name: JoinMembershipProber(q) for q in self.queries}
        self._memo: Dict[Tuple[str, Tuple], bool] = {}

    def contains(self, query_name: str, value: Sequence) -> bool:
        return self.probers[query_name].contains(value)

    def owner(self, value: Sequence) -> Optional[str]:
        """Name of the first join containing ``value`` (None when absent from all)."""
        for query in self.queries:
            if self.probers[query.name].contains(value):
                return query.name
        return None

    def containing_joins(self, value: Sequence) -> List[str]:
        """Names of all joins containing ``value``."""
        return [q.name for q in self.queries if self.probers[q.name].contains(value)]

    def owned_by_earlier(self, position: int, values: Sequence[Tuple]) -> np.ndarray:
        """Mask of the values some join before ``position`` already contains.

        Each earlier join is probed once, with only the values no join
        before it has claimed.
        """
        owned = np.zeros(len(values), dtype=bool)
        for earlier in self.queries[:position]:
            pending = np.flatnonzero(~owned)
            if not len(pending):
                break
            hits = self.probers[earlier.name].contains_many([values[i] for i in pending])
            owned[pending[hits]] = True
        return owned

    def contained_in_all(self, names: Sequence[str], values: Sequence[Tuple]) -> np.ndarray:
        """Mask of the values every join in ``names`` contains (memoized).

        Joins are checked in the given order and a value stops at the first
        join missing it, so the probed (join, value) pairs are exactly those
        of a short-circuiting per-value loop; only pairs absent from the memo
        are probed, in one batch per join.
        """
        inside = np.ones(len(values), dtype=bool)
        for name in names:
            live = np.flatnonzero(inside).tolist()
            missing = [values[i] for i in live if (name, values[i]) not in self._memo]
            if missing:
                hits = self.probers[name].contains_many(missing)
                self._memo.update(((name, v), hit) for v, hit in zip(missing, hits.tolist()))
            inside[live] = [self._memo[(name, values[i])] for i in live]
        return inside

    def forget(self) -> None:
        """Drop the memoized answers (the relations changed)."""
        self._memo.clear()


__all__ = ["JoinMembershipProber", "UnionMembershipIndex"]
