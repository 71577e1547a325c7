"""Disjoint-set (Union-Find) with the weighted-union heuristic.

The paper's Single-Link uses "the weighted-union heuristic of Union Find
[Cormen et al.]" for efficient merging of clusters; this implementation adds
path compression as well, giving near-constant amortised operations.

Each multi-member set also keeps its member list at its root (the larger
list absorbs the smaller on union, so the lists cost O(n log n) appends
overall).  That lets members be taken out of a set again in time
proportional to its size — :meth:`detach` and :meth:`split_off` — while
the rest stays one set, which incremental ε-Link maintenance needs to
split one component without touching the others.  Singletons carry no
list.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable

__all__ = ["UnionFind"]


class UnionFind:
    """Disjoint sets over hashable items.

    >>> uf = UnionFind([1, 2, 3])
    >>> uf.union(1, 2)
    True
    >>> uf.connected(1, 2)
    True
    >>> uf.connected(1, 3)
    False
    >>> uf.num_sets
    2
    >>> uf.split_off([[2]])
    >>> uf.num_sets
    3
    """

    def __init__(self, items: Iterable[Hashable] = ()) -> None:
        self._parent: dict = {}
        #: root -> member list, for roots of sets with two or more members
        self._members: dict = {}
        self.num_sets = 0
        for item in items:
            self.add(item)

    @classmethod
    def from_parents(cls, parent: dict) -> UnionFind:
        """Rebuild from a ``item -> parent`` map (e.g. a checkpoint),
        keeping every set's representative."""
        uf = cls()
        uf._parent = dict(parent)
        for item in parent:
            root = uf.find(item)
            if root != item:
                uf._members.setdefault(root, [root]).append(item)
        uf.num_sets = sum(1 for item, up in parent.items() if item == up)
        return uf

    def add(self, item: Hashable) -> None:
        """Register an item as a singleton set (no-op when present)."""
        if item not in self._parent:
            self._parent[item] = item
            self.num_sets += 1

    def __contains__(self, item: Hashable) -> bool:
        return item in self._parent

    def __len__(self) -> int:
        return len(self._parent)

    def find(self, item: Hashable):
        """Canonical representative of the set containing ``item``."""
        root = item
        parent = self._parent
        while parent[root] != root:
            root = parent[root]
        # Path compression.
        while parent[item] != root:
            parent[item], item = root, parent[item]
        return root

    def union(self, a: Hashable, b: Hashable) -> bool:
        """Merge the sets of ``a`` and ``b``.

        Returns True when a merge happened, False when they already shared a
        set.  The smaller set is attached under the larger one (weighted
        union).
        """
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.link(ra, rb)
        return True

    def link(self, ra: Hashable, rb: Hashable) -> tuple:
        """Merge the sets of two distinct roots, with no :meth:`find`;
        returns ``(surviving root, merged set size)``.

        The smaller set is attached under the larger one, the first
        root's among equals (weighted union).

        >>> uf = UnionFind([1, 2, 3])
        >>> uf.link(1, 2)
        (1, 2)
        >>> uf.link(3, 1)
        (1, 3)
        """
        members = self._members
        ma, mb = members.get(ra), members.get(rb)
        if (1 if ma is None else len(ma)) < (1 if mb is None else len(mb)):
            ra, rb, ma, mb = rb, ra, mb, ma
        self._parent[rb] = ra
        if ma is None:
            ma = members[ra] = [ra]
        if mb is None:
            ma.append(rb)
        else:
            ma.extend(mb)
            del members[rb]
        self.num_sets -= 1
        return ra, len(ma)

    def union_all(self, items: Iterable[Hashable]) -> bool:
        """Merge the sets of all ``items`` into one in a single step.

        The largest set (the first among equals) absorbs the others.
        Returns True when at least one merge happened.
        """
        roots = list(dict.fromkeys(map(self.find, items)))
        if len(roots) < 2:
            return False
        members = self._members
        big = max(roots, key=lambda root: len(members.get(root, ())))
        merged = members.setdefault(big, [big])
        parent = self._parent
        for root in roots:
            if root != big:
                parent[root] = big
                other = members.pop(root, None)
                if other is None:
                    merged.append(root)
                else:
                    merged.extend(other)
        self.num_sets -= len(roots) - 1
        return True

    def connected(self, a: Hashable, b: Hashable) -> bool:
        return self.find(a) == self.find(b)

    def set_size(self, item: Hashable) -> int:
        """Size of the set containing ``item``."""
        members = self._members.get(self.find(item))
        return 1 if members is None else len(members)

    def members(self, item: Hashable) -> list:
        """The members of the set containing ``item`` (a new list)."""
        root = self.find(item)
        members = self._members.get(root)
        return [root] if members is None else list(members)

    def detach(self, item: Hashable) -> None:
        """Remove ``item``; the other members of its set stay one set.

        That set keeps its representative unless it was ``item``; then its
        first remaining member takes over.  Every other set is untouched.
        Cost is proportional to the set's size (plain dict writes).

        >>> uf = UnionFind([1, 2, 3])
        >>> uf.union_all([1, 2, 3])
        True
        >>> root = uf.find(3)
        >>> uf.detach(root)
        >>> root in uf, uf.connected(*(i for i in (1, 2, 3) if i != root))
        (False, True)
        >>> uf.num_sets
        1
        """
        root = self.find(item)
        members = self._members.pop(root, None)
        del self._parent[item]
        if members is None:
            self.num_sets -= 1
            return
        members.remove(item)
        self._regroup(members, members[0] if root == item else root)

    def split_off(self, pieces: Iterable[Iterable[Hashable]]) -> None:
        """Move each of ``pieces`` into a set of its own.

        ``pieces`` are disjoint, non-empty groups of members of one set.
        The rest of that set stays one set and keeps its representative
        unless the representative moved; then the first remaining member
        takes over.  A piece's first item represents it.  Every other set
        is untouched.  Cost is proportional to the set's size (plain dict
        writes, no :meth:`find` or union per member).

        >>> uf = UnionFind(range(5))
        >>> uf.union_all(range(5))
        True
        >>> uf.split_off([[3], [4, 1]])
        >>> sorted(sorted(m) for m in uf.sets().values())
        [[0, 2], [1, 4], [3]]
        >>> uf.find(1)
        4
        """
        pieces = [list(piece) for piece in pieces]
        if not pieces:
            return
        root = self.find(pieces[0][0])
        members = self._members.pop(root, None) or [root]
        moved = {item for piece in pieces for item in piece}
        rest = [item for item in members if item not in moved]
        for piece in pieces:
            self._regroup(piece, piece[0])
        if rest:
            self._regroup(rest, rest[0] if root in moved else root)
        self.num_sets += len(pieces) - (0 if rest else 1)

    def _regroup(self, items: list, root) -> None:
        """Point every item straight at ``root``, one of them, and record
        the member list; ``num_sets`` is the caller's."""
        parent = self._parent
        for item in items:
            parent[item] = root
        if len(items) > 1:
            self._members[root] = items

    def sets(self) -> dict:
        """Mapping ``representative -> sorted member list``, read from the
        member lists kept at the roots (no :meth:`find`)."""
        members = self._members
        return {
            item: sorted(members.get(item, (item,)))
            for item, up in self._parent.items()
            if item == up
        }
