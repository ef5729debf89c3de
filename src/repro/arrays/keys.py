"""Finite totally ordered key sets.

Definition I.1 requires the key sets ``K1``, ``K2`` of an associative array
(and the edge set ``K`` of a graph) to be finite and totally ordered.
:class:`KeySet` is an immutable sorted sequence of mutually comparable keys
with O(1) membership, O(log n) range queries, and the D4M-style string
selectors the paper uses in Figure 1:

``E(:, 'Genre|A : Genre|Z')``
    all columns lexicographically between the endpoints (inclusive);

``'Genre|*'``
    prefix selection;

``':'``
    everything.

Fold order in array multiplication is defined by the order of the inner
key set, so :class:`KeySet` order is load-bearing, not cosmetic.
"""

from __future__ import annotations

import bisect
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

__all__ = ["KeySet", "KeyError_"]


class KeyError_(ValueError):
    """Raised for malformed selectors or keys missing from a key set.

    Named with a trailing underscore to avoid shadowing the builtin.
    """


Selector = Union[str, slice, Sequence[Any], "KeySet"]


class KeySet:
    """An immutable, sorted, duplicate-free sequence of comparable keys.

    Parameters
    ----------
    keys:
        Any iterable of mutually comparable keys (all strings, or all
        numbers).  Duplicates are removed; order is ascending.
    presorted:
        Internal fast path: trust that ``keys`` is already a sorted,
        duplicate-free list.  The key → position index is then built on
        first use, so a key set only iterated or compared (the integer
        rank sets of coded shards, say) never builds it.
    """

    __slots__ = ("_keys", "_index", "_hash")

    def __init__(self, keys: Iterable[Any] = (), *, presorted: bool = False) -> None:
        if presorted:
            ks = list(keys)
        else:
            try:
                ks = sorted(set(keys))
            except TypeError as exc:
                raise KeyError_(
                    "keys must be mutually comparable (totally ordered): "
                    f"{exc}") from None
        self._keys: Tuple[Any, ...] = tuple(ks)
        self._index: Optional[Dict[Any, int]] = None
        if not presorted:
            self._positions()
        self._hash: Optional[int] = None

    def _positions(self) -> Dict[Any, int]:
        """The key → position index (built once)."""
        index = self._index
        if index is None:
            index = {k: i for i, k in enumerate(self._keys)}
            if len(index) != len(self._keys):
                raise KeyError_(
                    "duplicate keys after sorting (unhashable mix?)")
            self._index = index
        return index

    # -- basic container protocol -------------------------------------------
    def __len__(self) -> int:
        return len(self._keys)

    def __iter__(self) -> Iterator[Any]:
        return iter(self._keys)

    def __contains__(self, key: Any) -> bool:
        try:
            return key in self._positions()
        except TypeError:
            return False

    def __getitem__(self, i: Union[int, slice]) -> Any:
        if isinstance(i, slice):
            return KeySet(self._keys[i], presorted=True)
        return self._keys[i]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, KeySet):
            return self is other or self._keys == other._keys
        return NotImplemented

    def __hash__(self) -> int:
        # Memoised: key sets can hold 10⁵+ keys and serve as parts of
        # expression-DAG signatures, which hash them repeatedly.
        h = self._hash
        if h is None:
            h = hash(self._keys)
            self._hash = h
        return h

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        if len(self) <= 6:
            inner = ", ".join(map(repr, self._keys))
        else:
            head = ", ".join(map(repr, self._keys[:3]))
            tail = ", ".join(map(repr, self._keys[-2:]))
            inner = f"{head}, ... , {tail}"
        return f"KeySet([{inner}], n={len(self)})"

    # -- index machinery -----------------------------------------------------
    def index(self, key: Any) -> int:
        """Position of ``key`` in the order; raises if absent."""
        try:
            return self._positions()[key]
        except (KeyError, TypeError):
            raise KeyError_(f"key {key!r} not in key set") from None

    def keys(self) -> Tuple[Any, ...]:
        """The keys as a tuple, in ascending order."""
        return self._keys

    # -- set algebra (results stay sorted) -----------------------------------
    def union(self, other: Union["KeySet", Iterable[Any]]) -> "KeySet":
        """Sorted union with another key collection."""
        other_keys = other._keys if isinstance(other, KeySet) else tuple(other)
        return KeySet(set(self._keys) | set(other_keys))

    def intersection(self, other: Union["KeySet", Iterable[Any]]) -> "KeySet":
        """Sorted intersection with another key collection."""
        other_set = set(other._keys if isinstance(other, KeySet) else other)
        return KeySet([k for k in self._keys if k in other_set],
                      presorted=True)

    def difference(self, other: Union["KeySet", Iterable[Any]]) -> "KeySet":
        """Keys of self not in other, sorted."""
        other_set = set(other._keys if isinstance(other, KeySet) else other)
        return KeySet([k for k in self._keys if k not in other_set],
                      presorted=True)

    # -- range and selector queries ------------------------------------------
    def between(self, lo: Any, hi: Any) -> "KeySet":
        """Keys ``k`` with ``lo <= k <= hi`` (endpoints need not be members)."""
        i = bisect.bisect_left(self._keys, lo)
        j = bisect.bisect_right(self._keys, hi)
        return KeySet(self._keys[i:j], presorted=True)

    def starting_with(self, prefix: str) -> "KeySet":
        """String keys beginning with ``prefix``."""
        matching = [k for k in self._keys
                    if isinstance(k, str) and k.startswith(prefix)]
        return KeySet(matching, presorted=True)

    def select(self, selector: Selector) -> "KeySet":
        """Resolve a D4M-style selector against this key set.

        Accepted selector forms:

        * ``':'`` — all keys;
        * ``'lo : hi'`` — inclusive lexicographic range (whitespace around
          ``' : '`` required, mirroring the paper's
          ``'Genre|A : Genre|Z'``);
        * ``'prefix*'`` — prefix match;
        * any other string — the single key (must be present);
        * a ``slice`` of keys (``A['a':'k']`` style endpoints, inclusive);
        * a sequence of keys — subset in this key set's order (all must be
          present);
        * a :class:`KeySet` — intersected in order.
        """
        if isinstance(selector, KeySet):
            return self.intersection(selector)
        if isinstance(selector, slice):
            if selector.step is not None:
                raise KeyError_("stepped key slices are not supported")
            if len(self) == 0:
                return KeySet()
            lo = self._keys[0] if selector.start is None else selector.start
            hi = self._keys[-1] if selector.stop is None else selector.stop
            return self.between(lo, hi)
        if isinstance(selector, str):
            text = selector
            if text.strip() == ":":
                return self
            if " : " in text:
                lo, _, hi = text.partition(" : ")
                lo, hi = lo.strip(), hi.strip()
                if not lo or not hi:
                    raise KeyError_(f"malformed range selector {selector!r}")
                return self.between(lo, hi)
            if text.endswith("*") and len(text) > 1:
                return self.starting_with(text[:-1])
            if text in self._positions():
                return KeySet([text], presorted=True)
            raise KeyError_(f"key {text!r} not in key set")
        if isinstance(selector, Sequence):
            index = self._positions()
            missing = [k for k in selector if k not in index]
            if missing:
                raise KeyError_(f"keys not in key set: {missing!r}")
            return KeySet(selector)
        raise KeyError_(f"unsupported selector {selector!r}")

    # -- misc -----------------------------------------------------------------
    def position_map(self) -> dict:
        """Mapping key → index, as a read-only view.

        This is the key set's own index (not a copy — callers must not
        mutate it, the same contract as :attr:`AssociativeArray._data`).
        It sits on the promotion hot path: the vectorised kernels remap
        every stored coordinate through it, and copying a large key
        set's index per promotion measurably dominated cold-start
        profiles.
        """
        return self._positions()

    @staticmethod
    def coerce(value: Union["KeySet", Iterable[Any], None]) -> "KeySet":
        """Turn ``value`` into a KeySet (identity for KeySets, empty for None)."""
        if value is None:
            return KeySet()
        if isinstance(value, KeySet):
            return value
        return KeySet(value)
