"""Finite posets, order ideals, lattices of ideals, shapes and linear extensions.

Elements are dense integer ids 0..p-1.  A linear extension is a tuple of all
p elements (the word u_1 ... u_p with u_i = f^{-1}(i)); every prefix of the
word is an order ideal.

Each Poset is built once, from its covers and its order, closed once in
Kahn's topological order (`_closure_masks`).  Builders that know their exact
covers run no reduction, `dual_poset` swaps P's masks and cover lists, and
`restrict` reduces P's order restricted to the kept elements.

L(P) is the set of maximal chains of J(P).  Every walk over J(P) here uses one
rule for the elements that can be added to an ideal: I gains t iff
I & geq == below, with t's down-set geq and strict down-set below, and asks
only the elements that `_joins` files under the size of I (t joins only
ideals of size |geq| - 1 to p - |leq|).  `_ideal_kids` is that rule as one
step, the ideals one element above I: L(P)'s graph, the covers of
`ideals_lattice` and the dual domino steps read it.  One layered walk
(`_ideal_layers`), a pass per element filed under a layer's size, serves
e(P), the ideals and the path sums.
`count_extensions` and `ideals` (so `ideals_lattice` too) run it once per
connected component C of P (`_components`), over C's elements alone in P's
own bits, and combine:
e(P + Q) = C(p + q, p) e(P) e(Q) and J(P + Q) = J(P) x J(Q), whose rows
`ideals` merges by keyless sorts of twins m | rev(m) << p, rev(m) being m's
bits reversed.  The ideal cap is checked against the product of the |J(C)|,
which is |J(P)|.  `extension_space` takes e(P) and its cap messages from
`count_extensions`, and under its cap builds L(P)'s graph in one pass up J(P)
by `_ideal_kids`.  Given a step, the layered walk runs over J(P) whole with
(ideal, last element) states and pushes any additive value along each step
(`_path_sum`): the statistics that need no word of L(P).

An ExtensionSpace holds the maximal paths of a graded DAG in lex order: L(P)
from J(P), kept for the SPACE_CACHE_SIZE posets built last, or the maximal
chains of a graded poset, as prefixes to its nodes of depth p // 2 times their
suffixes, read by one iterative walk that yields leaves alone (`_lex_walk`,
which also reads maximal chains and the dual domino chains of any graded
DAG, `_dual_dominoes`: J(P)'s or a graded poset's).  Its tau_i rows
swap equal blocks of paths, found one depth at a time, and promote, evacuate
and dual_evacuate grow from them along Stanley's runs tau_1 ... tau_m, each
run built when one of its operators is first read.
"""

from __future__ import annotations

from array import array
from bisect import insort
from dataclasses import dataclass, field
from functools import cache, cached_property
from math import comb
from operator import itemgetter
from typing import Iterator

Word = tuple  # tuple[int, ...], a linear extension as a word

DEFAULT_IDEAL_CAP = 2 ** 20  # the one cap on |J(P)|, read by every walk of J(P) when it runs
DEFAULT_EXTENSION_CAP = 200_000


class CycleError(ValueError):
    """Raised when the cover relation contains a directed cycle."""

    def __init__(self, cycle):
        self.cycle = tuple(cycle)
        super().__init__(f"cover relation has a cycle: {' < '.join(map(str, cycle))}")


class CapExceeded(RuntimeError):
    """Raised when an enumeration would exceed its configured size cap."""


@dataclass(frozen=True)
class Poset:
    p: int
    covers: tuple  # sorted tuple of (s, t) pairs, s covered by t
    up: tuple = field(compare=False)  # up[s]: elements covering s
    down: tuple = field(compare=False)  # down[t]: elements covered by t
    leq_mask: tuple = field(compare=False)  # bit t of leq_mask[s] set iff s <= t
    geq_mask: tuple = field(compare=False)  # bit s of geq_mask[t] set iff s <= t

    def leq(self, s: int, t: int) -> bool:
        return bool(self.leq_mask[s] >> t & 1)

    def less(self, s: int, t: int) -> bool:
        return s != t and self.leq(s, t)

    def comparable(self, s: int, t: int) -> bool:
        return self.leq(s, t) or self.leq(t, s)

    def minimals(self) -> tuple:
        return tuple(t for t in range(self.p) if not self.down[t])

    def maximals(self) -> tuple:
        return tuple(t for t in range(self.p) if not self.up[t])

    def is_extension(self, word) -> bool:
        if sorted(word) != list(range(self.p)):
            return False
        pos = {t: i for i, t in enumerate(word)}
        return all(pos[s] < pos[t] for (s, t) in self.covers)

    def __repr__(self):
        return f"Poset(p={self.p}, covers={list(self.covers)})"


def _adjacency(p: int, pairs) -> tuple:
    """(up, down): up[s] lists each t of a pair (s, t), down[t] each s, in order."""
    up = [[] for _ in range(p)]
    down = [[] for _ in range(p)]
    for s, t in pairs:
        up[s].append(t)
        down[t].append(s)
    return up, down


def _closure_masks(p: int, up, down) -> tuple:
    """(leq_mask, geq_mask): the reflexive-transitive closure of the relation
    with adjacency lists (up, down), taken in Kahn's topological order.  An
    element never reached has an unreached predecessor, so walking back from
    the least one through the first of each closes the cycle CycleError names.
    """
    waiting = [len(below) for below in down]  # predecessors not yet ordered
    order = [t for t in range(p) if not waiting[t]]
    for s in order:  # grows while it is read
        for t in up[s]:
            waiting[t] -= 1
            if not waiting[t]:
                order.append(t)
    if len(order) < p:
        path = [next(t for t in range(p) if waiting[t])]
        while path.count(path[-1]) == 1:
            path.append(next(s for s in down[path[-1]] if waiting[s]))
        raise CycleError(path[path.index(path[-1]):][::-1])
    geq = [1 << t for t in range(p)]
    for t in order:  # predecessors already done
        for s in down[t]:
            geq[t] |= geq[s]
    leq = [1 << t for t in range(p)]
    for s in reversed(order):  # successors already done
        for t in up[s]:
            leq[s] |= leq[t]
    return tuple(leq), tuple(geq)


def _reduce(leq_mask, geq_mask) -> list:
    """The cover pairs of a closed order: s < t with nothing strictly between."""
    return [(s, t) for s, row in enumerate(leq_mask) for t in _mask_members(row ^ 1 << s)
            if row & geq_mask[t] == 1 << s | 1 << t]


def poset_from_covers(p: int, covers) -> Poset:
    """Build a poset from relation pairs; applies transitive reduction.

    Rejects a negative element count, out-of-range ids and cycles (with a
    cycle witness).  A cover of the closure is one of the input pairs, so
    only those are tested, and repeated pairs are dropped.
    """
    if p < 0:
        raise ValueError(f"a poset needs p >= 0 elements, not p = {p}")
    for s, t in covers:
        if not (0 <= s < p and 0 <= t < p):
            raise ValueError(f"pair ({s},{t}) references an id outside 0..{p - 1}")
        if s == t:
            raise CycleError([s, t])
    leq, geq = masks = _closure_masks(p, *_adjacency(p, covers))
    reduced = {(s, t) for s, t in covers if leq[s] & geq[t] == 1 << s | 1 << t}
    return _poset_from_reduced(p, reduced, masks)


def _poset_from_reduced(p: int, covers, masks: tuple = None) -> Poset:
    """The Poset whose cover pairs are exactly `covers`, which must already be
    transitively reduced (builders and lattices that know their covers).
    `masks` is its (leq_mask, geq_mask) when the caller holds it; otherwise
    they are closed from the covers."""
    covers = tuple(sorted(covers))
    up, down = _adjacency(p, covers)
    return Poset(p, covers, tuple(map(tuple, up)), tuple(map(tuple, down)),
                 *(masks or _closure_masks(p, up, down)))


def chain(n: int) -> Poset:
    return _poset_from_reduced(n, [(i, i + 1) for i in range(n - 1)])


def antichain(n: int) -> Poset:
    return _poset_from_reduced(n, [])


def ordinal_sum(lower: Poset, upper: Poset) -> Poset:
    """Every element of `lower` below every element of `upper`."""
    off = lower.p
    pairs = list(lower.covers)
    pairs += [(s + off, t + off) for (s, t) in upper.covers]
    pairs += [(s, t + off) for s in lower.maximals() for t in upper.minimals()]
    return _poset_from_reduced(lower.p + upper.p, pairs)


def disjoint_union(a: Poset, b: Poset) -> Poset:
    off = a.p
    pairs = list(a.covers) + [(s + off, t + off) for (s, t) in b.covers]
    return _poset_from_reduced(a.p + b.p, pairs)


def _joins(P: Poset, ids) -> list:
    """joins[k], k = 0..n: (bit, geq, below), in ascending t, for each element
    t of `ids` (ascending, n of them, a union of P's connected components)
    that an ideal of size k of J(ids) can gain: 1 << t, its down-set
    P.geq_mask[t] and its strict down-set geq ^ bit.  An ideal I gains t iff
    I & geq == below: it holds t's strict down-set and nothing above t, so
    |geq| - 1 <= k <= n - |leq|: each element is filed once under those sizes."""
    n = len(ids)
    joins = [[] for _ in range(n + 1)]
    for t in ids:
        geq = P.geq_mask[t]
        down_set = 1 << t, geq, geq ^ 1 << t
        for k in range(geq.bit_count() - 1, n - P.leq_mask[t].bit_count() + 1):
            joins[k].append(down_set)
    return joins


def _ideal_kids(P: Poset):
    """kids(mask): the ideals of J(P) one element above the ideal `mask`, by
    ascending element, asking only the elements that `_joins` files under
    |mask|.  The one step rule of J(P) outside its layered walk."""
    joins = _joins(P, range(P.p))

    def kids(mask: int) -> list:
        return [mask | bit for bit, geq, below in joins[mask.bit_count()] if mask & geq == below]
    return kids


def _components(P: Poset) -> list:
    """The ids of each connected component of P, ascending, the components by
    least id: one breadth-first search over the covers up and down."""
    seen = [False] * P.p
    components = []
    for s in range(P.p):
        if not seen[s]:
            seen[s] = True
            component = [s]
            for t in component:  # grows while it is read
                for u in (*P.up[t], *P.down[t]):
                    if not seen[u]:
                        seen[u] = True
                        component.append(u)
            components.append(sorted(component))
    return components


def _ideal_layers(joins: list, message: str, step=None) -> Iterator[dict]:
    """Walk J(C) upward from the empty ideal, one size at a time, for the
    elements C that `joins` (as `_joins` gives it) files, in P's own bits.

    Yields {mask: number of paths from the empty ideal to mask} per size 0..|C|,
    holding two layers at a time.  The next layer is built by one pass per
    element t that `joins` files under the size of the current one, which
    pushes the path count of every ideal that gains t.  CapExceeded(message)
    is raised after the first pass that brings the number of ideals found
    past DEFAULT_IDEAL_CAP.

    With a `step`, a state is (mask, last), (0, -1) holding 1, and
    step(mask, last, t, value) gives the (last, value), additive in value,
    that adding t pushes to mask | 1 << t.  The cap then counts states, and
    the bits of the values built, summed per layer, may not pass 2048 times it.
    """
    layer = {0: 1} if step is None else {(0, -1): 1}
    found, bits = 1, 0
    for down_sets in joins:
        yield layer
        nxt = {}
        get = nxt.get
        for bit, geq, below in down_sets:
            if step is None:
                for mask, paths in layer.items():
                    if mask & geq == below:
                        up = mask | bit
                        nxt[up] = get(up, 0) + paths
            else:
                t = bit.bit_length() - 1
                for (mask, last), value in layer.items():
                    if mask & geq == below:
                        last, value = step(mask, last, t, value)
                        key = mask | bit, last
                        nxt[key] = get(key, 0) + value
            if found + len(nxt) > DEFAULT_IDEAL_CAP:
                raise CapExceeded(message)
        found += len(nxt)
        if step is not None:
            bits += sum(map(int.bit_length, nxt.values()))
            if bits > DEFAULT_IDEAL_CAP << 11:
                raise CapExceeded(message)
        layer = nxt


def _path_sum(P: Poset, step) -> int:
    """The sum over the words of L(P) of the value that `step` (see
    `_ideal_layers`) carries along each, from 1, as maximal chains of J(P)."""
    message = (f"path sums over J(P) of a {P.p}-element poset need more than "
               f"{DEFAULT_IDEAL_CAP} states or {DEFAULT_IDEAL_CAP << 11} bits")
    for layer in _ideal_layers(_joins(P, range(P.p)), message, step):
        pass
    return sum(layer.values())


def _lex_walk(root, kids, head: tuple = ()) -> Iterator[tuple]:
    """Depth first from `root` over kids(x), the (letter, child) pairs of x in
    lex order, on a stack of iterators: yields (path, x) at each leaf x, path
    the tuple of head and the letters to x; a root with no kids is a leaf."""
    top = kids(root)
    if not top:
        yield tuple(head), root
    path, stack = list(head), [iter(top)]
    while stack:
        for letter, x in stack[-1]:
            below = kids(x)
            if below:
                path.append(letter)
                stack.append(iter(below))
                break
            yield (*path, letter), x
        else:
            stack.pop()
            if stack:
                path.pop()


def _dual_dominoes(root, top, kids, odd, message: str) -> Iterator[tuple]:
    """Stanley's dual domino chains root < ... < top of a graded DAG whose
    children kids(x) lists in order (on J(P), the dual P-domino tableaux), as
    node tuples in lex order: a first step to kids(root) when `odd`, then to
    each z two ranks up that exactly one middle y leads to (y in kids(x),
    z in kids(y)), as first met.  Each node's steps are built once, raising
    CapExceeded(message) past DEFAULT_IDEAL_CAP nodes, and each node's kids
    read once.  A node met again has ended its walk: unless a chain found so
    far passed it, it is left out."""
    kids, built, live = cache(kids), {}, set()

    def steps(x):
        zs = built.get(x)
        if zs is None:
            if len(built) >= DEFAULT_IDEAL_CAP:
                raise CapExceeded(message)
            zs = kids(x)
            if x != root or not odd:
                middles = {}  # z: the number of middles y in zs that lead to it, as first met
                for y in zs:
                    for z in kids(y):
                        middles[z] = middles.get(z, 0) + 1
                zs = [z for z, n in middles.items() if n == 1]
            built[x] = zs
        return [(z, z) for z in zs if z in live or z not in built]

    for path, x in _lex_walk(root, steps, (root,)):
        if x == top:
            live.update(path)
            yield path


def linear_extensions(P: Poset, cap: int = DEFAULT_EXTENSION_CAP) -> Iterator[Word]:
    """Yield the words of P's cached ExtensionSpace: every linear extension
    once, in lex order, or CapExceeded before the first when e(P) > cap."""
    yield from extension_space(P, cap).words


class ExtensionSpace:
    """The maximal paths of p letters from `root` of a graded DAG, kids[x]
    the (letter, child) pairs of x by ascending letter and the nodes by depth:
    `words` (head + letters, in lex order), and on first use rows tau[i]
    (1 <= i < p), tau[i][k] the index of tau_i(words[k]), and `operators`.
    Only `tau` reads `kids`, so the graph is released once the rows are built.
    Words are the prefixes of p // 2 letters, from one walk cut at that depth,
    each joined to every suffix of its middle node, from one walk per node:
    all in lex order, and as the prefixes are equally long, so are the words."""

    def __init__(self, p: int, root, kids: dict, head: tuple = ()):
        self.p, self.root, self.kids = p, root, kids
        middle = {root}  # the nodes at depth p // 2
        for _ in range(p // 2):
            middle = {y for x in middle for _, y in kids[x]}
        tails = {x: [s for s, _ in _lex_walk(x, kids.__getitem__)] for x in middle}
        prefixes = _lex_walk(root, lambda x: () if x in middle else kids[x], head)
        self.words = tuple([pre + s for pre, x in prefixes for s in tails[x]])

    @cached_property
    def tau(self) -> list:
        """Row i swaps the count[z] words through x -> y -> z with those through x -> y' -> z
        (x at depth i - 1, children y < y' of x): blocks[x] lists their offsets past x's
        first word and count[z], and live[x] the (offset, child) pairs that lead to blocks.
        The live nodes are walked one depth at a time, so row i is filled at depth i - 1.
        The graph must be slender, no x and z with three such y between them, which J(P),
        a distributive lattice, always is; otherwise ValueError, on every access."""
        kids, count, blocks, live = self.kids, {}, {}, {}
        for x in reversed(kids):
            first, alive, off = {}, [], 0
            for _, y in kids[x]:
                if live[y] or y in blocks:
                    alive.append((off, y))
                at = off
                for _, z in kids[y]:
                    if z not in first:
                        first[z] = at
                    elif first[z] is None:  # a third y between x and z
                        raise ValueError("requires a slender poset")
                    else:
                        blocks.setdefault(x, []).append((first[z], at, count[z]))
                        first[z] = None  # spent: its block is paired
                    at += count[z]
                off += count[y]
            count[x], live[x] = off or 1, alive
        ident = array("i", range(len(self.words)))
        rows = [None] + [ident[:] for _ in range(1, self.p)]
        level = {self.root: [0]}  # live x at depth i - 1: the index of its first word per path
        for row in rows[1:]:
            nxt = {}
            for x, starts in level.items():
                for a, b, n in blocks.get(x, ()):
                    for s in starts:
                        lo, hi = a + s, b + s
                        row[lo:lo + n], row[hi:hi + n] = ident[hi:hi + n], ident[lo:lo + n]
                for off, y in live[x]:
                    nxt.setdefault(y, []).extend([s + off for s in starts])
            level = nxt
        del self.kids
        return rows

    @cached_property
    def operators(self) -> dict:
        """{name: array}, array[k] the index of words[k] promoted, evacuated
        or dual evacuated (see `_Operators`)."""
        return _Operators(self.tau[1:], len(self.words))

    def fixed_points(self, name: str) -> list:
        """The words that the operator `name` fixes, in order."""
        image = self.operators[name]
        return [w for k, w in enumerate(self.words) if image[k] == k]


class _Operators(dict):
    """ExtensionSpace.operators, each run built when one of its operators is
    first read.  Rows tau_1 .. tau_{p-1} of n words give delta (promote) and
    gamma = delta_{p-1} ... delta_1 with delta_m = tau_1 ... tau_m (evacuate);
    rows tau_{p-1} .. tau_1 give gamma* = delta*_1 ... delta*_{p-1} with
    delta*_k = tau_{p-1} ... tau_k (dual_evacuate)."""

    def __init__(self, rows: list, n: int):
        super().__init__()
        self.rows, self.n = rows, n

    def __missing__(self, name: str):
        if name == "dual_evacuate":
            self[name] = self._runs(self.rows[::-1])[1]
        elif name in ("promote", "evacuate"):
            self["promote"], self["evacuate"] = self._runs(self.rows)
        else:
            raise KeyError(name)
        return self[name]

    def _runs(self, rows) -> tuple:
        """(D, G) over rows t_1 .. t_r: D = t_1 ... t_r and G = D_r ... D_1 with
        D_m = t_1 ... t_m, two passes per row (right action, so t_m acts after
        D_{m-1} and D_m before G_{m-1}), each an itemgetter gather.  With at
        most one word both are the identity (itemgetter of one index returns
        no tuple)."""
        d = g = range(self.n)
        if self.n > 1:
            for t in rows:
                d = itemgetter(*d)(t)
                g = itemgetter(*d)(g)
        return array("i", d), array("i", g)


SPACE_CACHE_SIZE = 4
_SPACES = {}  # Poset -> ExtensionSpace, oldest first


def extension_space(P: Poset, cap: int = DEFAULT_EXTENSION_CAP) -> ExtensionSpace:
    """The cached ExtensionSpace of P (see SPACE_CACHE_SIZE), or CapExceeded
    when e(P) > cap, before any word is built, and on a hit too.  e(P) and
    its cap messages come from count_extensions; under cap one pass up J(P),
    a size at a time, asks `_ideal_kids` once per ideal for L(P)'s graph: at
    most (p + 1) e(P) ideals, as each lies on a word.  The step x -> y is
    lettered by the bit of x ^ y."""
    space = _SPACES.get(P)
    if space is None:
        e = count_extensions(P)
        if e > cap:
            raise CapExceeded(f"e(P) = {e} exceeds cap {cap}")
        kids, layer, above = {}, [0], _ideal_kids(P)
        while layer:  # J(P) one size at a time, so kids holds the nodes by depth
            for x in layer:  # kids[x]: (t, x + t) per t that x can gain
                kids[x] = [((x ^ y).bit_length() - 1, y) for y in above(x)]
            layer = dict.fromkeys(y for x in layer for _, y in kids[x])
        space = _SPACES[P] = ExtensionSpace(P.p, 0, kids)
        if len(_SPACES) > SPACE_CACHE_SIZE:
            del _SPACES[next(iter(_SPACES))]
    elif len(space.words) > cap:
        raise CapExceeded(f"e(P) = {len(space.words)} exceeds cap {cap}")
    return space


def count_extensions(P: Poset) -> int:
    """e(P), the number of paths from the empty ideal to P in J(P), one
    connected component at a time: e(P + Q) = C(p + q, p) e(P) e(Q), the
    shuffles of a word of P with one of Q.  Each J(C) is walked as `ideals`
    walks it, and CapExceeded is raised once the product of the |J(C)| passes
    DEFAULT_IDEAL_CAP, exactly when |J(P)| does."""
    message = f"e(P) of a {P.p}-element poset needs more than {DEFAULT_IDEAL_CAP} order ideals"
    e, n, size = 1, 0, 1
    for ids in _components(P):
        found = 0
        for layer in _ideal_layers(_joins(P, ids), message):
            found += len(layer)
        size *= found
        if size > DEFAULT_IDEAL_CAP:
            raise CapExceeded(message)
        n += len(ids)
        e *= comb(n, len(ids)) * layer.popitem()[1]  # J(C)'s top layer holds C alone
    return e


_REVERSED_BITS = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))  # byte b with its 8 bits reversed


def ideals(P: Poset) -> list:
    """All order ideals as bitmasks, sorted by (size, lowest-id members): of
    two masks of one size, the first holds the lowest id where they differ,
    so has the larger rev(m).  Each J(C) is walked alone, and CapExceeded
    raised once the product of the |J(C)| passes DEFAULT_IDEAL_CAP, exactly
    when |J(P)| does.  One J(C) is sorted by rev; more are joined largest
    first, on twins m | rev(m) << p, a row (size k) at a time: its runs
    x | y, one per y, merge in one keyless sort, a row no later row reads
    is dropped, and the last product's rows are stripped as they come.
    """
    message = f"more than {DEFAULT_IDEAL_CAP} order ideals"
    factors, size = [], 1
    for ids in _components(P):
        factors.append([list(layer) for layer in _ideal_layers(_joins(P, ids), message)])
        size *= sum(map(len, factors[-1]))
        if size > DEFAULT_IDEAL_CAP:
            raise CapExceeded(message)
    nbytes = (P.p + 7) // 8

    def rev(m):  # rev(m) as bytes, which compare as it does: m's bytes from bit 0 up, each reversed
        return m.to_bytes(nbytes, "little").translate(_REVERSED_BITS)

    strip, out = ((1 << P.p) - 1).__and__, []
    if len(factors) < 2:
        for layer in factors[0] if factors else [[0]]:  # J of the empty poset holds the empty ideal alone
            layer.sort(key=rev, reverse=True)
            out += layer
        return out
    factors.sort(key=lambda f: sum(map(len, f)), reverse=True)
    rows, *factors = [[sorted([m | int.from_bytes(rev(m), "big") << P.p for m in layer], reverse=True)
                       for layer in f] for f in factors]
    for n, factor in enumerate(factors, 1):
        product, top = [], len(factor) - 1
        for k in range(len(rows) + top):
            row = []
            for j in range(max(0, k - len(rows) + 1), min(k, top) + 1):
                for y in factor[j]:  # y = 0, the empty ideal, leaves the row as it is
                    row += [x | y for x in rows[k - j]] if y else rows[k - j]
            row.sort(reverse=True)
            if k >= top:
                rows[k - top] = None  # no later row reads it
            if n < len(factors):
                product.append(row)
            else:
                out += map(strip, row)
        rows = product
    return out


def _mask_members(mask: int) -> tuple:
    out = []
    while mask:
        out.append((mask & -mask).bit_length() - 1)
        mask &= mask - 1
    return tuple(out)


def ideals_lattice(P: Poset):
    """J(P) ordered by inclusion.

    Returns (lattice, members) where members[i] is the frozenset of P-elements
    of the ideal with lattice id i.  Cover pairs are (I, I + {t}) with t
    minimal in the complement of I; they are exact, so no reduction runs.
    CapExceeded if its closure, 2 |J(P)|^2 bits, passes `_ideal_layers`' budget.
    """
    masks = ideals(P)
    bits, budget = 2 * len(masks) ** 2, DEFAULT_IDEAL_CAP << 11
    if bits > budget:
        raise CapExceeded(f"the order of J(P), {len(masks)} ideals, needs {bits} bits, more than {budget}")
    index, kids = {m: i for i, m in enumerate(masks)}, _ideal_kids(P)
    covers = [(index[m], index[y]) for m in masks for y in kids(m)]
    lattice = _poset_from_reduced(len(masks), covers)
    members = tuple(frozenset(_mask_members(m)) for m in masks)
    return lattice, members


@dataclass(frozen=True)
class Shape:
    """A partition shape; shifted row r is indented r-1 (1-based cells)."""

    rows: tuple
    shifted: bool = False

    def __post_init__(self):
        rows = tuple(self.rows)
        object.__setattr__(self, "rows", rows)
        if not rows or any(r <= 0 for r in rows):
            raise ValueError("rows must be positive")
        for a, b in zip(rows, rows[1:]):
            if self.shifted:
                if a <= b:
                    raise ValueError("shifted shape needs strictly decreasing rows")
            elif a < b:
                raise ValueError("shape rows must be weakly decreasing")

    @property
    def size(self) -> int:
        return sum(self.rows)

    def cells(self) -> tuple:
        """(row, col) pairs, 1-based, in row-major order."""
        out = []
        for r, length in enumerate(self.rows, start=1):
            start = r if self.shifted else 1
            out.extend((r, c) for c in range(start, start + length))
        return tuple(out)

    def __str__(self):
        kind = "shifted" if self.shifted else "shape"
        return f"{kind}:{','.join(map(str, self.rows))}"


def shape_poset(s: Shape) -> Poset:
    """Cell poset of a (shifted) shape: (r,c) is covered by (r+1,c) and (r,c+1)."""
    cells = s.cells()
    index = {cell: i for i, cell in enumerate(cells)}
    covers = []
    for (r, c), i in index.items():
        for nxt in ((r, c + 1), (r + 1, c)):
            if nxt in index:
                covers.append((i, index[nxt]))
    return _poset_from_reduced(len(cells), covers)


def dual_poset(P: Poset) -> Poset:
    """P*: P's cover lists and masks swapped, with no closure."""
    return Poset(P.p, tuple(sorted((t, s) for s, t in P.covers)),
                 P.down, P.up, P.geq_mask, P.leq_mask)


def conjugate_extension(word: Word) -> Word:
    """The word of f* (a linear extension of the dual poset)."""
    return tuple(reversed(word))


def maximal_chains(P: Poset) -> list:
    """All maximal chains (minimal to maximal element), in lex order."""
    steps = [tuple(zip(up, up)) for up in P.up]  # a cover t is both letter and child
    return [path for m in P.minimals() for path, _ in _lex_walk(m, steps.__getitem__, (m,))]


def is_antichain(P: Poset, A) -> bool:
    A = list(A)
    return all(not P.comparable(s, t) for i, s in enumerate(A) for t in A[i + 1:])


def antichain_cuts_all_chains(P: Poset, A) -> bool:
    """True iff A is an antichain meeting every maximal chain of P."""
    if not is_antichain(P, A):
        return False
    aset = set(A)
    return all(aset.intersection(ch) for ch in maximal_chains(P))


def restrict(P: Poset, keep):
    """Induced subposet on `keep`; returns (poset, old-id list by new id).
    Its order is P's restricted to `keep`, so only the reduction runs."""
    keep = sorted(set(keep))

    def induced(masks):
        return tuple(sum(1 << i for i, t in enumerate(keep) if masks[s] >> t & 1) for s in keep)

    masks = induced(P.leq_mask), induced(P.geq_mask)
    return _poset_from_reduced(len(keep), _reduce(*masks), masks), keep


def delete_element(P: Poset, t: int) -> Poset:
    sub, _ = restrict(P, [s for s in range(P.p) if s != t])
    return sub


def is_natural(P: Poset) -> bool:
    """Whether the order relation refines the integer order on ids; the order
    is the closure of the covers, so checking the covers is enough."""
    return all(s < t for s, t in P.covers)


def natural_relabel(P: Poset):
    """Relabel along the lex-first linear extension, which takes the least
    addable element p times (Kahn's sort, least first), so J(P) is never built.

    Returns (poset, relabel) with relabel[old] = new; the result is a natural
    partial order isomorphic to P, and the identity when P is already natural.
    """
    waiting = [len(below) for below in P.down]
    ready = [t for t in range(P.p) if not waiting[t]]  # kept ascending
    relabel = [0] * P.p
    for i in range(P.p):
        t = ready.pop(0)
        relabel[t] = i
        for u in P.up[t]:
            waiting[u] -= 1
            if not waiting[u]:
                insort(ready, u)
    newp = _poset_from_reduced(P.p, [(relabel[s], relabel[t]) for (s, t) in P.covers])
    return newp, tuple(relabel)
