"""Reference computations for the benchmark's answer checks.

Nothing here imports `linext`: every value is computed apart from the
function under test, by a closed form, a different algorithm, or plain
bookkeeping over the relations the benchmark generated itself.

Conventions match the package's: elements are ids 0..p-1, a linear
extension is the word of ids in label order, shape cells are numbered in
row-major order, permutations are 1-based one-line tuples, polynomials are
lists of integer coefficients in ascending degree.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from itertools import permutations, product
from math import comb, factorial, lcm, prod


# ---------------------------------------------------------------------------
# Relations.


def closure(p: int, relations) -> list:
    """below[t]: bitmask of the elements strictly below t."""
    below = [0] * p
    for s, t in relations:
        below[t] |= 1 << s
    changed = True
    while changed:
        changed = False
        for t in range(p):
            m = below[t]
            acc = m
            while m:
                s = (m & -m).bit_length() - 1
                acc |= below[s]
                m &= m - 1
            if acc != below[t]:
                below[t] = acc
                changed = True
    return below


def upper_covers(p: int, below) -> list:
    """up[s]: the elements covering s in the order given by `below`."""
    up = [[] for _ in range(p)]
    for t in range(p):
        m = below[t]
        while m:
            s = (m & -m).bit_length() - 1
            m &= m - 1
            # s is covered by t unless some u with s < u < t exists
            if not any(below[u] >> s & 1 for u in _bits(below[t]) if u != s):
                up[s].append(t)
    return up


def _bits(mask: int):
    while mask:
        yield (mask & -mask).bit_length() - 1
        mask &= mask - 1


def rectangle_relations(m: int, n: int) -> list:
    """Cover pairs of the m x n cell poset, cells numbered row-major."""
    out = []
    for r in range(m):
        for c in range(n):
            i = r * n + c
            if c + 1 < n:
                out.append((i, i + 1))
            if r + 1 < m:
                out.append((i, i + n))
    return out


def chains_relations(sizes) -> list:
    """Disjoint union of chains with the given sizes, ids consecutive."""
    out = []
    base = 0
    for a in sizes:
        out.extend((base + k, base + k + 1) for k in range(a - 1))
        base += a
    return out


def is_extension(word, p: int, below) -> bool:
    if len(word) != p or sorted(word) != list(range(p)):
        return False
    seen = 0
    for t in word:
        if below[t] & ~seen:
            return False
        seen |= 1 << t
    return True


def is_ideal(mask: int, below) -> bool:
    return all(not (below[t] & ~mask) for t in _bits(mask))


# ---------------------------------------------------------------------------
# Counting linear extensions and ideals.


def count_extensions(p: int, below) -> int:
    """e(P) by a forward sweep over ideals, level by level."""
    level = {0: 1}
    for _ in range(p):
        nxt = {}
        for mask, ways in level.items():
            for t in range(p):
                if not (mask >> t & 1) and not (below[t] & ~mask):
                    key = mask | 1 << t
                    nxt[key] = nxt.get(key, 0) + ways
        level = nxt
    return level.get((1 << p) - 1, 0)


def multinomial(sizes) -> int:
    """e(P) for a disjoint union of chains: p! / prod a_i!."""
    return factorial(sum(sizes)) // prod(factorial(a) for a in sizes)


def chains_ideal_count(sizes) -> int:
    """Order ideals of a disjoint union of chains: prod (a_i + 1)."""
    return prod(a + 1 for a in sizes)


def rectangle_ideal_count(m: int, n: int) -> int:
    """Order ideals of the m x n cell poset (lattice paths): C(m + n, m)."""
    return comb(m + n, m)


def hook_count(m: int, n: int) -> int:
    """e(lambda) for the m x n rectangle by the hook-length formula."""
    hooks = prod((n - c) + (m - r) - 1 for r in range(m) for c in range(n))
    return factorial(m * n) // hooks


# ---------------------------------------------------------------------------
# Polynomials.


def poly_trim(a) -> list:
    a = list(a)
    while a and a[-1] == 0:
        a.pop()
    return a


def poly_mul(a, b) -> list:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def divide_one_minus_qk(a, k: int) -> list:
    """a / (1 - q^k) by the recurrence b_i = a_i + b_{i-k}; must be exact."""
    a = poly_trim(a)
    if not a:
        return []
    b = [0] * (len(a) - k)
    for i in range(len(b)):
        b[i] = a[i] + (b[i - k] if i >= k else 0)
    # the product b (1 - q^k) must give back a
    if poly_trim(poly_mul(b, [1] + [0] * (k - 1) + [-1])) != a:
        raise ArithmeticError(f"not divisible by 1 - q^{k}")
    return b


def q_hook_poly(m: int, n: int) -> list:
    """F(q) of the m x n rectangle: q^{n C(m,2)} prod [i]_q / prod [h]_q."""
    num = [1]
    for i in range(1, m * n + 1):
        num = poly_mul(num, [1] + [0] * (i - 1) + [-1])
    for r in range(m):
        for c in range(n):
            num = divide_one_minus_qk(num, (n - c) + (m - r) - 1)
    return [0] * (n * comb(m, 2)) + poly_trim(num)


def poly_eval(a, x):
    out = 0
    for c in reversed(a):
        out = out * x + c
    return out


def root_of_unity_values(F, p: int) -> list:
    """round(F(zeta^d)) for d = 1..p, in floating point."""
    out = []
    for d in range(1, p + 1):
        z = cmath.exp(2j * cmath.pi * d / p)
        v = poly_eval(F, z)
        if abs(v.imag) > 1e-6 or abs(v.real - round(v.real)) > 1e-6:
            raise ArithmeticError(f"F(zeta^{d}) = {v} is not an integer")
        out.append(round(v.real))
    return out


def qm1_order(a) -> int:
    """Multiplicity of the root q = 1 by repeated synthetic division."""
    a = poly_trim(a)
    k = 0
    while a and sum(a) == 0:
        # divide by (q - 1): coefficients of the quotient are suffix sums
        quot = [0] * (len(a) - 1)
        acc = 0
        for i in range(len(a) - 1, 0, -1):
            acc += a[i]
            quot[i - 1] = acc
        a = poly_trim(quot)
        k += 1
    return k


def q_factorial_at(n: int, q: int) -> int:
    """[n]_q! at an integer q."""
    return prod(sum(q ** j for j in range(i)) for i in range(1, n + 1))


# ---------------------------------------------------------------------------
# Operators on words, by definition rather than by tau words.


def slide_promote(word, up) -> tuple:
    """Promotion by label sliding: remove label 1, slide, relabel."""
    p = len(word)
    label = [0] * p
    for i, t in enumerate(word):
        label[t] = i + 1
    cur = word[0]
    while up[cur]:
        nxt = min(up[cur], key=label.__getitem__)
        label[cur] = label[nxt]
        cur = nxt
    label[cur] = p + 1
    out = [0] * p
    for t in range(p):
        out[label[t] - 2] = t
    return tuple(out)


def slide_evacuate(word, up) -> tuple:
    """Evacuation by definition: promote the active ideal, freeze the top."""
    p = len(word)
    label = [0] * p
    for i, t in enumerate(word):
        label[t] = i + 1
    active = [True] * p
    for k in range(p, 0, -1):
        cur = min((t for t in range(p) if active[t]), key=label.__getitem__)
        while True:
            ups = [t for t in up[cur] if active[t]]
            if not ups:
                break
            nxt = min(ups, key=label.__getitem__)
            label[cur] = label[nxt]
            cur = nxt
        label[cur] = k + 1
        for t in range(p):
            if active[t]:
                label[t] -= 1
        active[cur] = False
    out = [0] * p
    for t in range(p):
        out[label[t] - 1] = t
    return tuple(out)


def rectangle_evacuate(word, m: int, n: int) -> tuple:
    """Evacuation on an m x n rectangle: T(m+1-r, n+1-c) -> p+1-T."""
    p = m * n
    out = [0] * p
    for i, t in enumerate(word):
        r, c = divmod(t, n)
        opposite = (m - 1 - r) * n + (n - 1 - c)
        out[p - 1 - i] = opposite
    return tuple(out)


def comaj_poly(words, p: int) -> list:
    """sum of x^comaj(w), with descents read on the natural ids."""
    coeffs = [0] * (comb(p, 2) + 1)
    for w in words:
        coeffs[sum(p - i for i in range(1, p) if w[i - 1] > w[i])] += 1
    return poly_trim(coeffs)


def parity(word) -> int:
    inv = 0
    n = len(word)
    for i in range(n):
        x = word[i]
        for j in range(i + 1, n):
            if x > word[j]:
                inv += 1
    return inv & 1


def is_dual_domino_chain(ideals, p: int, below) -> bool:
    """A chain of ideals growing by one element (p odd, first step) and then
    by two-element chains s < t."""
    want = [0, 1] if p % 2 else [0]
    while want[-1] < p:
        want.append(want[-1] + 2)
    if [len(x) for x in ideals] != want:
        return False
    for lo, hi in zip(ideals, ideals[1:]):
        if not lo < hi:
            return False
        mask = sum(1 << t for t in hi)
        if not is_ideal(mask, below):
            return False
        step = sorted(hi - lo)
        if len(step) == 2:
            s, t = step
            if not (below[t] >> s & 1 or below[s] >> t & 1):
                return False
    return True


# ---------------------------------------------------------------------------
# Permutations as dicts word -> word.


def compose(first: dict, second: dict) -> dict:
    """Right action: x first second."""
    return {x: second[y] for x, y in first.items()}


def power(perm: dict, k: int) -> dict:
    out = {x: x for x in perm}
    for _ in range(k):
        out = {x: perm[y] for x, y in out.items()}
    return out


def inverse(perm: dict) -> dict:
    return {y: x for x, y in perm.items()}


def cycle_lengths(perm: dict) -> list:
    seen = set()
    out = []
    for start in perm:
        if start in seen:
            continue
        k = 0
        x = start
        while x not in seen:
            seen.add(x)
            x = perm[x]
            k += 1
        out.append(k)
    return sorted(out)


def order(perm: dict) -> int:
    return lcm(*cycle_lengths(perm)) if perm else 1


# ---------------------------------------------------------------------------
# Signed permutations and the cross-polytope L_n.


def signed_delta(w) -> tuple:
    """w delta = a_2 ... a_n, -a_1."""
    return tuple(w[1:]) + (-w[0],)


def signed_gamma(w) -> tuple:
    """w gamma = -a_1, a_n, a_{n-1}, ..., a_2."""
    return (-w[0],) + tuple(reversed(w[1:]))


def signed_gamma_star(w) -> tuple:
    """w gamma* = -a_n, ..., -a_1."""
    return tuple(-a for a in reversed(w))


def signed_perms(n: int) -> list:
    return [
        tuple(v * s for v, s in zip(base, signs))
        for base in permutations(range(1, n + 1))
        for signs in product((1, -1), repeat=n)
    ]


def dihedral_group_order(domain, g1, g2) -> int:
    """|<g1, g2>| for two involutions on `domain`: 2 * order(g1 g2)."""
    prod_perm = {w: g2(g1(w)) for w in domain}
    return 2 * order(prod_perm)


def chain_steps(faces, chain) -> tuple:
    """The vertex each face of a maximal chain adds; the last element of the
    chain is the artificial top and adds none."""
    out = []
    for lo, hi in zip(chain[:-2], chain[1:-1]):
        added = faces[hi] - faces[lo]
        if len(added) != 1:
            raise ValueError("not a saturated chain of faces")
        out.append(next(iter(added)))
    return tuple(out)


def ideal_chain_word(members, chain) -> tuple:
    """The linear extension read off a maximal chain of J(P)."""
    out = []
    for lo, hi in zip(chain, chain[1:]):
        added = members[hi] - members[lo]
        if len(added) != 1:
            raise ValueError("not a saturated chain of ideals")
        out.append(next(iter(added)))
    return tuple(out)


# ---------------------------------------------------------------------------
# Permutations of 1..n and Hecke identities.


def perm_length(w) -> int:
    return sum(1 for i in range(len(w)) for j in range(i + 1, len(w)) if w[i] > w[j])


def reversal_cycles(w) -> int:
    """kappa(w-hat): cycles of the reversed one-line word."""
    v = tuple(reversed(w))
    seen = [False] * len(v)
    k = 0
    for i in range(len(v)):
        if not seen[i]:
            k += 1
            j = i
            while not seen[j]:
                seen[j] = True
                j = v[j] - 1
    return k


def _homogeneous(poly, a: int, b: int) -> int:
    """b^deg * poly(a / b), in integers."""
    out = 0
    scale = 1
    for c in reversed(poly):
        out = out * a + c * scale
        scale *= b
    return out


def ratfunc_at(coef: Fraction, num, den, q) -> Fraction:
    """coef * num(q) / den(q), exactly, at a rational q."""
    q = Fraction(q)
    a, b = q.numerator, q.denominator
    d = _homogeneous(den, a, b) * b ** (len(num) - 1)
    if d == 0:
        raise ZeroDivisionError(f"pole at q = {q}")
    return Fraction(coef) * Fraction(_homogeneous(num, a, b) * b ** (len(den) - 1), d)


def c_id_closed_form_at(n: int, q) -> Fraction:
    """((q - 1) / (q + 1))^floor(n/2)."""
    x = Fraction(q)
    return ((x - 1) / (x + 1)) ** (n // 2)
