"""Subspace lattices over F_q, Bruhat cells, Hecke consistency."""

import hashlib
from fractions import Fraction

import pytest

from linext.chains import ChainVector, linear_tau, maximal_chains
from linext.flags import (
    bruhat_cell,
    hecke_consistency,
    standard_flag_chain,
    subspace_lattice,
)
from linext.verify import _graded_corpus


def gaussian(n, k, q):
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


@pytest.mark.parametrize("n,q", [(2, 2), (2, 3), (3, 2), (3, 3), (4, 2)])
def test_subspace_counts(n, q):
    # a k-dimensional subspace has q^k vectors
    sizes = [len(s) for s in subspace_lattice(n, q).subspaces]
    assert len(sizes) == sum(gaussian(n, k, q) for k in range(n + 1))
    for k in range(n + 1):
        assert sizes.count(q ** k) == gaussian(n, k, q)


@pytest.mark.parametrize("n,q", [(1, 2), (2, 2), (3, 2), (4, 2), (1, 3), (2, 3), (3, 3)])
def test_lattice_covers_are_the_inclusions_of_index_q(n, q):
    # the definition the walk replaces: s < t is a cover iff s is a proper
    # subset of t and |t| = q |s|, over all pairs
    lat = subspace_lattice(n, q)
    subs = lat.subspaces
    expected = sorted(
        (i, j)
        for i, s in enumerate(subs)
        for j, t in enumerate(subs)
        if len(t) == q * len(s) and s < t
    )
    assert list(lat.graded.poset.covers) == expected
    assert list(subs) == sorted(subs, key=lambda s: (len(s), sorted(s)))


@pytest.mark.parametrize("n,q", [(2, 2), (2, 3), (3, 2)])
def test_flag_count(n, q):
    lat = subspace_lattice(n, q)
    chains = maximal_chains(lat.graded)
    expect = 1
    for i in range(1, n + 1):
        expect *= (q ** i - 1) // (q - 1)
    assert len(chains) == expect


def test_standard_flag_and_identity_cell():
    lat = subspace_lattice(2, 2)
    m0 = standard_flag_chain(lat)
    assert bruhat_cell(lat, m0, m0) == (1, 2)
    cells = {}
    for m in maximal_chains(lat.graded):
        w = bruhat_cell(lat, m, m0)
        cells.setdefault(w, []).append(m)
    assert len(cells[(1, 2)]) == 1
    assert len(cells[(2, 1)]) == 2  # q = 2 chains in the big cell


def rank_table_cell(lat, chain, ref) -> tuple:
    """The relative position of two flags by its definition: from the table
    r[i][j] = dim(V_i & W_j), w(i) = j where r[i][j] - r[i-1][j] - r[i][j-1]
    + r[i-1][j-1] = 1."""
    n = lat.n
    dim = {lat.q ** k: k for k in range(n + 1)}
    W = [lat.subspaces[j] for j in ref]
    r = [[dim[len(lat.subspaces[i] & Wj)] for Wj in W] for i in chain]
    w = [0] * n
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if r[i][j] - r[i - 1][j] - r[i][j - 1] + r[i - 1][j - 1] == 1:
                w[i - 1] = j
    return tuple(w)


@pytest.mark.parametrize("n,q", [(2, 3), (3, 2), (3, 3), (4, 2)])
def test_bruhat_cell_against_non_standard_reference_flags(n, q):
    lat = subspace_lattice(n, q)
    flags = maximal_chains(lat.graded)
    others = [m for m in flags if m != standard_flag_chain(lat)]
    refs = [others[-1], others[len(others) // 2]]
    for ref in refs:
        assert bruhat_cell(lat, ref, ref) == tuple(range(1, n + 1))
        for m in flags:
            assert bruhat_cell(lat, m, ref) == rank_table_cell(lat, m, ref)


def test_cell_sizes_are_q_powers_of_length():
    lat = subspace_lattice(3, 2)
    m0 = standard_flag_chain(lat)
    from linext.hecke import perm_length

    counts = {}
    for m in maximal_chains(lat.graded):
        w = bruhat_cell(lat, m, m0)
        counts[w] = counts.get(w, 0) + 1
    for w, size in counts.items():
        assert size == 2 ** perm_length(w)


@pytest.mark.parametrize("n,q", [(2, 2), (2, 3), (3, 2), (3, 3), (4, 2), (4, 3), (5, 2)])
def test_hecke_consistency(n, q):
    rep = hecke_consistency(n, q)
    assert rep.ok, rep.mismatches
    # every permutation appears as a cell, including empty coefficient cells
    assert len(rep.cells) == [1, 1, 2, 6, 24, 120][n]
    # the cells partition the [n]_q! flags
    q_factorial = {(2, 2): 3, (2, 3): 4, (3, 2): 21, (3, 3): 52, (4, 2): 315,
                   (4, 3): 2080, (5, 2): 9765}
    assert sum(size for size, _ in rep.cells.values()) == q_factorial[n, q]


def _digest(x) -> str:
    return hashlib.sha256(repr(x).encode()).hexdigest()[:16]


def _tau_images(Q) -> list:
    """(chain, i, sorted (chain, coefficient) of linear_tau of its basis vector)
    for every maximal chain of Q and every i."""
    out = []
    for m in maximal_chains(Q):
        for i in range(1, Q.height):
            tv = linear_tau(Q, ChainVector.basis(m), i)
            out.append((m, i, sorted((c, tv.coeff(c)) for c in tv.terms)))
    return out


# SHA-256 prefixes, recorded on the Fraction-based code before the integer
# rewrite: hecke_consistency reports (ok, sorted cells, mismatches) per (n, q);
# bruhat_cell of every flag against the standard flag and one other flag;
# linear_tau of every basis chain at every i
FLAG_DIGESTS = {
    "hecke_consistency": "4f0a3e104717fcb2",
    "bruhat_cell": "4e2ce8c8d24bd3e0",
    "linear_tau": "5d27cc68cf611d0c",
}


def test_flag_checks_are_pinned_by_digest():
    reports = []
    for n, q in [(n, 2) for n in range(1, 6)] + [(n, 3) for n in range(1, 5)]:
        rep = hecke_consistency(n, q)
        reports.append((n, q, rep.ok, sorted(rep.cells.items()), rep.mismatches))
    cells = []
    for n, q in ((3, 3), (4, 2)):
        lat = subspace_lattice(n, q)
        flags = maximal_chains(lat.graded)
        for ref in (standard_flag_chain(lat), flags[len(flags) // 2]):
            cells.append([bruhat_cell(lat, m, ref) for m in flags])
    graded = list(_graded_corpus().values())
    graded += [subspace_lattice(n, q).graded for n, q in ((2, 2), (2, 3), (3, 2))]
    got = {
        "hecke_consistency": _digest(reports),
        "bruhat_cell": _digest(cells),
        "linear_tau": _digest([_tau_images(Q) for Q in graded]),
    }
    assert got == FLAG_DIGESTS
