"""Exact promotion and evacuation on linear extensions of finite posets.

Submodules:
  posets     - finite posets, ideals, J(P), shapes, linear extensions
  promotion  - tau operators, promotion, evacuation, orbit structure
  stats      - descents, comaj, domino tableaux, sign balance
  ratfunc    - exact integer polynomials and the ring Q[q, 1/(q+1)]
  sieve      - hooks, maj, F(q), cyclic sieving on rectangles
  hecke      - the Hecke algebra H_n(q) and the evacuation expansion
  chains     - promotion/evacuation on maximal chains of graded posets
  flags      - the subspace lattice B_n(q) and the Bruhat consistency check
  verify     - theorem verification suites
"""

__version__ = "0.1.0"
