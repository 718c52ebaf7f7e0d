"""Slow references that the tests hold the library's results against."""

from circulant.errors import VerificationFailure


def check_abelian_group(table, identity):
    """Check that a composition table is an Abelian group with the given identity.

    table[i][j] is the index of the composite of elements i and j.  Raises
    VerificationFailure naming the first axiom that fails: the identity
    (which must be one of the k elements, so the empty table fails),
    closure, the identity's row, inverses, commutativity, then every
    associativity triple, O(k^3) in all.
    """
    k = len(table)
    if not 0 <= identity < k:
        raise VerificationFailure(f"identity {identity} is not one of the {k} elements")
    for i, row in enumerate(table):
        if len(row) != k or not all(0 <= v < k for v in row):
            raise VerificationFailure(f"row {i} of the table is not closed over {k} elements")
    if any(table[identity][j] != j for j in range(k)):
        raise VerificationFailure(f"element {identity} is not an identity")
    for i in range(k):
        if identity not in table[i]:
            raise VerificationFailure(f"element {i} has no inverse")
        for j in range(k):
            if table[i][j] != table[j][i]:
                raise VerificationFailure(f"elements {i} and {j} do not commute")
    for i in range(k):
        for j in range(k):
            for l in range(k):
                if table[table[i][j]][l] != table[i][table[j][l]]:
                    raise VerificationFailure(f"({i}*{j})*{l} != {i}*({j}*{l})")
