"""The modular side of the identities: partitions into parts not congruent
to 0 or +-i mod 2r+1, counted by a list coin DP.

No route reads these; the tests keep them as the base products'
independent oracle. pytest does not collect this file.
"""

from rrgordon.partitions import GordonParams


def allowed_residues(r: int, i: int) -> set[int]:
    """Residues mod 2r+1 a part may take: everything but 0 and +-i."""
    mod = 2 * r + 1
    banned = {0, i % mod, (mod - i) % mod}
    return {c for c in range(mod) if c not in banned}


def count_modular(r: int, i: int, n: int) -> int:
    """Partitions of n into parts not congruent to 0 or +-i mod 2r+1."""
    GordonParams(r, i, 0)  # validates r and i
    if n < 0:
        raise ValueError("n must be non-negative")
    allowed = allowed_residues(r, i)
    dp = [0] * (n + 1)
    dp[0] = 1
    for v in range(1, n + 1):
        if v % (2 * r + 1) not in allowed:
            continue
        for w in range(v, n + 1):
            dp[w] += dp[w - v]
    return dp[n]
