"""Real non-principal Dirichlet characters.

A character is evaluated through a period table indexed by n mod q, so the
hot path inside a race loop is a single array lookup. Kronecker-built
characters fill that table once from the symbol.
"""

from __future__ import annotations

from itertools import accumulate

import numpy as np

from . import sieve
from .errors import ValidationError

CHARACTER_TABLE = "character_table"
KRONECKER = "kronecker"
# Largest accepted modulus. A table's check takes q products per prime below q,
# about 0.1 s at q = 10^4, and a typed discriminant could ask for far more.
MAX_MODULUS = 10**4


def kronecker_symbol(d: int, n: int) -> int:
    """Kronecker symbol (d/n) for n >= 0, completely multiplicative in n."""
    if n < 0:
        raise ValidationError("kronecker_symbol requires n >= 0")
    a, b = d, n
    if b == 0:
        return 1 if abs(a) == 1 else 0
    if a % 2 == 0 and b % 2 == 0:
        return 0
    # strip the even part of b; (a/2) depends on a mod 8
    v = 0
    while b % 2 == 0:
        b //= 2
        v += 1
    k = -1 if (v % 2 == 1 and a % 8 in (3, 5)) else 1
    if a < 0:
        a = -a
        if b % 4 == 3:
            k = -k
    while a != 0:
        v = 0
        while a % 2 == 0:
            a //= 2
            v += 1
        if v % 2 == 1 and b % 8 in (3, 5):
            k = -k
        if a % 4 == 3 and b % 4 == 3:
            k = -k
        a, b = b % a, a
    return k if b == 1 else 0


def _is_squarefree(m: int) -> bool:
    m = abs(m)
    d = 2
    while d * d <= m:
        if m % (d * d) == 0:
            return False
        while m % d == 0:
            m //= d
        d += 1
    return True


def is_fundamental_discriminant(d: int) -> bool:
    """True when d generates a primitive real character of modulus |d|."""
    if d == 0 or d == 1:
        return False
    if d % 4 == 1:
        return _is_squarefree(d)
    if d % 4 == 0:
        m = d // 4
        return m % 4 in (2, 3) and _is_squarefree(m)
    return False


class DirichletWeight:
    """A real non-principal Dirichlet character, backed by a verified period table.

    `period[r]` is w(n) for n = r mod q, where q = len(period) is the modulus.
    The constructor checks every character invariant on the table, so no
    instance holds a principal, non-multiplicative or out-of-range one; a
    `discriminant` only names a table built from the Kronecker symbol.
    Instances are immutable after construction.
    """

    def __init__(self, period, *, discriminant: int | None = None):
        self.modulus = q = len(period)
        self.kind = CHARACTER_TABLE if discriminant is None else KRONECKER
        self.discriminant = discriminant
        origin = f"table mod {q}" if discriminant is None else f"kronecker d={discriminant}"
        if not all(v in (-1, 0, 1) for v in period):  # int8 would truncate 1.5 and overflow on 300
            raise ValidationError(f"{origin}: character values must lie in {{-1, 0, +1}}")
        self.period = _validated_table(np.array(period, dtype=np.int8), origin)
        self._table = self.period.astype(np.float64)  # w(p) is taken from it as float64
        # exact integer partial sums over one period; pref[r] = sum_{n<=r} w(n)
        vals = (int(self.period[n % q]) for n in range(1, q + 1))
        self._prefix = list(accumulate(vals, initial=0))

    def values_at_primes(self, primes: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Vectorized w(p) over an array of primes, as float64, into `out` if given.

        p mod q = p - (p // q) q (NumPy divides by one scalar with a multiply and
        a shift, where `%` divides) fills the int64 view of `out`, and np.take in
        "clip" mode, which reads each index before it writes there, puts w(p) in
        its place ("raise" mode would copy `out`)."""
        r = (values := np.empty(len(primes)) if out is None else out).view(np.int64)
        np.floor_divide(primes, self.modulus, out=r)
        np.subtract(primes, np.multiply(r, self.modulus, out=r), out=r)
        return np.take(self._table, r, out=values, mode="clip")

    def partial_sum(self, x: int) -> int:
        """S(x) = sum_{n<=x} w(n) as an exact integer; |S(x)| <= q."""
        if x < 0:
            raise ValidationError("partial_sum requires x >= 0")
        s = self._prefix[x % self.modulus]
        assert abs(s) <= self.modulus
        return s

    def __eq__(self, other) -> bool:
        """Equal characters have one period table, so one modulus, however built."""
        return isinstance(other, DirichletWeight) and np.array_equal(self.period, other.period)

    def __repr__(self) -> str:
        if self.kind == KRONECKER:
            return f"DirichletWeight(kronecker d={self.discriminant})"
        return f"DirichletWeight(table mod {self.modulus})"


def _check_modulus(q: int, origin: str) -> None:
    if q > MAX_MODULUS:
        raise ValidationError(
            f"{origin}: modulus {q} exceeds the largest accepted modulus, {MAX_MODULUS}"
        )


def _validated_table(values: np.ndarray, origin: str) -> np.ndarray:
    """Check every character invariant on a table of -1, 0 and +1, of modulus
    q = len(values); raise on failure."""
    q = len(values)
    if q < 3:
        raise ValidationError(f"{origin}: modulus must be >= 3, got {q}")
    _check_modulus(q, origin)
    if values[1] != 1:
        raise ValidationError(f"{origin}: w(1) must equal 1")
    n = np.arange(q)
    bad = np.flatnonzero((values == 0) != (np.gcd(n, q) > 1))
    if len(bad):
        raise ValidationError(
            f"{origin}: w(n) must vanish exactly when gcd(n, q) > 1; "
            f"violated at n = {bad[0] or q}"
        )
    # complete multiplicativity on m, n in 1..q, so on every m, n >= 1: row m = ab holds
    # once rows a and b do, and residue 0 by the gcd rule, so the first failing prime
    # row and its first failing n are the first witness of all q^2 products, row-major
    for p in [2, *sieve.base_primes(q - 1).tolist()]:
        bad = np.flatnonzero(values[p * n % q] != values[p] * values)
        if len(bad):
            raise ValidationError(
                f"{origin}: not completely multiplicative, witness pair "
                f"(m, n) = ({p}, {bad[0]})"
            )
    if int(values.sum()) != 0:
        raise ValidationError(f"{origin}: principal character rejected, non-principal required")
    return values


def character_from_table(q: int, values) -> DirichletWeight:
    """Character of modulus q from its period table (index = n mod q)."""
    if len(values) != q:
        raise ValidationError(f"table mod {q}: expected {q} period values, got {len(values)}")
    return DirichletWeight(values)


def character_from_discriminant(d: int) -> DirichletWeight:
    """Real character mod |d| realized by the Kronecker symbol (d/.)."""
    _check_modulus(abs(d), f"kronecker d={d}")  # before the squarefree test
    if abs(d) < 3 or not is_fundamental_discriminant(d):
        raise ValidationError(f"non-fundamental discriminant: {d}")
    return DirichletWeight([kronecker_symbol(d, r) for r in range(abs(d))], discriminant=d)


def chi4() -> DirichletWeight:
    """The real non-principal character mod 4."""
    return character_from_table(4, [0, 1, 0, -1])


def build_character(spec: str) -> DirichletWeight:
    """Parse a character spec string: 'kronecker:<d>' or 'table:<q>:<comma-values>'."""
    parts = spec.strip().split(":")
    try:
        if parts[0] == "kronecker" and len(parts) == 2:
            return character_from_discriminant(int(parts[1]))
        if parts[0] == "table" and len(parts) == 3:
            return character_from_table(int(parts[1]), [int(v) for v in parts[2].split(",")])
    except ValueError as exc:
        raise ValidationError(f"malformed character spec {spec!r}: {exc}") from exc
    raise ValidationError(
        f"unrecognized character spec {spec!r}; "
        "expected 'kronecker:<d>' or 'table:<q>:<comma-values>'"
    )
