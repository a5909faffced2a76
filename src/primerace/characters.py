"""Real Dirichlet characters and completely multiplicative weights bounded by 1.

Characters are always evaluated through a period table indexed by n mod q,
so the hot path inside a race loop is a single array lookup. Kronecker-built
characters fill that table once from the symbol. General weights carry an
explicit prime -> value map and evaluate composites through factorization.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Mapping

import numpy as np

from .errors import CapabilityError, ValidationError
from .sieve import prime_stream

CHARACTER_TABLE = "character_table"
KRONECKER = "kronecker"
GENERAL = "general_multiplicative"

DEFAULT_FACTOR_LIMIT = 10**6


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


@lru_cache(maxsize=8)
def _trial_primes(limit: int) -> tuple[int, ...]:
    return tuple(prime_stream(limit))


class DirichletWeight:
    """A real completely multiplicative arithmetic weight with |w(n)| <= 1.

    Character kinds are backed by a verified period table; the general kind
    evaluates through its prime -> value map (unassigned primes fall back to
    `default_prime_value`). Instances are immutable after construction.
    """

    def __init__(
        self,
        kind: str,
        *,
        modulus: int = 0,
        period: np.ndarray | None = None,
        discriminant: int | None = None,
        prime_values: Mapping[int, float] | None = None,
        default_prime_value: float = 0.0,
        factor_limit: int = DEFAULT_FACTOR_LIMIT,
    ):
        self.kind = kind
        self.modulus = modulus
        self.discriminant = discriminant
        self.period = period
        self.prime_values = dict(prime_values) if prime_values else {}
        self.default_prime_value = float(default_prime_value)
        self.factor_limit = int(factor_limit)
        if period is not None:
            # exact integer partial sums over one period; pref[r] = sum_{n<=r} w(n)
            vals = [int(period[n % modulus]) for n in range(1, modulus + 1)]
            pref = [0]
            for v in vals:
                pref.append(pref[-1] + v)
            self._prefix = pref

    @property
    def is_character(self) -> bool:
        return self.period is not None

    def at(self, n: int) -> float:
        """w(n) for n >= 1. O(1) for character kinds."""
        if n < 1:
            raise ValidationError("weights are defined on n >= 1")
        if self.period is not None:
            return float(self.period[n % self.modulus])
        return self._general_at(n)

    def values_at_primes(self, primes: np.ndarray) -> np.ndarray:
        """Vectorized w(p) over an array of primes, as float64."""
        if self.period is not None:
            return self.period[primes % self.modulus].astype(np.float64)
        return np.array([self.prime_value(int(p)) for p in primes], dtype=np.float64)

    def prime_value(self, p: int) -> float:
        return float(self.prime_values.get(p, self.default_prime_value))

    def _general_at(self, n: int) -> float:
        value = 1.0
        m = n
        for p in _trial_primes(self.factor_limit):
            if p * p > m:
                break
            while m % p == 0:
                value *= self.prime_value(p)
                m //= p
            if value == 0.0:
                return 0.0
        if m > 1:
            if math.isqrt(m) > self.factor_limit:
                raise CapabilityError(
                    f"cannot factor {n}: cofactor {m} exceeds the "
                    f"factorization limit {self.factor_limit}"
                )
            value *= self.prime_value(m)
        return value

    def partial_sum(self, x: int) -> int:
        """S(x) = sum_{n<=x} w(n) as an exact integer; |S(x)| <= q."""
        if not self.is_character:
            raise CapabilityError(
                "partial sums are only bounded for character kinds"
            )
        if x < 0:
            raise ValidationError("partial_sum requires x >= 0")
        s = self._prefix[x % self.modulus]
        assert abs(s) <= self.modulus
        return s

    def __repr__(self) -> str:
        if self.kind == KRONECKER:
            return f"DirichletWeight(kronecker d={self.discriminant})"
        if self.kind == CHARACTER_TABLE:
            return f"DirichletWeight(table mod {self.modulus})"
        return f"DirichletWeight(general, {len(self.prime_values)} primes assigned)"


def _validated_table(q: int, values: np.ndarray, origin: str) -> np.ndarray:
    """Check every character invariant on the residue table; raise on failure."""
    if q < 3:
        raise ValidationError(f"{origin}: modulus must be >= 3, got {q}")
    if len(values) != q:
        raise ValidationError(f"{origin}: expected {q} period values, got {len(values)}")
    if not np.isin(values, (-1, 0, 1)).all():
        raise ValidationError(f"{origin}: character values must lie in {{-1, 0, +1}}")
    if values[1 % q] != 1:
        raise ValidationError(f"{origin}: w(1) must equal 1")
    for r in range(q):
        vanishes = values[r] == 0
        if vanishes != (math.gcd(r, q) > 1):
            raise ValidationError(
                f"{origin}: w(n) must vanish exactly when gcd(n, q) > 1; "
                f"violated at n = {r if r else q}"
            )
    # complete multiplicativity on all residue pairs; periodicity extends it
    # to every m, n >= 1
    m = np.arange(1, q + 1, dtype=np.int64)
    table = values[m % q]
    products = values[(m[:, None] * m[None, :]) % q]
    ok = products == table[:, None] * table[None, :]
    if not ok.all():
        i, j = np.argwhere(~ok)[0]
        raise ValidationError(
            f"{origin}: not completely multiplicative, witness pair "
            f"(m, n) = ({int(m[i])}, {int(m[j])})"
        )
    if int(values.sum()) != 0:
        raise ValidationError(f"{origin}: principal character rejected, non-principal required")
    return values


def character_from_table(q: int, values) -> DirichletWeight:
    """Character of modulus q from its period table (index = n mod q)."""
    table = _validated_table(q, np.asarray(values, dtype=np.int8), f"table mod {q}")
    return DirichletWeight(CHARACTER_TABLE, modulus=q, period=table)


def character_from_discriminant(d: int) -> DirichletWeight:
    """Real character mod |d| realized by the Kronecker symbol (d/.)."""
    if abs(d) < 3 or not is_fundamental_discriminant(d):
        raise ValidationError(f"non-fundamental discriminant: {d}")
    q = abs(d)
    table = np.array([kronecker_symbol(d, r) for r in range(q)], dtype=np.int8)
    _validated_table(q, table, f"kronecker d={d}")
    return DirichletWeight(KRONECKER, modulus=q, period=table, discriminant=d)


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
            q = int(parts[1])
            values = [int(v) for v in parts[2].split(",")]
            return character_from_table(q, values)
    except ValueError as exc:
        raise ValidationError(f"malformed character spec {spec!r}: {exc}") from exc
    raise ValidationError(
        f"unrecognized character spec {spec!r}; "
        "expected 'kronecker:<d>' or 'table:<q>:<comma-values>'"
    )


def general_weight(
    prime_values: Mapping[int, float],
    default: float = 0.0,
    factor_limit: int = DEFAULT_FACTOR_LIMIT,
) -> DirichletWeight:
    """General completely multiplicative weight from prime assignments."""
    if abs(default) > 1:
        raise ValidationError("default prime value must satisfy |v| <= 1")
    for p, v in prime_values.items():
        if abs(v) > 1:
            raise ValidationError(f"|w({p})| = {abs(v)} exceeds 1")
        if p < 2 or any(p % d == 0 for d in range(2, math.isqrt(p) + 1)):
            raise ValidationError(f"prime_values key {p} is not prime")
    return DirichletWeight(
        GENERAL,
        prime_values=prime_values,
        default_prime_value=default,
        factor_limit=factor_limit,
    )

