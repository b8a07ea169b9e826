"""Prime moduli, checked in pure integer code: no F_p layer needs numpy for it."""

from .errors import NotPrime

MAX_MODULUS = 2**31

# Miller-Rabin on these bases is exact below 3 215 031 751 > MAX_MODULUS.
_WITNESSES = (2, 3, 5, 7)


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for a in _WITNESSES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Field:
    """Prime field of order p; construction checks p is a prime in [2, 2**31]."""

    __slots__ = ("p",)

    def __init__(self, p: int):
        p = int(p)
        if p < 2 or p > MAX_MODULUS or not _is_prime(p):
            raise NotPrime(f"{p} is not a prime in [2, 2**31]")
        self.p = p
