"""Independent test-side oracles.

These deliberately avoid the library's straightening and projection code:
elements act on explicit lowest-/highest-weight module bases generator by
generator, weight spaces are enumerated by a different algorithm, and
polynomials are recovered by Lagrange interpolation.
"""

from fractions import Fraction
from math import comb

from admz.usl2 import FinElement, Order

# Letters of a PBW basis monomial (a, b, c), left to right, per order tag:
# F is f^a h^b e^c, E is e^a h^b f^c.
LETTERS = {Order.F: ("f", "h", "e"), Order.E: ("e", "h", "f")}


def act_word_lowest_weight(word, mu, start=0):
    """Act a generator word on the basis {e^j w} of a lowest-weight module.

    w satisfies f.w = 0, h.w = mu*w; the standard relations give
    h.e^j w = (mu+2j) e^j w and f.e^j w = -j(mu+j-1) e^{j-1} w.
    Returns a dict j -> coefficient.
    """
    mu = Fraction(mu)
    vec = {start: Fraction(1)}
    for g in reversed(list(word)):
        nxt = {}
        for j, c in vec.items():
            if g == "e":
                nxt[j + 1] = nxt.get(j + 1, Fraction(0)) + c
            elif g == "h":
                nxt[j] = nxt.get(j, Fraction(0)) + c * (mu + 2 * j)
            elif g == "f":
                if j > 0:
                    coeff = c * Fraction(-j) * (mu + j - 1)
                    nxt[j - 1] = nxt.get(j - 1, Fraction(0)) + coeff
            else:
                raise ValueError(g)
        vec = {j: c for j, c in nxt.items() if c}
    return vec


def act_word_highest_weight(word, mu, start=0):
    """Mirror oracle on the basis {f^j v} of a highest-weight module:
    e.v = 0, h.v = mu*v, e.f^j v = j(mu-j+1) f^{j-1} v."""
    mu = Fraction(mu)
    vec = {start: Fraction(1)}
    for g in reversed(list(word)):
        nxt = {}
        for j, c in vec.items():
            if g == "f":
                nxt[j + 1] = nxt.get(j + 1, Fraction(0)) + c
            elif g == "h":
                nxt[j] = nxt.get(j, Fraction(0)) + c * (mu - 2 * j)
            elif g == "e":
                if j > 0:
                    coeff = c * Fraction(j) * (mu - j + 1)
                    nxt[j - 1] = nxt.get(j - 1, Fraction(0)) + coeff
            else:
                raise ValueError(g)
        vec = {j: c for j, c in nxt.items() if c}
    return vec


def _element_words(x: FinElement):
    letters = LETTERS[x.order]
    for mono, coeff in x.terms.items():
        word = []
        for g, exp in zip(letters, mono):
            word.extend([g] * exp)
        yield word, coeff


def _ad_power_words(x: FinElement, g: str, n: int):
    """(ad g)^n x = sum_j binom(n, j) (-1)^j g^(n-j) x g^j, word by word,
    never straightened."""
    for word, coeff in _element_words(x):
        for j in range(n + 1):
            yield [g] * (n - j) + word + [g] * j, coeff * comb(n, j) * (-1) ** j


def eval_mod_n_minus(x: FinElement, mu, ad_e=0) -> Fraction:
    """Lowest-weight evaluation at h = mu of the mod-U(g)n_- projection of
    (ad e)^ad_e x."""
    total = Fraction(0)
    for word, coeff in _ad_power_words(x, "e", ad_e):
        total += coeff * act_word_lowest_weight(word, mu).get(0, Fraction(0))
    return total


def eval_mod_n_plus(x: FinElement, mu, ad_f=0) -> Fraction:
    """Highest-weight evaluation at h = mu of the mod-U(g)n_+ projection of
    (ad f)^ad_f x."""
    total = Fraction(0)
    for word, coeff in _ad_power_words(x, "f", ad_f):
        total += coeff * act_word_highest_weight(word, mu).get(0, Fraction(0))
    return total


def brute_weight_space(delta_deg: int, alpha_wt: int):
    """Exhaustive weight-space enumeration by per-mode multiplicity choice."""
    charge = {0: -1, 1: 0, 2: 1}
    modes = [(d, r) for d in range(-delta_deg, 0) for r in (0, 1, 2)]
    found = []

    def rec(idx, remaining, ch, acc):
        if remaining == 0:
            if ch == alpha_wt:
                found.append(tuple(sorted(acc)))
            return
        if idx == len(modes):
            return
        d, r = modes[idx]
        cost = -d
        count = 0
        while count * cost <= remaining:
            rec(idx + 1, remaining - count * cost, ch + count * charge[r], acc + [(d, r)] * count)
            count += 1

    if delta_deg == 0:
        return [()] if alpha_wt == 0 else []
    rec(0, delta_deg, 0, [])
    return sorted(found)


def lagrange_fit(points):
    """Exact Lagrange interpolation; returns a callable evaluator."""
    points = [(Fraction(x), Fraction(y)) for x, y in points]

    def evaluate(x):
        x = Fraction(x)
        total = Fraction(0)
        for i, (xi, yi) in enumerate(points):
            term = yi
            for j, (xj, _) in enumerate(points):
                if i != j:
                    term *= (x - xj) / (xi - xj)
            total += term
        return total

    return evaluate
