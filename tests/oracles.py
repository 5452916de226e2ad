"""Reference implementations that the package's faster kernels are tested against."""

from fractions import Fraction

from dp4lag.exactpoly import MPoly


def substitute_linear(p: MPoly, mapping) -> MPoly:
    """``p`` composed with the affine images in ``mapping``, by `MPoly` arithmetic.

    Terms are grouped by the exponent of one variable at a time, and each
    group's inner sum is multiplied by the power of that variable's image
    once.  Every image lives over the same table, which is the result's.
    """
    names = p.vars.names
    target = next(iter(mapping.values())).vars
    powers: dict[tuple[int, int], MPoly] = {}

    def power(i: int, e: int) -> MPoly:
        if (i, e) not in powers:
            powers[(i, e)] = mapping[names[i]] ** e
        return powers[(i, e)]

    def compose(terms: list[tuple[tuple[int, ...], Fraction]], i: int) -> MPoly:
        if i == len(names):
            return MPoly.const(target, terms[0][1])  # one term left: its exponent is fixed
        groups: dict[int, list] = {}
        for term in terms:
            groups.setdefault(term[0][i], []).append(term)
        total = MPoly.zero(target)
        for e, group in groups.items():
            inner = compose(group, i + 1)
            total = total + (inner * power(i, e) if e else inner)
        return total

    return compose(list(p.terms.items()), 0)
