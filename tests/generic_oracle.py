"""The generic filtration walk, called whatever the input.

``build_profile`` and ``mu_value`` take a closed form or the walk over the
y^e of ``normalize``'s coordinates when they can.  These two functions
always walk the values t.b over the products of the subschemes' own
generators, so they are the oracle of every other route.  They take the
walk from ``filtration`` itself and add no elimination of their own;
``sweep_oracle`` is the check that shares none with it.
"""

from diophkit.filtration import _filtration_walk, _walk_mu, _walk_profile


def generic_profile(Ys, t, N, with_bases=False):
    """The profile from the walk over the products of Ys's own generators,
    whether or not ``normalize`` accepts Ys."""
    return _walk_profile(_filtration_walk(Ys, t, N, None), Ys[0].nvars, N, with_bases)


def generic_mu(s, Ys, t):
    """mu from the walk over the products of Ys's own generators, whether
    or not ``normalize`` accepts Ys."""
    return _walk_mu(s, _filtration_walk(Ys, t, s.degree, None))
