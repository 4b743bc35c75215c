"""Exact Betti bounds for quadratic semi-algebraic sets, with a mod-2 cubical
homology engine and a verification harness that checks the bounds at desk
scale.

The package root exports only `__version__`; import the submodules
(`bounds`, `exact`, `homology`, `quadforms`, `harness`, `cli`) by name.
That keeps `quadbetti bounds`, `quadbetti ci` and `exact` from loading numpy."""

__version__ = "0.1.0"
