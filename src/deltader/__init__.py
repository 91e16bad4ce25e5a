"""Exact-arithmetic engine for delta-derivation spaces of graded Lie algebras
on finite index windows, with local and 2-local feasibility checks.

The package binds no names of its own: import its modules, as in
``from deltader import acceptance, algebras, operators``."""
