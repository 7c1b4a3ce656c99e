"""Semifields S_f = K[t;sigma]/K[t;sigma]f over finite fields and the
structure of their multiplicative loops: nuclei, multiplication and inner
mapping groups, automorphisms, and counting/classification reports.

The modules are the API: import `skewloop.gf`, `skewpoly`, `semifield`,
`loops`, `permgroup`, `autgroup`, `census` or `cli` and call
`<module>.<name>`; this package re-exports nothing."""

__version__ = "0.1.0"
