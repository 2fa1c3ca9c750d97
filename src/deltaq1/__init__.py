"""Exact-arithmetic expansions of the Delta operator image of e_n at q=1.

Combinatorial models (M-sequences, decorated Dyck paths and labeled
diagrams with a sign-reversing involution, listed object by object;
ordered set partition and tableau sequences, counted) are cross-checked
against an independent Macdonald eigenoperator computation, and that
against the forgotten-basis series (Haglund's identity), all over exact
integer and rational polynomial arithmetic in t.  The oracle imports
no other route's answer; ``verify`` holds every comparison.
"""

__version__ = "0.1.0"
