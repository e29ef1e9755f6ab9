"""Equitable 2-partitions and eigenfunctions of Hamming graphs H(n, q).

The package certifies equitable partitions exactly (integer and rational
arithmetic only), builds the known families attaining the second graph
eigenvalue, classifies small ternary eigenfunctions, and enumerates
partitions by quotient matrix or eigenvalue index.  The package root
exports nothing but __version__: import from the modules.
"""

__version__ = "0.1.0"
