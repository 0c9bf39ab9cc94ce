"""Singular generalized friendship paradox toolkit."""

__version__ = "0.1.0"
