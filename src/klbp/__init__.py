"""Exact divergence-projection checks for graphical models and circuits."""

__version__ = "0.1.0"
