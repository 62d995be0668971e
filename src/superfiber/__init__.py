"""Exact rational arithmetic for the curve family y^s = a*x^r + b,
its twists, and the fiber curves parameterizing members with many
rational points.  Each name is imported from the module that defines it."""

__version__ = "0.1.0"
