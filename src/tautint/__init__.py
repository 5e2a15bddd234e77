"""Exact tautological intersection numbers on moduli of stable pointed curves.

Three mutually checking computation routes at genus 2 — a multinomial closed
form, a string/dilaton-style recursion, and a sum over boundary strata —
plus the genus-0/1 psi-integral engine they rest on.
All arithmetic is exact rational.
"""

from . import arith, identities, psi, strata
from .arith import *
from .identities import *
from .psi import *
from .strata import *

__version__ = "0.1.0"

__all__ = [name for module in (arith, psi, strata, identities) for name in module.__all__]
