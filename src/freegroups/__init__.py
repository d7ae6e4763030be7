"""Computational free-group theory: words, Stallings subgroup graphs,
Whitehead/Nielsen automorphisms, and distance-two deciders for the
ellipticity graph of free splittings."""

from . import ellipticity, stallings, whitehead, words
from .words import *
from .stallings import *
from .whitehead import *
from .ellipticity import *

__all__ = []
__all__ += words.__all__
__all__ += stallings.__all__
__all__ += whitehead.__all__
__all__ += ellipticity.__all__
