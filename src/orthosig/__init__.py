"""Logarithmic signatures for finite orthogonal groups over odd-characteristic fields."""

__version__ = "0.1.0"

from .fields import FqContext, fq_context  # noqa: F401
from .matgroups import GroupDescriptor, Mat, descriptor, group_order, singer_generator  # noqa: F401
from .lscore import (  # noqa: F401
    LogSignature,
    canonical_ls,
    cyclic_set_mls,
    min_length_bound,
    parabolic_ls,
    project_ls,
    verify_ls,
)
from .factorize import rank, tame_factor, unrank  # noqa: F401
