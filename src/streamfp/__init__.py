"""streamfp: one-pass GF(2^k) fingerprints, sparse-set membership
sketches with a provable acceptance bound, and tally-set padding
machinery.

Strings are read left to right; bit i of a stream is the coefficient
of u^i inside its k-bit segment.  See the module docstrings for the
conventions each layer adds on top of that.

Importing the package loads no numpy: the batch kernels
(:mod:`streamfp.kernels`) load it on first use, and the kernel and
tally names exported here resolve lazily.
"""

import importlib

from ._version import __version__
from .field import (
    ENUMERATION_DEGREE_CAP,
    WORD_DEGREE_CAP,
    FieldCtx,
    make_field,
    select_field_size,
)
from .gf2poly import (
    IRREDUCIBLE_DEGREE_CAP,
    Gf2Poly,
    ONE,
    U,
    ZERO,
    factor_smallest,
    find_irreducible,
    gcd,
    is_irreducible,
    powmod,
)
from .seeds import derive_seed, derived_rng
from .sketch import (
    ACCEPT_BOUND,
    DEFAULT_ENTRY_BUDGET,
    DensityFn,
    EntryBudgetError,
    SketchSet,
    SparseLanguageSpec,
    build_sketch,
    contains,
    exact_fp_count,
    fp_rate_experiment,
    load_sketch,
    make_language,
    query_membership,
    save_sketch,
)
from .stream import (
    Fingerprint,
    ResourceProfile,
    SPACE_CONSTANT,
    StreamState,
    begin,
    begin_seeded,
    bits_from_bytes,
    coefficients,
    count_agreements,
    decode_fingerprint,
    decode_tuple,
    direct_eval,
    encode_fingerprint,
    encode_tuple,
    fingerprint,
    split_segments,
)

__all__ = [
    "__version__",
    "ACCEPT_BOUND",
    "DEFAULT_CAP_BITS",
    "DEFAULT_ENTRY_BUDGET",
    "DensityFn",
    "ENUMERATION_DEGREE_CAP",
    "EntryBudgetError",
    "FieldCtx",
    "Fingerprint",
    "Gf2Poly",
    "GrowthFn",
    "IRREDUCIBLE_DEGREE_CAP",
    "ONE",
    "OutOfRangeError",
    "ResourceProfile",
    "SPACE_CONSTANT",
    "SketchSet",
    "SparseLanguageSpec",
    "StreamState",
    "TallyCheck",
    "U",
    "WORD_DEGREE_CAP",
    "ZERO",
    "as_tally",
    "begin",
    "begin_seeded",
    "bits_from_bytes",
    "build_sketch",
    "coefficients",
    "construct_lengths",
    "contains",
    "count_agreements",
    "decode_fingerprint",
    "decode_tuple",
    "derive_seed",
    "derived_rng",
    "direct_eval",
    "encode_fingerprint",
    "encode_tuple",
    "eval_points",
    "exact_fp_count",
    "factor_smallest",
    "find_irreducible",
    "fingerprint",
    "fold_segments",
    "fp_rate_experiment",
    "gcd",
    "is_irreducible",
    "is_padding_stable_at",
    "iter_exp",
    "iter_log",
    "load_sketch",
    "make_field",
    "make_language",
    "mulmod",
    "pad",
    "pad_preserves_validity",
    "powmod",
    "query_membership",
    "save_sketch",
    "select_field_size",
    "split_segments",
    "tally_from_json",
    "tally_to_json",
    "validate_tally",
]

_LAZY = dict.fromkeys(("eval_points", "fold_segments", "mulmod"), "kernels")
_LAZY.update(dict.fromkeys((
    "DEFAULT_CAP_BITS", "GrowthFn", "OutOfRangeError", "TallyCheck", "as_tally",
    "construct_lengths", "is_padding_stable_at", "iter_exp", "iter_log", "pad",
    "pad_preserves_validity", "tally_from_json", "tally_to_json", "validate_tally",
), "tally"))


def __getattr__(name: str):
    if name in _LAZY:
        return getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
