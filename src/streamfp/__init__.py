"""streamfp: one-pass GF(2^k) fingerprints, sparse-set membership
sketches with a provable acceptance bound, and tally-set padding
machinery.

Strings are read left to right; bit i of a stream is the coefficient
of u^i inside its k-bit segment.  See the module docstrings for the
conventions each layer adds on top of that.

Importing the package loads only its version: every other name exported
here resolves on first use, through _LAZY, from the module that defines
it.  So the CLI, which imports only what its command runs, pays for no
module the command does not run, and numpy loads only with the batch
kernels (:mod:`streamfp.kernels`).
"""

import importlib

from ._version import __version__

# Each exported name, and the module that defines it.
_LAZY = {
    **dict.fromkeys((
        "DensityFn", "ENUMERATION_DEGREE_CAP", "FieldCtx", "WORD_DEGREE_CAP", "make_field",
        "select_field_size",
    ), "field"),
    **dict.fromkeys((
        "Gf2Poly", "IRREDUCIBLE_DEGREE_CAP", "find_irreducible", "is_irreducible",
    ), "gf2poly"),
    **dict.fromkeys(("eval_points", "fold_segments", "mulmod"), "kernels"),
    **dict.fromkeys(("derive_seed", "derived_rng"), "seeds"),
    **dict.fromkeys((
        "ACCEPT_BOUND", "ENTRY_CAP", "LISTED_BITS_CAP", "SparseLanguageSpec", "build_sketch",
        "exact_fp_count", "fp_rate_experiment", "make_language", "query_membership",
    ), "sketch"),
    **dict.fromkeys(("SketchSet", "contains", "load_sketch", "save_sketch"), "spsk"),
    **dict.fromkeys((
        "Fingerprint", "ResourceProfile", "SPACE_CONSTANT", "StreamState", "begin",
        "begin_seeded", "bits_from_bytes", "coefficients", "count_agreements",
        "decode_fingerprint", "decode_tuple", "direct_eval", "encode_fingerprint",
        "encode_tuple", "fingerprint", "split_segments",
    ), "stream"),
    **dict.fromkeys((
        "CAP_BITS", "GrowthFn", "OutOfRangeError", "TallyCheck", "as_tally",
        "construct_lengths", "is_padding_stable_at", "iter_exp", "iter_log", "pad",
        "pad_preserves_validity", "tally_from_json", "tally_to_json", "validate_tally",
    ), "tally"),
}

__all__ = ["__version__", *sorted(_LAZY)]


def __getattr__(name: str):
    if name in _LAZY:
        value = getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
