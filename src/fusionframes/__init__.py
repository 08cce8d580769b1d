"""Finite fusion frames, their duals, and erasure-optimal reconstruction.

The package is organized bottom-up:

- :mod:`fusionframes.linalg` -- subspaces, pseudoinverses, norms;
- :mod:`fusionframes.frames` -- classical finite frames;
- :mod:`fusionframes.fusion` -- weighted subspace families;
- :mod:`fusionframes.blockop` -- operators between direct sums;
- :mod:`fusionframes.duality` -- dual fusion frames via coupling operators;
- :mod:`fusionframes.systems` -- local frames, dual systems,
  reconstruction-system bridge;
- :mod:`fusionframes.erasures` -- erasure error tables and loss-optimal
  duals (mean-square closed form, worst-case minimax solver);
- :mod:`fusionframes.cli` -- the ``ff`` command-line front end.

``import fusionframes`` loads no submodule.  Each name in ``__all__`` is
imported from the module that defines it on its first access (PEP 562)
and then kept here, so ``fusionframes.canonical_dual`` loads
``duality`` and what it imports, and ``fusionframes.mse_optimal_dual``
also loads ``erasures`` and ``minimax``.
"""

import importlib

#: Each public name -> the module that defines it, as ``module`` or, for a
#: name the module defines under another one, ``module:name``.
_EXPORTS = {
    "AffineFamily": "duality",
    "BlockOp": "blockop",
    "BlockVector": "fusion",
    "ClassificationReport": "fusion",
    "ErasurePattern": "erasures",
    "ErasureReport": "erasures",
    "Frame": "frames",
    "FusionFrame": "fusion",
    "FusionFrameSystem": "systems",
    "MinimaxResult": "minimax",
    "ProjectiveRS": "systems",
    "QDualPair": "duality",
    "QKind": "duality",
    "SolverConfig": "minimax",
    "Subspace": "linalg",
    "alternate_dual_to_q_dual": "duality",
    "canonical_dual": "duality",
    "canonical_dual_frame": "frames:canonical_dual",
    "canonical_dual_ops": "systems",
    "classify_q": "duality",
    "dual_from_left_inverse": "duality",
    "dual_system_from_left_inverse_of_frame": "systems",
    "dual_system_from_left_inverse_of_fusion": "systems",
    "dual_system_iff_dual_frames": "systems",
    "error_vector": "erasures",
    "frame_bounds": "frames",
    "frobenius_norm": "linalg",
    "hierarchical_optimal": "erasures",
    "intersect": "linalg",
    "is_dual_frame": "frames",
    "is_dual_system": "systems",
    "is_q_dual": "duality",
    "left_inverses_parametrization": "duality",
    "local_error_vector": "erasures",
    "local_mse_optimal_system": "erasures",
    "local_worst_case_optimal_system": "erasures",
    "mse_optimal_dual": "erasures",
    "noncanonical_dual": "duality",
    "orth_complement_within": "linalg",
    "orthonormalize": "linalg",
    "pinv": "linalg",
    "projective_rs_bridge": "systems",
    "q_dual_residual": "duality",
    "riesz_dual_containment_check": "duality",
    "span_union": "linalg",
    "spectral_norm": "linalg",
    "worst_case_optimal_dual": "erasures",
}

__all__ = list(_EXPORTS)

__version__ = "0.1.0"


def __getattr__(name: str):
    """A public name, imported from its module at the first access and kept."""
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module, _, attr = _EXPORTS[name].partition(":")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), attr or name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
