"""Exact lattice arithmetic for integral invariant-cycle failure certificates.

The package verifies, with integer arithmetic only, the finite
computations behind double-cover degenerations of elliptic surfaces:
Kodaira fiber bookkeeping under quadratic base change, Shioda-Tate and
Mordell-Weil discriminant accounting, even-lattice classification in
rank two, and the specialization-index argument that turns a
discriminant mismatch into a failure certificate for the integral
invariant cycle property.
"""

__version__ = "0.1.0"
