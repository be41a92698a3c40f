"""Galerkin solver and verification suite for complex-valued parabolic
problems with degenerate (non-coercive) Robin boundary conditions."""
