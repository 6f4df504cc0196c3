"""The photon Monte Carlo's arrival modes and envelope shapes.

They live apart from nafl.photonsim, which needs numpy, so the command line
can offer them as choices without loading it.
"""

MODES = ("quantum", "classical", "single-slit")
ENVELOPES = ("flat", "gaussian")
