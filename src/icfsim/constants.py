"""Package-wide defaults."""

# Default RNG seed used by every stochastic entry point when none is given,
# so repeated runs are reproducible out of the box.
DEFAULT_SEED = 12345

# Correlation orders that the closed forms, the scan schemes and the CLI
# serve; the expansion oracle alone goes higher.
ORDERS = (2, 3, 4)
