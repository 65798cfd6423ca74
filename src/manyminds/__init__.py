"""Many-minds dynamics over no-collapse quantum mechanics.

A small exact quantum core (states, premeasurement, branch decomposition,
Born weights) plus stochastic mind-ensemble dynamics on top of it: Born-
weighted random walks over measurement trees, EPR singlet runs with
independent-local or jointly-correlated sampling, the single-mind mismatch
("mindless hulk") demonstration, and the GHZ four-scenario analysis with its
256 intersection cells, pigeonhole bound, and universal sign-flip witnesses.
"""

__version__ = "0.1.0"

SCHEMA_VERSION = 3

ATOL = 1e-9  # default comparison tolerance
