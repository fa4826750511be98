"""Streaming analytics over case registries and sequence metadata.

The pipeline is ingest -> metrics/genomics -> report: streaming readers
decode rows into typed records, mergeable accumulators and tallies reduce
them, and the report module renders the standard tables deterministically.
``episurv.fixtures`` generates synthetic datasets whose re-aggregation
reproduces given marginal tables exactly. Import names from these
submodules; the package root holds only ``__version__``.
"""

__version__ = "0.1.0"

__all__ = ["__version__"]
