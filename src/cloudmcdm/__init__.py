"""Multi-criteria evaluation toolkit: AHP with automatic judgment-matrix repair,
entropy weighting, deviation-square-sum weight fusion, and normal cloud model
scoring with grade assignment by maximum similarity."""

__version__ = "0.1.0"
