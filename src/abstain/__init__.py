"""Selective prediction toolkit for exported classifier outputs.

Scores instances by uncertainty (output-probability baselines,
stochastic-pass aggregators, embedding-density scorers, and rank-space
hybrids), then measures what rejecting the most uncertain units does to
risk, accuracy, or micro-F1.  Import each name from the module that
defines it, e.g. ``from abstain.density import fit_md``;
``import abstain.cli`` loads every layer.
"""

__version__ = "0.1.0"
