"""Calcium wave simulation with Markov or learned ryanodine-receptor gating.

A 1D radially symmetric two-compartment cell (cytosol annulus around an ER
core) driven by membrane fluxes, with the channel open probability supplied
by a four-state Markov model, a trained neural surrogate, or switched off.
"""

__version__ = "1.0.0"
