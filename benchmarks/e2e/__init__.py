"""End-to-end benchmark of the simulated SmartDS datapath (see README.md).

``python -m benchmarks.e2e`` runs it; importing this package runs nothing.
"""
