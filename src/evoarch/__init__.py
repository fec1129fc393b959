"""Evolutionary search over CNN architectures under a compute budget."""
