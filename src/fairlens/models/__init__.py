"""Classifier zoo: six model kinds, random search, AUC-based selection."""
