"""Dual-channel Chinese word embeddings: stroke n-grams + glyph CNN."""

__version__ = "0.1.0"
