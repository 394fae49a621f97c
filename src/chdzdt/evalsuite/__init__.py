"""Intrinsic metrics, noise robustness, probing, composition, correlation,
and downstream decoders for word-embedding evaluation."""
