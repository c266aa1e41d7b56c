"""renokit: corpus prep, instruction-data generation, and MCQ evaluation
for domain-adapted chat models."""

__version__ = "0.1.0"
