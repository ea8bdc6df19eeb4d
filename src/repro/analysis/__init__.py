"""Rendering of experiment results: the paper's tables and figure series
(:mod:`~repro.analysis.tables`, :mod:`~repro.analysis.figures`), the
Markdown report (:mod:`~repro.analysis.report`) and the claim
validation (:mod:`~repro.analysis.validation`)."""
