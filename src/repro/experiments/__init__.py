"""Experiment drivers: one module per paper table, figure or study.

The paper artifacts and the studies built on them are listed, with
runtime estimates, by ``repro list``; DESIGN.md §4 maps each one to its
driver module.  :mod:`repro.experiments.registry` is the one surface
that runs, renders and flattens them; import the driver modules
directly for their ``run_*`` functions.
"""
