"""Evaluation harness: run configurations and regenerate the paper's figures.

The package re-exports nothing, so importing one submodule loads only that
submodule: ``repro.api`` imports ``costmodel`` on every run, and must not
pull in the figure tables with it.  Import what you need from its module
(``repro.harness.figures``, ``repro.harness.tables``, ...).
"""
