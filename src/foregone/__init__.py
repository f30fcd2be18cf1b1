"""Deterministic simulation and bounded model checking for
verification-centric compelled-action analysis.

The package models governments, respondents, nature, verifiers, and
actions as interacting stateful machines, then mechanically decides
demonstrability, conformity, and entailment over finite families of
evidence-consistent worlds.  ``foregone.scenarios`` carries a registry
of fully assembled scenarios with their expected verdicts; the
``foregone`` command line front end lists them, runs individual checks,
and audits the whole registry.
"""
