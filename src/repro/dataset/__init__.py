"""Calibrated synthetic SPECpower corpus.

The paper analyses all 477 valid SPECpower_ssj2008 results published
through 2016Q3.  That dataset lives on spec.org and is not available in
this offline environment, so this package synthesizes a corpus with the
same statistical shape (see DESIGN.md for the substitution argument):

* :mod:`repro.dataset.curve_family` -- a closed-form three-parameter
  power-curve family whose EP, idle fraction, and peak-efficiency spot
  can be solved for exactly;
* :mod:`repro.dataset.calibration_targets` -- every count, mean, and
  pinned exemplar the paper reports, transcribed as target tables;
* :mod:`repro.dataset.synthesis` -- the generator that expands the
  targets into 477 FDR-shaped records;
* :mod:`repro.dataset.schema` -- the result record and derived metrics;
* :mod:`repro.dataset.corpus` -- the query API the analyses consume;
* :mod:`repro.dataset.fingerprint` -- stable content hashes (the
  artifact cache keys on them);
* :mod:`repro.dataset.io` -- CSV persistence.
"""

from repro.dataset.corpus import Corpus
from repro.dataset.curve_family import GridCurve, PowerCurve, solve_curve
from repro.dataset.fingerprint import corpus_fingerprint, result_fingerprint
from repro.dataset.schema import LoadLevel, SpecPowerResult
from repro.dataset.synthesis import generate_corpus
from repro.dataset.validation import validate_corpus, validate_result

__all__ = [
    "Corpus",
    "corpus_fingerprint",
    "result_fingerprint",
    "GridCurve",
    "LoadLevel",
    "PowerCurve",
    "SpecPowerResult",
    "generate_corpus",
    "solve_curve",
    "validate_corpus",
    "validate_result",
]
