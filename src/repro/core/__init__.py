"""The paper's contribution: consistency levels, approaches, 2PV and 2PVC.

* :mod:`repro.core.consistency` — φ/ψ predicates, views (Defs 1–3, 7).
* :mod:`repro.core.trusted` — trusted/safe transaction checkers (Def. 4).
* :mod:`repro.core.context` — coordinator-side transaction state.
* :mod:`repro.core.twopv` — Two-Phase Validation (Algorithm 1).
* :mod:`repro.core.twopvc` — Two-Phase Validation Commit (Algorithm 2).
* :mod:`repro.core.approaches` — the four approaches, Deferred, Punctual,
  Incremental Punctual and Continuous (Defs 5, 6, 8, 9), and their registry.
* :mod:`repro.core.complexity` — Table I closed forms.
"""
