"""Authorization substrate: rules, credentials, policies, and proofs.

* :mod:`repro.policy.rules` — Datalog-style inference rules + proof trees.
* :mod:`repro.policy.credentials` — credentials, CAs, revocation.
* :mod:`repro.policy.ocsp` — the online status-checking service.
* :mod:`repro.policy.policy` — versioned policies per administrative domain.
* :mod:`repro.policy.store` — per-server policy stores.
* :mod:`repro.policy.admin` — policy administrators (authoritative versions).
* :mod:`repro.policy.proofs` — proof-of-authorization evaluation (``eval(f, t)``).
* :mod:`repro.policy.proofcache` — version-aware memoization of ``eval(f, t)``.
* :mod:`repro.policy.analyze` — static policy analysis + diff impact analysis.
"""
