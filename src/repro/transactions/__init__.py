"""Transactions, the transaction manager, and commit protocols.

The manager (:mod:`repro.transactions.manager`) consumes the protocol
generators of :mod:`repro.core`, which in turn import the lightweight
transaction model (:mod:`repro.transactions.transaction`) from here.
"""
