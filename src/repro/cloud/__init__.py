"""Simulated cloud infrastructure: servers, replication, master service."""
