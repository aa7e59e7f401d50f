"""Trade-off analysis: sweeps, the §VI-B decision guide, adaptive selection."""
