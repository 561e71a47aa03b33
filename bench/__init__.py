"""End-to-end and per-layer benchmark of the amplab package (see WORKLOADS.md)."""
