"""Repository benchmark: service workloads, end-to-end and per-layer metrics."""
