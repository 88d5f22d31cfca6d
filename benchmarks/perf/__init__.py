"""The repository benchmark: four workloads, end-to-end metrics, and
outside-in per-layer tracing.  See README.md in this directory."""
