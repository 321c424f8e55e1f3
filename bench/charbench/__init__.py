"""The charsum benchmark: workload generators, runners, tracing and statistics."""
