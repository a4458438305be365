"""Reference implementations the tests and benchmarks compare against."""
