# Convenience targets for the Cross Binary Simulation Points reproduction.

PYTHON ?= python3

.PHONY: install test bench figures validate examples clean

install:
	$(PYTHON) -m pip install -e . --no-build-isolation

test:
	$(PYTHON) -m pytest tests/

bench:
	$(PYTHON) -m bench run

figures:
	$(PYTHON) -m repro figures

validate:
	$(PYTHON) -m repro validate

examples:
	$(PYTHON) examples/quickstart.py
	$(PYTHON) examples/custom_program.py
	$(PYTHON) examples/isa_extension_study.py
	$(PYTHON) examples/compiler_optimization_study.py
	$(PYTHON) examples/phase_bias_anatomy.py
	$(PYTHON) examples/design_space_exploration.py

clean:
	rm -rf .pytest_cache .hypothesis build dist *.egg-info src/*.egg-info pinpoints.out
	find . -name __pycache__ -type d -exec rm -rf {} +
