"""Independent cross-check routes the tests compare the production code with.

Nothing under ``src/`` imports from here.
"""
