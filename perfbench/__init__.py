"""End-to-end benchmark of incidence → adjacency construction and the
adjacency query service.  Run ``python3 perfbench/run.py --help``."""
