import os
import sys

TESTS = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(TESTS), "src")

# the suite runs from a checkout without installing: this process imports
# weylkit from src, and every Python process a test starts inherits it
sys.path[:0] = [SRC, TESTS]
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
