"""Test-session set-up for tests/ and perfbench/tests/.

A test run writes no bytecode cache, here or in the child processes it
starts: a checkout that holds src/reconkit/__pycache__ starts a cold CLI
call faster than one that does not, so a cache left by the tests would
skew a later benchmark of that checkout.
"""

import os
import sys

sys.dont_write_bytecode = True
os.environ["PYTHONDONTWRITEBYTECODE"] = "1"
