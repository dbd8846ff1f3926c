import os
import sys

# the self-tests import divcurl from this checkout's src/
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))
