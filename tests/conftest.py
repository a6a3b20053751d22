import os
import sys

sys.path.insert(0, os.path.dirname(__file__))
# the path cap comes from the environment; keep a developer's shell setting out
# of in-process results (subprocess runs get it only through ``env_extra``)
os.environ.pop("POA_MAX_PATHS", None)
