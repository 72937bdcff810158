import sys
from pathlib import Path

# An installed glaisher is tested in place of src/, added only without one.
try:
    import glaisher  # noqa: F401
except ImportError:
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
