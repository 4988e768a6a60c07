"""Suite-wide test settings.

Hypothesis draws its examples from a seed derived from each test, so
every run checks the same examples (derandomize also turns off the
example database, so earlier failures are not replayed out of order).
"""

from hypothesis import settings

settings.register_profile("polymap", derandomize=True)
settings.load_profile("polymap")
