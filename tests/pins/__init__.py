"""The pin corpus: named rows (``cases.py``) and their digests (``pins.json``)."""
