"""End-to-end benchmark of the EIE reproduction (see ``run.py``)."""
