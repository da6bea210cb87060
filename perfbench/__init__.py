"""End-to-end benchmark of the CREATe paper paths (see README.md)."""
