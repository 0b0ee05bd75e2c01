"""WIRE01 fixture: tagged record declarations produce and handle their kinds."""
