"""Independent references the engine is checked against: code written
apart from the path it verifies, so that agreeing with it means something.
"""
