"""Fixture: every violation carries a matching suppression comment."""


def scale_in_place(rho, factor):
    rho *= factor  # repro: noqa[RP002] caller opts into aliasing here
    return rho


def to_ev(e):
    return e * 27.211386245988  # repro: noqa[RP004] pinned for the doc example


def remember(x, seen=[]):  # repro: noqa the shared default is the point here
    return seen + [x]
