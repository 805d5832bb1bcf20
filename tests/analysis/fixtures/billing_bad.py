"""Billing fixture: unbilled sends."""


def ship_unbilled(cluster, src, dst, deliver, payload):
    cluster.network.send(src, dst, deliver, payload)  # VIOLATION


def ship_unbilled_bare(network, src, dst, deliver):
    network.send(src, dst, deliver)  # VIOLATION: no nbytes=
