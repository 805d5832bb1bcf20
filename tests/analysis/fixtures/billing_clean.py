"""Billing fixture: every send billed."""


def ship_billed(cluster, src, dst, deliver, payload, cost):
    cluster.network.send(src, dst, deliver, payload, nbytes=cost)


def not_a_network_send(mailbox, message):
    # ``send`` on a non-network receiver is out of scope for the rule.
    mailbox.send(message)
