"""Replication (Rep) + compositional lumping: a server farm with spares.

N identical servers fail and grab spares from a shared pool refilled by a
depot.  The `replicate` operator builds the N anonymous copies inside one
MD level; the compositional lumping algorithm then discovers the replica
symmetry purely from the MD — the per-server state bits lump to the count
of up servers, so the lumped chain's size grows linearly instead of
exponentially in N.

Run:  python examples/replicated_server_farm.py [N]
"""

import sys

from repro.lumping import MDModel, compositional_lump
from repro.markov import steady_state
from repro.san import Activity, Case, Join, Place, SANModel, compile_join, replicate
from repro.statespace import reachable_bfs


def server_template(spares: int) -> SANModel:
    places = [Place("spares", spares, spares), Place("up", 1, 1)]

    def fail_rate(marking):
        return 0.05 if marking["up"] == 1 else 0.0

    def fail(marking):
        marking = dict(marking)
        marking["up"] = 0
        return marking

    def swap_rate(marking):
        if marking["up"] == 0 and marking["spares"] > 0:
            return 2.0
        return 0.0

    def swap(marking):
        marking = dict(marking)
        marking["up"] = 1
        marking["spares"] -= 1
        return marking

    return SANModel(
        "server",
        places,
        [
            Activity("fail", fail_rate, [Case(1.0, fail)], shared=False),
            Activity("swap", swap_rate, [Case(1.0, swap)], shared=True),
        ],
    )


def depot(spares: int) -> SANModel:
    places = [Place("spares", spares, spares), Place("repairing", 1, 0)]

    def start_rate(marking):
        return 1.0 if marking["spares"] < spares and marking["repairing"] == 0 else 0.0

    def start(marking):
        marking = dict(marking)
        marking["repairing"] = 1
        return marking

    def finish_rate(marking):
        return 0.8 if marking["repairing"] == 1 else 0.0

    def finish(marking):
        marking = dict(marking)
        marking["repairing"] = 0
        marking["spares"] = min(spares, marking["spares"] + 1)
        return marking

    return SANModel(
        "depot",
        places,
        [
            Activity("start", start_rate, [Case(1.0, start)], shared=True),
            Activity("finish", finish_rate, [Case(1.0, finish)], shared=True),
        ],
    )


def main(replicas: int = 6, spares: int = 2) -> None:
    farm = replicate(server_template(spares), replicas, shared_names=["spares"])
    join = Join([farm, depot(spares)])
    compiled = compile_join(join)
    reach = reachable_bfs(compiled.event_model)
    model = MDModel(
        compiled.event_model.to_md(),
        reachable=reach.codes,
    )
    print(f"{replicas} servers: {reach.num_states} reachable states, "
          f"farm level {model.md.level_size(2)} substates")

    result = compositional_lump(model, "ordinary")
    farm_reduction = result.reductions[1]
    print(f"farm level lumped: {farm_reduction.original_size} -> "
          f"{farm_reduction.lumped_size} (up-server counts)")
    print(f"overall: {reach.num_states} -> {len(result.lumped.reachable)}")

    # Probability that fewer than half the servers are up, from the lumped
    # chain (rewards: indicator on the lumped farm level's class labels).
    lumped = result.lumped
    pi_hat = steady_state(lumped.flat_ctmc()).distribution
    labels = lumped.md.level_labels(2)
    degraded_mass = 0.0
    for position, index in enumerate(lumped.reachable):
        state = lumped.state_tuple(index)
        label = labels[state[1]]
        members = label if isinstance(label[0], tuple) else (label,)
        up_count = sum(members[0])
        if up_count < (replicas + 1) // 2:
            degraded_mass += pi_hat[position]
    print(f"P(fewer than half the servers up) = {degraded_mass:.3e}")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 6)
