(** The routing substrate's parallel preprocessing pool.

    A thin facade over [Cr_graph.Parallel] — the deterministic domain pool
    lives in the graph layer so [Apsp] can use it, and is re-exported here
    under the name the routing and baseline layers program against. See
    [Cr_graph.Parallel] for the chunked fan-out and determinism contract;
    the short version:

    - sweeps over [0, n) are split into chunks pulled by worker domains;
    - every index is computed exactly once and written to its own slot, so
      outputs are bit-identical to a serial run regardless of scheduling;
    - per-worker scratch (e.g. a [Dijkstra.workspace]) comes from the
      [local] callback, one per domain, never shared;
    - helper domains persist across calls: reused while calls keep
      coming, they exit after about a millisecond idle and are respawned
      on the next call;
    - a call that finds the helpers taken (a nested call inside a body,
      or a concurrent call from another domain) runs inline;
    - pool width defaults to [CR_DOMAINS] (clamped to [1 .. 64]), else
      [Domain.recommended_domain_count ()]; width 1 runs inline with no
      helper. *)

include module type of Cr_graph.Parallel
